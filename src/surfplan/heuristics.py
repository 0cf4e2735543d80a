"""Instance-based baseline predictors built directly on swept records.

Each heuristic treats the dataset as inverse samples: a record's noise rates
and achieved logical error rate are the features, its distance and rounds are
the labels. Predictions run in two stages, distance first, then rounds from
the rounded distance and the target rate.

Weighted variants collapse the four error rates into one scalar feature via
HeuristicWeights; non-weighted variants keep the rates separate. Features are
standardized to training mean/variance before any Euclidean distance is
computed, and targets enter as log10 so neighbor distances stay meaningful
across many decades.

The one-dimensional interpolators (linear, polynomial) need an ordering axis:
stage one uses the scalarized error (weighted) or the Euclidean norm of the
error vector (non-weighted), stage two uses the distance, and in both stages
the training records are filtered to the decade of achieved error rate nearest
the requested target (widening to neighboring decades until enough distinct
abscissae exist). Duplicate abscissae are aggregated by mean before
interpolating.

Fitting has two parts. ``derive_training`` derives what every kind takes
from one set of training records and weights: their columns, each record's
log10 rate, the stage-2 scaler and the stage-1 scaler of each weighted flag.
``fit_heuristic`` then builds a model of one kind from that state. A single
fit derives it for its one kind; a model comparison derives it once for all
eight kinds, so this per-dataset work is done once per comparison, not once
per model.

A fitted model derives its own state once, when it is built or loaded:
the standardized training features of both stages as one contiguous column
per feature, or, for the interpolators, both stages' axes and each record's
decade. A request's query goes through the same feature functions as the
training columns, on its four rates and log10 target as Python floats, so a
query that repeats a training record gets that record's features bit for
bit. The request then makes one distance pass over the training columns,
adding squared differences column by column in feature order, which is
numpy's row-sum order; the interpolators look up the aggregated pairs of a
decade selection, memoised per model. The k nearest neighbors come from a
partition instead of a full sort. Ties still go to the lower record index,
so predictions are those of the plain per-request computation, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    RAW_FLOOR,
    Dataset,
    HeuristicWeights,
    PredictionRequest,
    PredictionResult,
    ValidationError,
    round_distance,
    round_rounds,
)
from .oracle import OracleConfig, check_below_threshold

HEURISTIC_METHODS = ("range_search", "linear_interp", "poly_interp", "multivariate_interp")
# Methods that search the standardized feature space; the others interpolate
# along a 1-D axis.
NEIGHBOR_METHODS = ("range_search", "multivariate_interp")

IDW_NEIGHBORS = 8
IDW_POWER = 2.0


@dataclass(frozen=True)
class HeuristicKind:
    """One of the four methods crossed with the weighted/non-weighted variant."""

    method: str
    weighted: bool

    def __post_init__(self):
        if self.method not in HEURISTIC_METHODS:
            raise ValidationError(
                f"unknown heuristic method {self.method!r}; expected one of {HEURISTIC_METHODS}")

    @property
    def label(self) -> str:
        return f"{self.method}_{'w' if self.weighted else 'n_w'}"

    @classmethod
    def parse(cls, text: str) -> "HeuristicKind":
        if not isinstance(text, str):
            raise ValidationError(f"heuristic kind must be a string, got {text!r}")
        if text.endswith("_n_w"):
            return cls(method=text[:-4], weighted=False)
        if text.endswith("_w"):
            return cls(method=text[:-2], weighted=True)
        raise ValidationError(
            f"heuristic kind {text!r} must end in '_w' or '_n_w'")


def all_kinds() -> list[HeuristicKind]:
    return [HeuristicKind(method, weighted)
            for method in HEURISTIC_METHODS for weighted in (True, False)]


@dataclass(frozen=True)
class Standardizer:
    """Frozen per-feature mean and scale; zero-variance features keep scale 1."""

    mean: tuple[float, ...]
    scale: tuple[float, ...]

    @classmethod
    def fit(cls, features: np.ndarray) -> "Standardizer":
        mean = features.mean(axis=0)
        scale = features.std(axis=0)
        scale = np.where(scale == 0.0, 1.0, scale)
        return cls(mean=tuple(float(v) for v in mean),
                   scale=tuple(float(v) for v in scale))


def _distances(columns, query) -> np.ndarray:
    """Euclidean distance from every training point to ``query``.

    ``columns`` holds one array per feature. The squared differences are added
    column by column in feature order, the order in which numpy sums a row of
    fewer than eight features, so the result equals
    ``np.sqrt(((features - query) ** 2).sum(axis=1))`` bit for bit.
    """
    total = (columns[0] - query[0]) ** 2
    for column, value in zip(columns[1:], query[1:]):
        total += (column - value) ** 2
    return np.sqrt(total)


def _k_nearest(distances: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest distances, ordered by (distance, index).

    Equal to the first k entries of a full lexsort: only the candidates at or
    below the k-th smallest distance are sorted. When k covers every point or
    the k-th distance is not finite, the full lexsort is used.
    """
    n = distances.shape[0]
    if k < n:
        kth = np.partition(distances, k - 1)[k - 1]
        if np.isfinite(kth):
            candidates = np.flatnonzero(distances <= kth)
            return candidates[np.lexsort((candidates, distances[candidates]))][:k]
    return np.lexsort((np.arange(n), distances))[:k]


def _nearest_label(columns, labels: np.ndarray, query) -> float:
    return float(labels[int(np.argmin(_distances(columns, query)))])


def _idw(columns, labels: np.ndarray, query, k: int, power: float) -> float:
    distances = _distances(columns, query)
    order = _k_nearest(distances, min(k, distances.shape[0]))
    # The (distance, index) order puts the lowest-index exact match first.
    if distances[order[0]] == 0.0:
        return float(labels[order[0]])
    weights = 1.0 / distances[order] ** power
    return float(np.dot(weights, labels[order]) / weights.sum())


def _nearest_order(xs: np.ndarray, x: float) -> np.ndarray:
    # Sort by |dx| with the original index as tie-break.
    return np.lexsort((np.arange(len(xs)), np.abs(xs - x)))


def linear_interp(points, x: float) -> float:
    """Line through the two nearest points, evaluated (or extrapolated) at x.

    The second point is the nearest one with a different abscissa; when every
    candidate shares the first point's abscissa the interpolation is
    degenerate and an error is raised.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValidationError("linear_interp needs at least two (x, y) points")
    xs, ys = pts[:, 0], pts[:, 1]
    order = _nearest_order(xs, x)
    x1, y1 = xs[order[0]], ys[order[0]]
    for idx in order[1:]:
        if xs[idx] != x1:
            x2, y2 = xs[idx], ys[idx]
            return float(y1 + (x - x1) * (y2 - y1) / (x2 - x1))
    raise ValidationError("degenerate abscissa: the nearest points share one x value")


def poly_interp(points, x: float) -> float:
    """Quadratic through the three nearest points; falls back to linear when
    the abscissae repeat or only two points exist."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValidationError("poly_interp needs at least two (x, y) points")
    if pts.shape[0] == 2:
        return linear_interp(pts, x)
    xs, ys = pts[:, 0], pts[:, 1]
    order = _nearest_order(xs, x)[:3]
    x3, y3 = xs[order], ys[order]
    if len(set(x3.tolist())) < 3:
        return linear_interp(pts, x)
    vandermonde = np.vander(x3, 3)
    try:
        coeffs = np.linalg.solve(vandermonde, y3)
    except np.linalg.LinAlgError:
        return linear_interp(pts, x)
    return float(np.polyval(coeffs, x))


# The feature functions below take the four rates (depolarizing, gate, reset,
# readout) either as the training columns, ``noise.T``, or as one request's
# four floats. Both forms go through the same expressions in the same order,
# so a query that repeats a training record gets that record's bits. A query
# stays on Python floats: a ufunc call on a one-element array costs about a
# microsecond, more than the float arithmetic it replaces.

def _scalarized(weights: HeuristicWeights, rates):
    """Weighted sum of the four rates: one aggregated error feature."""
    depolarizing, gate, reset, readout = rates
    return (weights.w_gate * gate + weights.w_depol * depolarizing
            + weights.w_readout * readout + weights.w_reset * reset)


def _stage1_axis(weighted: bool, weights: HeuristicWeights, rates):
    """The interpolators' stage-1 axis: the scalarized error (weighted) or the
    Euclidean norm of the four rates."""
    if weighted:
        return _scalarized(weights, rates)
    depolarizing, gate, reset, readout = rates
    total = depolarizing * depolarizing + gate * gate + reset * reset + readout * readout
    return np.sqrt(total) if isinstance(total, np.ndarray) else math.sqrt(total)


def _stage1_columns(weighted: bool, weights: HeuristicWeights, rates, log_ler) -> list:
    """Stage-1 features: the scalarized error (weighted) or the four rates,
    then the log10 rate."""
    return ([_scalarized(weights, rates)] if weighted else list(rates)) + [log_ler]


def _standardized_columns(columns, scaler: Standardizer) -> tuple:
    # A training column comes out as a fresh contiguous array, a float as a float.
    return tuple((column - mean) / scale
                 for column, mean, scale in zip(columns, scaler.mean, scaler.scale))


@dataclass(frozen=True)
class HeuristicModel:
    """A fitted two-stage heuristic; training records are embedded verbatim.

    ``__post_init__`` derives the per-stage training state once, so fitting
    and loading pay for it and a request does not: the standardized feature
    columns (range search, multivariate) or the 1-D axes and record decades
    (linear, polynomial). None of it is serialized. Scalers whose standardized
    columns, or squared spreads of them, are not finite are rejected.
    """

    kind: HeuristicKind
    weights: HeuristicWeights
    oracle: OracleConfig
    noise: np.ndarray          # (n, 4): depolarizing, gate, reset, readout
    log_ler: np.ndarray        # (n,) log10 of each record's achieved rate
    distance: np.ndarray       # (n,)
    rounds: np.ndarray         # (n,)
    stage1_scaler: Standardizer
    stage2_scaler: Standardizer

    # Per stage: (training inputs, labels). The inputs are the standardized
    # feature columns for the neighbor methods and the 1-D axis for the
    # interpolators.
    _stages: tuple = field(init=False, repr=False, compare=False)
    # Interpolators only: each record's rint(log10 rate), the distinct
    # decades, and the aggregated (x, mean y) pairs per (stage, decades).
    _decades: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    _decade_values: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _pairs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        distance = np.asarray(self.distance, dtype=np.float64)
        rounds = np.asarray(self.rounds, dtype=np.float64)
        rates = self.noise.T
        decades, decade_values = None, ()
        # A scale far below the data's spread (a model file can hold 1e-160)
        # would overflow every squared distance to inf.
        with np.errstate(over="ignore", invalid="ignore"):
            standardized = (
                _standardized_columns(
                    _stage1_columns(self.kind.weighted, self.weights, rates, self.log_ler),
                    self.stage1_scaler),
                _standardized_columns((distance, self.log_ler), self.stage2_scaler))
            for stage, columns in enumerate(standardized, 1):
                for column in columns:
                    spread = column.max() - column.min()
                    if not (np.isfinite(column).all() and np.isfinite(spread * spread)):
                        raise ValidationError(
                            f"stage{stage}_scaler scales overflow the standardized "
                            "training features")
        if self.kind.method in NEIGHBOR_METHODS:
            stage1, stage2 = standardized
        else:
            stage1 = _stage1_axis(self.kind.weighted, self.weights, rates)
            stage2 = distance
            decades = np.rint(self.log_ler).astype(np.int64)
            decade_values = tuple(np.unique(decades).tolist())
        derive = object.__setattr__
        derive(self, "_stages", ((stage1, distance), (stage2, rounds)))
        derive(self, "_decades", decades)
        derive(self, "_decade_values", decade_values)
        derive(self, "_pairs", {})

    # -- decade filtering for the 1-D interpolators ------------------------

    def _decade_pairs(self, stage: int, chosen: list[int]) -> np.ndarray:
        """(x, mean y) over the stage's records in the chosen decades, with
        duplicate abscissae aggregated by mean so interpolation stays defined."""
        key = (stage, tuple(sorted(chosen)))
        pairs = self._pairs.get(key)
        if pairs is None:
            axis, labels = self._stages[stage]
            mask = np.isin(self._decades, chosen)
            unique_x, inverse = np.unique(axis[mask], return_inverse=True)
            sums = np.zeros(unique_x.size)
            counts = np.zeros(unique_x.size)
            np.add.at(sums, inverse, labels[mask])
            np.add.at(counts, inverse, 1.0)
            pairs = np.column_stack([unique_x, sums / counts])
            pairs.flags.writeable = False
            self._pairs[key] = pairs
        return pairs

    def _interp_1d(self, stage: int, log_target: float, x_query: float) -> float:
        """Interpolate over the decades nearest the target, widening until
        enough distinct abscissae exist (or every decade is in)."""
        need = 3 if self.kind.method == "poly_interp" else 2
        by_closeness = sorted(self._decade_values, key=lambda d: (abs(d - log_target), d))
        chosen: list[int] = []
        for decade in by_closeness:
            chosen.append(decade)
            pairs = self._decade_pairs(stage, chosen)
            if pairs.shape[0] >= need:
                break
        if pairs.shape[0] == 1:
            return float(pairs[0, 1])
        if self.kind.method == "poly_interp":
            return poly_interp(pairs, x_query)
        return linear_interp(pairs, x_query)

    # -- prediction ---------------------------------------------------------

    def _neighbor_raw(self, stage: int, query: tuple[float, ...]) -> float:
        columns, labels = self._stages[stage]
        if self.kind.method == "range_search":
            return _nearest_label(columns, labels, query)
        return _idw(columns, labels, query, IDW_NEIGHBORS, IDW_POWER)

    def _stage1_raw(self, rates: tuple[float, ...], log_target: float) -> float:
        weighted, weights = self.kind.weighted, self.weights
        if self.kind.method in NEIGHBOR_METHODS:
            return self._neighbor_raw(0, _standardized_columns(
                _stage1_columns(weighted, weights, rates, log_target), self.stage1_scaler))
        return self._interp_1d(0, log_target, _stage1_axis(weighted, weights, rates))

    def _stage2_raw(self, rounded_distance: int, log_target: float) -> float:
        if self.kind.method in NEIGHBOR_METHODS:
            return self._neighbor_raw(1, _standardized_columns(
                (float(rounded_distance), log_target), self.stage2_scaler))
        return self._interp_1d(1, log_target, float(rounded_distance))

    def predict_result(self, request: PredictionRequest) -> PredictionResult:
        check_below_threshold(request.noise, self.oracle)
        log_target = math.log10(request.target_logical_error_rate)
        raw_distance = max(self._stage1_raw(request.noise.as_tuple(), log_target), RAW_FLOOR)
        rounded_distance = round_distance(raw_distance)
        raw_rounds = max(self._stage2_raw(rounded_distance, log_target), RAW_FLOOR)
        return PredictionResult(
            raw_distance=float(raw_distance),
            rounded_distance=rounded_distance,
            raw_rounds=float(raw_rounds),
            rounded_rounds=round_rounds(raw_rounds),
        )

    def predict_many(self, requests: list[PredictionRequest]) -> list[PredictionResult]:
        """One ``predict_result`` call per request."""
        return [self.predict_result(request) for request in requests]


@dataclass(frozen=True)
class HeuristicTraining:
    """The state every heuristic fit derives from one set of training records
    and weights: the records' columns, read-only and shared by the models
    fitted from it, each record's log10 rate, the stage-2 scaler, and the
    stage-1 scaler of each weighted flag it was derived for."""

    weights: HeuristicWeights
    noise: np.ndarray
    log_ler: np.ndarray
    distance: np.ndarray
    rounds: np.ndarray
    stage1_scalers: dict       # weighted flag -> Standardizer
    stage2_scaler: Standardizer


def derive_training(records: Dataset, weights: HeuristicWeights,
                    kinds) -> HeuristicTraining:
    """The training state of ``records`` under ``weights``, with a stage-1
    scaler for each weighted flag among ``kinds``."""
    if not records:
        raise ValidationError("cannot fit a heuristic on an empty training set")
    noise = records.noise()
    # math.log10, not np.log10: the two differ in the last bit on some rates.
    log_ler = np.asarray([math.log10(v) for v in records.logical_error_rate.tolist()])
    distance = records.distance.astype(np.float64)
    rounds = records.rounds.astype(np.float64)
    for column in (noise, log_ler, distance, rounds):
        column.flags.writeable = False
    return HeuristicTraining(
        weights=weights, noise=noise, log_ler=log_ler, distance=distance, rounds=rounds,
        stage1_scalers={
            weighted: Standardizer.fit(
                np.column_stack(_stage1_columns(weighted, weights, noise.T, log_ler)))
            for weighted in sorted({kind.weighted for kind in kinds})},
        stage2_scaler=Standardizer.fit(np.column_stack([distance, log_ler])),
    )


def fit_heuristic(records: Dataset | HeuristicTraining, kind: HeuristicKind,
                  weights: HeuristicWeights = HeuristicWeights(),
                  oracle: OracleConfig = OracleConfig()) -> HeuristicModel:
    """Freeze the training records and standardization stats into a model.

    ``records`` may also be their training state, derived for ``kind`` under
    ``weights``; ``evaluate.compare_models`` derives it once for every
    heuristic it compares.
    """
    training = (records if isinstance(records, HeuristicTraining)
                else derive_training(records, weights, (kind,)))
    if training.weights != weights or kind.weighted not in training.stage1_scalers:
        raise ValidationError(
            f"the training state was not derived for {kind.label} with these weights")
    return HeuristicModel(
        kind=kind, weights=weights, oracle=oracle,
        noise=training.noise, log_ler=training.log_ler,
        distance=training.distance, rounds=training.rounds,
        stage1_scaler=training.stage1_scalers[kind.weighted],
        stage2_scaler=training.stage2_scaler,
    )
