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

A model holds the training state it was fitted from, and the state is the
one place that derives arrays from the records. ``HeuristicTraining`` takes
one set of training records and weights and derives their columns and each
record's log10 rate when it is built. The rest it derives the first time a
model asks, and keeps in its memo: each stage's scaler and standardized
columns (stage 1 per weighted flag, stage 2 once) for the neighbor models,
and for the interpolators the stage-1 axis per weighted flag and each
record's decade.
``fit_heuristic`` builds a state for its one kind; a model comparison hands
the first heuristic's state to ``models.fit_named_model`` for every heuristic
after it, so this per-dataset work is done once per comparison, not once per
model, and the interpolators never fit a scaler.

A request's query goes through the same feature functions as the training
columns, on its four rates and log10 target as Python floats, so a query that
repeats a training record gets that record's features bit for bit. A neighbor
query makes one distance pass over the training columns, adding squared
differences column by column in feature order, which is numpy's row-sum
order, and takes the ``IDW_NEIGHBORS`` nearest rows from a partition instead
of a full sort, in (distance, index) order. Range search answers from the
first of those rows, the lowest-index nearest row that ``argmin`` picks;
multivariate interpolation weighs all of them. So predictions are those of
the plain per-request computation, bit for bit.

The state memoises answered queries, since the models of one comparison ask
the same ones again and again. A neighbor query's nearest rows and distances
are kept under (stage, the weighted flag in stage 1 or None in stage 2, the
standardized query): that names the columns they were computed from, so the
range search and multivariate models of one flag share stage 1, and all four
neighbor models share stage 2. An interpolator's stage-2 answer is kept under
(method, log10 target, rounded distance), the only inputs of a stage that
reads the distance axis, the rounds and the decades, which both flags share.
The aggregated points of a decade selection are kept under ("pairs", stage,
the weighted flag in stage 1 or None in stage 2, the decades). A hit returns
what a miss computes, so every answer keeps its bits, and every array in it
is read-only. The memo holds at most ``MEMO_ENTRIES`` entries and is emptied
when full, so a long-lived model cannot grow it without limit; an emptied
derived array is derived again, bit for bit, when next asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    RAW_FLOOR,
    Dataset,
    HeuristicWeights,
    PredictionRequest,
    PredictionResult,
    ValidationError,
    round_distance,
)
from .oracle import OracleConfig, check_below_threshold

HEURISTIC_METHODS = ("range_search", "linear_interp", "poly_interp", "multivariate_interp")
# Methods that search the standardized feature space; the others interpolate
# along a 1-D axis.
NEIGHBOR_METHODS = ("range_search", "multivariate_interp")

IDW_NEIGHBORS = 8
IDW_POWER = 2.0
# The most entries a training state memoises; the memo is emptied when full.
# A neighbor entry (its key, and IDW_NEIGHBORS rows and distances) takes
# about 0.8 KB, so a full memo holds about 3.5 MB.
MEMO_ENTRIES = 4096


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


def _nearest(columns, query) -> tuple[np.ndarray, np.ndarray]:
    """The ``IDW_NEIGHBORS`` training points nearest ``query`` (all of them
    when fewer) and their distances, in (distance, index) order: what either
    neighbor method needs of a query."""
    distances = _distances(columns, query)
    rows = _k_nearest(distances, min(IDW_NEIGHBORS, distances.shape[0]))
    return rows, distances[rows]


def _neighbor_label(method: str, labels: np.ndarray, rows: np.ndarray,
                    distances: np.ndarray) -> float:
    """A neighbor method's answer from the nearest ``rows`` and their
    ``distances``, as ``_nearest`` orders them.

    Range search takes the first row's label. The (distance, index) order puts
    the lowest index first among equal distances, so that is the row
    ``argmin`` picks. Multivariate interpolation takes it too on an exact
    match, and otherwise the inverse-distance-weighted mean of the labels.
    """
    if method == "range_search" or distances[0] == 0.0:
        return float(labels[rows[0]])
    weights = 1.0 / distances ** IDW_POWER
    return float(np.dot(weights, labels[rows]) / weights.sum())


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
    fewer than three distinct abscissae are among them, two points included."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValidationError("poly_interp needs at least two (x, y) points")
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


def _read_only(answer):
    """``answer``, with every array in it, at any depth of tuples, made
    read-only."""
    if isinstance(answer, np.ndarray):
        answer.flags.writeable = False
    elif isinstance(answer, tuple):
        for part in answer:
            _read_only(part)
    return answer


def _standardized_columns(columns, scaler: Standardizer) -> tuple:
    # A training column comes out as a fresh contiguous array, a float as a float.
    return tuple((column - mean) / scale
                 for column, mean, scale in zip(columns, scaler.mean, scaler.scale))


@dataclass(frozen=True)
class HeuristicTraining:
    """The state every heuristic fit derives from one set of training records
    and weights, and the one place that derives arrays from them: the
    records' columns, read-only and shared by the models fitted from it, and
    each record's log10 rate, at construction; each stage's scaler and
    standardized columns, the interpolators' stage-1 axes and the records'
    decades, each the first time a model asks. ``recall`` keeps these and
    the models' answers to repeated queries in one bounded memo, and makes
    every array it hands out read-only. Two states are equal when their
    records and weights are; the rest derives from them."""

    records: Dataset
    weights: HeuristicWeights
    # (n, 4): depolarizing, gate, reset, readout; then each record's log10
    # rate, distance and rounds, (n,) each.
    noise: np.ndarray = field(init=False, compare=False)
    log_ler: np.ndarray = field(init=False, compare=False)
    distance: np.ndarray = field(init=False, compare=False)
    rounds: np.ndarray = field(init=False, compare=False)
    # Query key -> answer, at most MEMO_ENTRIES of them; see ``recall``.
    _memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        records = self.records
        if not records:
            raise ValidationError("cannot fit a heuristic on an empty training set")
        # math.log10, not np.log10: the two differ in the last bit on some rates.
        log_ler = np.asarray([math.log10(v) for v in records.logical_error_rate.tolist()])
        for name, column in (("noise", records.noise()), ("log_ler", log_ler),
                             ("distance", records.distance.astype(np.float64)),
                             ("rounds", records.rounds.astype(np.float64))):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "_memo", {})

    def labels(self, stage: int) -> np.ndarray:
        """What stage ``stage`` predicts: the distance (0), then the rounds."""
        return self.rounds if stage else self.distance

    def standardized(self, stage: int, weighted: bool) -> tuple[Standardizer, tuple]:
        """The scaler and standardized training columns of stage ``stage``:
        stage 1's under the ``weighted`` flag, stage 2's shared by both."""

        def fit():
            columns = ((self.distance, self.log_ler) if stage else
                       _stage1_columns(weighted, self.weights, self.noise.T, self.log_ler))
            scaler = Standardizer.fit(np.column_stack(columns))
            return scaler, _standardized_columns(columns, scaler)

        return self.recall(("standardized", None if stage else weighted), fit)

    def axis(self, stage: int, weighted: bool) -> np.ndarray:
        """The interpolators' axis of stage ``stage``: stage 1's under the
        ``weighted`` flag, the distance in stage 2."""
        if stage:
            return self.distance
        return self.recall(("axis", weighted),
                           lambda: _stage1_axis(weighted, self.weights, self.noise.T))

    def decades(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """Each record's rint(log10 rate), and the distinct decades."""

        def derive():
            decades = np.rint(self.log_ler).astype(np.int64)
            return decades, tuple(np.unique(decades).tolist())

        return self.recall(("decades",), derive)

    def recall(self, key: tuple, compute):
        """The answer memoised under ``key``; on a miss, ``compute()``'s,
        with every array in it made read-only, memoised. A key must name
        everything its answer depends on beyond this state. The memo is
        emptied when it holds ``MEMO_ENTRIES`` answers."""
        memo = self._memo
        answer = memo.get(key)
        if answer is None:
            answer = _read_only(compute())
            if len(memo) >= MEMO_ENTRIES:
                memo.clear()
            memo[key] = answer
        return answer


@dataclass(frozen=True)
class HeuristicModel:
    """A fitted two-stage heuristic: its kind, its oracle and the training
    state it was fitted from.

    A request reads the kind's arrays from ``training``, which derives each
    once for every model that shares it: the two stages' scalers and
    standardized feature columns (range search, multivariate), or the 1-D
    axes and record decades (linear, polynomial), which need no scaler. A
    saved model stores ``training.records`` and none of these arrays.
    """

    kind: HeuristicKind
    oracle: OracleConfig
    training: HeuristicTraining

    # -- decade filtering for the 1-D interpolators ------------------------

    def _decade_pairs(self, stage: int, chosen: list[int]) -> np.ndarray:
        """(x, mean y) over the stage's records in the chosen decades, with
        duplicate abscissae aggregated by mean so interpolation stays defined.
        Both interpolators of a weighted flag share stage 1's axis and labels,
        and all four share stage 2's, so the state memoises the pairs."""
        training = self.training

        def aggregate():
            axis, labels = training.axis(stage, self.kind.weighted), training.labels(stage)
            mask = np.isin(training.decades()[0], chosen)
            unique_x, inverse = np.unique(axis[mask], return_inverse=True)
            sums = np.zeros(unique_x.size)
            counts = np.zeros(unique_x.size)
            np.add.at(sums, inverse, labels[mask])
            np.add.at(counts, inverse, 1.0)
            return np.column_stack([unique_x, sums / counts])

        flag = self.kind.weighted if stage == 0 else None
        return training.recall(("pairs", stage, flag, tuple(sorted(chosen))), aggregate)

    def _interp_1d(self, stage: int, log_target: float, x_query: float) -> float:
        """Interpolate over the decades nearest the target, widening until
        enough distinct abscissae exist (or every decade is in)."""
        need = 3 if self.kind.method == "poly_interp" else 2
        by_closeness = sorted(self.training.decades()[1],
                              key=lambda d: (abs(d - log_target), d))
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

    def _neighbor_raw(self, stage: int, columns) -> float:
        # Stage 1's scaler and columns are those of the kind's weighted flag;
        # stage 2's are shared by both flags.
        training = self.training
        scaler, standardized = training.standardized(stage, self.kind.weighted)
        query = _standardized_columns(columns, scaler)
        key = (stage, self.kind.weighted if stage == 0 else None, query)
        rows, distances = training.recall(key, lambda: _nearest(standardized, query))
        return _neighbor_label(self.kind.method, training.labels(stage), rows, distances)

    def _stage1_raw(self, rates: tuple[float, ...], log_target: float) -> float:
        weighted, weights = self.kind.weighted, self.training.weights
        if self.kind.method in NEIGHBOR_METHODS:
            return self._neighbor_raw(0, _stage1_columns(weighted, weights, rates, log_target))
        return self._interp_1d(0, log_target, _stage1_axis(weighted, weights, rates))

    def _stage2_raw(self, rounded_distance: int, log_target: float) -> float:
        if self.kind.method in NEIGHBOR_METHODS:
            return self._neighbor_raw(1, (float(rounded_distance), log_target))
        # Both flags of a method share the stage-2 axis, labels and decades.
        return self.training.recall(
            (self.kind.method, log_target, rounded_distance),
            lambda: self._interp_1d(1, log_target, float(rounded_distance)))

    def predict_result(self, request: PredictionRequest) -> PredictionResult:
        check_below_threshold(request.noise, self.oracle)
        log_target = math.log10(request.target_logical_error_rate)
        raw_distance = max(self._stage1_raw(request.noise.as_tuple(), log_target), RAW_FLOOR)
        raw_rounds = max(self._stage2_raw(round_distance(raw_distance), log_target), RAW_FLOOR)
        return PredictionResult(raw_distance=float(raw_distance), raw_rounds=float(raw_rounds))

    def predict_many(self, requests: list[PredictionRequest]) -> list[PredictionResult]:
        """One ``predict_result`` call per request."""
        return [self.predict_result(request) for request in requests]


def fit_heuristic(records: Dataset, kind: HeuristicKind,
                  weights: HeuristicWeights = HeuristicWeights(),
                  oracle: OracleConfig = OracleConfig()) -> HeuristicModel:
    """Fit a ``kind`` heuristic over ``records`` under ``weights``."""
    return HeuristicModel(kind, oracle, HeuristicTraining(records, weights))
