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

A fitted model derives its training state once, when it is built or loaded:
the standardized training features of both stages as one contiguous column
per feature, or, for the interpolators, both stages' axes and each record's
decade. A request then standardizes only the query and makes one distance
pass over the training columns, adding squared differences column by column
in feature order, which is numpy's row-sum order; the interpolators look up
the aggregated pairs of a decade selection, memoised per model. The k nearest
neighbors come from a partition instead of a full sort. Ties still go to the
lower record index, so predictions are those of the plain per-request
computation, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    RAW_FLOOR,
    DatasetRecord,
    HeuristicWeights,
    NoiseProfile,
    PredictionRequest,
    PredictionResult,
    ValidationError,
    round_distance,
    round_rounds,
    scalarize,
)
from .oracle import AboveThresholdError, OracleConfig, effective_error

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

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (features - np.asarray(self.mean)) / np.asarray(self.scale)


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


def _nearest_label(columns, labels: np.ndarray, query: np.ndarray) -> float:
    return float(labels[int(np.argmin(_distances(columns, query)))])


def _idw(columns, labels: np.ndarray, query: np.ndarray, k: int, power: float) -> float:
    distances = _distances(columns, query)
    exact = np.flatnonzero(distances == 0.0)
    if exact.size:
        return float(labels[exact[0]])
    order = _k_nearest(distances, min(k, distances.shape[0]))
    weights = 1.0 / distances[order] ** power
    return float(np.dot(weights, labels[order]) / weights.sum())


def _training_columns(features, labels, query, name: str):
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features.reshape(-1, 1)
    if features.shape[0] == 0:
        raise ValidationError(f"{name} needs a non-empty training set")
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    if features.shape[1] == 0 or query.shape[0] != features.shape[1]:
        raise ValidationError(
            f"{name} query has {query.shape[0]} features, training points have "
            f"{features.shape[1]}")
    return tuple(features.T), np.asarray(labels, dtype=np.float64), query


def range_search(features, labels, query) -> float:
    """Label of the training point nearest the query; index breaks ties."""
    return _nearest_label(*_training_columns(features, labels, query, "range_search"))


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


def multivariate_interp(features, labels, query,
                        k: int = IDW_NEIGHBORS, power: float = IDW_POWER) -> float:
    """Inverse-distance-weighted mean over the k nearest training points.

    An exact feature match returns that point's label directly.
    """
    if k < 1:
        raise ValidationError(f"multivariate_interp needs k >= 1, got {k}")
    columns, labels, query = _training_columns(features, labels, query,
                                               "multivariate_interp")
    return _idw(columns, labels, query, k, power)


def _scalarized(weights: HeuristicWeights, noise: np.ndarray) -> np.ndarray:
    # Same term order as core.scalarize so an exact-match query produces
    # bit-identical features.
    return (weights.w_gate * noise[:, 1]
            + weights.w_depol * noise[:, 0]
            + weights.w_readout * noise[:, 3]
            + weights.w_reset * noise[:, 2])


def _stage1_columns(weighted: bool, weights: HeuristicWeights,
                    noise: np.ndarray, log_ler: np.ndarray) -> list[np.ndarray]:
    """Stage-1 features: the scalarized error (weighted) or the four rates,
    then the log10 rate."""
    rates = [_scalarized(weights, noise)] if weighted else list(noise.T)
    return rates + [log_ler]


def _standardized_columns(columns, scaler: Standardizer) -> tuple[np.ndarray, ...]:
    # Column by column, the arithmetic of Standardizer.transform without its
    # (n, features) temporaries; each result is a fresh contiguous array.
    return tuple((np.asarray(column, dtype=np.float64) - mean) / scale
                 for column, mean, scale in zip(columns, scaler.mean, scaler.scale))


@dataclass(frozen=True)
class HeuristicModel:
    """A fitted two-stage heuristic; training records are embedded verbatim.

    ``__post_init__`` derives the per-stage training state once, so fitting
    and loading pay for it and a request does not: the standardized feature
    columns (range search, multivariate) or the 1-D axes and record decades
    (linear, polynomial). None of it is serialized.
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
        decades, decade_values = None, ()
        if self.kind.method in NEIGHBOR_METHODS:
            stage1 = _standardized_columns(
                _stage1_columns(self.kind.weighted, self.weights, self.noise, self.log_ler),
                self.stage1_scaler)
            stage2 = _standardized_columns([self.distance, self.log_ler], self.stage2_scaler)
        else:
            stage1 = (_scalarized(self.weights, self.noise) if self.kind.weighted
                      else np.sqrt((self.noise ** 2).sum(axis=1)))
            stage2 = distance
            decades = np.rint(self.log_ler).astype(np.int64)
            decade_values = tuple(np.unique(decades).tolist())
        derive = object.__setattr__
        derive(self, "_stages", ((stage1, distance), (stage2, rounds)))
        derive(self, "_decades", decades)
        derive(self, "_decade_values", decade_values)
        derive(self, "_pairs", {})

    # -- queries ------------------------------------------------------------

    def _stage1_query(self, request: PredictionRequest) -> np.ndarray:
        profile = request.noise
        log_target = math.log10(request.target_logical_error_rate)
        if self.kind.weighted:
            return np.asarray([scalarize(profile, self.weights), log_target])
        return np.asarray([profile.depolarizing, profile.gate, profile.reset,
                           profile.readout, log_target])

    def _stage1_axis_query(self, profile: NoiseProfile) -> float:
        if self.kind.weighted:
            return scalarize(profile, self.weights)
        return math.sqrt(profile.depolarizing ** 2 + profile.gate ** 2
                         + profile.reset ** 2 + profile.readout ** 2)

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

    def _neighbor_raw(self, stage: int, query: np.ndarray) -> float:
        columns, labels = self._stages[stage]
        if self.kind.method == "range_search":
            return _nearest_label(columns, labels, query)
        return _idw(columns, labels, query, IDW_NEIGHBORS, IDW_POWER)

    def _stage1_raw(self, request: PredictionRequest) -> float:
        if self.kind.method in NEIGHBOR_METHODS:
            return self._neighbor_raw(
                0, self.stage1_scaler.transform(self._stage1_query(request)))
        return self._interp_1d(0, math.log10(request.target_logical_error_rate),
                               self._stage1_axis_query(request.noise))

    def _stage2_raw(self, rounded_distance: int, log_target: float) -> float:
        if self.kind.method in NEIGHBOR_METHODS:
            return self._neighbor_raw(1, self.stage2_scaler.transform(
                np.asarray([float(rounded_distance), log_target])))
        return self._interp_1d(1, log_target, float(rounded_distance))

    def predict_result(self, request: PredictionRequest) -> PredictionResult:
        if effective_error(request.noise, self.oracle) >= self.oracle.threshold:
            raise AboveThresholdError(
                "profile is at or above the oracle threshold; request is infeasible")
        raw_distance = max(self._stage1_raw(request), RAW_FLOOR)
        rounded_distance = round_distance(raw_distance)
        log_target = math.log10(request.target_logical_error_rate)
        raw_rounds = max(self._stage2_raw(rounded_distance, log_target), RAW_FLOOR)
        return PredictionResult(
            raw_distance=float(raw_distance),
            rounded_distance=rounded_distance,
            raw_rounds=float(raw_rounds),
            rounded_rounds=round_rounds(raw_rounds),
        )


def fit_heuristic(records: list[DatasetRecord], kind: HeuristicKind,
                  weights: HeuristicWeights = HeuristicWeights(),
                  oracle: OracleConfig = OracleConfig()) -> HeuristicModel:
    """Freeze the training records and standardization stats into a model."""
    if not records:
        raise ValidationError("cannot fit a heuristic on an empty training set")
    noise = np.asarray([r.noise.as_tuple() for r in records], dtype=np.float64)
    log_ler = np.asarray([math.log10(r.logical_error_rate) for r in records])
    distance = np.asarray([r.params.distance for r in records], dtype=np.float64)
    rounds = np.asarray([r.params.rounds for r in records], dtype=np.float64)
    return HeuristicModel(
        kind=kind, weights=weights, oracle=oracle,
        noise=noise, log_ler=log_ler, distance=distance, rounds=rounds,
        stage1_scaler=Standardizer.fit(
            np.column_stack(_stage1_columns(kind.weighted, weights, noise, log_ler))),
        stage2_scaler=Standardizer.fit(np.column_stack([distance, log_ler])),
    )


def heuristic_predict(kind: HeuristicKind, records: list[DatasetRecord],
                      request: PredictionRequest,
                      weights: HeuristicWeights = HeuristicWeights(),
                      oracle: OracleConfig = OracleConfig()) -> PredictionResult:
    """One-shot fit-and-predict convenience wrapper."""
    return fit_heuristic(records, kind, weights, oracle).predict_result(request)
