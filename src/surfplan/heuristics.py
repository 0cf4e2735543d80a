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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def range_search(features, labels, query) -> float:
    """Label of the training point nearest the query; index breaks ties."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features.reshape(-1, 1)
    labels = np.asarray(labels, dtype=np.float64)
    if features.shape[0] == 0:
        raise ValidationError("range_search needs a non-empty training set")
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    distances = np.sqrt(((features - query) ** 2).sum(axis=1))
    return float(labels[int(np.argmin(distances))])


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
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features.reshape(-1, 1)
    labels = np.asarray(labels, dtype=np.float64)
    if features.shape[0] == 0:
        raise ValidationError("multivariate_interp needs a non-empty training set")
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    distances = np.sqrt(((features - query) ** 2).sum(axis=1))
    exact = np.nonzero(distances == 0.0)[0]
    if exact.size:
        return float(labels[exact[0]])
    order = np.lexsort((np.arange(len(distances)), distances))[:min(k, len(distances))]
    weights = 1.0 / distances[order] ** power
    return float(np.dot(weights, labels[order]) / weights.sum())


@dataclass
class HeuristicModel:
    """A fitted two-stage heuristic; training records are embedded verbatim."""

    kind: HeuristicKind
    weights: HeuristicWeights
    oracle: OracleConfig
    noise: np.ndarray          # (n, 4): depolarizing, gate, reset, readout
    log_ler: np.ndarray        # (n,) log10 of each record's achieved rate
    distance: np.ndarray       # (n,)
    rounds: np.ndarray         # (n,)
    stage1_scaler: Standardizer
    stage2_scaler: Standardizer

    model_kind = "heuristic"

    # -- feature spaces ----------------------------------------------------

    def _stage1_matrix(self) -> np.ndarray:
        if self.kind.weighted:
            scalar = self._scalarized()
            return np.column_stack([scalar, self.log_ler])
        return np.column_stack([self.noise, self.log_ler])

    def _scalarized(self) -> np.ndarray:
        # Same term order as core.scalarize so an exact-match query produces
        # bit-identical features.
        return (self.weights.w_gate * self.noise[:, 1]
                + self.weights.w_depol * self.noise[:, 0]
                + self.weights.w_readout * self.noise[:, 3]
                + self.weights.w_reset * self.noise[:, 2])

    def _stage1_axis(self) -> np.ndarray:
        if self.kind.weighted:
            return self._scalarized()
        return np.sqrt((self.noise ** 2).sum(axis=1))

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

    def _decade_pairs(self, axis: np.ndarray, labels: np.ndarray,
                      log_target: float, need: int) -> np.ndarray:
        decades = np.rint(self.log_ler).astype(np.int64)
        available = np.unique(decades)
        by_closeness = sorted(available, key=lambda d: (abs(d - log_target), d))
        chosen: list[int] = []
        for decade in by_closeness:
            chosen.append(int(decade))
            mask = np.isin(decades, chosen)
            if np.unique(axis[mask]).size >= need:
                break
        mask = np.isin(decades, chosen)
        xs, ys = axis[mask], labels[mask]
        # Aggregate duplicate abscissae by mean so interpolation stays defined.
        unique_x, inverse = np.unique(xs, return_inverse=True)
        sums = np.zeros(unique_x.size)
        counts = np.zeros(unique_x.size)
        np.add.at(sums, inverse, ys)
        np.add.at(counts, inverse, 1.0)
        return np.column_stack([unique_x, sums / counts])

    def _interp_1d(self, axis: np.ndarray, labels: np.ndarray,
                   log_target: float, x_query: float) -> float:
        need = 3 if self.kind.method == "poly_interp" else 2
        pairs = self._decade_pairs(axis, labels, log_target, need)
        if pairs.shape[0] == 1:
            return float(pairs[0, 1])
        if self.kind.method == "poly_interp":
            return poly_interp(pairs, x_query)
        return linear_interp(pairs, x_query)

    # -- prediction ---------------------------------------------------------

    def _stage1_raw(self, request: PredictionRequest) -> float:
        method = self.kind.method
        log_target = math.log10(request.target_logical_error_rate)
        if method in ("range_search", "multivariate_interp"):
            train = self.stage1_scaler.transform(self._stage1_matrix())
            query = self.stage1_scaler.transform(self._stage1_query(request))
            if method == "range_search":
                return range_search(train, self.distance, query)
            return multivariate_interp(train, self.distance, query)
        axis = self._stage1_axis()
        return self._interp_1d(axis, self.distance, log_target,
                               self._stage1_axis_query(request.noise))

    def _stage2_raw(self, rounded_distance: int, log_target: float) -> float:
        method = self.kind.method
        if method in ("range_search", "multivariate_interp"):
            train = self.stage2_scaler.transform(
                np.column_stack([self.distance, self.log_ler]))
            query = self.stage2_scaler.transform(
                np.asarray([float(rounded_distance), log_target]))
            if method == "range_search":
                return range_search(train, self.rounds, query)
            return multivariate_interp(train, self.rounds, query)
        return self._interp_1d(self.distance.astype(np.float64), self.rounds,
                               log_target, float(rounded_distance))

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
    model = HeuristicModel(
        kind=kind, weights=weights, oracle=oracle,
        noise=noise, log_ler=log_ler, distance=distance, rounds=rounds,
        stage1_scaler=Standardizer(mean=(0.0,), scale=(1.0,)),
        stage2_scaler=Standardizer(mean=(0.0,), scale=(1.0,)),
    )
    model.stage1_scaler = Standardizer.fit(model._stage1_matrix())
    model.stage2_scaler = Standardizer.fit(np.column_stack([distance, log_ler]))
    return model


def heuristic_predict(kind: HeuristicKind, records: list[DatasetRecord],
                      request: PredictionRequest,
                      weights: HeuristicWeights = HeuristicWeights(),
                      oracle: OracleConfig = OracleConfig()) -> PredictionResult:
    """One-shot fit-and-predict convenience wrapper."""
    return fit_heuristic(records, kind, weights, oracle).predict_result(request)
