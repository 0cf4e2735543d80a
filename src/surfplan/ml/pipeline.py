"""The two-stage predictor: boosted trees for distance, a forest for rounds.

Training labels are constructed from the ground-truth grid search: every
distinct profile in the dataset is paired with each target in the menu, and
the label is the lexicographically smallest (distance, rounds) on the sweep
grid that reaches the target; infeasible pairs are dropped. Each profile's
grid is evaluated as one array with ``rate_grid``, and the property tests
check the labels against the scalar ``find_optimal_params`` exactly. Stage
one learns distance from the four noise rates plus log10 of the target; stage
two learns rounds from the *rounded* stage-one prediction plus log10 of the
target, at train and inference time alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ..core import (
    RAW_FLOOR,
    DatasetRecord,
    NoiseProfile,
    PredictionRequest,
    PredictionResult,
    ValidationError,
    round_distance,
    round_rounds,
)
from ..oracle import (
    AboveThresholdError,
    OracleConfig,
    SweepConfig,
    effective_error,
    meets_target,
    rate_grid,
)
from .ensemble import BoostConfig, BoostedModel, ForestConfig, ForestModel, fit_boosted, fit_forest
from .linear import LinearModel, fit_linear
from .tree import TreeModel

DEFAULT_TARGET_MENU = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9)

STAGE1_SCHEMA = ("depolarizing", "gate", "reset", "readout", "log10_target")
STAGE2_SCHEMA = ("rounded_distance", "log10_target")

StageModel = Union[TreeModel, ForestModel, BoostedModel, LinearModel]


@dataclass(frozen=True)
class LabeledCase:
    """An inverse query paired with its ground-truth optimal parameters."""

    request: PredictionRequest
    distance: int
    rounds: int


def distinct_profiles(records: list[DatasetRecord]) -> list[NoiseProfile]:
    """Unique profiles in first-appearance order."""
    seen: dict[tuple, NoiseProfile] = {}
    for record in records:
        seen.setdefault(record.noise.as_tuple(), record.noise)
    return list(seen.values())


def build_training_cases(records: list[DatasetRecord],
                         sweep: SweepConfig = SweepConfig(),
                         oracle: OracleConfig = OracleConfig(),
                         menu: tuple[float, ...] = DEFAULT_TARGET_MENU) -> list[LabeledCase]:
    """Label every (profile, menu target) pair via the ground-truth search.

    The label is the first grid point, in (distance, rounds) order, whose
    rate meets the target; the same answer ``find_optimal_params`` gives.
    """
    if not records:
        raise ValidationError("cannot build training cases from an empty dataset")
    rounds = sweep.rounds()
    cases = []
    for profile in distinct_profiles(records):
        requests = [PredictionRequest(noise=profile, target_logical_error_rate=target)
                    for target in menu]
        if not requests:
            continue
        targets = np.asarray([request.target_logical_error_rate for request in requests])
        grid = rate_grid(profile, sweep.distances, rounds, oracle)
        feasible = meets_target(grid.ravel()[None, :], targets[:, None])
        for request, row, first in zip(requests, feasible, feasible.argmax(axis=1).tolist()):
            if row[first]:
                d_index, r_index = divmod(first, len(rounds))
                cases.append(LabeledCase(request=request,
                                         distance=sweep.distances[d_index],
                                         rounds=rounds[r_index]))
    return cases


def stage1_features(requests: list[PredictionRequest]) -> np.ndarray:
    rows = [(r.noise.depolarizing, r.noise.gate, r.noise.reset, r.noise.readout,
             math.log10(r.target_logical_error_rate)) for r in requests]
    return np.asarray(rows, dtype=np.float64)


def stage2_features(stage1: StageModel, mat1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floored raw stage-one distances, and the stage-two matrix built from them.

    Stage two sees the *rounded* stage-one prediction beside log10 of the
    target, at train and inference time alike.
    """
    raw = np.maximum(stage1.predict(mat1), RAW_FLOOR)
    rounded = np.asarray([round_distance(float(v)) for v in raw], dtype=np.float64)
    return raw, np.column_stack([rounded, mat1[:, 4]])


@dataclass
class PipelineModel:
    """Stage-one distance model chained into a stage-two rounds model."""

    stage1: StageModel
    stage2: StageModel
    oracle: OracleConfig
    min_target: float
    max_target: float
    stage1_schema: tuple[str, ...] = STAGE1_SCHEMA
    stage2_schema: tuple[str, ...] = STAGE2_SCHEMA

    def predict_result(self, request: PredictionRequest) -> PredictionResult:
        if effective_error(request.noise, self.oracle) >= self.oracle.threshold:
            raise AboveThresholdError(
                "profile is at or above the oracle threshold; request is infeasible")
        if len(self.stage1_schema) != 5 or len(self.stage2_schema) != 2:
            raise ValidationError("schema mismatch: unexpected pipeline schemas")
        log_target = math.log10(request.target_logical_error_rate)
        row1 = np.asarray([request.noise.depolarizing, request.noise.gate,
                           request.noise.reset, request.noise.readout, log_target])
        raw_distance = max(float(self.stage1.predict_row(row1)), RAW_FLOOR)
        rounded_distance = round_distance(raw_distance)
        row2 = np.asarray([float(rounded_distance), log_target])
        raw_rounds = max(float(self.stage2.predict_row(row2)), RAW_FLOOR)
        return PredictionResult(
            raw_distance=raw_distance,
            rounded_distance=rounded_distance,
            raw_rounds=raw_rounds,
            rounded_rounds=round_rounds(raw_rounds),
        )

    def predict_many(self, requests: list[PredictionRequest]) -> list[PredictionResult]:
        """Batch variant of predict_result (vectorized stage evaluations)."""
        if not requests:
            return []
        for request in requests:
            if effective_error(request.noise, self.oracle) >= self.oracle.threshold:
                raise AboveThresholdError(
                    "profile is at or above the oracle threshold; request is infeasible")
        raw_distance, mat2 = stage2_features(self.stage1, stage1_features(requests))
        raw_rounds = np.maximum(self.stage2.predict(mat2), RAW_FLOOR)
        return [PredictionResult(
                    raw_distance=float(rd),
                    rounded_distance=int(dd),
                    raw_rounds=float(rr),
                    rounded_rounds=round_rounds(float(rr)))
                for rd, dd, rr in zip(raw_distance, mat2[:, 0], raw_rounds)]


def fit_pipeline_cases(cases: list[LabeledCase],
                       stage1_config: BoostConfig = BoostConfig(),
                       stage2_config: ForestConfig = ForestConfig(),
                       oracle: OracleConfig = OracleConfig(),
                       stage1_fit=None, stage2_fit=None) -> PipelineModel:
    """Fit both stages on pre-labeled cases.

    ``stage1_fit``/``stage2_fit`` override the stage learners (used for the
    plain linear-regression baseline); defaults are boosted trees and a
    random forest.
    """
    if not cases:
        raise ValidationError("cannot fit a pipeline on an empty training set")
    requests = [case.request for case in cases]
    mat1 = stage1_features(requests)
    y_distance = np.asarray([case.distance for case in cases], dtype=np.float64)
    y_rounds = np.asarray([case.rounds for case in cases], dtype=np.float64)

    if stage1_fit is None:
        stage1 = fit_boosted(mat1, y_distance, stage1_config)
    else:
        stage1 = stage1_fit(mat1, y_distance)

    # Stage two consumes the rounded stage-one predictions, not the labels.
    _, mat2 = stage2_features(stage1, mat1)
    if stage2_fit is None:
        stage2 = fit_forest(mat2, y_rounds, stage2_config)
    else:
        stage2 = stage2_fit(mat2, y_rounds)

    targets = [case.request.target_logical_error_rate for case in cases]
    return PipelineModel(stage1=stage1, stage2=stage2, oracle=oracle,
                         min_target=min(targets), max_target=max(targets))


def fit_pipeline(records: list[DatasetRecord],
                 stage1_config: BoostConfig = BoostConfig(),
                 stage2_config: ForestConfig = ForestConfig(),
                 sweep: SweepConfig = SweepConfig(),
                 oracle: OracleConfig = OracleConfig(),
                 menu: tuple[float, ...] = DEFAULT_TARGET_MENU) -> PipelineModel:
    """Label the dataset's profiles against the menu, then fit both stages."""
    cases = build_training_cases(records, sweep, oracle, menu)
    if not cases:
        raise ValidationError(
            "no feasible (profile, target) pairs; every menu target is out of "
            "reach for the dataset's profiles")
    return fit_pipeline_cases(cases, stage1_config, stage2_config, oracle)


def fit_linear_pipeline(cases: list[LabeledCase],
                        oracle: OracleConfig = OracleConfig()) -> PipelineModel:
    """Two sequential ordinary-least-squares stages (the linear baseline)."""
    return fit_pipeline_cases(
        cases, oracle=oracle,
        stage1_fit=lambda X, y: fit_linear(X, y),
        stage2_fit=lambda X, y: fit_linear(X, y),
    )


def predict(model, request: PredictionRequest) -> PredictionResult:
    """Predict with any fitted model exposing predict_result."""
    return model.predict_result(request)


def predict_many(model, requests: list[PredictionRequest]) -> list[PredictionResult]:
    if hasattr(model, "predict_many"):
        return model.predict_many(requests)
    return [model.predict_result(request) for request in requests]
