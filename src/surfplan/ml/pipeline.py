"""The two-stage predictor: boosted trees for distance, a forest for rounds.

Training labels are constructed from the ground-truth grid search: every
distinct profile in the dataset is paired with each target in the menu, and
the label is the lexicographically smallest (distance, rounds) on the sweep
grid that reaches the target; infeasible pairs are dropped, and a dataset
or menu that leaves no feasible pair is rejected. The grids of all
the distinct profiles are evaluated as one array with ``rate_grids``, and the
property tests check the labels against the scalar ``find_optimal_params``
exactly. Stage one learns distance from the four noise rates plus log10 of the
target; stage two learns rounds from the *rounded* stage-one prediction plus
log10 of the target, at train and inference time alike.

``_fit_stages`` is the one place the stages are fitted and chained, given a
learner per stage: boosted trees and a forest (``fit_pipeline_cases``), the
same with each config picked by cross-validated grid search
(``fit_tuned_pipeline``), or least squares twice (``fit_linear_pipeline``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import partial
from typing import Union

import numpy as np

from ..core import (
    PROFILE_FIELDS,
    RAW_FLOOR,
    Dataset,
    NoiseProfile,
    PredictionRequest,
    PredictionResult,
    ValidationError,
    round_distance,
)
from ..oracle import (
    OracleConfig,
    SweepConfig,
    check_below_threshold,
    meets_target,
    rate_grids,
)
from .ensemble import BoostConfig, BoostedModel, ForestConfig, ForestModel, fit_boosted, fit_forest
from .linear import LinearModel, fit_linear
from .search import grid_search, stage1_grid, stage2_grid

logger = logging.getLogger(__name__)

DEFAULT_TARGET_MENU = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9)

STAGE1_SCHEMA = PROFILE_FIELDS + ("log10_target",)
STAGE2_SCHEMA = ("rounded_distance", "log10_target")

StageModel = Union[ForestModel, BoostedModel, LinearModel]


@dataclass(frozen=True)
class LabeledCase:
    """An inverse query paired with its ground-truth optimal parameters."""

    request: PredictionRequest
    distance: int
    rounds: int


def distinct_profiles(records: Dataset) -> list[NoiseProfile]:
    """Unique profiles by value, in first-appearance order: a walk over the
    dataset's profile table, which holds one row per profile block."""
    seen = dict.fromkeys(tuple(row) for row in records.profiles.tolist())
    return [NoiseProfile(*row) for row in seen]


def check_menu(menu: tuple[float, ...]) -> None:
    """Raise when a menu target repeats: a split could then put a case in the
    test set and its twin, labeled again, in the training set."""
    repeated = [value for i, value in enumerate(menu) if value in menu[:i]]
    if repeated:
        raise ValidationError(f"target {repeated[0]!r} is repeated")


def build_training_cases(records: Dataset,
                         sweep: SweepConfig = SweepConfig(),
                         oracle: OracleConfig = OracleConfig(),
                         menu: tuple[float, ...] = DEFAULT_TARGET_MENU) -> list[LabeledCase]:
    """Label every (profile, menu target) pair via the ground-truth search.

    The label is the first grid point, in (distance, rounds) order, whose
    rate meets the target; the same answer ``find_optimal_params`` gives.
    Raises ValidationError when the dataset is empty, a menu target repeats or
    no pair is feasible, an empty menu included: nothing to learn from or score.
    """
    if not records:
        raise ValidationError("cannot build training cases from an empty dataset")
    check_menu(menu)
    profiles = distinct_profiles(records)
    requests = [[PredictionRequest(noise=profile, target_logical_error_rate=target)
                 for target in menu] for profile in profiles]
    rounds = sweep.rounds()
    grids = rate_grids([profile.as_tuple() for profile in profiles], sweep.distances,
                       rounds, oracle).reshape(len(profiles), 1, -1)
    # feasible[k, t, g]: grid point g of profile k meets target t.
    feasible = meets_target(grids, np.asarray(menu, dtype=np.float64)[:, None])
    firsts, reached = feasible.argmax(axis=2), feasible.any(axis=2)
    cases = []
    for row, row_firsts, row_reached in zip(requests, firsts.tolist(), reached.tolist()):
        for request, first, ok in zip(row, row_firsts, row_reached):
            if ok:
                d_index, r_index = divmod(first, len(rounds))
                cases.append(LabeledCase(request=request,
                                         distance=sweep.distances[d_index],
                                         rounds=rounds[r_index]))
    if not cases:
        raise ValidationError("no feasible (profile, target) pairs; every menu target "
                              "is out of reach for the dataset's profiles")
    return cases


def stage1_features(requests: list[PredictionRequest]) -> np.ndarray:
    rows = [(*r.noise.as_tuple(), math.log10(r.target_logical_error_rate)) for r in requests]
    return np.asarray(rows, dtype=np.float64).reshape(-1, len(STAGE1_SCHEMA))


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

    def predict_result(self, request: PredictionRequest) -> PredictionResult:
        return self.predict_many([request])[0]

    def predict_many(self, requests: list[PredictionRequest]) -> list[PredictionResult]:
        """One result per request; a request's result does not depend on the
        batch it comes in."""
        for request in requests:
            check_below_threshold(request.noise, self.oracle)
        # A model file can hold finite numbers whose sums overflow: the stage
        # output is then inf or NaN, which rounding rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            raw_distance, mat2 = stage2_features(self.stage1, stage1_features(requests))
            raw_rounds = np.maximum(self.stage2.predict(mat2), RAW_FLOOR)
        return [PredictionResult(raw_distance=rd, raw_rounds=rr)
                for rd, rr in zip(raw_distance.tolist(), raw_rounds.tolist())]


def _fit_stages(cases: list[LabeledCase], fit_stage1, fit_stage2,
                oracle: OracleConfig) -> PipelineModel:
    """Fit ``fit_stage1(features, distances)`` on the stage-one matrix, then
    ``fit_stage2(features, rounds)`` on the stage-two matrix built from that
    fitted stage: the one place the two stages are chained."""
    if not cases:
        raise ValidationError("cannot fit a pipeline on no labeled cases")
    mat1 = stage1_features([case.request for case in cases])
    y_distance = np.asarray([case.distance for case in cases], dtype=np.float64)
    y_rounds = np.asarray([case.rounds for case in cases], dtype=np.float64)
    stage1 = fit_stage1(mat1, y_distance)
    # Stage two consumes the rounded stage-one predictions, not the labels.
    _, mat2 = stage2_features(stage1, mat1)
    stage2 = fit_stage2(mat2, y_rounds)
    targets = [case.request.target_logical_error_rate for case in cases]
    return PipelineModel(stage1=stage1, stage2=stage2, oracle=oracle,
                         min_target=min(targets), max_target=max(targets))


def fit_pipeline_cases(cases: list[LabeledCase],
                       stage1_config: BoostConfig = BoostConfig(),
                       stage2_config: ForestConfig = ForestConfig(),
                       oracle: OracleConfig = OracleConfig()) -> PipelineModel:
    """Fit boosted trees for distance and a random forest for rounds on
    pre-labeled cases."""
    return _fit_stages(cases, partial(fit_boosted, config=stage1_config),
                       partial(fit_forest, config=stage2_config), oracle)


def fit_tuned_pipeline(cases: list[LabeledCase],
                       stage1_config: BoostConfig = BoostConfig(),
                       stage2_config: ForestConfig = ForestConfig(),
                       oracle: OracleConfig = OracleConfig(),
                       seed: int = 0) -> PipelineModel:
    """``fit_pipeline_cases`` with each stage's config picked by 5-fold
    ``grid_search`` (folds shuffled from ``seed``) over ``stage1_grid`` or
    ``stage2_grid`` of the given config, on the features that stage is fitted
    on; the best config is then fitted once on all the cases."""
    best = []

    def tuned(fit, grid):
        def fit_best(features, targets):
            best.append(grid_search(features, targets, grid, 5, fit, seed).best_config)
            return fit(features, targets, best[-1])
        return fit_best

    model = _fit_stages(cases, tuned(fit_boosted, stage1_grid(stage1_config)),
                        tuned(fit_forest, stage2_grid(stage2_config)), oracle)
    logger.info("tuned stage1=%s stage2=%s", *best)
    return model


def fit_pipeline(records: Dataset,
                 stage1_config: BoostConfig = BoostConfig(),
                 stage2_config: ForestConfig = ForestConfig(),
                 sweep: SweepConfig = SweepConfig(),
                 oracle: OracleConfig = OracleConfig(),
                 menu: tuple[float, ...] = DEFAULT_TARGET_MENU) -> PipelineModel:
    """Label the dataset's profiles against the menu, then fit both stages."""
    cases = build_training_cases(records, sweep, oracle, menu)
    return fit_pipeline_cases(cases, stage1_config, stage2_config, oracle)


def fit_linear_pipeline(cases: list[LabeledCase],
                        oracle: OracleConfig = OracleConfig()) -> PipelineModel:
    """Two sequential ordinary-least-squares stages (the linear baseline)."""
    return _fit_stages(cases, fit_linear, fit_linear, oracle)


def predict(model, request: PredictionRequest) -> PredictionResult:
    """Predict with any fitted model exposing predict_result."""
    return model.predict_result(request)


def predict_many(model, requests: list[PredictionRequest]) -> list[PredictionResult]:
    return model.predict_many(requests)
