"""Evaluation harness: Pearson correlations, train/test splitting, derived-vs-
target error analysis, and the model comparison table.

The derived logical error rate (DLER) of a recommendation is re-queried from
the synthetic oracle at the rounded (distance, rounds); reports label it as
oracle-derived. Every case is predicted in one batch, so the timing is the
batch's wall clock per case; it is excluded from any determinism comparison.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import models
from .core import Dataset, ValidationError, check_int, check_number
from .ml import pipeline
from .ml.pipeline import LabeledCase
from .oracle import OracleConfig, SweepConfig, logical_error_rate, meets_target


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient.

    Raises for length mismatches, fewer than two points, constant inputs and
    inputs whose centered sums or their product overflow or underflow to zero
    (where the coefficient is undefined in float64).
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1:
        raise ValidationError("pearson expects one-dimensional inputs")
    if xa.shape[0] != ya.shape[0]:
        raise ValidationError(
            f"pearson length mismatch: {xa.shape[0]} vs {ya.shape[0]}")
    if xa.shape[0] < 2:
        raise ValidationError("pearson needs at least two points")
    with np.errstate(over="ignore", invalid="ignore"):
        dx = xa - xa.mean()
        dy = ya - ya.mean()
        sxx = float(np.dot(dx, dx))
        syy = float(np.dot(dy, dy))
        sxy = float(np.dot(dx, dy))
    if sxx == 0.0 or syy == 0.0:
        raise ValidationError("pearson undefined for constant input")
    product = sxx * syy
    if not (0.0 < product < math.inf and math.isfinite(sxy)):
        raise ValidationError("pearson undefined: the centered sums overflow or underflow")
    return sxy / math.sqrt(product)


@dataclass(frozen=True)
class SplitConfig:
    test_fraction: float = 0.2
    seed: int = 42

    def __post_init__(self):
        check_number("test_fraction", self.test_fraction, gt=0.0, lt=1.0)
        check_int("seed", self.seed, 0)


def split(data: list, config: SplitConfig = SplitConfig()) -> tuple[list, list]:
    """Seeded uniform shuffle; floor(n * test_fraction) cases go to test,
    and a split that leaves no test case is rejected."""
    n = len(data)
    if n < 5:
        raise ValidationError(f"need at least 5 cases to split, got {n}")
    n_test = int(n * config.test_fraction)
    if n_test == 0:
        raise ValidationError(f"a test_fraction of {config.test_fraction!r} leaves no test "
                              f"case among {n} cases")
    permutation = np.random.default_rng(config.seed).permutation(n)
    test_idx = set(permutation[:n_test].tolist())
    train = [data[i] for i in range(n) if i not in test_idx]
    test = [data[i] for i in sorted(test_idx)]
    return train, test


def _maybe_pearson(x, y) -> Optional[float]:
    try:
        return pearson(x, y)
    except ValidationError:
        return None


@dataclass
class EvalReport:
    """Everything the report writers need, per evaluated model.

    ``latency_mean_ms`` is the wall time of the one batch prediction over all
    cases divided by the case count. No case is timed on its own, so there is
    no per-case spread to report.
    """

    n_cases: int
    pearson_raw_distance: Optional[float]
    pearson_rounded_distance: Optional[float]
    pearson_raw_rounds: Optional[float]
    pearson_rounded_rounds: Optional[float]
    achievement_fraction: float
    dler_tler_deltas: list[float]
    targets: list[float]
    dler: list[float]
    predicted_raw_distance: list[float]
    predicted_distance: list[int]
    predicted_raw_rounds: list[float]
    predicted_rounds: list[int]
    optimal_distance: list[int]
    optimal_rounds: list[int]
    latency_mean_ms: float
    positive_delta_over_target_p95: Optional[float] = None


def evaluate_model(model, cases: list[LabeledCase],
                   oracle: OracleConfig = OracleConfig()) -> EvalReport:
    """Predict every case, correlate against the optimal labels, and re-query
    the oracle at each recommendation for the DLER - TLER analysis."""
    if not cases:
        raise ValidationError("cannot evaluate on an empty test set")
    start = time.perf_counter()
    results = pipeline.predict_many(model, [case.request for case in cases])
    elapsed_ms = (time.perf_counter() - start) * 1e3
    raw_d = [result.raw_distance for result in results]
    rounded_d = [result.rounded_distance for result in results]
    raw_r = [result.raw_rounds for result in results]
    rounded_r = [result.rounded_rounds for result in results]

    opt_d = [case.distance for case in cases]
    opt_r = [case.rounds for case in cases]
    targets = [case.request.target_logical_error_rate for case in cases]

    dler = [logical_error_rate(d, r, case.request.noise, oracle)
            for d, r, case in zip(rounded_d, rounded_r, cases)]
    deltas = [derived - target for derived, target in zip(dler, targets)]
    met = [meets_target(derived, target) for derived, target in zip(dler, targets)]

    positive_ratios = [delta / target for delta, target, ok in zip(deltas, targets, met)
                       if not ok]
    p95 = (float(np.percentile(positive_ratios, 95))
           if positive_ratios else None)

    return EvalReport(
        n_cases=len(cases),
        pearson_raw_distance=_maybe_pearson(raw_d, opt_d),
        pearson_rounded_distance=_maybe_pearson(rounded_d, opt_d),
        pearson_raw_rounds=_maybe_pearson(raw_r, opt_r),
        pearson_rounded_rounds=_maybe_pearson(rounded_r, opt_r),
        achievement_fraction=sum(met) / len(cases),
        dler_tler_deltas=deltas,
        targets=targets,
        dler=dler,
        predicted_raw_distance=raw_d,
        predicted_distance=rounded_d,
        predicted_raw_rounds=raw_r,
        predicted_rounds=rounded_r,
        optimal_distance=opt_d,
        optimal_rounds=opt_r,
        latency_mean_ms=elapsed_ms / len(cases),
        positive_delta_over_target_p95=p95,
    )


@dataclass(frozen=True)
class ComparisonRow:
    model: str
    pearson_raw_distance: Optional[float]
    pearson_raw_rounds: Optional[float]
    pearson_rounded_distance: Optional[float]
    pearson_rounded_rounds: Optional[float]


def compare_models(names: list[str], train_records: Dataset, train_cases,
                   test_cases: list[LabeledCase],
                   sweep: SweepConfig = SweepConfig(),
                   oracle: OracleConfig = OracleConfig(),
                   **fit_options) -> list[ComparisonRow]:
    """Train each named model on the shared split and rank by distance Pearson.

    Label-supervised models (pipeline, linear) fit on ``train_cases``;
    heuristics are instance-based over the raw ``train_records`` and never see
    optimal labels. All models are scored on the same ``test_cases``. Rows are
    sorted by raw-distance Pearson, descending (undefined sorts last).

    The heuristics after the first are fitted from its training state, and
    the models are scored one at a time, so each distinct query is searched
    once per comparison; the ``heuristics`` module docstring defines the memo.
    """
    models.check_model_names(names)
    training = train_records  # the first heuristic's state once it is fitted
    rows = []
    for name in names:
        model = models.fit_named_model(name, records=training, cases=train_cases,
                                       sweep=sweep, oracle=oracle, **fit_options)
        if models.heuristic_kind(name) is not None:
            training = model.training
        report = evaluate_model(model, test_cases, oracle)
        rows.append(ComparisonRow(
            model=name,
            pearson_raw_distance=report.pearson_raw_distance,
            pearson_raw_rounds=report.pearson_raw_rounds,
            pearson_rounded_distance=report.pearson_rounded_distance,
            pearson_rounded_rounds=report.pearson_rounded_rounds,
        ))
    rows.sort(key=lambda row: (row.pearson_raw_distance is None,
                               -(row.pearson_raw_distance or 0.0)))
    return rows
