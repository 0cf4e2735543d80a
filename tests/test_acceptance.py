"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The accuracy experiments share one default-scale run (master seed 42):
records are generated with the default sweep, every distinct profile is
labeled against the default target menu via the ground-truth grid search, and
the labeled cases are split 80/20. The model-ordering comparison instead holds
out whole profiles, so no variant can lean on memorized devices.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import pearson_reference, record_columns, verify_tree_node
from surfplan import (
    Dataset,
    NoiseProfile,
    PredictionRequest,
    TreeConfig,
    fit_pipeline_cases,
    fit_tree,
    generate_dataset,
    find_optimal_params,
    load_model,
    logical_error_rate,
    pearson,
    predict_many,
    save_model,
    split,
)
from surfplan.config import load_config
from surfplan.dataio import read_dataset_csv, report_scalars
from surfplan.evaluate import compare_models, evaluate_model
from surfplan.ml.pipeline import build_training_cases, distinct_profiles
from surfplan.models import MODEL_NAMES


def check(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _random_profile(rng, sweep) -> NoiseProfile:
    return NoiseProfile(
        depolarizing=float(rng.uniform(*sweep.depolarizing_range)),
        gate=float(rng.uniform(*sweep.gate_range)),
        reset=float(rng.uniform(*sweep.reset_range)),
        readout=float(rng.uniform(*sweep.readout_range)))


@pytest.fixture(scope="module")
def settings():
    return load_config(None)  # defaults, master seed 42


@pytest.fixture(scope="module")
def accuracy_run(settings):
    """Default-scale generate -> label -> split -> train -> evaluate."""
    started = time.perf_counter()
    records = generate_dataset(settings.sweep, settings.oracle)
    cases = build_training_cases(records, settings.sweep, settings.oracle,
                                 settings.targets)
    train_cases, test_cases = split(cases, settings.split)
    model = fit_pipeline_cases(train_cases, settings.stage1, settings.stage2,
                               settings.oracle)
    elapsed = time.perf_counter() - started
    train_report = evaluate_model(model, train_cases, settings.oracle)
    test_report = evaluate_model(model, test_cases, settings.oracle)
    return {
        "records": records, "cases": cases, "train_cases": train_cases,
        "test_cases": test_cases, "model": model, "train": train_report,
        "test": test_report, "train_seconds": elapsed,
    }


@pytest.fixture(scope="module")
def comparison_run(settings, accuracy_run):
    """Profile-level holdout: every model faces devices it has never seen."""
    records = accuracy_run["records"]
    cases = accuracy_run["cases"]
    profiles = distinct_profiles(records)
    train_profiles, test_profiles = split(profiles, settings.split)
    train_keys = {p.as_tuple() for p in train_profiles}
    test_keys = {p.as_tuple() for p in test_profiles}
    in_train = np.array([tuple(row) in train_keys for row in records.profiles.tolist()],
                        dtype=bool)[records.profile_index]
    train_records = Dataset.from_rows(*(column[in_train] for column in record_columns(records)))
    train_cases = [c for c in cases if c.request.noise.as_tuple() in train_keys]
    test_cases = [c for c in cases if c.request.noise.as_tuple() in test_keys]
    rows = compare_models(
        list(MODEL_NAMES), train_records=train_records, train_cases=train_cases,
        test_cases=test_cases, sweep=settings.sweep, oracle=settings.oracle,
        stage1_config=settings.stage1, stage2_config=settings.stage2,
        weights=settings.heuristic_weights, menu=settings.targets)
    return rows


def test_criterion_01_oracle_shape(settings):
    started = time.perf_counter()
    rng = np.random.default_rng(settings.seed)
    sweep = settings.sweep
    violations = 0
    for _ in range(20):
        profile = _random_profile(rng, sweep)
        assert profile.depolarizing > 0
        min_by_distance = []
        for d in sweep.distances:
            curve = [logical_error_rate(d, r, profile, settings.oracle)
                     for r in sweep.rounds()]
            for r in range(1, d):            # strictly decreasing on r <= d
                if not curve[r] < curve[r - 1]:
                    violations += 1
            for r in range(d, len(curve)):   # non-decreasing past r = d
                if not curve[r] >= curve[r - 1]:
                    violations += 1
            min_by_distance.append(min(curve))
        for smaller, larger in zip(min_by_distance[1:], min_by_distance[:-1]):
            if not smaller <= larger:         # min-LER non-increasing in d
                violations += 1
    elapsed = time.perf_counter() - started
    check(1, violations == 0 and elapsed < 1.0,
          f"20 profiles x 9 distances x 60 rounds, {violations} shape "
          f"violations, {elapsed:.2f}s (< 1s)")


def test_criterion_02_ground_truth_self_consistency(settings):
    started = time.perf_counter()
    rng = np.random.default_rng(settings.seed + 100)
    sweep, oracle = settings.sweep, settings.oracle
    satisfied = 0
    minimal = 0
    total = 200
    found = 0
    while found < total:
        profile = _random_profile(rng, sweep)
        target = float(10 ** rng.uniform(-9, -3))
        request = PredictionRequest(noise=profile, target_logical_error_rate=target)
        optimal = find_optimal_params(request, sweep, oracle)
        if optimal is None:
            continue
        found += 1
        if logical_error_rate(optimal.distance, optimal.rounds, profile,
                              oracle) <= target:
            satisfied += 1
        strictly_smaller_hits = 0
        for d in sweep.distances:
            for r in sweep.rounds():
                if (d, r) >= (optimal.distance, optimal.rounds):
                    break
                if logical_error_rate(d, r, profile, oracle) <= target:
                    strictly_smaller_hits += 1
        if strictly_smaller_hits == 0:
            minimal += 1
    elapsed = time.perf_counter() - started
    check(2, satisfied == total and minimal == total and elapsed < 10.0,
          f"{satisfied}/{total} recommendations meet the target, "
          f"{minimal}/{total} lexicographically minimal, {elapsed:.1f}s (< 10s)")


def test_criterion_03_pipeline_accuracy(accuracy_run):
    n_records = len(accuracy_run["records"])
    test = accuracy_run["test"]
    ok = (8000 <= n_records <= 11000
          and test.pearson_raw_distance is not None
          and test.pearson_raw_distance >= 0.90
          and test.pearson_raw_rounds is not None
          and test.pearson_raw_rounds >= 0.85
          and accuracy_run["train_seconds"] < 600.0)
    check(3, ok,
          f"{n_records} records, {len(accuracy_run['cases'])} labeled cases, "
          f"held-out Pearson distance={test.pearson_raw_distance:.4f} (>= 0.90), "
          f"rounds={test.pearson_raw_rounds:.4f} (>= 0.85), "
          f"{accuracy_run['train_seconds']:.1f}s (< 600s)")


def test_criterion_04_overfitting_check(accuracy_run):
    train, test = accuracy_run["train"], accuracy_run["test"]
    gap_distance = abs(train.pearson_raw_distance - test.pearson_raw_distance)
    gap_rounds = abs(train.pearson_raw_rounds - test.pearson_raw_rounds)
    check(4, gap_distance <= 0.05 and gap_rounds <= 0.05,
          f"train-vs-test Pearson gap: distance={gap_distance:.4f}, "
          f"rounds={gap_rounds:.4f} (both <= 0.05)")


def test_criterion_05_target_achievement(accuracy_run):
    test = accuracy_run["test"]
    p95 = test.positive_delta_over_target_p95
    p95_ok = p95 is None or p95 < 10.0
    check(5, test.achievement_fraction >= 0.80 and p95_ok,
          f"DLER <= TLER for {test.achievement_fraction:.0%} of held-out "
          f"predictions (>= 80%), p95 overshoot "
          f"{'none' if p95 is None else f'{p95:.2f}x target'} (< 10x)")


def test_criterion_06_model_ordering(comparison_run):
    scores = {row.model: row.pearson_raw_distance for row in comparison_run}
    pipeline_score = scores["pipeline"]
    heuristic_scores = {name: value for name, value in scores.items()
                        if name.startswith("heuristic:")}
    best_name, best_score = max(heuristic_scores.items(), key=lambda kv: kv[1])
    hard_ok = all(pipeline_score >= value for value in heuristic_scores.values())
    multivariate_best = max(
        heuristic_scores, key=lambda name: heuristic_scores[name]).startswith(
        "heuristic:multivariate")
    if not multivariate_best:
        print(f"[criterion  6] NOTE: soft expectation violated: top heuristic "
              f"is {best_name} ({best_score:.4f}), not multivariate "
              f"interpolation (logged, not asserted)")
    check(6, hard_ok,
          f"pipeline distance Pearson {pipeline_score:.4f} >= best heuristic "
          f"{best_name} ({best_score:.4f}) on the fixed seeded profile holdout")


def test_criterion_07_latency(accuracy_run, settings, tmp_path):
    path = tmp_path / "pipeline.json"
    save_model(accuracy_run["model"], path)
    model = load_model(path)
    rng = np.random.default_rng(settings.seed + 200)
    requests = [PredictionRequest(
        noise=_random_profile(rng, settings.sweep),
        target_logical_error_rate=float(10 ** rng.uniform(-9, -3)))
        for _ in range(1000)]
    timings = []
    for request in requests:
        started = time.perf_counter()
        model.predict_result(request)
        timings.append((time.perf_counter() - started) * 1e3)
    mean, std = float(np.mean(timings)), float(np.std(timings))
    check(7, mean < 50.0,
          f"loaded-pipeline latency {mean:.2f} +/- {std:.2f} ms per prediction "
          f"over 1000 requests (< 50 ms)")


def test_criterion_08_rounding_and_structure_invariants(accuracy_run, settings):
    rng = np.random.default_rng(settings.seed + 300)
    requests = [PredictionRequest(
        noise=_random_profile(rng, settings.sweep),
        target_logical_error_rate=float(10 ** rng.uniform(-10, -2)))
        for _ in range(10_000)]
    results = predict_many(accuracy_run["model"], requests)
    bad = 0
    for result in results:
        if result.rounded_distance % 2 != 1 or result.rounded_distance < 3:
            bad += 1
        elif result.rounded_distance < result.raw_distance:
            bad += 1
        elif result.rounded_rounds != max(1, math.ceil(result.raw_rounds)):
            bad += 1
    check(8, bad == 0 and len(results) == 10_000,
          f"{len(results)} fuzzed predictions, {bad} invariant violations")


def test_criterion_09_determinism_and_persistence(settings, accuracy_run, tmp_path):
    from surfplan.cli import main

    outputs = []
    for run in ("a", "b"):
        base = tmp_path / run
        base.mkdir()
        data = base / "data.csv"
        model = base / "model.json"
        reports = base / "reports"
        assert main(["generate", "--out", str(data)]) == 0
        assert main(["train", "--data", str(data), "--model", "pipeline",
                     "--out-model", str(model)]) == 0
        assert main(["evaluate", "--model", str(model), "--data", str(data),
                     "--out-dir", str(reports)]) == 0
        payload = json.loads((reports / "report.json").read_text())
        payload.pop("timing_ms")  # wall-clock, excluded by contract
        outputs.append({
            "csv": data.read_bytes(),
            "deltas": (reports / "deltas.csv").read_bytes(),
            "heatmap": (reports / "heatmap.csv").read_bytes(),
            "scalars": payload,
        })
    identical = (outputs[0]["csv"] == outputs[1]["csv"]
                 and outputs[0]["deltas"] == outputs[1]["deltas"]
                 and outputs[0]["heatmap"] == outputs[1]["heatmap"]
                 and outputs[0]["scalars"] == outputs[1]["scalars"])

    # save/load preserves predictions exactly
    path = tmp_path / "roundtrip.json"
    save_model(accuracy_run["model"], path)
    loaded = load_model(path)
    rng = np.random.default_rng(settings.seed + 400)
    requests = [PredictionRequest(
        noise=_random_profile(rng, settings.sweep),
        target_logical_error_rate=float(10 ** rng.uniform(-9, -3)))
        for _ in range(100)]
    preserved = all(loaded.predict_result(q) == accuracy_run["model"].predict_result(q)
                    for q in requests)
    check(9, identical and preserved,
          f"two seeded generate/train/evaluate runs byte-identical={identical}, "
          f"save/load identical on 100 requests={preserved}")


def test_criterion_10_small_instance_oracles(settings):
    rng = np.random.default_rng(settings.seed + 500)
    nodes_checked = 0
    for _ in range(12):
        n = int(rng.integers(5, 51))
        f = int(rng.integers(1, 5))
        features = rng.normal(size=(n, f))
        targets = rng.normal(size=n)
        config = TreeConfig(max_depth=int(rng.integers(1, 7)),
                            min_samples_split=int(rng.integers(2, 6)),
                            min_child_weight=int(rng.integers(1, 4)),
                            gamma=float(rng.choice([0.0, 0.2])))
        tree = fit_tree(features, targets, config)
        nodes_checked += verify_tree_node(tree, 0, features, targets, config, 0)

    max_error = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 60))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + 0.5 * x
        max_error = max(max_error, abs(pearson(x, y) - pearson_reference(
            x.tolist(), y.tolist())))
    check(10, nodes_checked > 0 and max_error < 1e-12,
          f"{nodes_checked} tree nodes match the brute-force reference, "
          f"pearson max |error| vs direct formula {max_error:.2e} (< 1e-12)")
