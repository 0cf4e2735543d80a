"""Smoke test of the benchmark at a tiny scale.

Every end-to-end and per-layer metric name is emitted for every workload, a
deliberately corrupted label or prediction is caught as a failed operation,
and a library call that raises inside a check or a deferred check is counted
as failed without stopping the run.
"""

import dataclasses
import json

import pytest

import run
from surfplan.ml import pipeline, serialize

with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
    SPEC = json.load(handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def bench(capsys, tmp_path, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace), "--scale", "tiny", "--out-dir", str(tmp_path)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(capsys, tmp_path, workload):
    lines, result = bench(capsys, tmp_path, workload, trace=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    printed = {line.split()[0] for line in lines if line.startswith("  ")}
    assert set(run.END_TO_END_UNITS) <= printed
    (record_path,) = (tmp_path / "results").iterdir()
    record = json.loads(record_path.read_text())
    assert record["spans"] and not record["missing_trace_targets"]
    assert record["environment"]["nproc"] >= 1


def test_end_to_end_line(capsys, tmp_path):
    _, result = bench(capsys, tmp_path, "serve", trace=0)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_label_fails(capsys, tmp_path, monkeypatch):
    original = pipeline.build_training_cases

    def corrupted(*args, **kwargs):
        cases = original(*args, **kwargs)
        cases[0] = dataclasses.replace(cases[0], rounds=cases[0].rounds + 1)
        return cases

    monkeypatch.setattr(pipeline, "build_training_cases", corrupted)
    _, result = bench(capsys, tmp_path, "design-lib", trace=0)
    assert not result["correct"] and result["failed"] > 0


def test_corrupted_prediction_fails(capsys, tmp_path, monkeypatch):
    original = pipeline.predict_many

    def corrupted(model, requests):
        rows = original(model, requests)
        rows[-1] = dataclasses.replace(rows[-1], raw_rounds=rows[-1].raw_rounds * 0.5)
        return rows

    monkeypatch.setattr(pipeline, "predict_many", corrupted)
    _, result = bench(capsys, tmp_path, "serve", trace=0)
    assert not result["correct"] and 0 < result["failed"] < result["attempted"]


def raise_error(*args, **kwargs):
    raise RuntimeError("deliberate failure")


@pytest.mark.parametrize("workload, module, name", [
    ("design-lib", pipeline, "predict_many"),        # raises inside check
    ("design-cli-10x", serialize, "load_model"),     # raises inside finish
])
def test_raising_call_is_counted(capsys, tmp_path, monkeypatch, workload, module, name):
    monkeypatch.setattr(module, name, raise_error)
    _, result = bench(capsys, tmp_path, workload, trace=0)
    assert not result["correct"] and result["failed"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
