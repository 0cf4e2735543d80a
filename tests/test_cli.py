import contextlib
import hashlib
import io
import json
import logging
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from surfplan import (
    BoostConfig,
    ForestConfig,
    LinearModel,
    OracleConfig,
    PipelineModel,
    cli,
    fit_boosted,
    fit_forest,
    fit_linear,
    save_model,
)
from surfplan import evaluate, models
from surfplan.cli import main
from surfplan.ml.serialize import stage_to_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


NO_RECORDS = "cannot build training cases from an empty dataset"
NO_FEASIBLE = ("no feasible (profile, target) pairs; every menu target is out of reach "
               "for the dataset's profiles")


@pytest.fixture
def no_reading(monkeypatch):
    """Fail any test in which the CLI reads a dataset CSV."""
    def fail(path):
        raise AssertionError(f"dataset {path} was read")

    monkeypatch.setattr(cli, "read_dataset_csv", fail)


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "tiny.json"
    path.write_text(json.dumps({
        "seed": 11,
        "sweep": {"distances": [3], "rounds_min": 1, "rounds_max": 3,
                  "profiles_per_run": 1},
    }))
    return str(path)


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    # Small but trainable: a handful of profiles over the full grid.
    path = tmp_path_factory.mktemp("config") / "small.json"
    path.write_text(json.dumps({
        "seed": 11,
        "sweep": {"profiles_per_run": 6},
        "stage1": {"n_estimators": 40},
    }))
    return str(path)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory, small_config):
    path = tmp_path_factory.mktemp("data") / "data.csv"
    code = main(["generate", "--config", small_config, "--out", str(path)])
    assert code == 0
    return str(path)


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, small_config, small_dataset):
    path = tmp_path_factory.mktemp("models") / "pipeline.json"
    code = main(["train", "--data", small_dataset, "--model", "pipeline",
                 "--out-model", str(path), "--config", small_config])
    assert code == 0
    return str(path)


class TestGenerate:
    def test_tiny_dataset(self, capsys, tiny_config, tmp_path):
        out_path = tmp_path / "tiny.csv"
        code, out, _ = run_cli(capsys, "generate", "--config", tiny_config,
                               "--out", str(out_path))
        assert code == 0
        assert "records=3" in out
        lines = out_path.read_text().splitlines()
        assert len(lines) == 4  # header + 3 rows

    def test_missing_config_exits_2_and_names_path(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        code, _, err = run_cli(capsys, "generate", "--config", str(missing),
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert str(missing) in err

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"sweeps": {}}))
        code, _, err = run_cli(capsys, "generate", "--config", str(config),
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "sweeps" in err

    @pytest.mark.parametrize("payload", [
        {"oracle": "ab"},
        {"sweep": [["profiles_per_run", 2]]},
        {"sweep": {"profiles_per_run": 1.5}},
        {"sweep": {"rounds_max": 10.5}},
        {"sweep": {"rounds_min": True}},
        {"stage1": {"n_estimators": 2.5}},
        {"stage1": {"max_depth": 3.0}},
        {"stage2": {"n_estimators": True}},
        pytest.param({"stage1": {"n_estimators": 10 ** 30}}, id="n_estimators-10**30"),
        pytest.param({"stage2": {"n_estimators": 10_001}}, id="n_estimators-10001"),
        {"stage2": {"min_samples_split": 10.0}},
        {"stage2": {"min_child_weight": 1.0}},
        {"stage2": {"bootstrap": 1}},
        {"stage1": {"gamma": "x"}},
        {"stage2": {"gamma": None}},
        {"stage1": {"learning_rate": True}},
        {"stage1": {"base_score": "1"}},
        {"oracle": {"amplitude": "0.1"}},
        {"oracle": {"floor": True}},
        {"heuristic_weights": {"w_gate": None}},
        {"sweep": {"termination_rate": "1e-3"}},
        {"split": {"test_fraction": [0.2]}},
        {"sweep": {"distances": 5}},
        {"sweep": {"gate_range": "ab"}},
        {"sweep": {"reset_range": [0.001, 0.002, 0.003]}},
        # Integers that no float can hold.
        pytest.param({"oracle": {"amplitude": 10 ** 400}}, id="amplitude-10**400"),
        pytest.param({"heuristic_weights": {"w_gate": 10 ** 400}}, id="w_gate-10**400"),
        pytest.param({"stage1": {"base_score": 10 ** 400}}, id="base_score-10**400"),
        pytest.param({"stage1": {"gamma": 10 ** 400}}, id="gamma-10**400"),
        pytest.param({"sweep": {"gate_range": [1e-3, 10 ** 400]}}, id="gate_range-10**400"),
        pytest.param({"sweep": {"distances": [3, 2 ** 63 + 1]}}, id="distances-2**63+1"),
        # Sweeps past the size caps.
        pytest.param({"sweep": {"rounds_max": 10 ** 19}}, id="rounds_max-10**19"),
        pytest.param({"sweep": {"profiles_per_run": 2_000_000}}, id="profiles_per_run-2000000"),
    ], ids=repr)
    def test_malformed_config_value_exits_2(self, capsys, tmp_path, payload):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(payload))
        out_path = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "generate", "--config", str(config),
                               "--out", str(out_path))
        assert code == 2
        assert "Traceback" not in err
        assert not out_path.exists()
        # The message names the offending key (or the section, when the
        # section itself is malformed).
        section, value = next(iter(payload.items()))
        assert (next(iter(value)) if isinstance(value, dict) else section) in err

    @pytest.mark.parametrize("payload, key", [
        ({"oracle": {"floor": float("nan")}}, "floor"),
        ({"oracle": {"decoherence": float("inf")}}, "decoherence"),
        ({"stage1": {"base_score": float("nan")}}, "base_score"),
        ({"seed": -3}, "seed"),
    ], ids=repr)
    def test_out_of_domain_config_value_exits_2(self, capsys, tmp_path, payload, key):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(payload))
        out_path = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "generate", "--config", str(config),
                               "--out", str(out_path))
        assert code == 2
        assert "Traceback" not in err
        assert key in err
        assert not out_path.exists()

    def test_repeated_target_exits_2(self, capsys, tmp_path):
        config = tmp_path / "repeat.json"
        config.write_text(json.dumps({"targets": [1e-4, 1e-5, 1e-4]}))
        out_path = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "generate", "--config", str(config),
                               "--out", str(out_path))
        assert code == 2
        assert "Traceback" not in err
        assert "target 0.0001 is repeated" in err
        assert not out_path.exists()

    def test_negative_seed_flag_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "generate", "--seed", "-5", "--out", str(out_path))
        assert code == 2
        assert "Traceback" not in err
        assert "seed" in err
        assert not out_path.exists()

    def test_overflowing_decoherence_exits_0_without_a_warning(self, capsys, tmp_path):
        # The penalty overflows to inf and every rate past it clamps to 1.0,
        # as in the scalar oracle; numpy must not print an overflow warning.
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({"oracle": {"decoherence": 1e308},
                                      "sweep": {"profiles_per_run": 2}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "generate", "--config", str(config),
                                     "--out", str(tmp_path / "x.csv"))
        assert (code, err) == (0, "")
        assert "records=" in out

    def test_integer_oracle_constant_past_int64_exits_0(self, capsys, tmp_path):
        # The array oracle multiplies int64 arrays by each constant, so a
        # Python int past int64 must reach it as a float.
        config = tmp_path / "big.json"
        config.write_text(json.dumps({"oracle": {"decoherence": 10 ** 19},
                                      "sweep": {"profiles_per_run": 2}}))
        code, out, err = run_cli(capsys, "generate", "--config", str(config),
                                 "--out", str(tmp_path / "x.csv"))
        assert code == 0
        assert "Traceback" not in err
        assert "records=" in out

    def test_default_scale(self, capsys, tmp_path):
        out_path = tmp_path / "default.csv"
        code, out, _ = run_cli(capsys, "generate", "--out", str(out_path))
        assert code == 0
        count = int(out.split("records=")[1].split()[0])
        assert 4000 <= count <= 20000


class TestTrain:
    def test_pipeline_prints_validation_pearson(self, capsys, small_config,
                                                small_dataset, tmp_path):
        model_path = tmp_path / "m.json"
        code, out, _ = run_cli(capsys, "train", "--data", small_dataset,
                               "--model", "pipeline", "--out-model",
                               str(model_path), "--config", small_config)
        assert code == 0
        assert model_path.exists()
        assert "train_pearson_raw_distance=" in out
        assert "train_pearson_raw_rounds=" in out

    def test_heuristic_model_trains(self, capsys, small_config, small_dataset,
                                    tmp_path):
        model_path = tmp_path / "h.json"
        code, out, _ = run_cli(capsys, "train", "--data", small_dataset,
                               "--model", "heuristic:range_search_w",
                               "--out-model", str(model_path),
                               "--config", small_config)
        assert code == 0
        assert model_path.exists()

    @pytest.mark.parametrize("model", ["pipeline", "heuristic:range_search_w"])
    def test_unreachable_targets_exit_2_before_fitting(self, capsys, small_dataset,
                                                       tmp_path, model):
        config = tmp_path / "unreachable.json"
        config.write_text(json.dumps({"seed": 11, "sweep": {"profiles_per_run": 6},
                                      "targets": [1e-30]}))
        model_path = tmp_path / "m.json"
        code, out, err = run_cli(capsys, "train", "--data", small_dataset, "--model", model,
                                 "--out-model", str(model_path), "--config", str(config))
        assert (code, out, err) == (2, "", f"error: {NO_FEASIBLE}\n")
        assert not model_path.exists()

    def test_a_model_rejected_on_its_training_set_is_not_saved(self, capsys, small_dataset,
                                                              small_config, tmp_path):
        # Every record of the first profile claims a distance past 2**53, so
        # range search recommends it for that profile's cases.
        lines = Path(small_dataset).read_text(encoding="utf-8").splitlines()
        first = lines[1].split(",")[:4]
        for i, line in enumerate(lines[1:], 1):
            cells = line.split(",")
            if cells[:4] == first:
                cells[4] = str(2 ** 61 + 1)
                lines[i] = ",".join(cells)
        data = tmp_path / "far.csv"
        data.write_text("\n".join(lines) + "\n")
        model_path = tmp_path / "m.json"
        code, out, err = run_cli(capsys, "train", "--data", str(data),
                                 "--model", "heuristic:range_search_w",
                                 "--out-model", str(model_path), "--config", small_config)
        assert (code, out) == (2, "")
        assert err.startswith("error: raw distance must be below 2**53, got ")
        assert not model_path.exists()

    def test_too_many_estimators_exit_2_before_fitting(self, capsys, small_dataset, tmp_path):
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({"stage1": {"n_estimators": 10 ** 30}}))
        model_path = tmp_path / "m.json"
        code, _, err = run_cli(capsys, "train", "--data", small_dataset,
                               "--out-model", str(model_path), "--config", str(config))
        assert code == 2
        assert "Traceback" not in err
        assert "'stage1' section: n_estimators must be <= 10000" in err
        assert not model_path.exists()

    def test_unknown_model_exits_2(self, capsys, small_dataset, tmp_path):
        code, _, err = run_cli(capsys, "train", "--data", small_dataset,
                               "--model", "bogus", "--out-model",
                               str(tmp_path / "m.json"))
        assert code == 2
        assert "bogus" in err

    def test_misspelt_model_exits_2_before_reading(self, capsys, small_dataset, tmp_path,
                                                   no_reading):
        model_path = tmp_path / "m.json"
        code, _, err = run_cli(capsys, "train", "--data", small_dataset,
                               "--model", "pipelin", "--out-model", str(model_path))
        assert code == 2
        assert "Traceback" not in err
        assert "unknown model 'pipelin'; expected one of pipeline, linear" in err
        assert not model_path.exists()

    @pytest.mark.parametrize("model", ["linear", "heuristic:range_search_w"])
    def test_tune_with_other_model_exits_2_before_reading(self, capsys, small_dataset,
                                                          tmp_path, no_reading, model):
        model_path = tmp_path / "m.json"
        code, _, err = run_cli(capsys, "train", "--data", small_dataset, "--model", model,
                               "--out-model", str(model_path), "--tune")
        assert code == 2
        assert "Traceback" not in err
        assert f"--tune applies only to the pipeline model, not {model!r}" in err
        assert not model_path.exists()

    def test_tune_runs_grid_search(self, capsys, caplog, small_config, small_dataset,
                                   tmp_path):
        model_path = tmp_path / "tuned.json"
        with caplog.at_level(logging.INFO):
            code, out, _ = run_cli(capsys, "train", "--data", small_dataset,
                                   "--model", "pipeline", "--out-model",
                                   str(model_path), "--config", small_config,
                                   "--tune")
        assert code == 0
        assert any(message.startswith("tuned stage1=") for message in caplog.messages)
        # The tuned model's bytes in format version 2, nodes in level order
        # (version 1 wrote 49d14977..., pinned before the search moved out of
        # the CLI, and version 2 with nodes in pre-order 1df84d15...).
        assert (hashlib.sha256(model_path.read_bytes()).hexdigest()
                == "65f69fc4da80a04f2b5b01ecfbd51d99c18e13865fdb1054749be3b34d743f06")

    def test_malformed_csv_exits_2_with_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("depolarizing,gate,reset,readout,distance,rounds,"
                       "logical_error_rate\n1e-4,oops,1e-4,3e-3,3,1,1e-3\n")
        code, _, err = run_cli(capsys, "train", "--data", str(bad),
                               "--model", "pipeline",
                               "--out-model", str(tmp_path / "m.json"))
        assert code == 2
        assert "row 2" in err and "gate" in err

    def test_csv_field_over_the_csv_limit_exits_2_with_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("depolarizing,gate,reset,readout,distance,rounds,logical_error_rate\n"
                       "1e-4,2e-3,1e-4,3e-3,3,1,1e-3\n"
                       f"1e-4,2e-3,1e-4,3e-3,3,2,{'1' * 200_000}\n")
        model_path = tmp_path / "m.json"
        code, _, err = run_cli(capsys, "train", "--data", str(bad),
                               "--out-model", str(model_path))
        assert code == 2
        assert "Traceback" not in err
        assert "row 3: field larger than field limit (131072)" in err
        assert not model_path.exists()


class TestPredict:
    def test_valid_request_prints_key_values(self, capsys, trained_model):
        code, out, _ = run_cli(capsys, "predict", "--model", trained_model,
                               "--depol", "2e-4", "--gate", "1.2e-3",
                               "--reset", "5e-4", "--readout", "3e-3",
                               "--target", "1e-6")
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        for key in ("raw_distance", "rounded_distance", "raw_rounds",
                    "rounded_rounds", "data_qubits", "total_qubits"):
            assert key in values
        d = int(values["rounded_distance"])
        assert d >= 3 and d % 2 == 1
        assert int(values["data_qubits"]) == d * d
        assert int(values["total_qubits"]) == 2 * d * d - 1

    def test_zero_target_exits_2(self, capsys, trained_model):
        code, _, err = run_cli(capsys, "predict", "--model", trained_model,
                               "--depol", "2e-4", "--gate", "1.2e-3",
                               "--reset", "5e-4", "--readout", "3e-3",
                               "--target", "0")
        assert code == 2

    def test_calibration_file_equivalent(self, capsys, trained_model, tmp_path):
        code_a, out_a, _ = run_cli(capsys, "predict", "--model", trained_model,
                                   "--depol", "2e-4", "--gate", "1.2e-3",
                                   "--reset", "5e-4", "--readout", "3e-3",
                                   "--target", "1e-6")
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps({
            "device": "backend_a", "timestamp": "2026-08-01T00:00:00Z",
            "depolarizing": 2e-4, "gate": 1.2e-3, "reset": 5e-4,
            "readout": 3e-3}))
        code_b, out_b, _ = run_cli(capsys, "predict", "--model", trained_model,
                                   "--calibration", str(snap), "--target", "1e-6")
        assert code_a == code_b == 0
        assert out_a == out_b

    @pytest.mark.parametrize("flag", ["--depol", "--gate", "--reset", "--readout"])
    def test_calibration_with_a_rate_flag_exits_2(self, capsys, tmp_path, flag):
        # Refused before the snapshot or the model is read: neither file
        # exists, and reading one would exit 1. A rate above threshold is
        # refused too, not dropped in favour of the snapshot.
        code, out, err = run_cli(capsys, "predict", "--model", str(tmp_path / "model.json"),
                                 "--calibration", str(tmp_path / "snap.json"), flag, "0.03",
                                 "--target", "1e-6")
        assert (code, out) == (2, "")
        assert err == (f"error: --calibration and {flag} both give the noise profile; "
                       "pass the snapshot or the rates, not both\n")

    def test_above_threshold_exits_3(self, capsys, trained_model):
        code, _, err = run_cli(capsys, "predict", "--model", trained_model,
                               "--depol", "1e-3", "--gate", "0.03",
                               "--reset", "1e-3", "--readout", "0.03",
                               "--target", "1e-6")
        assert code == 3
        assert err == ("infeasible: effective error 1.985e-02 is at or above "
                       "threshold 1.000e-02\n")

    def test_unreachable_target_exits_3(self, capsys, trained_model):
        code, out, err = run_cli(capsys, "predict", "--model", trained_model,
                                 "--depol", "2e-4", "--gate", "1.2e-3",
                                 "--reset", "5e-4", "--readout", "3e-3",
                                 "--target", "1e-14")
        assert code == 3
        assert "infeasible" in err

    def test_label_within_the_target_slack_exits_0(self, capsys, tmp_path):
        # A model that recommends this profile's label at 1e-6, (3, 3), whose
        # rate is one ulp above the target, meets it by the labels' rule.
        path = tmp_path / "three.json"
        constant = LinearModel(coefficients=np.zeros(5), intercept=3.0, n_features=5)
        save_model(PipelineModel(stage1=constant, stage2=LinearModel(np.zeros(2), 3.0, 2),
                                 oracle=OracleConfig(), min_target=1e-6, max_target=1e-6),
                   str(path))
        code, out, err = run_cli(capsys, "predict", "--model", str(path), "--depol", "0",
                                 "--gate", "6.324555320336759e-05", "--reset", "0",
                                 "--readout", "0", "--target", "1e-6")
        assert (code, err) == (0, "")
        assert "rounded_distance=3\nraw_rounds=3.0\nrounded_rounds=3\n" in out
        assert "estimated_ler=1.0000000000000002e-06\n" in out

    def test_missing_rate_flags_exit_2(self, capsys, trained_model):
        code, _, err = run_cli(capsys, "predict", "--model", trained_model,
                               "--depol", "2e-4", "--target", "1e-6")
        assert code == 2
        assert "--gate" in err


@pytest.mark.parametrize("kind", ["data", "calibration", "config", "model"])
def test_non_utf8_input_exits_2(capsys, tmp_path, trained_model, kind):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe{}")
    rates = ["--depol", "2e-4", "--gate", "1.2e-3", "--reset", "5e-4",
             "--readout", "3e-3", "--target", "1e-6"]
    argv = {
        "data": ["train", "--data", str(bad), "--out-model", str(tmp_path / "m.json")],
        "calibration": ["predict", "--model", trained_model, "--calibration", str(bad),
                        "--target", "1e-6"],
        "config": ["generate", "--config", str(bad), "--out", str(tmp_path / "x.csv")],
        "model": ["predict", "--model", str(bad), *rates],
    }[kind]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["calibration", "config", "model"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, trained_model, kind):
    bad = tmp_path / "nested.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    argv = {
        "calibration": ["predict", "--model", trained_model, "--calibration", str(bad),
                        "--target", "1e-6"],
        "config": ["generate", "--config", str(bad), "--out", str(tmp_path / "x.csv")],
        "model": ["predict", "--model", str(bad), "--depol", "2e-4", "--gate", "1.2e-3",
                  "--reset", "5e-4", "--readout", "3e-3", "--target", "1e-6"],
    }[kind]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["calibration", "config", "model"])
def test_json_integer_beyond_digit_limit_exits_2(capsys, tmp_path, trained_model, kind):
    # Python refuses to parse an integer literal of more than 4300 digits.
    huge = "1" * 5000
    bad = tmp_path / "huge.json"
    bad.write_text({
        "calibration": '{"device": "backend_a", "timestamp": "2026-08-01T00:00:00Z", '
                       f'"depolarizing": {huge}, "gate": 1.2e-3, "reset": 5e-4, '
                       '"readout": 3e-3}',
        "config": f'{{"oracle": {{"amplitude": {huge}}}}}',
        "model": f'{{"format": "surfplan-model", "version": {huge}, "model": {{}}}}',
    }[kind])
    argv = {
        "calibration": ["predict", "--model", trained_model, "--calibration", str(bad),
                        "--target", "1e-6"],
        "config": ["generate", "--config", str(bad), "--out", str(tmp_path / "x.csv")],
        "model": ["predict", "--model", str(bad), "--depol", "2e-4", "--gate", "1.2e-3",
                  "--reset", "5e-4", "--readout", "3e-3", "--target", "1e-6"],
    }[kind]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "4300" in err


def test_calibration_rate_too_large_for_float_exits_2(capsys, tmp_path, trained_model):
    snap = tmp_path / "snap.json"
    snap.write_text(json.dumps({
        "device": "backend_a", "timestamp": "2026-08-01T00:00:00Z",
        "depolarizing": 2e-4, "gate": 10 ** 400, "reset": 5e-4, "readout": 3e-3}))
    code, out, err = run_cli(capsys, "predict", "--model", trained_model,
                             "--calibration", str(snap), "--target", "1e-6")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "calibration key 'gate' is too large for a float" in err


@pytest.mark.parametrize("key, value", [("device", None), ("device", 7),
                                        ("timestamp", 5), ("timestamp", ["t"])])
def test_non_string_calibration_field_exits_2(capsys, tmp_path, trained_model, key, value):
    snap = tmp_path / "snap.json"
    snap.write_text(json.dumps({
        "device": "backend_a", "timestamp": "2026-08-01T00:00:00Z",
        "depolarizing": 2e-4, "gate": 1.2e-3, "reset": 5e-4, "readout": 3e-3, key: value}))
    code, out, err = run_cli(capsys, "predict", "--model", trained_model,
                             "--calibration", str(snap), "--target", "1e-6")
    assert (code, out) == (2, "")
    assert err == (f"error: calibration key '{key}' must be a string, "
                   f"got {type(value).__name__}\n")


@pytest.mark.parametrize("source", ["flags", "calibration"])
@pytest.mark.parametrize("rates,message", [
    # These keep the ids their earlier messages gave them.
    pytest.param(("2e-4", "1.5", "5e-4", "3e-3"), "gate must be in [0, 1), got 1.5",
                 id="rates0-gate out of range [0, 1): 1.5"),
    pytest.param(("2e-4", "-1e-3", "5e-4", "3e-3"), "gate must be in [0, 1), got -0.001",
                 id="rates1-gate out of range [0, 1): -0.001"),
    (("2e-4", "nan", "5e-4", "3e-3"), "gate must be finite, got nan"),
    (("0", "0", "0", "0"), "all-zero noise profile")])
def test_bad_rate_exits_2_with_the_profile_message(capsys, tmp_path, trained_model, source,
                                                   rates, message):
    if source == "flags":
        profile = [f"--{flag}={rate}" for flag, rate in zip(
            ("depol", "gate", "reset", "readout"), rates)]
    else:
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps({
            "device": "backend_a", "timestamp": "2026-08-01T00:00:00Z",
            **dict(zip(("depolarizing", "gate", "reset", "readout"), map(float, rates)))}))
        profile = ["--calibration", str(snap)]
        if message == "gate must be finite, got nan":
            # The snapshot reader checks each rate is a finite number first.
            message = "calibration key 'gate' must be finite, got nan"
    code, out, err = run_cli(capsys, "predict", "--model", trained_model, *profile,
                             "--target", "1e-6")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _stage_dict(kind):
    """A stage of ``kind`` on stage 1's five features, as a model file holds
    it; a ``tree`` stage as the one-tree stage that files of earlier builds
    held."""
    rng = np.random.default_rng(5)
    features, targets = rng.uniform(size=(40, 5)), rng.uniform(3, 9, size=40)
    fitted = {
        "tree": lambda: fit_forest(features, targets, ForestConfig(n_estimators=1)),
        "forest": lambda: fit_forest(features, targets, ForestConfig(n_estimators=3)),
        "boosted": lambda: fit_boosted(features, targets, BoostConfig(n_estimators=3)),
        "linear": lambda: fit_linear(features, targets),
    }[kind]()
    return {**stage_to_dict(fitted), "kind": kind}


def _model_argv(command, path, dataset, tmp_path):
    return {
        "predict": ["predict", "--model", str(path), "--depol", "2e-4", "--gate", "1.2e-3",
                    "--reset", "5e-4", "--readout", "3e-3", "--target", "1e-6"],
        "evaluate": ["evaluate", "--model", str(path), "--data", dataset,
                     "--out-dir", str(tmp_path / "reports")],
    }[command]


@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("stage", ["tree", "forest", "boosted", "linear"])
def test_bare_stage_model_exits_2(capsys, tmp_path, small_dataset, no_reading, stage, command):
    # A model file holds a pipeline or a heuristic model; a v2 envelope
    # around a bare stage is refused at load, before any data is read.
    path = tmp_path / f"{stage}.json"
    path.write_text(json.dumps({"format": "surfplan-model", "version": 2,
                                "model": _stage_dict(stage)}))
    code, out, err = run_cli(capsys, *_model_argv(command, path, small_dataset, tmp_path))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert f"model kind '{stage}' is not a predictor" in err
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_pipeline_with_a_tree_stage_exits_2(capsys, tmp_path, trained_model, small_dataset,
                                            no_reading, command):
    with open(trained_model, encoding="utf-8") as handle:
        data = json.load(handle)
    data["model"]["stage1"] = _stage_dict("tree")
    path = tmp_path / "tree_stage.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, *_model_argv(command, path, small_dataset, tmp_path))
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert "unknown stage model kind 'tree'" in err
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("corrupt", ["short_stage1_schema", "renamed_stage1_feature",
                                     "decoherence_nan", "learning_rate_true"])
def test_corrupt_model_exits_2_at_load(capsys, tmp_path, trained_model, corrupt):
    with open(trained_model, encoding="utf-8") as handle:
        data = json.load(handle)
    if corrupt == "short_stage1_schema":
        data["model"]["stage1_schema"] = data["model"]["stage1_schema"][:4]
    elif corrupt == "renamed_stage1_feature":
        data["model"]["stage1_schema"][4] = "target"
    elif corrupt == "decoherence_nan":
        data["model"]["oracle"]["decoherence"] = float("nan")
    else:
        data["model"]["stage1"]["learning_rate"] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "predict", "--model", str(bad), "--depol", "2e-4",
                             "--gate", "1.2e-3", "--reset", "5e-4", "--readout", "3e-3",
                             "--target", "1e-6")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


def _swap_first_uses(stage):
    """Number the stage's second and third distinct trees the other way round."""
    stage["tree_of"] = [{1: 2, 2: 1}.get(number, number) for number in stage["tree_of"]]


def _empty_first_block(model):
    model["block_lengths"][1] += model["block_lengths"][0]
    model["block_lengths"][0] = 0


@pytest.mark.parametrize("source, corrupt, message", [
    ("pipeline", lambda m: m["stage1"]["tree_of"].__setitem__(-1, len(m["stage1"]["node_counts"])),
     "stage 'tree_of' must number"),
    ("pipeline", lambda m: m["stage1"]["tree_of"].__setitem__(0, -1), "stage 'tree_of' must"),
    ("pipeline", lambda m: _swap_first_uses(m["stage1"]), "stage 'tree_of' must"),
    ("pipeline", lambda m: m["stage2"].update(tree_of=[0] * 10_001), "stage 'tree_of' must"),
    ("pipeline", lambda m: m["stage1"]["node_counts"].append(1), "but 'node_counts' sum to"),
    ("pipeline", lambda m: m["stage2"]["node_counts"].__setitem__(0, 2 ** 62),
     "but 'node_counts' sum to"),
    ("pipeline", lambda m: m["stage2"]["node_counts"].__setitem__(0, -2 ** 62),
     "'node_counts' must be >= 1"),
    ("heuristic", _empty_first_block, "'block_lengths' must be >= 1"),
    ("heuristic", lambda m: m["block_lengths"].__setitem__(0, 2 ** 62),
     "'block_lengths' must be >= 1 and sum to the record count"),
    ("heuristic", lambda m: m["profiles"][0].__setitem__(1, 1.0),
     "gate must be in [0, 1), got 1.0"),
    ("heuristic", lambda m: m["distance"].__setitem__(0, 4), "distance must be odd, got 4"),
], ids=["tree_of_past_the_trees", "negative_tree_of", "non_canonical_tree_of",
        "tree_of_past_max_estimators", "node_counts_off_by_one", "node_count_2**62",
        "node_count_-2**62", "zero_block_length", "block_length_2**62", "gate_rate_1.0",
        "even_distance"])
def test_corrupt_v2_payload_exits_2(capsys, tmp_path, trained_model, trained_heuristic,
                                    source, corrupt, message):
    # Each is rejected before anything the size of a count is allocated.
    with open(trained_model if source == "pipeline" else trained_heuristic,
              encoding="utf-8") as handle:
        data = json.load(handle)
    corrupt(data["model"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "predict", "--model", str(bad), "--depol", "2e-4",
                                 "--gate", "1.2e-3", "--reset", "5e-4", "--readout", "3e-3",
                                 "--target", "1e-6")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert message in err
    assert peak < 16 * 2 ** 20


def test_version_1_model_exits_2_with_a_retrain_hint(capsys, tmp_path, trained_model):
    with open(trained_model, encoding="utf-8") as handle:
        data = json.load(handle)
    data["version"] = 1
    bad = tmp_path / "v1.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "predict", "--model", str(bad), "--depol", "2e-4",
                             "--gate", "1.2e-3", "--reset", "5e-4", "--readout", "3e-3",
                             "--target", "1e-6")
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert "model format version 1 is no longer read; retrain the model" in err


@pytest.fixture(scope="module")
def trained_heuristic(tmp_path_factory, small_config, small_dataset):
    path = tmp_path_factory.mktemp("models") / "heuristic.json"
    code = main(["train", "--data", small_dataset, "--model", "heuristic:range_search_w",
                 "--out-model", str(path), "--config", small_config])
    assert code == 0
    return str(path)


@pytest.mark.parametrize("model, field, bad, message", [
    ("pipeline", ("stage1",), None, "a stage must be a JSON object, got NoneType"),
    ("pipeline", ("stage1",), [], "a stage must be a JSON object, got list"),
    ("pipeline", ("stage2",), None, "a stage must be a JSON object, got NoneType"),
    ("pipeline", ("stage2",), [1.0], "a stage must be a JSON object, got list"),
    ("heuristic", ("heuristic",), 5, "heuristic kind must be a string, got 5"),
    ("heuristic", ("heuristic",), None, "heuristic kind must be a string, got None"),
    # numpy reads a bool beside numbers as 1 or 0, so these loaded and predicted.
    ("pipeline", ("stage1", "threshold", 0), True,
     "stage 'threshold' must hold only JSON numbers"),
    ("pipeline", ("stage2", "value", -1), False,
     "stage 'value' must hold only JSON numbers"),
], ids=repr)
def test_wrongly_typed_model_field_exits_2(capsys, tmp_path, trained_model, trained_heuristic,
                                          model, field, bad, message):
    source = trained_model if model == "pipeline" else trained_heuristic
    with open(source, encoding="utf-8") as handle:
        data = json.load(handle)
    parent = data["model"]
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "predict", "--model", str(path), "--depol", "2e-4",
                             "--gate", "1.2e-3", "--reset", "5e-4", "--readout", "3e-3",
                             "--target", "1e-6")
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert message in err


@pytest.fixture(scope="module")
def unusable_case_sets(tmp_path_factory, small_dataset):
    """(data, config) per unusable case set: a header-only CSV, a menu that no
    profile reaches, and one profile with two reachable targets."""
    root = tmp_path_factory.mktemp("unusable")
    with open(small_dataset, encoding="utf-8") as handle:
        header = handle.readline()
    (root / "empty.csv").write_text(header)
    for name, config in (("default", {}),
                         ("unreachable", {"seed": 11, "sweep": {"profiles_per_run": 6},
                                          "targets": [1e-30]}),
                         ("two", {"seed": 11, "sweep": {"profiles_per_run": 1},
                                  "targets": [1e-4, 1e-6]})):
        (root / f"{name}.json").write_text(json.dumps(config))
    assert main(["generate", "--config", str(root / "two.json"),
                 "--out", str(root / "two.csv")]) == 0
    return {"empty": (root / "empty.csv", root / "default.json"),
            "unreachable": (small_dataset, root / "unreachable.json"),
            "two": (root / "two.csv", root / "two.json")}


# ``train`` on an unreachable menu is TestTrain's.
@pytest.mark.parametrize("case_set, command", [
    ("empty", "train"), ("empty", "evaluate"), ("empty", "compare"),
    ("unreachable", "evaluate"), ("unreachable", "compare"), ("two", "compare"),
])
def test_unusable_case_set_exits_2_with_the_library_message(
        capsys, tmp_path, trained_model, unusable_case_sets, case_set, command):
    message = {"empty": NO_RECORDS, "unreachable": NO_FEASIBLE,
               "two": "need at least 5 cases to split, got 2"}[case_set]
    data, config = map(str, unusable_case_sets[case_set])
    out_model, out_dir = tmp_path / "m.json", tmp_path / "reports"
    argv = {"train": ["train", "--out-model", str(out_model)],
            "evaluate": ["evaluate", "--model", trained_model, "--out-dir", str(out_dir)],
            "compare": ["compare", "--out-dir", str(out_dir)]}[command]
    code, out, err = run_cli(capsys, *argv, "--data", data, "--config", config)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_model.exists() and not out_dir.exists()


@pytest.mark.parametrize("command", ["generate", "train", "predict-model",
                                     "predict-calibration", "evaluate"])
def test_io_failure_exits_1_with_one_line(capsys, tmp_path, trained_model, small_dataset,
                                          small_config, command):
    missing = tmp_path / "missing"
    blocker = tmp_path / "reports"
    blocker.write_text("not a directory")
    rates = ["--depol", "2e-4", "--gate", "1.2e-3", "--reset", "5e-4", "--readout", "3e-3"]
    argv = {
        "generate": ["generate", "--config", small_config, "--out", str(missing / "data.csv")],
        "train": ["train", "--config", small_config, "--data", str(missing / "data.csv"),
                  "--out-model", str(tmp_path / "model.json")],
        "predict-model": ["predict", "--model", str(missing / "model.json"), *rates,
                          "--target", "1e-6"],
        "predict-calibration": ["predict", "--model", trained_model, "--calibration",
                                str(missing / "snapshot.json"), "--target", "1e-6"],
        "evaluate": ["evaluate", "--config", small_config, "--model", trained_model,
                     "--data", small_dataset, "--out-dir", str(blocker)],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["reports"]
    assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize("command, target", [
    ("evaluate", "blocker"), ("evaluate", "blocker/sub"), ("compare", "blocker"),
    ("train", "missing/model.json"), ("train", "directory"),
    ("generate", "missing/data.csv"), ("generate", "directory"),
    ("generate", "blocker/data.csv"),
    ("evaluate", ""), ("compare", ""), ("generate", ""), ("evaluate-config", ""),
])
def test_unusable_output_fails_before_the_work(capsys, tmp_path, monkeypatch, trained_model,
                                               small_dataset, small_config, command, target):
    # An output location that cannot be written fails before the model or
    # the dataset is read or generated, so nothing is labeled, fitted or
    # scored first, and nothing is created. An empty path names nothing,
    # and ``evaluate-config`` takes it from the config's ``paths.out_dir``.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blocker").write_text("not a directory")
    (tmp_path / "directory").mkdir()

    def fail(*args, **kwargs):
        raise AssertionError("the work started before the output was checked")

    for module, name in ((models, "fit_named_model"), (cli, "fit_named_model"),
                         (evaluate, "evaluate_model"), (cli, "evaluate_model"),
                         (cli, "load_model"), (cli, "read_dataset_csv"),
                         (cli, "generate_dataset")):
        monkeypatch.setattr(module, name, fail)
    out = str(tmp_path / target) if target else ""
    config = small_config
    if command == "evaluate-config":
        with open(small_config, encoding="utf-8") as handle:
            values = {**json.load(handle), "paths": {"out_dir": ""}}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
    before = sorted(tmp_path.rglob("*"))
    argv = {"train": ["train", "--data", small_dataset, "--out-model", out],
            "evaluate": ["evaluate", "--model", trained_model, "--data", small_dataset,
                         "--out-dir", out],
            "evaluate-config": ["evaluate", "--model", trained_model, "--data", small_dataset],
            "compare": ["compare", "--data", small_dataset, "--out-dir", out],
            "generate": ["generate", "--out", out]}[command]
    code, stdout, err = run_cli(capsys, *argv, "--config", str(config))
    assert (code, stdout) == (1, "")
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("out_dir", ["a\x00b", "r\ud800"], ids=repr)
@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_unnameable_config_out_dir_exits_2_before_the_work(capsys, tmp_path, monkeypatch,
                                                          trained_model, small_dataset,
                                                          small_config, command, out_dir):
    # No file system can name a NUL or a lone surrogate, so the config is
    # rejected as it loads, not in os.makedirs after the work.
    monkeypatch.chdir(tmp_path)

    def fail(*args, **kwargs):
        raise AssertionError("the work started before the config was checked")

    for name in ("fit_named_model", "evaluate_model", "load_model", "read_dataset_csv"):
        monkeypatch.setattr(cli, name, fail)
    with open(small_config, encoding="utf-8") as handle:
        values = {**json.load(handle), "paths": {"out_dir": out_dir}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    argv = {"evaluate": ["evaluate", "--model", trained_model],
            "compare": ["compare"]}[command]
    code, stdout, err = run_cli(capsys, *argv, "--data", small_dataset,
                                "--config", str(config))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "out_dir" in err
    assert "Traceback" not in err
    assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


def test_compare_rejects_an_empty_test_split_before_fitting(capsys, tmp_path, monkeypatch):
    # Two profiles label at most 12 cases, and floor(12 * 0.05) is 0.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sweep": {"profiles_per_run": 2},
                                  "split": {"test_fraction": 0.05}}))
    data, out_dir = tmp_path / "data.csv", tmp_path / "cmp"
    assert run_cli(capsys, "generate", "--config", str(config), "--out", str(data))[0] == 0

    def fail(*args, **kwargs):
        raise AssertionError("a model was fitted")

    monkeypatch.setattr(models, "fit_named_model", fail)
    code, out, err = run_cli(capsys, "compare", "--config", str(config), "--data", str(data),
                             "--out-dir", str(out_dir))
    assert (code, out) == (2, "")
    assert err.startswith("error: a test_fraction of 0.05 leaves no test case among ")
    assert not out_dir.exists()


class TestEvaluateAndCompare:
    def test_evaluate_writes_reports(self, capsys, trained_model, small_dataset,
                                     small_config, tmp_path):
        out_dir = tmp_path / "reports" / "nested"
        code, out, _ = run_cli(capsys, "evaluate", "--model", trained_model,
                               "--data", small_dataset, "--out-dir",
                               str(out_dir), "--config", small_config)
        assert code == 0
        for name in ("report.json", "deltas.csv", "heatmap.csv"):
            assert (out_dir / name).exists()
        assert "pearson_raw_distance=" in out
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["dler_source"] == "synthetic-oracle"
        assert "timing_ms" in payload
        assert list(payload["timing_ms"]) == ["mean"]  # one batch is timed, not each case

    def test_overflowing_pearson_is_undefined(self, capsys, trained_model, small_dataset,
                                              small_config, tmp_path):
        # Distinct huge finite rounds overflow the Pearson sums: the
        # coefficient is undefined, not -0.0, and numpy does not warn.
        data = json.loads(Path(trained_model).read_text(encoding="utf-8"))
        values = data["model"]["stage2"]["value"]
        data["model"]["stage2"]["value"] = [1e300 * (1 + i % 7) / 7 for i in range(len(values))]
        model = tmp_path / "huge_rounds.json"
        model.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "evaluate", "--model", str(model), "--data",
                                 small_dataset, "--out-dir", str(tmp_path / "reports"),
                                 "--config", small_config)
        assert (code, err) == (0, "")
        assert "pearson_raw_rounds=undefined\n" in out
        assert "pearson_rounded_rounds=undefined\n" in out

    def test_raw_distance_past_2_53_exits_2(self, capsys, trained_model, small_dataset,
                                            small_config, tmp_path):
        # Past 2**53 a float64 skips odd integers, so stage two could not
        # read the recommended distance: both commands name the bound.
        data = json.loads(Path(trained_model).read_text(encoding="utf-8"))
        stage = data["model"]["stage1"]
        stage["value"] = [1e300 if feature == -1 else value
                          for feature, value in zip(stage["feature"], stage["value"])]
        model = tmp_path / "huge_distance.json"
        model.write_text(json.dumps(data))
        for argv in (("predict", "--model", str(model), "--depol", "2e-4", "--gate", "1.2e-3",
                      "--reset", "5e-4", "--readout", "3e-3", "--target", "1e-6"),
                     ("evaluate", "--model", str(model), "--data", small_dataset,
                      "--out-dir", str(tmp_path / "reports"), "--config", small_config)):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: raw distance must be below 2**53, got ")
            assert len(err) < 100

    def test_compare_writes_rows_for_all_models(self, capsys, small_dataset,
                                                small_config, tmp_path):
        out_dir = tmp_path / "cmp"
        code, out, _ = run_cli(capsys, "compare", "--data", small_dataset,
                               "--out-dir", str(out_dir), "--config", small_config)
        assert code == 0
        lines = (out_dir / "comparison.csv").read_text().splitlines()
        assert lines[0].startswith("model,")
        assert len(lines) == 1 + 10  # 8 heuristics + linear + pipeline
        assert "pipeline" in out

    @pytest.mark.parametrize("seed, digest", [
        (42, "1b37fdf16e32d410d88c22bcc0f0ef5ea75b68110b7e27f8ef625259f997fb14"),
        (7, "25e3a48cdd880640ec9ed5f459455f6e227d61113c5798e8522d24f701b4b0eb"),
    ])
    def test_default_comparison_is_pinned(self, capsys, tmp_path, seed, digest):
        # SHA-256 of comparison.csv after ``generate --seed S`` and ``compare
        # --seed S`` on the default config, as each heuristic fitted its own
        # training state before the comparison derived it once for all.
        data = tmp_path / "data.csv"
        assert run_cli(capsys, "generate", "--seed", str(seed), "--out", str(data))[0] == 0
        assert run_cli(capsys, "compare", "--data", str(data), "--seed", str(seed),
                       "--out-dir", str(tmp_path / "cmp"))[0] == 0
        text = (tmp_path / "cmp" / "comparison.csv").read_bytes()
        assert hashlib.sha256(text).hexdigest() == digest

    def test_compare_subset(self, capsys, small_dataset, small_config, tmp_path):
        out_dir = tmp_path / "cmp2"
        code, _, _ = run_cli(capsys, "compare", "--data", small_dataset,
                             "--out-dir", str(out_dir), "--config", small_config,
                             "--models", "pipeline,heuristic:range_search_w")
        assert code == 0
        lines = (out_dir / "comparison.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_compare_repeated_model_exits_2(self, capsys, small_dataset, small_config,
                                            tmp_path):
        out_dir = tmp_path / "cmp3"
        code, out, err = run_cli(capsys, "compare", "--data", small_dataset,
                                 "--out-dir", str(out_dir), "--config", small_config,
                                 "--models", "pipeline,heuristic:range_search_w,pipeline")
        assert code == 2
        assert "Traceback" not in err
        assert "'pipeline' is named more than once" in err
        assert not (out_dir / "comparison.csv").exists()

    @pytest.mark.parametrize("models, message", [
        (",", "unknown model ''; expected one of"),
        ("pipelin,linear", "unknown model 'pipelin'; expected one of"),
        ("pipeline,bogus,pipeline", "unknown model 'bogus'; expected one of"),
        ("pipeline", "compare_models needs at least two model names"),
        ("linear,linear", "model 'linear' is named more than once"),
    ])
    def test_compare_names_are_checked_before_reading(self, capsys, small_dataset,
                                                      tmp_path, no_reading, models,
                                                      message):
        out_dir = tmp_path / "cmp4"
        code, _, err = run_cli(capsys, "compare", "--data", small_dataset,
                               "--out-dir", str(out_dir), "--models", models)
        assert code == 2
        assert "Traceback" not in err
        assert message in err
        assert not out_dir.exists()


def _parse(parser, argv):
    """What ``parser.parse_args(argv)`` gives: its namespace (the command
    function by name) or its exit code, and its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
            namespace["func"] = namespace["func"].__name__
        except SystemExit as exc:
            namespace = exc.code
    return namespace, out.getvalue(), err.getvalue()


RATES = ["--depol", "2e-4", "--gate", "1.2e-3", "--reset", "5e-4", "--readout", "3e-3"]


@pytest.mark.parametrize("argv", [
    ["generate", "--out", "d.csv", "--seed", "3"],
    ["generate", "--help"],
    ["generate", "--seed", "x", "--out", "d.csv"],
    ["train", "--data", "d.csv", "--out-model", "m.json", "--tune", "--config", "c.json"],
    ["train", "-h"],
    ["train", "--data"],
    ["predict", "--model", "m.json", *RATES, "--target", "1e-6"],
    ["predict", "--mod", "m.json", "--calibration", "c.json", "--targ", "1e-6"],
    ["predict", "--help"],
    ["predict", "--model", "m.json", *RATES],
    ["predict", "--model", "m.json", *RATES, "--target", "tiny"],
    ["predict", "--model", "m.json", *RATES, "--target", "1e-6", "--seed", "3"],
    ["predict", "--model", "m.json", *RATES, "--target", "1e-6", "compare"],
    ["evaluate", "--model", "m.json", "--data", "d.csv", "--out-dir", "out"],
    ["evaluate", "--help"],
    ["compare", "--data", "d.csv", "--models", "pipeline,forest"],
    ["compare", "--help"],
    ["compare", "--data", "d.csv", "--out-model", "m.json"],
])
def test_a_command_parses_as_on_the_full_parser(argv):
    full = _parse(cli.build_parser(), argv)
    assert _parse(cli.build_parser(argv[0]), argv) == full
    assert full[0] not in (None, 0) or full[1]  # a namespace, an error, or help text


def test_main_builds_only_the_named_command(capsys, monkeypatch, tmp_path):
    built = []
    build = cli.build_parser

    def recorded(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", recorded)
    model = str(tmp_path / "missing.json")
    assert run_cli(capsys, "predict", "--model", model, *RATES, "--target", "1e-6")[0] == 1
    for argv in ([], ["--help"], ["bogus"], ["--seed", "3", "generate"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert built == ["predict", None, None, None, None]
    assert capsys.readouterr().out == build().format_help()
