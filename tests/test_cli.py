import hashlib
import json
import logging
import warnings

import numpy as np
import pytest

from surfplan import (
    BoostConfig,
    ForestConfig,
    HeuristicKind,
    cli,
    fit_boosted,
    fit_forest,
    fit_heuristic,
    fit_linear,
    fit_tree,
    load_model,
    save_model,
)
from surfplan.cli import main
from surfplan.dataio import read_dataset_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, _, err = run_cli(capsys, "train", "--data", small_dataset, "--model", model,
                               "--out-model", str(model_path), "--config", str(config))
        assert code == 2
        assert "no feasible (profile, target) pairs" in err
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
        # The tuned model's bytes, pinned before the search moved out of the CLI.
        assert (hashlib.sha256(model_path.read_bytes()).hexdigest()
                == "49d14977f6e69ffb58279167263ba62bf6a910f947a83d7162c416299310a37c")

    def test_malformed_csv_exits_2_with_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("depolarizing,gate,reset,readout,distance,rounds,"
                       "logical_error_rate\n1e-4,oops,1e-4,3e-3,3,1,1e-3\n")
        code, _, err = run_cli(capsys, "train", "--data", str(bad),
                               "--model", "pipeline",
                               "--out-model", str(tmp_path / "m.json"))
        assert code == 2
        assert "row 2" in err and "gate" in err


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


@pytest.mark.parametrize("source", ["flags", "calibration"])
@pytest.mark.parametrize("rates,message", [
    (("2e-4", "1.5", "5e-4", "3e-3"), "gate out of range [0, 1): 1.5"),
    (("2e-4", "-1e-3", "5e-4", "3e-3"), "gate out of range [0, 1): -0.001"),
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
    code, out, err = run_cli(capsys, "predict", "--model", trained_model, *profile,
                             "--target", "1e-6")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("stage", ["tree", "forest", "boosted", "linear"])
def test_bare_stage_model_exits_2(capsys, tmp_path, small_dataset, stage, command):
    rng = np.random.default_rng(5)
    features, targets = rng.uniform(size=(40, 5)), rng.uniform(3, 9, size=40)
    fitted = {
        "tree": lambda: fit_tree(features, targets),
        "forest": lambda: fit_forest(features, targets, ForestConfig(n_estimators=3)),
        "boosted": lambda: fit_boosted(features, targets, BoostConfig(n_estimators=3)),
        "linear": lambda: fit_linear(features, targets),
    }[stage]()
    path = tmp_path / f"{stage}.json"
    save_model(fitted, path)
    assert type(load_model(path)) is type(fitted)  # the library still loads it
    argv = {
        "predict": ["predict", "--model", str(path), "--depol", "2e-4", "--gate", "1.2e-3",
                    "--reset", "5e-4", "--readout", "3e-3", "--target", "1e-6"],
        "evaluate": ["evaluate", "--model", str(path), "--data", small_dataset,
                     "--out-dir", str(tmp_path / "reports")],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert f"holds a bare {type(fitted).__name__} stage, not a predictor" in err
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("corrupt", ["short_stage1_schema", "renamed_stage1_feature",
                                     "scale_1e-160", "scale_5e-324", "decoherence_nan",
                                     "learning_rate_true"])
def test_corrupt_model_exits_2_at_load(capsys, tmp_path, trained_model, small_dataset,
                                       corrupt):
    if corrupt == "short_stage1_schema":
        with open(trained_model, encoding="utf-8") as handle:
            data = json.load(handle)
        data["model"]["stage1_schema"] = data["model"]["stage1_schema"][:4]
    elif corrupt == "renamed_stage1_feature":
        with open(trained_model, encoding="utf-8") as handle:
            data = json.load(handle)
        data["model"]["stage1_schema"][4] = "target"
    elif corrupt == "decoherence_nan":
        with open(trained_model, encoding="utf-8") as handle:
            data = json.load(handle)
        data["model"]["oracle"]["decoherence"] = float("nan")
    elif corrupt == "learning_rate_true":
        with open(trained_model, encoding="utf-8") as handle:
            data = json.load(handle)
        data["model"]["stage1"]["learning_rate"] = True
    else:
        save_model(fit_heuristic(read_dataset_csv(small_dataset),
                                 HeuristicKind.parse("range_search_w")), tmp_path / "h.json")
        data = json.loads((tmp_path / "h.json").read_text())
        scale = float(corrupt.split("_")[1])
        for name in ("stage1_scaler", "stage2_scaler"):
            data["model"][name]["scale"] = [scale] * len(data["model"][name]["scale"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "predict", "--model", str(bad), "--depol", "2e-4",
                             "--gate", "1.2e-3", "--reset", "5e-4", "--readout", "3e-3",
                             "--target", "1e-6")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


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
    ("pipeline", ("stage1", "trees", 0, "threshold", 0), True,
     "tree 'threshold' must hold only JSON numbers"),
    ("pipeline", ("stage2", "trees", 0, "value", -1), False,
     "tree 'value' must hold only JSON numbers"),
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
        ("linear,linear", "model 'linear' is named more than once in --models"),
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
