import json

import pytest

from surfplan.cli import main
from surfplan.dataio import read_dataset_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        {"stage2": {"min_samples_split": 10.0}},
        {"stage2": {"min_child_weight": 1.0}},
        {"stage2": {"bootstrap": 1}},
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

    def test_unknown_model_exits_2(self, capsys, small_dataset, tmp_path):
        code, _, err = run_cli(capsys, "train", "--data", small_dataset,
                               "--model", "bogus", "--out-model",
                               str(tmp_path / "m.json"))
        assert code == 2
        assert "bogus" in err

    def test_tune_runs_grid_search(self, capsys, small_config, small_dataset,
                                   tmp_path):
        model_path = tmp_path / "tuned.json"
        code, out, _ = run_cli(capsys, "train", "--data", small_dataset,
                               "--model", "pipeline", "--out-model",
                               str(model_path), "--config", small_config,
                               "--tune")
        assert code == 0
        assert model_path.exists()

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
        assert "infeasible" in err

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

    def test_compare_subset(self, capsys, small_dataset, small_config, tmp_path):
        out_dir = tmp_path / "cmp2"
        code, _, _ = run_cli(capsys, "compare", "--data", small_dataset,
                             "--out-dir", str(out_dir), "--config", small_config,
                             "--models", "pipeline,heuristic:range_search_w")
        assert code == 0
        lines = (out_dir / "comparison.csv").read_text().splitlines()
        assert len(lines) == 3
