import hashlib
import json

import numpy as np
import pytest

from surfplan import (
    BoostConfig,
    ForestConfig,
    HeuristicKind,
    NoiseProfile,
    PredictionRequest,
    SweepConfig,
    TreeConfig,
    fit_boosted,
    fit_forest,
    fit_heuristic,
    fit_linear,
    fit_pipeline_cases,
    fit_tree,
    generate_dataset,
    load_model,
    save_model,
)
from surfplan.config import load_config
from surfplan.evaluate import evaluate_model, split
from surfplan.ml import build_training_cases
from surfplan.ml.serialize import CorruptModelError, ModelVersionError
from surfplan.models import HEURISTIC_NAMES, fit_named_model


@pytest.fixture(scope="module")
def training_setup():
    sweep = SweepConfig(profiles_per_run=4, seed=2)
    records = generate_dataset(sweep)
    cases = build_training_cases(records, sweep)
    rng = np.random.default_rng(1)
    requests = []
    for _ in range(100):
        requests.append(PredictionRequest(
            noise=NoiseProfile(
                depolarizing=float(rng.uniform(*sweep.depolarizing_range)),
                gate=float(rng.uniform(*sweep.gate_range)),
                reset=float(rng.uniform(*sweep.reset_range)),
                readout=float(rng.uniform(*sweep.readout_range))),
            target_logical_error_rate=float(10 ** rng.uniform(-9, -3))))
    return records, cases, requests


class TestRoundTrips:
    def test_pipeline_predicts_identically(self, training_setup, tmp_path):
        records, cases, requests = training_setup
        model = fit_pipeline_cases(cases, BoostConfig(n_estimators=30), ForestConfig())
        path = tmp_path / "pipeline.json"
        save_model(model, path)
        loaded = load_model(path)
        for request in requests:
            assert loaded.predict_result(request) == model.predict_result(request)

    def test_heuristic_predicts_identically(self, training_setup, tmp_path):
        records, cases, requests = training_setup
        for label in ("range_search_w", "multivariate_interp_n_w", "linear_interp_w"):
            model = fit_heuristic(records, HeuristicKind.parse(label))
            path = tmp_path / f"{label}.json"
            save_model(model, path)
            loaded = load_model(path)
            for request in requests[:25]:
                assert loaded.predict_result(request) == model.predict_result(request)

    def test_stage_models_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(60, 3))
        targets = rng.normal(size=60)
        queries = rng.normal(size=(40, 3))
        models = [
            fit_tree(features, targets, TreeConfig(max_depth=4)),
            fit_forest(features, targets, ForestConfig(n_estimators=3, seed=1)),
            fit_boosted(features, targets, BoostConfig(n_estimators=5)),
            fit_linear(features, targets),
        ]
        for i, model in enumerate(models):
            path = tmp_path / f"stage{i}.json"
            save_model(model, path)
            loaded = load_model(path)
            assert np.array_equal(loaded.predict(queries), model.predict(queries))


def test_default_pipeline_model_is_pinned(tmp_path):
    # SHA-256 of the saved default-config (seed 42) pipeline model as the
    # node-at-a-time recursive tree builder grew it. A drift in any tree's
    # bits or node order changes it.
    config = load_config(None)
    model = fit_named_model(
        "pipeline", records=generate_dataset(config.sweep, config.oracle),
        sweep=config.sweep, oracle=config.oracle, stage1_config=config.stage1,
        stage2_config=config.stage2, menu=config.targets)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "b226cc9600bc834ccf340acf979b7af89fc1ed178dfd144890f7f9a185613a16")


def test_default_heuristic_predictions_are_pinned():
    # SHA-256 over the eight heuristics' predictions (raw and rounded distance
    # and rounds, as repr) on the default config's (seed 42) compare split, as
    # the per-request computation made them before the models derived their
    # training state once. A drift in any prediction's bits changes it.
    config = load_config(None)
    records = generate_dataset(config.sweep, config.oracle)
    cases = build_training_cases(records, config.sweep, config.oracle, config.targets)
    _, test_cases = split(cases, config.split)
    digest = hashlib.sha256()
    for name in HEURISTIC_NAMES:
        model = fit_named_model(name, records=records, oracle=config.oracle,
                                weights=config.heuristic_weights)
        report = evaluate_model(model, test_cases, config.oracle)
        for values in (report.predicted_raw_distance, report.predicted_distance,
                       report.predicted_raw_rounds, report.predicted_rounds):
            digest.update(repr(values).encode())
    assert (digest.hexdigest()
            == "95f56362806869ac91b5db0b67f6b88da66281d49e434a07b5bfe254e2e1a251")


class TestFailureModes:
    def _saved_pipeline(self, training_setup, tmp_path):
        records, cases, requests = training_setup
        model = fit_pipeline_cases(cases, BoostConfig(n_estimators=3))
        path = tmp_path / "model.json"
        save_model(model, path)
        return path

    def test_unknown_version_rejected(self, training_setup, tmp_path):
        path = self._saved_pipeline(training_setup, tmp_path)
        data = json.loads(path.read_text())
        data["version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ModelVersionError, match="version"):
            load_model(path)

    def test_missing_format_tag_rejected(self, training_setup, tmp_path):
        path = self._saved_pipeline(training_setup, tmp_path)
        data = json.loads(path.read_text())
        del data["format"]
        path.write_text(json.dumps(data))
        with pytest.raises(ModelVersionError):
            load_model(path)

    def test_truncated_file_rejected(self, training_setup, tmp_path):
        path = self._saved_pipeline(training_setup, tmp_path)
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        with pytest.raises(CorruptModelError):
            load_model(path)

    def test_mangled_payload_rejected(self, training_setup, tmp_path):
        path = self._saved_pipeline(training_setup, tmp_path)
        data = json.loads(path.read_text())
        del data["model"]["stage1"]
        path.write_text(json.dumps(data))
        with pytest.raises(CorruptModelError):
            load_model(path)

    @pytest.mark.parametrize("field, bad", [
        ("left", 99),                 # child index past the end of the tree
        ("right", 0),                 # child pointing back at the root: a cycle
        ("feature", 5),               # stage-1 trees have 5 features
        ("feature", -1),              # a leaf that still has children
        ("feature", 1.5),             # would be truncated to a valid index
        ("threshold", "0.5"),         # would be parsed from the string
        ("threshold", float("nan")),  # json.load accepts NaN
        ("value", float("inf")),
    ])
    def test_corrupt_tree_node_rejected(self, training_setup, tmp_path, field, bad):
        path = self._saved_pipeline(training_setup, tmp_path)
        data = json.loads(path.read_text())
        tree = data["model"]["stage1"]["trees"][1]
        node = next(i for i, f in enumerate(tree["feature"]) if i > 0 and f >= 0)
        tree[field][node] = bad
        path.write_text(json.dumps(data))
        with pytest.raises(CorruptModelError):
            load_model(path)

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda stage: stage["trees"][1]["value"].pop(), id="truncated_value"),
        pytest.param(lambda stage: [stage["trees"][1][key].clear() for key in
                                    ("feature", "threshold", "left", "right", "value")],
                     id="tree_without_nodes"),
        pytest.param(lambda stage: stage["trees"].clear(), id="no_trees"),
    ])
    def test_corrupt_tree_arrays_rejected(self, training_setup, tmp_path, corrupt):
        path = self._saved_pipeline(training_setup, tmp_path)
        data = json.loads(path.read_text())
        corrupt(data["model"]["stage1"])
        path.write_text(json.dumps(data))
        with pytest.raises(CorruptModelError):
            load_model(path)

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda model: model.update(log_ler=model["log_ler"][:3]),
                     id="truncated_log_ler"),
        pytest.param(lambda model: [model[key].clear() for key in
                                    ("noise", "log_ler", "distance", "rounds")],
                     id="empty_records"),
        pytest.param(lambda model: model["stage1_scaler"]["scale"].__setitem__(0, 0),
                     id="zero_scale"),
        pytest.param(lambda model: model.update(noise=[row[:3] for row in model["noise"]]),
                     id="noise_rows_of_three"),
        pytest.param(lambda model: model["stage2_scaler"]["mean"].pop(),
                     id="short_scaler_mean"),
    ])
    def test_corrupt_heuristic_rejected(self, training_setup, tmp_path, corrupt):
        records, _, _ = training_setup
        path = tmp_path / "model.json"
        save_model(fit_heuristic(records, HeuristicKind.parse("range_search_w")), path)
        data = json.loads(path.read_text())
        corrupt(data["model"])
        path.write_text(json.dumps(data))
        with pytest.raises(CorruptModelError):
            load_model(path)

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda stage: stage.update(coefficients=stage["coefficients"][:2]),
                     id="two_coefficients"),
        pytest.param(lambda stage: stage.update(intercept="nan"), id="quoted_nan_intercept"),
        pytest.param(lambda stage: stage["coefficients"].__setitem__(0, "1.5"),
                     id="quoted_coefficient"),
        pytest.param(lambda stage: stage.update(n_features=4), id="n_features_below_coefficients"),
        pytest.param(lambda stage: stage.update(n_features=4,
                                                coefficients=stage["coefficients"][:4]),
                     id="pipeline_stage_of_width_4"),
    ])
    def test_corrupt_linear_stage_rejected(self, training_setup, tmp_path, corrupt):
        _, cases, _ = training_setup
        path = tmp_path / "model.json"
        save_model(fit_named_model("linear", cases=cases), path)
        data = json.loads(path.read_text())
        corrupt(data["model"]["stage1"])
        path.write_text(json.dumps(data))
        with pytest.raises(CorruptModelError):
            load_model(path)

    def test_unknown_stage_kind_rejected(self, training_setup, tmp_path):
        path = self._saved_pipeline(training_setup, tmp_path)
        data = json.loads(path.read_text())
        data["model"]["stage1"]["kind"] = "mystery"
        path.write_text(json.dumps(data))
        with pytest.raises(CorruptModelError):
            load_model(path)
