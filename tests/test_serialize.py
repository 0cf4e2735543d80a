import hashlib
import json
import math
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import reference_predict
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
    predict_many,
    save_model,
)
from surfplan.config import load_config
from surfplan.evaluate import evaluate_model, split
from surfplan.heuristics import HeuristicTraining
from surfplan.ml import build_training_cases, fit_linear_pipeline
from surfplan.ml.ensemble import MAX_ESTIMATORS, BoostedModel
from surfplan.ml import serialize
from surfplan.ml.serialize import (
    CorruptModelError,
    ModelIOError,
    ModelVersionError,
    model_to_dict,
    stage_from_dict,
    stage_to_dict,
)
from surfplan.ml.tree import LEAF, PackedTrees, TreeModel, pack_trees
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


def _stage_round_trip(model):
    """A stage as a pipeline file holds it: its JSON text, and the stage read
    back from that text."""
    text = json.dumps(stage_to_dict(model), allow_nan=False)
    return text, stage_from_dict(json.loads(text))


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

    def test_stage_models_round_trip(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(60, 3))
        targets = rng.normal(size=60)
        queries = rng.normal(size=(40, 3))
        models = [
            fit_forest(features, targets, ForestConfig(n_estimators=3, seed=1)),
            fit_boosted(features, targets, BoostConfig(n_estimators=5)),
            fit_linear(features, targets),
        ]
        for model in models:
            _, loaded = _stage_round_trip(model)
            assert np.array_equal(loaded.predict(queries), model.predict(queries))

    def test_a_bare_stage_is_not_saved(self, tmp_path):
        # A model file holds a predictor; a stage is saved only inside a pipeline.
        rng = np.random.default_rng(4)
        model = fit_forest(rng.normal(size=(60, 3)), rng.normal(size=60),
                           ForestConfig(n_estimators=3, seed=1))
        path = tmp_path / "forest.json"
        with pytest.raises(ModelIOError, match="cannot save a ForestModel"):
            save_model(model, path)
        assert not path.exists()


@pytest.fixture(scope="module")
def default_pipeline():
    """The default-config (seed 42) pipeline model, as ``surfplan train`` fits it."""
    config = load_config(None)
    return config, fit_named_model(
        "pipeline", records=generate_dataset(config.sweep, config.oracle),
        sweep=config.sweep, oracle=config.oracle, stage1_config=config.stage1,
        stage2_config=config.stage2, menu=config.targets)


def test_default_pipeline_model_is_pinned(default_pipeline, tmp_path):
    # SHA-256 of the saved default-config (seed 42) pipeline model in format
    # version 2, nodes in level order (version 1 wrote b226cc96..., and
    # version 2 with nodes in pre-order a15d988c...). A drift in any tree's
    # bits or node order, or in the file layout, changes it.
    _, model = default_pipeline
    path = tmp_path / "model.json"
    save_model(model, path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "c58e8a10d1c05fecdb2bd2d24f014f4a7e2b29952746bd06731c2de5aa6d9c96")


def test_load_packs_like_the_fit(default_pipeline, tmp_path):
    # A load builds each ensemble through the constructor a fit uses, so its
    # packing must be the one pack_trees builds from the loaded trees, field
    # by field.
    _, model = default_pipeline
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    for stage in (loaded.stage1, loaded.stage2):
        expected = pack_trees(stage.trees)
        for field in fields(PackedTrees):
            got, want = getattr(stage._packed, field.name), getattr(expected, field.name)
            if field.name == "active":
                assert got == want
            else:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_load_shares_repeated_trees_like_the_fit(default_pipeline, tmp_path):
    # Boosting repeats its fixed-point tree as one object; a load gives a
    # tree with the previous tree's bits the previous tree's object, so the
    # loaded stages share trees exactly where the fitted ones do.
    _, model = default_pipeline
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    for fitted, reloaded in ((model.stage1, loaded.stage1), (model.stage2, loaded.stage2)):
        pairs = range(len(fitted.trees))
        assert ([[fitted.trees[i] is fitted.trees[j] for j in pairs] for i in pairs]
                == [[reloaded.trees[i] is reloaded.trees[j] for j in pairs] for i in pairs])
    assert len({id(tree) for tree in loaded.stage1.trees}) == 45
    again = tmp_path / "again.json"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_a_repeated_tree_is_packed_once():
    # A file of one tree at every position loads with that tree's nodes laid
    # out once, as the fit packs it, not once per position.
    rng = np.random.default_rng(3)
    features = rng.normal(size=(200, 3))
    tree = fit_tree(features, rng.normal(size=200), TreeConfig(max_depth=8))
    model = BoostedModel(trees=(tree,) * MAX_ESTIMATORS, learning_rate=0.1, base_score=0.5,
                         n_features=3)
    _, loaded = _stage_round_trip(model)
    for held in (model, loaded):
        assert held._packed.feature.size == tree.node_count
        assert held._packed.roots.size == MAX_ESTIMATORS
    assert loaded.predict(features).tobytes() == model.predict(features).tobytes()


def test_non_adjacent_repeated_trees_load_as_saved():
    # Positions (A, B, A, C, B): a repeat need not follow its first use. The
    # load numbers the distinct trees in first-appearance order, as the fit's
    # packing numbers them by identity.
    rng = np.random.default_rng(5)
    features = rng.normal(size=(200, 3))
    a, b, c = (fit_tree(features, rng.normal(size=200), TreeConfig(max_depth=depth))
               for depth in (3, 5, 4))
    model = BoostedModel(trees=(a, b, a, c, b), learning_rate=0.3, base_score=-0.25,
                         n_features=3)
    text, loaded = _stage_round_trip(model)
    assert loaded.predict(features).tobytes() == reference_predict(model, features).tobytes()
    assert loaded._packed.feature.size == a.node_count + b.node_count + c.node_count
    assert len(set(loaded._packed.roots.tolist())) == 3
    pairs = range(len(model.trees))
    assert ([[model.trees[i] is model.trees[j] for j in pairs] for i in pairs]
            == [[loaded.trees[i] is loaded.trees[j] for j in pairs] for i in pairs])
    assert _stage_round_trip(loaded)[0] == text


def test_load_keeps_trees_that_differ_only_in_a_sign_bit():
    # -0.0 == 0.0, so a value comparison would merge these two trees.
    def leaf(value):
        return TreeModel(feature=np.array([LEAF]), threshold=np.array([0.0]),
                         left=np.array([LEAF]), right=np.array([LEAF]),
                         value=np.array([value]), n_features=1)

    model = BoostedModel(trees=(leaf(0.0), leaf(-0.0), leaf(-0.0)), learning_rate=1.0,
                         base_score=0.0, n_features=1)
    trees = _stage_round_trip(model)[1].trees
    assert trees[0] is not trees[1] and trees[1] is trees[2]
    assert [tree.value.tobytes() for tree in trees] == [tree.value.tobytes()
                                                       for tree in model.trees]


def test_repeated_tree_objects_are_numbered_by_identity():
    # Boosting repeats one tree object for its fixed-point tail. A repeated
    # object keeps its first number; a new object with the same node bytes
    # gets that number too, and a sign-bit difference still tells two apart.
    def leaf(value):
        return TreeModel(feature=np.array([LEAF]), threshold=np.array([0.0]),
                         left=np.array([LEAF]), right=np.array([LEAF]),
                         value=np.array([value]), n_features=1)

    zero, negative = leaf(0.0), leaf(-0.0)
    out = serialize._trees_to_dict((zero, negative, zero, leaf(0.0), negative, leaf(-0.0)))
    assert out["tree_of"] == [0, 1, 0, 0, 1, 1]
    assert out["node_counts"] == [1, 1]
    assert [math.copysign(1.0, value) for value in out["value"]] == [1.0, -1.0]


def _node_digest(model) -> str:
    """SHA-256 over a pipeline's stage scalars and the node arrays of the tree
    at every position of both stages, as held in memory."""
    digest = hashlib.sha256()
    for stage in (model.stage1, model.stage2):
        digest.update(repr((type(stage).__name__, getattr(stage, "learning_rate", None),
                            getattr(stage, "base_score", None), stage.n_features)).encode())
        for tree in stage.trees:
            for name in ("feature", "threshold", "left", "right", "value"):
                column = getattr(tree, name)
                digest.update(column.dtype.str.encode() + column.tobytes())
    return digest.hexdigest()


def test_default_pipeline_nodes_are_pinned(default_pipeline, tmp_path):
    # The pinned model itself, independent of the file format: a saved and
    # reloaded model must have the same trees at every position. With nodes
    # in pre-order the same trees gave b8c1d92a...
    _, model = default_pipeline
    path = tmp_path / "model.json"
    save_model(model, path)
    for held in (model, load_model(path)):
        assert (_node_digest(held)
                == "b7e2258baec98975eb6995735f6a768bdec30e8cf22adce913988dd75d226911")


def _relabelled(tree, order) -> TreeModel:
    """``tree`` with its nodes listed in ``order``, a permutation of its node
    ids that puts every parent before its children."""
    order = np.asarray(order)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    inner = tree.feature[order] != LEAF
    return TreeModel(feature=tree.feature[order], threshold=tree.threshold[order],
                     left=np.where(inner, rank[tree.left[order]], LEAF),
                     right=np.where(inner, rank[tree.right[order]], LEAF),
                     value=tree.value[order], n_features=tree.n_features)


def _node_order(tree, pick) -> list:
    """Node ids from the root, parents first: the next is ``reachable[pick(
    reachable)]``, where ``reachable`` lists the nodes whose parent is
    already listed, and a split appends its right child, then its left."""
    order, reachable = [], [0]
    while reachable:
        node = reachable.pop(pick(reachable))
        order.append(node)
        if tree.feature[node] != LEAF:
            reachable += [int(tree.right[node]), int(tree.left[node])]
    return order


def _preorder(tree) -> list:
    """A node, then its left subtree, then its right: the order of files
    written before trees kept their nodes in level order."""
    return _node_order(tree, lambda reachable: -1)


def _stage_relabelled(stage, order_of):
    """``stage`` with each distinct tree's nodes listed in ``order_of(tree)``;
    a tree repeated at several positions stays one object."""
    trees = {}
    for tree in stage.trees:
        trees.setdefault(id(tree), _relabelled(tree, order_of(tree)))
    return replace(stage, trees=tuple(trees[id(tree)] for tree in stage.trees))


def _pipeline_relabelled(model, order_of):
    return replace(model, stage1=_stage_relabelled(model.stage1, order_of),
                   stage2=_stage_relabelled(model.stage2, order_of))


def test_default_pipeline_in_preorder_is_the_earlier_file(default_pipeline, tmp_path):
    # Node for node the trees that were pinned while nodes were stored in
    # pre-order: relabelled into pre-order, the default pipeline gives that
    # file's bytes and that node digest again.
    _, model = default_pipeline
    preorder = _pipeline_relabelled(model, _preorder)
    path = tmp_path / "model.json"
    save_model(preorder, path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "a15d988c218e402eeaf4e5134729866a835e5a18fc027556549d24f181da5ef6")
    assert (_node_digest(preorder)
            == "b8c1d92adf1a6d6d8198615e1f03def0bf96eea9b9d44a462c7dd8661ce299de")


def _requests(sweep, count: int, seed: int) -> list:
    """``count`` seeded requests with rates in the sweep's ranges."""
    rng = np.random.default_rng(seed)
    return [PredictionRequest(
        noise=NoiseProfile(
            depolarizing=float(rng.uniform(*sweep.depolarizing_range)),
            gate=float(rng.uniform(*sweep.gate_range)),
            reset=float(rng.uniform(*sweep.reset_range)),
            readout=float(rng.uniform(*sweep.readout_range))),
        target_logical_error_rate=float(10 ** rng.uniform(-9, -3)))
        for _ in range(count)]


def _prediction_digest(model, sweep) -> str:
    requests = _requests(sweep, 1024, 1024)
    return hashlib.sha256(repr(predict_many(model, requests)).encode()).hexdigest()


PREDICTION_PIN = "7452cd1f84ea3977ef9f82e8d1c9dcddeae087e2511b727b32a960638b2dcef0"


def test_default_pipeline_predictions_are_pinned(default_pipeline):
    # SHA-256 over the reprs of predict_many's rows for 1024 seeded in-range
    # requests, as the per-tree prediction loops made them before the trees
    # were packed into one traversal. A drift in any prediction's bits
    # changes it.
    config, model = default_pipeline
    assert _prediction_digest(model, config.sweep) == PREDICTION_PIN


def test_reloaded_default_pipeline_predictions_are_pinned(default_pipeline, tmp_path):
    config, model = default_pipeline
    path = tmp_path / "model.json"
    save_model(model, path)
    assert _prediction_digest(load_model(path), config.sweep) == PREDICTION_PIN


# A pipeline file written while trees stored their nodes in pre-order, by
# ``surfplan train`` on ``TINY_CONFIG`` (the CI console-script config).
PREORDER_FILE = Path(__file__).parent / "data" / "preorder_pipeline.json"
TINY_CONFIG = {"seed": 11, "sweep": {"profiles_per_run": 3}, "stage1": {"n_estimators": 10}}


@pytest.fixture(scope="module")
def tiny_pipeline(tmp_path_factory):
    """A fresh fit of the pipeline in ``PREORDER_FILE``, as ``surfplan train``
    fits it."""
    path = tmp_path_factory.mktemp("tiny") / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG))
    config = load_config(path)
    return config, fit_named_model(
        "pipeline", records=generate_dataset(config.sweep, config.oracle),
        sweep=config.sweep, oracle=config.oracle, stage1_config=config.stage1,
        stage2_config=config.stage2, menu=config.targets)


class TestPreorderFile:
    """A file whose trees list their nodes in pre-order still loads, predicts
    and saves as it did."""

    def test_predicts_like_a_fresh_fit(self, tiny_pipeline):
        config, model = tiny_pipeline
        requests = _requests(config.sweep, 256, 11)
        assert (repr(predict_many(load_model(PREORDER_FILE), requests))
                == repr(predict_many(model, requests)))

    def test_writes_back_its_own_bytes(self, tmp_path):
        save_model(load_model(PREORDER_FILE), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == PREORDER_FILE.read_bytes()

    def test_holds_a_fresh_fit_in_preorder(self, tiny_pipeline, tmp_path):
        # The same trees, node for node, in another order than a fit writes.
        _, model = tiny_pipeline
        save_model(model, tmp_path / "level.json")
        save_model(_pipeline_relabelled(model, _preorder), tmp_path / "preorder.json")
        assert (tmp_path / "level.json").read_bytes() != PREORDER_FILE.read_bytes()
        assert (tmp_path / "preorder.json").read_bytes() == PREORDER_FILE.read_bytes()


@given(seed=st.integers(0, 2 ** 16), rows=st.integers(2, 60),
       kind=st.sampled_from(["forest", "boosted"]), max_depth=st.integers(1, 6),
       random=st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_any_parent_first_node_order_round_trips(seed, rows, kind, max_depth, random):
    # A fitted stage whose trees list their nodes in a random order that puts
    # every parent before its children saves, loads and saves again to the
    # same text, and predicts the fit's bits throughout.
    rng = np.random.default_rng(seed)
    features = np.column_stack([rng.normal(size=(rows, 2)), rng.integers(0, 3, size=rows)])
    targets = rng.normal(size=rows)
    config = TreeConfig(max_depth=max_depth)
    stage = (fit_forest(features, targets, ForestConfig(n_estimators=4, tree=config, seed=seed))
             if kind == "forest" else
             fit_boosted(features, targets, BoostConfig(n_estimators=6, tree=config)))
    relabelled = _stage_relabelled(
        stage, lambda tree: _node_order(tree, lambda reachable: random.randrange(len(reachable))))
    text, loaded = _stage_round_trip(relabelled)
    assert _stage_round_trip(loaded)[0] == text
    queries = np.vstack([features, rng.normal(size=(20, 3))])
    expected = stage.predict(queries).tobytes()
    assert relabelled.predict(queries).tobytes() == loaded.predict(queries).tobytes() == expected


HEURISTIC_PIN = "95f56362806869ac91b5db0b67f6b88da66281d49e434a07b5bfe254e2e1a251"


def _heuristic_digest(models, test_cases, oracle) -> str:
    digest = hashlib.sha256()
    for model in models:
        report = evaluate_model(model, test_cases, oracle)
        for values in (report.predicted_raw_distance, report.predicted_distance,
                       report.predicted_raw_rounds, report.predicted_rounds):
            digest.update(repr(values).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def default_heuristics():
    """The eight heuristics fitted on the default config's (seed 42) records,
    and the test cases of its compare split."""
    config = load_config(None)
    records = generate_dataset(config.sweep, config.oracle)
    cases = build_training_cases(records, config.sweep, config.oracle, config.targets)
    _, test_cases = split(cases, config.split)
    models = [fit_named_model(name, records=records, oracle=config.oracle,
                              weights=config.heuristic_weights) for name in HEURISTIC_NAMES]
    return config, models, test_cases


def test_default_heuristic_predictions_are_pinned(default_heuristics):
    # SHA-256 over the eight heuristics' predictions (raw and rounded distance
    # and rounds, as repr) on the default config's (seed 42) compare split, as
    # the per-request computation made them before the models derived their
    # training state once. A drift in any prediction's bits changes it.
    config, models, test_cases = default_heuristics
    assert _heuristic_digest(models, test_cases, config.oracle) == HEURISTIC_PIN


def test_shared_state_heuristic_predictions_are_pinned(default_heuristics):
    # The eight heuristics fitted from one training state, as compare fits
    # them, answer repeated queries from its memo and give the same pin.
    config, models, test_cases = default_heuristics
    training = HeuristicTraining(models[0].training.records, config.heuristic_weights)
    shared = [fit_named_model(name, records=training, oracle=config.oracle,
                              weights=config.heuristic_weights) for name in HEURISTIC_NAMES]
    assert _heuristic_digest(shared, test_cases, config.oracle) == HEURISTIC_PIN


def test_reloaded_default_heuristic_predictions_are_pinned(default_heuristics, tmp_path):
    config, models, test_cases = default_heuristics
    reloaded = []
    for i, model in enumerate(models):
        save_model(model, tmp_path / f"{i}.json")
        reloaded.append(load_model(tmp_path / f"{i}.json"))
    assert _heuristic_digest(reloaded, test_cases, config.oracle) == HEURISTIC_PIN


def _reference_text(value):
    return json.dumps(value, allow_nan=False)


_json_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1e-7, 0.1,
                     1.7976931348623157e308]))
_json_strings = st.one_of(st.text(), st.sampled_from(['', '"', '\\', '\n\t\x00\x1f\x7f',
                                                      'é☃', '\U0001f600', '\u2028']))
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2 ** 63, max_value=2 ** 200),
    st.integers(max_value=-2 ** 63), _json_floats, _json_floats.map(np.float64), _json_strings)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.lists(_json_floats, max_size=8),
        st.lists(st.integers(), max_size=8),
        st.lists(st.one_of(_json_floats, st.integers()), max_size=8),
        st.dictionaries(_json_strings, children, max_size=5)),
    max_leaves=40)


def _save_value(value, path):
    """``save_model`` of a model whose ``model_to_dict`` is ``value``."""
    with mock.patch.object(serialize, "model_to_dict", return_value=value):
        save_model(object(), path)


class TestWriter:
    """``save_model`` writes ``json.dumps(model_to_dict(model),
    allow_nan=False) + "\\n"`` for every model kind, and nothing when that
    raises. A stage is written the same way inside a pipeline."""

    @given(value=_json_values)
    @settings(max_examples=400)
    def test_matches_json_dumps(self, value, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "writer.json"
        _save_value(value, path)
        assert path.read_bytes() == (_reference_text(value) + "\n").encode()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                     np.float64("nan"), np.float64("-inf")])
    @pytest.mark.parametrize("place", [
        lambda bad: bad,
        lambda bad: [1.0, bad, 2.0],
        lambda bad: [1, 2.5, bad],
        lambda bad: {"ok": [0.5], "bad": {"list": [bad]}},
        lambda bad: [[0.5, bad], [bad, 1.0]],
    ])
    def test_non_finite_raises_like_json_dumps(self, bad, place, tmp_path):
        value = place(bad)
        with pytest.raises(ValueError) as expected:
            _reference_text(value)
        with pytest.raises(ValueError) as got:
            _save_value(value, tmp_path / "model.json")
        assert str(got.value) == str(expected.value)
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("name", ("pipeline", "linear") + HEURISTIC_NAMES)
    def test_save_model_writes_json_dumps_bytes(self, training_setup, tmp_path, name):
        # Save -> load -> save gives the same bytes, too.
        records, cases, _ = training_setup
        model = fit_named_model(name, records=records, cases=cases)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert path.read_bytes() == (_reference_text(model_to_dict(model)) + "\n").encode()
        save_model(load_model(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    @given(features=arrays(np.float64, st.tuples(st.integers(2, 30), st.integers(1, 3)),
                           elements=st.sampled_from([-1.5, -0.0, 0.0, 0.25, 3.0])),
           kind=st.sampled_from(["forest", "boosted", "linear"]),
           constant=st.booleans(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60)
    def test_save_model_writes_json_dumps_bytes_for_stages(self, features, kind, constant,
                                                          seed):
        # A stage is written as a pipeline file writes it, and a stage read
        # back writes the same bytes. Constant targets make boosting repeat
        # its first tree from stage 2 on.
        rng = np.random.default_rng(seed)
        targets = np.full(len(features), -0.0) if constant else rng.normal(size=len(features))
        tree = TreeConfig(max_depth=3)
        model = {"forest": lambda: fit_forest(features, targets,
                                              ForestConfig(n_estimators=3, tree=tree, seed=seed)),
                 "boosted": lambda: fit_boosted(features, targets,
                                                BoostConfig(n_estimators=6, tree=tree)),
                 "linear": lambda: fit_linear(features, targets)}[kind]()
        text, loaded = _stage_round_trip(model)
        assert text == _reference_text(stage_to_dict(model))
        assert _stage_round_trip(loaded)[0] == text


@given(profiles=st.integers(2, 5), seed=st.integers(0, 2 ** 16),
       n_estimators=st.integers(1, 12), data=st.data())
@settings(max_examples=50)
def test_fitted_pipelines_round_trip(profiles, seed, n_estimators, data, tmp_path_factory):
    # Save -> load -> save of pipelines fitted on drawn sweeps: the bytes and
    # every prediction must survive the trip.
    sweep = SweepConfig(profiles_per_run=profiles, seed=seed)
    cases = build_training_cases(generate_dataset(sweep), sweep)
    rates = [st.floats(*bounds) for bounds in (sweep.depolarizing_range, sweep.gate_range,
                                               sweep.reset_range, sweep.readout_range)]
    requests = data.draw(st.lists(st.builds(
        PredictionRequest, noise=st.builds(NoiseProfile, *rates),
        target_logical_error_rate=st.floats(-9, -3).map(lambda exponent: 10 ** exponent)),
        min_size=1, max_size=20))
    root = tmp_path_factory.mktemp("round_trip")
    for model in (fit_pipeline_cases(cases, BoostConfig(n_estimators=n_estimators),
                                     ForestConfig(n_estimators=n_estimators % 5 + 1, seed=seed)),
                  fit_linear_pipeline(cases)):
        save_model(model, root / "model.json")
        loaded = load_model(root / "model.json")
        save_model(loaded, root / "again.json")
        assert (root / "again.json").read_bytes() == (root / "model.json").read_bytes()
        assert repr(predict_many(loaded, requests)) == repr(predict_many(model, requests))


class TestFailureModes:
    def test_a_non_stage_cannot_be_serialized(self):
        with pytest.raises(ModelIOError, match="cannot serialize stage model of type dict"):
            stage_to_dict({})

    @pytest.mark.parametrize("n_features", [0, -1])
    def test_a_stage_without_features_is_rejected(self, n_features):
        data = {"kind": "linear", "n_features": n_features, "coefficients": [],
                "intercept": 0.0}
        with pytest.raises(CorruptModelError, match="'n_features' must be >= 1"):
            stage_from_dict(data)

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

    def test_version_1_rejected_with_a_retrain_hint(self, training_setup, tmp_path):
        path = self._saved_pipeline(training_setup, tmp_path)
        data = json.loads(path.read_text())
        data["version"] = 1
        path.write_text(json.dumps(data))
        with pytest.raises(ModelVersionError, match="version 1 .*retrain"):
            load_model(path)

    def test_unknown_keys_are_ignored(self, training_setup, tmp_path):
        # A later version can add blocks, such as provenance, without a bump.
        _, _, requests = training_setup
        path = self._saved_pipeline(training_setup, tmp_path)
        expected = predict_many(load_model(path), requests)
        data = json.loads(path.read_text())
        data["provenance"] = {"note": "added later"}
        data["model"]["stage1"]["notes"] = [1, 2]
        path.write_text(json.dumps(data))
        assert predict_many(load_model(path), requests) == expected

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
        stage = data["model"]["stage1"]
        # An internal node of the second distinct tree, other than its root.
        start, count = stage["node_counts"][0], stage["node_counts"][1]
        node = next(start + i for i in range(1, count) if stage["feature"][start + i] >= 0)
        stage[field][node] = bad
        path.write_text(json.dumps(data))
        with pytest.raises(CorruptModelError):
            load_model(path)

    @staticmethod
    def _drop_second_tree_nodes(stage):
        start, count = stage["node_counts"][0], stage["node_counts"][1]
        for name in ("feature", "threshold", "left", "right", "value"):
            del stage[name][start:start + count]
        stage["node_counts"][1] = 0

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda stage: stage["value"].pop(), id="truncated_value"),
        pytest.param(lambda stage: TestFailureModes._drop_second_tree_nodes(stage),
                     id="tree_without_nodes"),
        pytest.param(lambda stage: [stage[key].clear() for key in
                                    ("node_counts", "tree_of", "feature", "threshold", "left",
                                     "right", "value")],
                     id="no_trees"),
    ])
    def test_corrupt_tree_arrays_rejected(self, training_setup, tmp_path, corrupt):
        path = self._saved_pipeline(training_setup, tmp_path)
        data = json.loads(path.read_text())
        corrupt(data["model"]["stage1"])
        path.write_text(json.dumps(data))
        with pytest.raises(CorruptModelError):
            load_model(path)

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda model: model.update(
            logical_error_rate=model["logical_error_rate"][:3]),
            id="truncated_logical_error_rate"),
        pytest.param(lambda model: [model[key].clear() for key in
                                    ("profiles", "block_lengths", "distance", "rounds",
                                     "logical_error_rate")],
                     id="empty_records"),
        pytest.param(lambda model: model.update(profiles=[row[:3] for row in model["profiles"]]),
                     id="noise_rows_of_three"),
        pytest.param(lambda model: model["block_lengths"].append(1), id="one_block_too_many"),
        pytest.param(lambda model: model["rounds"].__setitem__(0, 2.0), id="float_rounds"),
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

    @pytest.mark.parametrize("stage, field, bad", [
        ("stage1", "base_score", "nan"),      # loaded, then failed at predict
        ("stage1", "learning_rate", True),    # predicted with a rate of 1.0
        ("stage1", "learning_rate", "inf"),
        ("stage1", "learning_rate", [0.1]),
        ("stage1", "n_features", "5"),        # loaded and predicted
        ("stage1", "n_features", 5.7),
        ("stage2", "n_features", "2"),
        ("stage2", "n_features", 2.0),
        (None, "min_target", "nan"),
        (None, "max_target", False),
    ])
    def test_corrupt_pipeline_number_rejected(self, training_setup, tmp_path, stage, field, bad):
        path = self._saved_pipeline(training_setup, tmp_path)
        data = json.loads(path.read_text())
        (data["model"][stage] if stage else data["model"])[field] = bad
        path.write_text(json.dumps(data))
        with pytest.raises(CorruptModelError, match=field):
            load_model(path)

    def test_short_schema_rejected(self, training_setup, tmp_path):
        path = self._saved_pipeline(training_setup, tmp_path)
        data = json.loads(path.read_text())
        data["model"]["stage1_schema"] = data["model"]["stage1_schema"][:4]
        path.write_text(json.dumps(data))
        with pytest.raises(CorruptModelError, match="schemas"):
            load_model(path)

    def test_unknown_stage_kind_rejected(self, training_setup, tmp_path):
        path = self._saved_pipeline(training_setup, tmp_path)
        data = json.loads(path.read_text())
        data["model"]["stage1"]["kind"] = "mystery"
        path.write_text(json.dumps(data))
        with pytest.raises(CorruptModelError):
            load_model(path)
