import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    assert_same_tree,
    leaf_values,
    reference_fit_boosted,
    reference_fit_forest,
    reference_tree_predict,
)
from surfplan import (
    BoostConfig,
    ForestConfig,
    TreeConfig,
    ValidationError,
    fit_boosted,
    fit_forest,
    fit_tree,
    generate_dataset,
    save_model,
)
from surfplan.config import load_config
from surfplan.ml import build_training_cases, ensemble
from surfplan.ml.pipeline import stage1_features
from surfplan.ml.serialize import stage_to_dict
from surfplan.models import fit_named_model


@pytest.fixture
def regression_data():
    rng = np.random.default_rng(42)
    features = rng.normal(size=(80, 3))
    targets = features @ np.array([2.0, -1.0, 0.5]) + 0.1 * rng.normal(size=80)
    return features, targets


class TestForest:
    def test_single_tree_no_bootstrap_equals_tree(self, regression_data):
        features, targets = regression_data
        tree_cfg = TreeConfig(max_depth=4)
        forest = fit_forest(features, targets,
                            ForestConfig(n_estimators=1, tree=tree_cfg, bootstrap=False))
        tree = fit_tree(features, targets, tree_cfg)
        assert np.array_equal(forest.predict(features), tree.predict(features))

    def test_no_bootstrap_grows_one_tree(self, regression_data):
        features, targets = regression_data
        config = ForestConfig(n_estimators=10, bootstrap=False, tree=TreeConfig(max_depth=5))
        with mock.patch.object(ensemble, "grow_tree", wraps=ensemble.grow_tree) as grow:
            forest = fit_forest(features, targets, config)
        assert grow.call_count == 1
        assert all(tree is forest.trees[0] for tree in forest.trees)
        assert _json(forest) == _json(reference_fit_forest(features, targets, config))

    def test_bootstrap_samples_stack_up_to_the_row_bound(self, regression_data, monkeypatch):
        features, targets = regression_data
        config = ForestConfig(n_estimators=10, seed=3, tree=TreeConfig(max_depth=5))
        expected = reference_fit_forest(features, targets, config)
        for stack_rows, batches in ((ensemble.STACK_ROWS, [10]),
                                    (3 * len(features) + 1, [3, 3, 3, 1]),
                                    (1, [1] * 10)):
            monkeypatch.setattr(ensemble, "STACK_ROWS", stack_rows)
            with mock.patch.object(ensemble, "grow_tree", wraps=ensemble.grow_tree) as grow:
                forest = fit_forest(features, targets, config)
            assert [len(call.args[4]) for call in grow.call_args_list] == batches
            for got, want in zip(forest.trees, expected.trees, strict=True):
                assert_same_tree(got, want)

    def test_constant_targets(self, regression_data):
        features, _ = regression_data
        forest = fit_forest(features, np.full(len(features), 3.25), ForestConfig())
        assert np.allclose(forest.predict(features), 3.25, atol=1e-12)

    def test_seeded_determinism_and_seed_sensitivity(self, regression_data):
        features, targets = regression_data
        a = fit_forest(features, targets, ForestConfig(seed=1))
        b = fit_forest(features, targets, ForestConfig(seed=1))
        c = fit_forest(features, targets, ForestConfig(seed=2))
        assert np.array_equal(a.predict(features), b.predict(features))
        # different seeds draw different bootstraps; models may differ
        assert not np.array_equal(a.predict(features), c.predict(features))

    def test_prediction_is_mean_of_trees(self, regression_data):
        features, targets = regression_data
        forest = fit_forest(features, targets, ForestConfig(n_estimators=4, seed=3))
        stacked = np.stack([tree.predict(features) for tree in forest.trees])
        assert np.allclose(forest.predict(features), stacked.mean(axis=0), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            fit_forest(np.empty((0, 2)), np.empty(0))


class TestBoosted:
    def test_single_full_strength_stage_equals_tree(self, regression_data):
        features, targets = regression_data
        tree_cfg = TreeConfig(max_depth=4)
        boosted = fit_boosted(features, targets,
                              BoostConfig(n_estimators=1, learning_rate=1.0,
                                          tree=tree_cfg, base_score=0.0))
        tree = fit_tree(features, targets, tree_cfg)
        assert np.allclose(boosted.predict(features), tree.predict(features), atol=1e-12)

    def test_constant_targets_with_mean_base(self, regression_data):
        features, _ = regression_data
        targets = np.full(len(features), -1.5)
        boosted = fit_boosted(features, targets, BoostConfig(n_estimators=5))
        assert np.allclose(boosted.predict(features), -1.5, atol=1e-12)
        assert all(tree.node_count == 1 for tree in boosted.trees)

    def test_training_mse_nonincreasing_per_stage(self, regression_data):
        features, targets = regression_data
        config = BoostConfig(n_estimators=25, learning_rate=0.3,
                             tree=TreeConfig(max_depth=3))
        boosted = fit_boosted(features, targets, config)
        prediction = np.full(len(targets), boosted.base_score)
        previous = float(np.mean((targets - prediction) ** 2))
        for tree in boosted.trees:
            prediction = prediction + config.learning_rate * tree.predict(features)
            mse = float(np.mean((targets - prediction) ** 2))
            assert mse <= previous + 1e-12
            previous = mse

    def test_outputs_bounded_by_leaf_extremes(self, regression_data):
        features, targets = regression_data
        config = BoostConfig(n_estimators=10, learning_rate=0.2,
                             tree=TreeConfig(max_depth=3))
        boosted = fit_boosted(features, targets, config)
        low = boosted.base_score + config.learning_rate * sum(
            leaf_values(tree).min() for tree in boosted.trees)
        high = boosted.base_score + config.learning_rate * sum(
            leaf_values(tree).max() for tree in boosted.trees)
        rng = np.random.default_rng(8)
        outputs = boosted.predict(rng.normal(scale=5, size=(200, 3)))
        assert outputs.min() >= low - 1e-9
        assert outputs.max() <= high + 1e-9

    def test_default_configs_carry_reference_hyperparameters(self):
        boost = BoostConfig()
        assert (boost.n_estimators, boost.learning_rate) == (200, 0.1)
        assert (boost.tree.max_depth, boost.tree.min_child_weight,
                boost.tree.gamma) == (6, 5, 0.5)
        forest = ForestConfig()
        assert forest.n_estimators == 10
        assert (forest.tree.max_depth, forest.tree.min_samples_split) == (20, 10)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            fit_boosted(np.empty((0, 2)), np.empty(0))


def _fit_counting_stages(features, targets, config):
    """``fit_boosted``'s model and the number of trees it grew."""
    with mock.patch.object(ensemble, "grow_tree", wraps=ensemble.grow_tree) as grow:
        model = fit_boosted(features, targets, config)
    return model, grow.call_count


def _json(model) -> str:
    return json.dumps(stage_to_dict(model))


def _stages_to_fixed_point(model, features) -> int:
    """Replay a boosted model's training predictions: the stages up to and
    including the first that leaves every prediction's bits unchanged, or
    every stage when none does."""
    prediction = np.full(features.shape[0], model.base_score)
    for stage, tree in enumerate(model.trees, start=1):
        step = prediction + model.learning_rate * reference_tree_predict(tree, features)
        if step.tobytes() == prediction.tobytes():
            return stage
        prediction = step
    return len(model.trees)


@st.composite
def _boosting_problems(draw):
    """Small fits on every side of the fixed point: constant and signed-zero
    targets stop at once, default-like trees stop part way, and ``gamma=0``
    or a ``base_score`` far from the targets usually never stop."""
    n_rows = draw(st.integers(min_value=1, max_value=24))
    n_features = draw(st.integers(min_value=1, max_value=3))
    features = draw(arrays(np.float64, (n_rows, n_features), elements=draw(st.sampled_from((
        st.floats(min_value=-100.0, max_value=100.0),
        st.integers(min_value=-2, max_value=2).map(float))))))
    targets = draw(st.sampled_from((
        st.floats(min_value=-10.0, max_value=10.0).map(lambda value: np.full(n_rows, value)),
        arrays(np.float64, n_rows, elements=st.sampled_from([0.0, -0.0])),
        arrays(np.float64, n_rows, elements=st.floats(min_value=-10.0, max_value=10.0)))))
    config = BoostConfig(
        n_estimators=draw(st.integers(min_value=1, max_value=60)),
        learning_rate=draw(st.sampled_from([0.1, 0.5, 1.0])),
        base_score=draw(st.sampled_from([None, 0.0, -0.0, 1e3])),
        tree=TreeConfig(max_depth=draw(st.integers(min_value=1, max_value=6)),
                        min_child_weight=draw(st.sampled_from([1, 5])),
                        gamma=draw(st.sampled_from([0.0, 0.5]))))
    return features, draw(targets), config


_RNG = np.random.default_rng(42)
_FEATURES = _RNG.normal(size=(80, 3))
_TARGETS = _FEATURES @ np.array([2.0, -1.0, 0.5]) + 0.1 * _RNG.normal(size=80)
_DEFAULT_LIKE = BoostConfig(n_estimators=60)
_NO_GAMMA = BoostConfig(n_estimators=60, tree=TreeConfig(min_child_weight=1, gamma=0.0))


class TestFixedPoint:
    """Boosting stops once a stage leaves every training prediction's bits
    unchanged, and its model is the full loop's byte for byte."""

    @pytest.mark.parametrize("targets, config, stages", [
        (np.full(80, 3.25), _DEFAULT_LIKE, 1),
        (_TARGETS, _DEFAULT_LIKE, 36),
        (_TARGETS, _NO_GAMMA, 60),
        (_TARGETS, BoostConfig(n_estimators=60, base_score=1e3), 60),
        # -0.0 + 0.0 is 0.0, equal in value but not in bits, so stage two
        # sees a -0.0 residual where stage one saw 0.0: a test by value
        # would stop a stage early.
        (np.array([-0.0]), BoostConfig(n_estimators=60, base_score=-0.0), 2),
        (np.array([0.0]), BoostConfig(n_estimators=60, base_score=-0.0), 2),
        (np.array([-0.0, 0.0]), BoostConfig(n_estimators=60, base_score=0.0), 1),
    ], ids=["constant", "default-like", "gamma-0", "far-base-score", "negative-zero",
            "zero-from-negative-base", "signed-zeros"])
    def test_stops_where_expected(self, targets, config, stages):
        features = _FEATURES[:len(targets)]
        model, grown = _fit_counting_stages(features, targets, config)
        expected = reference_fit_boosted(features, targets, config)
        assert grown == _stages_to_fixed_point(expected, features) == stages
        assert len(model.trees) == config.n_estimators
        assert _json(model) == _json(expected)

    @given(problem=_boosting_problems())
    @settings(max_examples=40)
    @example(problem=(_FEATURES, np.full(80, 3.25), _DEFAULT_LIKE))
    @example(problem=(_FEATURES, _TARGETS, _DEFAULT_LIKE))
    @example(problem=(_FEATURES[:8], _TARGETS[:8], _NO_GAMMA))
    @example(problem=(_FEATURES[:1], np.array([-0.0]),
                      BoostConfig(n_estimators=5, base_score=-0.0)))
    def test_matches_the_full_loop(self, problem):
        features, targets, config = problem
        model, grown = _fit_counting_stages(features, targets, config)
        expected = reference_fit_boosted(features, targets, config)
        assert grown == _stages_to_fixed_point(expected, features)
        assert len(model.trees) == config.n_estimators
        assert _json(model) == _json(expected)


def test_default_stage_one_stops_at_its_fixed_point(tmp_path):
    # The default-config (seed 42) pipeline: stage one grows trees only up to
    # the first stage that leaves its training predictions unchanged, and the
    # saved model keeps its pinned bytes (test_serialize.py).
    config = load_config(None)
    records = generate_dataset(config.sweep, config.oracle)
    with mock.patch.object(ensemble, "grow_tree", wraps=ensemble.grow_tree) as grow:
        model = fit_named_model(
            "pipeline", records=records, sweep=config.sweep, oracle=config.oracle,
            stage1_config=config.stage1, stage2_config=config.stage2, menu=config.targets)
    stage1_calls = [call for call in grow.call_args_list if call.args[3] == config.stage1.tree]
    trees = model.stage1.trees
    assert len(trees) == config.stage1.n_estimators == 200

    cases = build_training_cases(records, config.sweep, config.oracle, config.targets)
    grown = _stages_to_fixed_point(model.stage1, stage1_features([c.request for c in cases]))
    assert len(stage1_calls) == grown < 60
    assert all(tree is trees[grown - 1] for tree in trees[grown - 1:])

    path = tmp_path / "model.json"
    save_model(model, path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "c58e8a10d1c05fecdb2bd2d24f014f4a7e2b29952746bd06731c2de5aa6d9c96")
