import numpy as np
import pytest

from helpers import reference_best_split, verify_tree_node
from surfplan import TreeConfig, ValidationError, fit_tree
from surfplan.ml.tree import _best_split


class TestFitTreeExamples:
    def test_constant_targets_single_leaf(self):
        features = np.arange(10, dtype=float).reshape(-1, 1)
        tree = fit_tree(features, np.full(10, 4.5), TreeConfig(max_depth=8))
        assert tree.node_count == 1
        assert tree.predict(features).tolist() == [4.5] * 10

    def test_gap_split_at_depth_one(self):
        features = np.array([[0.0], [1.0], [10.0], [11.0]])
        targets = np.array([0.0, 0.0, 8.0, 8.0])
        tree = fit_tree(features, targets, TreeConfig(max_depth=1))
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(5.5)
        assert sorted(tree.leaf_values().tolist()) == [0.0, 8.0]

    def test_depth_one_is_at_most_three_nodes(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(40, 3))
        targets = rng.normal(size=40)
        tree = fit_tree(features, targets, TreeConfig(max_depth=1))
        assert tree.node_count <= 3

    def test_empty_data_rejected(self):
        with pytest.raises(ValidationError):
            fit_tree(np.empty((0, 2)), np.empty(0))

    def test_min_child_weight_respected(self):
        features = np.array([[0.0], [1.0], [2.0], [3.0]])
        targets = np.array([0.0, 0.0, 0.0, 100.0])
        tree = fit_tree(features, targets,
                        TreeConfig(max_depth=3, min_child_weight=2))
        # the only admissible split is the middle one
        assert tree.threshold[0] == pytest.approx(1.5)

    def test_gamma_blocks_small_gains(self):
        features = np.array([[0.0], [1.0], [2.0], [3.0]])
        targets = np.array([0.0, 0.1, 0.0, 0.1])
        strict = fit_tree(features, targets, TreeConfig(max_depth=3, gamma=10.0))
        assert strict.node_count == 1


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_small_datasets(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 51))
        f = int(rng.integers(1, 5))
        features = rng.normal(size=(n, f))
        targets = rng.normal(size=n)
        config = TreeConfig(max_depth=int(rng.integers(1, 6)),
                            min_samples_split=int(rng.integers(2, 6)),
                            min_child_weight=int(rng.integers(1, 4)),
                            gamma=float(rng.choice([0.0, 0.1])))
        tree = fit_tree(features, targets, config)
        verify_tree_node(tree, 0, features, targets, config, 0)

    def test_duplicated_feature_values(self):
        rng = np.random.default_rng(99)
        features = rng.integers(0, 4, size=(40, 2)).astype(float)
        targets = rng.normal(size=40)
        config = TreeConfig(max_depth=4)
        tree = fit_tree(features, targets, config)
        verify_tree_node(tree, 0, features, targets, config, 0)

    def test_tie_breaks_lower_feature_then_threshold(self):
        # identical columns: feature 0 must win
        column = np.array([0.0, 1.0, 10.0, 11.0])
        features = np.column_stack([column, column])
        targets = np.array([0.0, 0.0, 8.0, 8.0])
        tree = fit_tree(features, targets, TreeConfig(max_depth=1))
        assert tree.feature[0] == 0
        # symmetric targets: gains tie at 0.5 and 10.5; lowest threshold wins
        features = np.array([[0.0], [1.0], [10.0], [11.0]])
        targets = np.array([0.0, 8.0, 8.0, 0.0])
        tree = fit_tree(features, targets,
                        TreeConfig(max_depth=1, min_samples_split=2))
        assert tree.threshold[0] == pytest.approx(0.5)


class TestTreeProperties:
    def test_interpolates_distinct_rows(self):
        rng = np.random.default_rng(17)
        features = rng.normal(size=(30, 2))
        targets = rng.normal(size=30)
        tree = fit_tree(features, targets,
                        TreeConfig(max_depth=64, min_samples_split=2,
                                   min_child_weight=1, gamma=0.0))
        assert np.allclose(tree.predict(features), targets, atol=1e-12)

    def test_predictions_are_leaf_values(self):
        rng = np.random.default_rng(23)
        features = rng.normal(size=(60, 3))
        targets = rng.normal(size=60)
        tree = fit_tree(features, targets, TreeConfig(max_depth=3))
        leaves = set(tree.leaf_values().tolist())
        queries = rng.normal(size=(100, 3))
        assert all(value in leaves for value in tree.predict(queries).tolist())

    def test_deterministic(self):
        rng = np.random.default_rng(29)
        features = rng.normal(size=(50, 4))
        targets = rng.normal(size=50)
        a = fit_tree(features, targets, TreeConfig(max_depth=5))
        b = fit_tree(features, targets, TreeConfig(max_depth=5))
        assert np.array_equal(a.feature, b.feature)
        assert np.array_equal(a.threshold, b.threshold)
        assert np.array_equal(a.value, b.value)

    def test_predict_row_matches_batch(self):
        rng = np.random.default_rng(37)
        features = rng.normal(size=(50, 3))
        targets = rng.normal(size=50)
        tree = fit_tree(features, targets, TreeConfig(max_depth=4))
        queries = rng.normal(size=(20, 3))
        batch = tree.predict(queries)
        rows = [tree.predict_row(q) for q in queries]
        assert np.array_equal(batch, np.asarray(rows))

    def test_schema_mismatch_rejected(self):
        tree = fit_tree(np.zeros((4, 2)) + np.arange(4).reshape(-1, 1),
                        np.arange(4.0))
        with pytest.raises(ValidationError, match="schema"):
            tree.predict(np.zeros((3, 5)))


class TestSplitScan:
    def test_reference_agrees_single_column(self):
        rng = np.random.default_rng(5)
        values = np.sort(rng.normal(size=40))
        targets = rng.normal(size=40)
        gain, threshold = _best_split(values, targets, 1)
        ref = reference_best_split(values.reshape(-1, 1), targets, 1)
        assert ref is not None
        assert threshold == pytest.approx(ref[2], rel=1e-12)
        assert gain == pytest.approx(ref[0], rel=1e-9)
