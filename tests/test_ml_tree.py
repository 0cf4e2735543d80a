import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    assert_same_tree,
    leaf_values,
    reference_best_split,
    reference_fit_boosted,
    reference_fit_forest,
    reference_fit_tree,
    reference_level_splits,
    reference_predict,
    reference_predict_row,
    reference_tree_predict_row,
    verify_tree_node,
)
from surfplan import (
    BoostConfig,
    ForestConfig,
    TreeConfig,
    ValidationError,
    fit_boosted,
    fit_forest,
    fit_tree,
)
from surfplan.ml.serialize import stage_from_dict, stage_to_dict
from surfplan.ml import tree as tree_module
from surfplan.ml.tree import (
    BLOCK_ROWS,
    LEAF,
    SCAN_CELLS,
    TreeModel,
    _key_type,
    _level_splits,
    grow_tree,
    presort,
)


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
        assert sorted(leaf_values(tree).tolist()) == [0.0, 8.0]

    def test_depth_one_is_at_most_three_nodes(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(40, 3))
        targets = rng.normal(size=40)
        tree = fit_tree(features, targets, TreeConfig(max_depth=1))
        assert tree.node_count <= 3

    def test_empty_data_rejected(self):
        with pytest.raises(ValidationError):
            fit_tree(np.empty((0, 2)), np.empty(0))

    def test_one_dimensional_features_are_one_column(self):
        tree = fit_tree([0.0, 1.0, 10.0, 11.0], [0.0, 0.0, 8.0, 8.0])
        assert tree.n_features == 1
        assert tree.predict([0.5, 10.5]).tolist() == [0.0, 8.0]

    def test_three_dimensional_features_rejected(self):
        with pytest.raises(ValidationError, match="features must be 2-D"):
            fit_tree(np.zeros((2, 2, 2)), [0.0, 1.0])

    @pytest.mark.parametrize("targets, message", [
        ([0.0, 1.0], "targets length 2 does not match 3 feature rows"),
        ([0.0, math.nan, 1.0], "targets must be finite"),
        ([0.0, math.inf, 1.0], "targets must be finite"),
    ])
    def test_bad_targets_rejected(self, targets, message):
        with pytest.raises(ValidationError, match=message):
            fit_tree([[0.0], [1.0], [2.0]], targets)

    def test_min_child_weight_respected(self):
        features = np.array([[0.0], [1.0], [2.0], [3.0]])
        targets = np.array([0.0, 0.0, 0.0, 100.0])
        tree = fit_tree(features, targets,
                        TreeConfig(max_depth=3, min_child_weight=2))
        # the only admissible split is the middle one
        assert tree.threshold[0] == pytest.approx(1.5)

    @pytest.mark.parametrize("pair, node_count", [
        ((1.0 - 2.0 ** -53, 1.0), 1),
        ((1e308, 1.5e308), 1),
        ((1.0, 1.0 + 2.0 ** -52), 3),
    ], ids=["midpoint-rounds-up", "sum-overflows", "midpoint-below"])
    def test_candidate_is_a_midpoint_below_the_right_value(self, pair, node_count):
        # The first pair's midpoint rounds up to 1.0 and the second's sum to
        # inf, so neither can separate its two rows; the third's is 1.0.
        tree = fit_tree(np.reshape(pair, (-1, 1)), [0.0, 10.0], TreeConfig(min_child_weight=1))
        assert tree.node_count == node_count
        if node_count == 3:
            assert tree.threshold[0] == 1.0

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
        leaves = set(leaf_values(tree).tolist())
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
        rows = [reference_tree_predict_row(tree, q) for q in queries]
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
        feature, threshold, gain = _level_splits(
            values.reshape(1, 1, -1), targets.reshape(1, 1, -1), np.array([40]), 1)
        feature, threshold, gain = int(feature[0]), float(threshold[0]), float(gain[0])
        ref = reference_best_split(values.reshape(-1, 1), targets, 1)
        assert ref is not None
        assert feature == ref[1] == 0
        assert threshold == pytest.approx(ref[2], rel=1e-12)
        assert gain == pytest.approx(ref[0], rel=1e-9)


# Feature columns: continuous, quantized to a few levels, or heavy with
# duplicates, signed zeros and neighbours whose midpoint rounds up to the
# right-hand value or overflows.
_feature_values = (
    st.floats(min_value=-1e6, max_value=1e6),
    st.integers(min_value=-3, max_value=3).map(float),
    st.sampled_from([0.0, -0.0, 1.0, 1.0 + 2.0 ** -52, 2.5, 1.0 - 2.0 ** -53, 1e308,
                     1.5e308]),
)
# Targets: small, large enough that squared sums overflow, and negative.
_target_values = (
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-1e200, max_value=1e200),
    st.sampled_from([0.0, -0.0, -1.5, 1e154, -1e154, 1e308, -1e308]),
)
_tree_configs = st.builds(
    TreeConfig,
    max_depth=st.integers(min_value=1, max_value=10),
    min_samples_split=st.integers(min_value=2, max_value=70),
    min_child_weight=st.integers(min_value=1, max_value=6),
    gamma=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0)),
)


@st.composite
def _problems(draw, targets=_target_values, max_rows=60):
    n_rows = draw(st.integers(min_value=1, max_value=max_rows))
    n_features = draw(st.integers(min_value=1, max_value=5))
    features = draw(arrays(np.float64, (n_rows, n_features),
                           elements=draw(st.sampled_from(_feature_values))))
    return features, draw(arrays(np.float64, n_rows, elements=draw(st.sampled_from(targets))))


@st.composite
def _padded_levels(draw):
    """A level as ``_level_splits`` takes it: per node and feature, the
    node's rows in ascending value order, padded with unsorted values to a
    common width of at least two; nodes of unequal row counts."""
    counts = np.asarray(draw(st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                                      max_size=5)))
    width = max(int(counts.max()), 2) + draw(st.integers(min_value=0, max_value=2))
    shape = (counts.size, draw(st.integers(min_value=1, max_value=3)), width)
    values = draw(arrays(np.float64, shape, elements=draw(st.sampled_from(_feature_values))))
    for node, count in enumerate(counts):
        values[node, :, :count].sort(axis=1)
    targets = draw(arrays(np.float64, shape, elements=draw(st.sampled_from(_target_values))))
    return values, targets, counts


def _leaf_of(tree, features):
    leaves = []
    for row in features:
        node = 0
        while tree.feature[node] != LEAF:
            go_left = row[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        leaves.append(node)
    return np.asarray(leaves)


class TestMatchesRecursiveBuilder:
    """The level-wise grower must give the node-at-a-time builder's trees, bit
    for bit and in the same level-order node layout."""

    def test_gain_equal_to_gamma_splits(self):
        # The split's gain is exactly 2.0; only a gain below gamma blocks it.
        features, targets = np.array([[0.0], [1.0]]), np.array([0.0, 2.0])
        tree = fit_tree(features, targets, TreeConfig(max_depth=1, gamma=2.0))
        assert_same_tree(tree, reference_fit_tree(features, targets,
                                                  TreeConfig(max_depth=1, gamma=2.0)))
        assert tree.node_count == 3

    def test_feature_with_nan_gain_is_passed_over(self):
        # Feature 0's prefix sums overflow to inf, so its gains are NaN; the
        # split must come from feature 1, whose sums stay finite.
        features = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        targets = np.array([1e308, -1e308, -1e308, 1e308])
        config = TreeConfig(max_depth=1)
        with np.errstate(all="ignore"):
            tree = fit_tree(features, targets, config)
            assert_same_tree(tree, reference_fit_tree(features, targets, config))
        assert (tree.feature[0], tree.threshold[0]) == (1, 0.5)

    @given(problem=_problems(), config=_tree_configs)
    @settings(max_examples=400)
    def test_fit_tree_exact(self, problem, config):
        features, targets = problem
        with np.errstate(all="ignore"):
            expected = reference_fit_tree(features, targets, config)
            (tree,), leaf = grow_tree(features, targets, presort(features), config)
            assert_same_tree(fit_tree(features, targets, config), expected)
        assert_same_tree(tree, expected)
        assert np.array_equal(leaf, _leaf_of(tree, features))

    @given(problem=_problems(targets=(st.floats(min_value=-1e6, max_value=1e6),), max_rows=40),
           config=_tree_configs, n_estimators=st.integers(min_value=1, max_value=6),
           learning_rate=st.floats(min_value=0.01, max_value=1.0),
           base_score=st.one_of(st.none(), st.floats(min_value=-10.0, max_value=10.0)))
    @settings(max_examples=60)
    def test_fit_boosted_exact(self, problem, config, n_estimators, learning_rate,
                               base_score):
        features, targets = problem
        boost = BoostConfig(n_estimators=n_estimators, learning_rate=learning_rate,
                            tree=config, base_score=base_score)
        actual = fit_boosted(features, targets, boost)
        expected = reference_fit_boosted(features, targets, boost)
        assert (actual.base_score, actual.learning_rate) == (
            expected.base_score, expected.learning_rate)
        assert len(actual.trees) == len(expected.trees)
        for got, want in zip(actual.trees, expected.trees):
            assert_same_tree(got, want)

    @given(problem=_problems(targets=(st.floats(min_value=-1e6, max_value=1e6),), max_rows=40),
           config=_tree_configs, n_estimators=st.integers(min_value=1, max_value=6),
           bootstrap=st.booleans(), seed=st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=60)
    def test_fit_forest_exact(self, problem, config, n_estimators, bootstrap, seed):
        features, targets = problem
        forest = ForestConfig(n_estimators=n_estimators, tree=config,
                              bootstrap=bootstrap, seed=seed)
        actual = fit_forest(features, targets, forest)
        expected = reference_fit_forest(features, targets, forest)
        assert len(actual.trees) == len(expected.trees)
        for got, want in zip(actual.trees, expected.trees):
            assert_same_tree(got, want)


def _block_presort(blocks) -> np.ndarray:
    """Each block's own presort, offset to its rows in the stacked row space."""
    offsets = np.cumsum([0] + [len(block) for block in blocks[:-1]])
    return np.concatenate([presort(block) + offset for block, offset in zip(blocks, offsets)],
                          axis=1)


@st.composite
def _stacked_problems(draw):
    """Problems with one feature count and unequal row counts: 1-row blocks,
    constant-target blocks (single leaves) and ordinary ones."""
    n_features = draw(st.integers(min_value=1, max_value=4))
    features, targets = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        n_rows = draw(st.sampled_from([1, 2]) | st.integers(min_value=3, max_value=30))
        features.append(draw(arrays(np.float64, (n_rows, n_features),
                                    elements=draw(st.sampled_from(_feature_values)))))
        targets.append(draw(
            st.floats(min_value=-10.0, max_value=10.0).map(lambda value: np.full(n_rows, value))
            | arrays(np.float64, n_rows, elements=draw(st.sampled_from(_target_values)))))
    return features, targets


class TestStackedProblems:
    """One ``grow_tree`` call over stacked problems gives each problem's tree
    and leaf ids bit for bit as growing it alone, however its levels are split
    into scans."""

    @given(problems=_stacked_problems(), config=_tree_configs,
           scan_cells=st.sampled_from([SCAN_CELLS, 64, 1]))
    @settings(max_examples=200)
    @example(problems=([np.zeros((1, 2)), np.arange(8.0).reshape(4, 2),
                        np.arange(40.0).reshape(20, 2) % 7],
                       [np.ones(1), np.full(4, 2.5), np.arange(20.0) % 3]),
             config=TreeConfig(min_samples_split=3), scan_cells=SCAN_CELLS)
    def test_matches_growing_each_alone(self, problems, config, scan_cells):
        features, targets = problems
        sizes = np.asarray([len(block) for block in targets])
        order = _block_presort(features)
        with np.errstate(all="ignore"):
            with mock.patch.object(tree_module, "SCAN_CELLS", scan_cells):
                trees, leaf = grow_tree(np.vstack(features), np.concatenate(targets), order,
                                        config, sizes)
            assert len(trees) == sizes.size
            for i, (block, block_targets) in enumerate(zip(features, targets)):
                (alone,), alone_leaf = grow_tree(block, block_targets, presort(block), config)
                assert_same_tree(trees[i], alone)
                start = sizes[:i].sum()
                assert leaf[start:start + sizes[i]].tobytes() == alone_leaf.tobytes()
        if np.all(sizes == sizes[0]):
            assert np.array_equal(presort(np.vstack(features), sizes.size), order)

    @given(problems=_stacked_problems(), config=_tree_configs)
    @settings(max_examples=50)
    def test_nodes_are_in_level_order(self, problems, config):
        # Each tree lists its nodes as they grow: the root, then level by
        # level, each split's two children next to each other, left first.
        # So the k-th split node's children are nodes 2k + 1 and 2k + 2.
        features, targets = problems
        sizes = np.asarray([len(block) for block in targets])
        with np.errstate(all="ignore"):
            trees, _ = grow_tree(np.vstack(features), np.concatenate(targets),
                                 _block_presort(features), config, sizes)
        for tree in trees:
            split = np.flatnonzero(tree.feature != LEAF)
            assert tree.node_count == 2 * split.size + 1
            assert tree.left[split].tolist() == list(range(1, tree.node_count, 2))
            assert tree.right[split].tolist() == list(range(2, tree.node_count, 2))


class TestLevelScan:
    @pytest.mark.parametrize("n_keys, key_type", [
        (2, np.uint8), (1 << 8, np.uint8), ((1 << 8) + 1, np.uint16),
        (1 << 16, np.uint16), ((1 << 16) + 1, np.intp),
    ], ids=["uint8", "uint8-limit", "uint16", "uint16-limit", "intp"])
    def test_regroup_key_type_keeps_the_int64_order(self, n_keys, key_type):
        # Heavy ties at both ends and the middle of the key range, then spread keys.
        rng = np.random.default_rng(n_keys)
        ends = np.asarray([0, 1, n_keys // 2, n_keys - 2, n_keys - 1])
        keys = np.concatenate([rng.choice(ends, size=(3, 500)),
                               rng.integers(0, n_keys, size=(3, 500))], axis=1)
        assert _key_type(n_keys) is key_type
        narrow = keys.astype(_key_type(n_keys))
        assert np.array_equal(narrow, keys)
        assert np.array_equal(narrow.argsort(axis=1, kind="stable"),
                              keys.argsort(axis=1, kind="stable"))

    @staticmethod
    def _scanned_shapes(monkeypatch, sizes, config, scanned=None):
        """Grow ``sizes`` stacked random problems of two features, recording
        the shape of every scan's values, and each scan's node sizes into the
        list ``scanned`` when one is given; returns the shapes and the trees."""
        rng = np.random.default_rng(0)
        blocks = [rng.normal(size=(size, 2)) for size in sizes]
        targets = rng.normal(size=sum(sizes))
        shapes = []

        def recording(values, level_targets, counts, min_leaf):
            shapes.append(values.shape)
            if scanned is not None:
                scanned.append(counts.tolist())
            return _level_splits(values, level_targets, counts, min_leaf)

        monkeypatch.setattr(tree_module, "_level_splits", recording)
        trees, _ = grow_tree(np.vstack(blocks), targets, _block_presort(blocks), config,
                             np.asarray(sizes))
        return shapes, trees

    def test_skewed_level_is_split_within_the_bound(self, monkeypatch):
        # One large root beside sixty tiny ones: padded to the large one's
        # width, the level would be 61 x 2 x 3000 cells.
        sizes = [3000] + [3] * 60
        assert len(sizes) * max(sizes) * 2 > SCAN_CELLS
        shapes, trees = self._scanned_shapes(monkeypatch, sizes, TreeConfig(max_depth=1))
        assert len(shapes) > 1
        assert all(math.prod(shape) <= SCAN_CELLS for shape in shapes)
        assert sum(shape[0] for shape in shapes) == len(sizes)
        assert len(trees) == len(sizes)

    @pytest.mark.parametrize("size, config", [
        (94, TreeConfig(max_depth=2)),
        (SCAN_CELLS // 20, TreeConfig(max_depth=1)),
    ], ids=["default-forest", "at-the-bound"])
    def test_level_that_fits_is_one_scan(self, monkeypatch, size, config):
        # Ten problems of two features: the default forest's stage-two shape
        # two levels deep, and a level 0 of just under SCAN_CELLS cells.
        shapes, _ = self._scanned_shapes(monkeypatch, [size] * 10, config)
        assert len(shapes) == config.max_depth
        assert shapes[0] == (10, 2, size)

    @pytest.mark.parametrize("config", [
        TreeConfig(max_depth=6, min_child_weight=5),
        TreeConfig(max_depth=6, min_samples_split=12, min_child_weight=5),
    ], ids=["min-child-weight", "min-samples-split"])
    def test_nodes_too_small_to_split_are_not_scanned(self, monkeypatch, config):
        # Below max(min_samples_split, 2 * min_child_weight) rows no candidate
        # leaves min_child_weight rows on both sides, so the node is not
        # scanned, and a level of such nodes makes no scan at all.
        bound = max(config.min_samples_split, 2 * config.min_child_weight)
        shapes, trees = self._scanned_shapes(monkeypatch, [bound - 1] * 10, config)
        assert shapes == []
        assert [tree.node_count for tree in trees] == [1] * 10
        scanned = []
        shapes, trees = self._scanned_shapes(monkeypatch, [bound - 1] * 10 + [94], config,
                                             scanned)
        assert shapes[0][0] == 1
        assert trees[-1].node_count > 3
        assert min(min(counts) for counts in scanned) >= bound

    @given(level=_padded_levels(), min_leaf=st.integers(min_value=1, max_value=6))
    @settings(max_examples=300)
    def test_scan_matches_the_previous_scan_bit_for_bit(self, level, min_leaf):
        values, targets, counts = level
        with np.errstate(all="ignore"):
            expected = reference_level_splits(values, targets, counts, min_leaf)
            actual = _level_splits(values, targets, counts, min_leaf)
        for got, want in zip(actual, expected):
            assert got.tobytes() == want.tobytes()


@st.composite
def _stage_models(draw):
    """A small fitted tree, forest or boosted model, and query rows for it."""
    features, targets = draw(_problems(targets=(st.floats(min_value=-1e6, max_value=1e6),),
                                       max_rows=40))
    config = draw(_tree_configs)
    kind = draw(st.sampled_from(["tree", "forest", "boosted"]))
    # Past eight trees a pairwise sum would add in another order than a loop.
    n_estimators = st.integers(min_value=1, max_value=12)
    if kind == "tree":
        model = fit_tree(features, targets, config)
    elif kind == "forest":
        model = fit_forest(features, targets, ForestConfig(
            n_estimators=draw(n_estimators), tree=config,
            seed=draw(st.integers(min_value=0, max_value=2 ** 32))))
    else:
        model = fit_boosted(features, targets, BoostConfig(
            n_estimators=draw(n_estimators),
            learning_rate=draw(st.floats(min_value=0.01, max_value=1.0)), tree=config))
    # One row, one short batch, and batches that cross a block boundary.
    n_queries = draw(st.sampled_from([1, 8, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 7]))
    queries = draw(arrays(np.float64, (n_queries, features.shape[1]),
                          elements=draw(st.sampled_from(_feature_values))))
    # Training rows first, then drawn ones.
    return model, np.vstack([features, queries])[:n_queries]


class TestPackedPrediction:
    """The packed traversal must give the per-tree loops' and the one-row
    walks' answers bit for bit, for every row alone and inside any batch,
    and an ensemble's also after a save/load."""

    @given(problem=_stage_models(), data=st.data())
    @settings(max_examples=150)
    def test_matches_references_at_every_batch_size(self, problem, data):
        model, queries = problem
        expected = reference_predict(model, queries)
        rows = np.asarray([reference_predict_row(model, q) for q in queries])
        assert expected.tobytes() == rows.tobytes()
        # A single tree is not a stage a model file holds, so only an
        # ensemble is reloaded.
        candidates = [model] if isinstance(model, TreeModel) else [
            model, stage_from_dict(json.loads(json.dumps(stage_to_dict(model))))]
        start = data.draw(st.integers(min_value=0, max_value=len(queries) - 1))
        for candidate in candidates:
            batch = candidate.predict(queries)
            assert batch.tobytes() == expected.tobytes()
            assert candidate.predict(queries[start:]).tobytes() == expected[start:].tobytes()
            alone = np.concatenate([candidate.predict(q[None, :]) for q in queries])
            assert alone.tobytes() == expected.tobytes()
