"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's code paths: gains are computed from
explicit sum-of-squares loops rather than prefix sums, and pearson is the
textbook formula over Python floats. ``reference_fit_tree`` is the
node-at-a-time recursive builder that the level-wise grower replaced; the
grower must reproduce its trees bit for bit.
"""

import math

import numpy as np

from surfplan.ml.ensemble import BoostedModel, ForestModel
from surfplan.ml.tree import LEAF, TreeModel


def sse(values) -> float:
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values)


def reference_best_split(features, targets, min_child_weight):
    """Exhaustive best (feature, threshold) by SSE reduction.

    Returns (gain, feature, threshold) or None when no valid candidate exists.
    Ties prefer the lower feature index, then the lower threshold.
    """
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n = features.shape[0]
    parent = sse(targets.tolist())
    best = None
    for f in range(features.shape[1]):
        column = features[:, f]
        distinct = sorted(set(column.tolist()))
        for lo, hi in zip(distinct[:-1], distinct[1:]):
            threshold = (lo + hi) * 0.5
            if threshold >= hi:
                continue
            left = column <= threshold
            n_left = int(left.sum())
            if n_left < min_child_weight or n - n_left < min_child_weight:
                continue
            gain = parent - sse(targets[left].tolist()) - sse(targets[~left].tolist())
            if best is None or gain > best[0] + 1e-9 * max(1.0, abs(best[0])):
                best = (gain, f, threshold)
    return best


def split_gain(features, targets, feature, threshold, min_child_weight):
    """SSE reduction of one concrete split, or None if it is inadmissible."""
    column = features[:, feature]
    left = column <= threshold
    n_left = int(left.sum())
    if n_left < min_child_weight or len(targets) - n_left < min_child_weight:
        return None
    if n_left == 0 or n_left == len(targets):
        return None
    return (sse(targets.tolist()) - sse(targets[left].tolist())
            - sse(targets[~left].tolist()))


def verify_tree_node(tree, node, features, targets, config, depth):
    """Recursively check every node of a fitted tree against the reference.

    At every internal node the chosen split must be admissible and achieve the
    brute-force best gain (distinct features can induce identical partitions,
    so gains can tie exactly; optimality, not identity, is the contract here;
    exact tie-break order is pinned separately on crafted cases). Returns the
    number of nodes checked.
    """
    leaf_value = sum(targets.tolist()) / len(targets)
    assert abs(tree.value[node] - leaf_value) < 1e-9 * max(1.0, abs(leaf_value)), \
        f"node {node}: leaf value {tree.value[node]} != mean {leaf_value}"

    must_stop = (depth >= config.max_depth
                 or len(targets) < config.min_samples_split)
    best = None if must_stop else reference_best_split(
        features, targets, config.min_child_weight)
    is_leaf = tree.feature[node] == -1
    tolerance = 1e-9 * max(1.0, abs(best[0])) if best is not None else 0.0

    if is_leaf:
        # A leaf is correct when no admissible split clears both the positive-
        # gain rule and the minimum-gain threshold (up to float tolerance).
        if best is not None:
            assert best[0] <= max(config.gamma, 0.0) + max(tolerance, 1e-9), \
                f"node {node}: tree is a leaf but reference found gain {best[0]}"
        return 1

    assert best is not None, \
        f"node {node}: tree split although stopping rules forbid any split"
    gain, _, _ = best
    actual = split_gain(features, targets, int(tree.feature[node]),
                        float(tree.threshold[node]), config.min_child_weight)
    assert actual is not None, f"node {node}: tree chose an inadmissible split"
    assert actual >= gain - tolerance, \
        (f"node {node}: tree split gain {actual} is worse than brute-force "
         f"best {gain}")
    assert actual > -tolerance and actual >= config.gamma - tolerance, \
        f"node {node}: tree split gain {actual} violates the minimum-gain rule"

    left_mask = features[:, tree.feature[node]] <= tree.threshold[node]
    checked = 1
    checked += verify_tree_node(tree, tree.left[node], features[left_mask],
                                targets[left_mask], config, depth + 1)
    checked += verify_tree_node(tree, tree.right[node], features[~left_mask],
                                targets[~left_mask], config, depth + 1)
    return checked


def _reference_split_scan(values, targets, min_leaf):
    """Best split of one sorted column by prefix sums: (gain, threshold)."""
    n = values.shape[0]
    csum = np.cumsum(targets)
    total = csum[-1]
    parent_term = total * total / n
    left_n = np.arange(1, n)
    right_n = n - left_n
    left_sum = csum[:-1]
    right_sum = total - left_sum
    gains = left_sum * left_sum / left_n + right_sum * right_sum / right_n - parent_term
    thresholds = (values[:-1] + values[1:]) * 0.5
    valid = (values[1:] > values[:-1]) & (left_n >= min_leaf) & (right_n >= min_leaf)
    valid &= thresholds < values[1:]
    if not valid.any():
        return float("-inf"), 0.0
    gains = np.where(valid, gains, -np.inf)
    best = int(np.argmax(gains))
    return float(gains[best]), float(thresholds[best])


def reference_fit_tree(features, targets, config):
    """Recursive CART builder: one node at a time, each feature argsorted at
    every node, nodes numbered in pre-order."""
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    columns = {name: [] for name in ("feature", "threshold", "left", "right", "value")}

    def grow(index, depth):
        node = len(columns["feature"])
        y = targets[index]
        columns["feature"].append(LEAF)
        columns["threshold"].append(0.0)
        columns["left"].append(LEAF)
        columns["right"].append(LEAF)
        columns["value"].append(float(np.mean(y)))
        if depth >= config.max_depth or index.shape[0] < config.min_samples_split:
            return node
        best_gain, best_feature, best_threshold = float("-inf"), LEAF, 0.0
        for f in range(features.shape[1]):
            column = features[index, f]
            order = np.argsort(column, kind="stable")
            with np.errstate(all="ignore"):
                gain, threshold = _reference_split_scan(column[order], y[order],
                                                        config.min_child_weight)
            if gain > best_gain:
                best_gain, best_feature, best_threshold = gain, f, threshold
        if best_feature == LEAF or best_gain <= 0.0 or best_gain < config.gamma:
            return node
        go_left = features[index, best_feature] <= best_threshold
        columns["feature"][node] = best_feature
        columns["threshold"][node] = best_threshold
        columns["left"][node] = grow(index[go_left], depth + 1)
        columns["right"][node] = grow(index[~go_left], depth + 1)
        return node

    grow(np.arange(features.shape[0]), 0)
    return TreeModel(
        feature=np.asarray(columns["feature"], dtype=np.int64),
        threshold=np.asarray(columns["threshold"], dtype=np.float64),
        left=np.asarray(columns["left"], dtype=np.int64),
        right=np.asarray(columns["right"], dtype=np.int64),
        value=np.asarray(columns["value"], dtype=np.float64),
        n_features=features.shape[1])


def reference_fit_forest(features, targets, config):
    """Bagging loop over ``reference_fit_tree``, with fit_forest's seeding."""
    n = features.shape[0]
    trees = []
    for i in range(config.n_estimators):
        take = np.arange(n)
        if config.bootstrap:
            take = np.random.default_rng((config.seed, i)).integers(0, n, size=n)
        trees.append(reference_fit_tree(features[take], targets[take], config.tree))
    return ForestModel(trees=tuple(trees), n_features=features.shape[1])


def reference_fit_boosted(features, targets, config):
    """Boosting loop over ``reference_fit_tree``, predicting with each tree."""
    base = float(np.mean(targets)) if config.base_score is None else float(config.base_score)
    prediction = np.full(features.shape[0], base)
    trees = []
    for _ in range(config.n_estimators):
        tree = reference_fit_tree(features, targets - prediction, config.tree)
        prediction += config.learning_rate * tree.predict(features)
        trees.append(tree)
    return BoostedModel(trees=tuple(trees), learning_rate=config.learning_rate,
                        base_score=base, n_features=features.shape[1])


def assert_same_tree(actual, expected):
    """All five node arrays equal bit for bit (and in dtype)."""
    for name in ("feature", "threshold", "left", "right", "value"):
        a, b = getattr(actual, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), f"{name}: {a} != {b}"
    assert actual.n_features == expected.n_features


def pearson_reference(x, y) -> float:
    n = len(x)
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    num = sum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    den_x = sum((a - mean_x) ** 2 for a in x)
    den_y = sum((b - mean_y) ** 2 for b in y)
    return num / math.sqrt(den_x * den_y)
