"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's code paths: gains are computed from
explicit sum-of-squares loops rather than prefix sums, and pearson is the
textbook formula over Python floats. ``reference_fit_tree`` is the
node-at-a-time recursive builder that the level-wise grower replaced; the
grower must reproduce its trees bit for bit. ``reference_heuristic_predict``
is the per-request heuristic computation that the models' derived state
replaced: it re-standardizes every training row, takes row-sum distances, a
full lexsort for the k nearest and an uncached decade filter, and the models
must reproduce its predictions bit for bit.
"""

import math

import numpy as np

from surfplan.core import RAW_FLOOR, PredictionResult, round_distance, round_rounds, scalarize
from surfplan.heuristics import IDW_NEIGHBORS, IDW_POWER, linear_interp, poly_interp
from surfplan.ml.ensemble import BoostedModel, ForestModel
from surfplan.ml.tree import LEAF, TreeModel
from surfplan.oracle import AboveThresholdError, effective_error


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


def _reference_range_search(features, labels, query):
    distances = np.sqrt(((features - query) ** 2).sum(axis=1))
    return float(labels[int(np.argmin(distances))])


def _reference_multivariate(features, labels, query, k=IDW_NEIGHBORS, power=IDW_POWER):
    distances = np.sqrt(((features - query) ** 2).sum(axis=1))
    exact = np.nonzero(distances == 0.0)[0]
    if exact.size:
        return float(labels[exact[0]])
    order = np.lexsort((np.arange(len(distances)), distances))[:min(k, len(distances))]
    weights = 1.0 / distances[order] ** power
    return float(np.dot(weights, labels[order]) / weights.sum())


def _reference_scalarized(model):
    noise, weights = model.noise, model.weights
    return (weights.w_gate * noise[:, 1] + weights.w_depol * noise[:, 0]
            + weights.w_readout * noise[:, 3] + weights.w_reset * noise[:, 2])


def _reference_decade_pairs(model, axis, labels, log_target, need):
    decades = np.rint(model.log_ler).astype(np.int64)
    available = np.unique(decades)
    by_closeness = sorted(available, key=lambda d: (abs(d - log_target), d))
    chosen = []
    for decade in by_closeness:
        chosen.append(int(decade))
        mask = np.isin(decades, chosen)
        if np.unique(axis[mask]).size >= need:
            break
    mask = np.isin(decades, chosen)
    xs, ys = axis[mask], labels[mask]
    unique_x, inverse = np.unique(xs, return_inverse=True)
    sums = np.zeros(unique_x.size)
    counts = np.zeros(unique_x.size)
    np.add.at(sums, inverse, ys)
    np.add.at(counts, inverse, 1.0)
    return np.column_stack([unique_x, sums / counts])


def _reference_interp_1d(model, axis, labels, log_target, x_query):
    need = 3 if model.kind.method == "poly_interp" else 2
    pairs = _reference_decade_pairs(model, axis, labels, log_target, need)
    if pairs.shape[0] == 1:
        return float(pairs[0, 1])
    if model.kind.method == "poly_interp":
        return poly_interp(pairs, x_query)
    return linear_interp(pairs, x_query)


def _reference_neighbor(model, features, labels, query):
    if model.kind.method == "range_search":
        return _reference_range_search(features, labels, query)
    return _reference_multivariate(features, labels, query)


def reference_heuristic_predict(model, request):
    """A heuristic model's prediction, recomputed from its embedded records
    and scalers on every call."""
    if effective_error(request.noise, model.oracle) >= model.oracle.threshold:
        raise AboveThresholdError(
            "profile is at or above the oracle threshold; request is infeasible")
    profile = request.noise
    log_target = math.log10(request.target_logical_error_rate)
    neighbor = model.kind.method in ("range_search", "multivariate_interp")
    if neighbor:
        if model.kind.weighted:
            train = np.column_stack([_reference_scalarized(model), model.log_ler])
            query = np.asarray([scalarize(profile, model.weights), log_target])
        else:
            train = np.column_stack([model.noise, model.log_ler])
            query = np.asarray([profile.depolarizing, profile.gate, profile.reset,
                                profile.readout, log_target])
        raw_distance = _reference_neighbor(
            model, model.stage1_scaler.transform(train), model.distance,
            model.stage1_scaler.transform(query))
    else:
        if model.kind.weighted:
            axis = _reference_scalarized(model)
            x_query = scalarize(profile, model.weights)
        else:
            axis = np.sqrt((model.noise ** 2).sum(axis=1))
            x_query = math.sqrt(profile.depolarizing ** 2 + profile.gate ** 2
                                + profile.reset ** 2 + profile.readout ** 2)
        raw_distance = _reference_interp_1d(model, axis, model.distance, log_target, x_query)
    raw_distance = max(raw_distance, RAW_FLOOR)
    rounded_distance = round_distance(raw_distance)
    if neighbor:
        raw_rounds = _reference_neighbor(
            model, model.stage2_scaler.transform(np.column_stack([model.distance, model.log_ler])),
            model.rounds,
            model.stage2_scaler.transform(np.asarray([float(rounded_distance), log_target])))
    else:
        raw_rounds = _reference_interp_1d(model, model.distance.astype(np.float64),
                                          model.rounds, log_target, float(rounded_distance))
    raw_rounds = max(raw_rounds, RAW_FLOOR)
    return PredictionResult(raw_distance=float(raw_distance), rounded_distance=rounded_distance,
                            raw_rounds=float(raw_rounds), rounded_rounds=round_rounds(raw_rounds))
