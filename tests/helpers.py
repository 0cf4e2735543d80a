"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's code paths: gains are computed from
explicit sum-of-squares loops rather than prefix sums, and pearson is the
textbook formula over Python floats. ``reference_fit_tree`` is the
node-at-a-time builder that the level-wise grower replaced, numbering its
nodes breadth-first; the grower must reproduce its trees bit for bit.
``reference_level_splits`` is the padded level scan that the grower's
in-place scan replaced; the scan must return its splits bit for bit.
``reference_heuristic_predict`` is the per-request heuristic computation
that the models' derived state replaced: it shares none of the library's
feature or scaler code, takes the request as one more row through its own
weighted sum, fits its own mean and scale and re-standardizes every
training row with them, takes row-sum distances, a full lexsort for the k
nearest and an uncached decade filter,
and the models must reproduce its predictions bit for bit. ``reference_predict`` and
``reference_predict_row`` are the per-tree batch loops and the one-row walks
that the packed traversal replaced; the stage models must reproduce both bit
for bit. ``record_columns`` gives a dataset's per-record columns, from which
tests build subsets and joins with ``Dataset.from_rows``.
"""

import math
from collections import deque

import numpy as np

from surfplan.core import RAW_FLOOR, PredictionResult, round_distance
from surfplan.heuristics import IDW_NEIGHBORS, IDW_POWER, linear_interp, poly_interp
from surfplan.ml.ensemble import BoostedModel, ForestModel
from surfplan.ml.linear import LinearModel
from surfplan.ml.tree import LEAF, TreeModel
from surfplan.oracle import AboveThresholdError, effective_error


def record_columns(dataset):
    """Each record's (n, 4) rates, distance, rounds and logical error rate."""
    return dataset.noise(), dataset.distance, dataset.rounds, dataset.logical_error_rate


def leaf_values(tree):
    """The values of a tree's leaves, in node order."""
    return tree.value[tree.feature == LEAF]


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


def reference_level_splits(values, targets, counts, min_leaf):
    """The padded level scan that ``tree._level_splits`` replaced: separate
    distinct-value and midpoint tests, a size mask built at full shape, the
    invalid cells blanked by ``np.where``, and every gain term a new array.
    The library's scan must return its (feature, threshold, gain) bit for
    bit."""
    n_nodes, _, width = values.shape
    node = np.arange(n_nodes)
    csum = np.cumsum(targets, axis=2)
    total = csum[node, :, counts - 1][:, :, None]
    parent_term = total * total / counts[:, None, None]
    left_n = np.arange(1, width)
    right_n = counts[:, None, None] - left_n
    left_sum = csum[:, :, :-1]
    right_sum = total - left_sum
    with np.errstate(all="ignore"):
        gains = left_sum * left_sum / left_n + right_sum * right_sum / right_n - parent_term
        thresholds = (values[:, :, :-1] + values[:, :, 1:]) * 0.5
    valid = ((values[:, :, 1:] > values[:, :, :-1]) & (thresholds < values[:, :, 1:])
             & ((left_n >= min_leaf) & (right_n >= min_leaf)))
    gains = np.where(valid, gains, -np.inf).reshape(n_nodes, -1)
    best = gains.argmax(axis=1)
    gain = gains[node, best]
    if math.isnan(gain.sum()):
        per_feature = gains.reshape(n_nodes, -1, width - 1)
        per_feature[np.isnan(per_feature.max(axis=2))] = -np.inf
        best = gains.argmax(axis=1)
        gain = gains[node, best]
    return best // (width - 1), thresholds.reshape(n_nodes, -1)[node, best], gain


def reference_fit_tree(features, targets, config):
    """CART builder: one node at a time, each feature argsorted at every
    node, nodes numbered breadth-first from a queue, a split's two children
    taking the next two ids, left first."""
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    columns = {name: [] for name in ("feature", "threshold", "left", "right", "value")}
    queue = deque()

    def add(index, depth):
        node = len(columns["feature"])
        columns["feature"].append(LEAF)
        columns["threshold"].append(0.0)
        columns["left"].append(LEAF)
        columns["right"].append(LEAF)
        columns["value"].append(float(np.mean(targets[index])))
        queue.append((node, index, depth))
        return node

    add(np.arange(features.shape[0]), 0)
    while queue:
        node, index, depth = queue.popleft()
        y = targets[index]
        if depth >= config.max_depth or index.shape[0] < config.min_samples_split:
            continue
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
            continue
        go_left = features[index, best_feature] <= best_threshold
        columns["feature"][node] = best_feature
        columns["threshold"][node] = best_threshold
        columns["left"][node] = add(index[go_left], depth + 1)
        columns["right"][node] = add(index[~go_left], depth + 1)

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
        prediction += config.learning_rate * reference_tree_predict(tree, features)
        trees.append(tree)
    return BoostedModel(trees=tuple(trees), learning_rate=config.learning_rate,
                        base_score=base, n_features=features.shape[1])


def reference_tree_predict_row(tree, row) -> float:
    """Walk one row from the root until a leaf."""
    node = 0
    while tree.feature[node] != LEAF:
        if row[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return float(tree.value[node])


def reference_tree_predict(tree, features) -> np.ndarray:
    """Move every row that is still on an internal node down one level, until
    all rows are on leaves."""
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    current = np.zeros(n, dtype=np.int64)
    rows = np.arange(n)
    while True:
        internal = tree.feature[current] != LEAF
        if not internal.any():
            break
        idx = rows[internal]
        nodes = current[internal]
        go_left = features[idx, tree.feature[nodes]] <= tree.threshold[nodes]
        current[internal] = np.where(go_left, tree.left[nodes], tree.right[nodes])
    return tree.value[current].copy()


def reference_predict(model, features) -> np.ndarray:
    """A stage model's batch prediction, one tree at a time."""
    features = np.asarray(features, dtype=np.float64)
    if isinstance(model, TreeModel):
        return reference_tree_predict(model, features)
    if isinstance(model, ForestModel):
        acc = np.zeros(features.shape[0])
        for tree in model.trees:
            acc += reference_tree_predict(tree, features)
        return acc / len(model.trees)
    if isinstance(model, BoostedModel):
        acc = np.full(features.shape[0], model.base_score)
        for tree in model.trees:
            acc += model.learning_rate * reference_tree_predict(tree, features)
        return acc
    raise TypeError(f"no batch reference for {type(model).__name__}")


def reference_predict_row(model, row) -> float:
    """A stage model's prediction for one row, one tree at a time."""
    if isinstance(model, TreeModel):
        return reference_tree_predict_row(model, row)
    if isinstance(model, ForestModel):
        return sum(reference_tree_predict_row(tree, row) for tree in model.trees) / len(model.trees)
    if isinstance(model, BoostedModel):
        out = model.base_score
        for tree in model.trees:
            out += model.learning_rate * reference_tree_predict_row(tree, row)
        return out
    if isinstance(model, LinearModel):
        return float(np.dot(row, model.coefficients) + model.intercept)
    raise TypeError(f"no row reference for {type(model).__name__}")


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


def _reference_scalarized(noise, weights):
    """The weighted sum of each row of an (n, 4) array of rates."""
    return (weights.w_gate * noise[:, 1] + weights.w_depol * noise[:, 0]
            + weights.w_readout * noise[:, 3] + weights.w_reset * noise[:, 2])


def _reference_standardized(train, query):
    """The training rows and the query, standardized to the training rows'
    mean and standard deviation; a zero deviation scales by 1."""
    mean, scale = train.mean(axis=0), train.std(axis=0)
    scale[scale == 0.0] = 1.0
    return (train - mean) / scale, (query - mean) / scale


def _reference_decade_pairs(model, axis, labels, log_target, need):
    decades = np.rint(model.training.log_ler).astype(np.int64)
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


def _reference_neighbor(model, features, query, labels):
    if model.kind.method == "range_search":
        return _reference_range_search(features, labels, query)
    return _reference_multivariate(features, labels, query)


def reference_heuristic_predict(model, request):
    """A heuristic model's prediction, recomputed from its embedded records on
    every call, with scalers fitted here rather than read from the model. The
    request's rates are one more (1, 4) row, taken through the same array
    code as the training rows."""
    p_eff = effective_error(request.noise, model.oracle)
    if p_eff >= model.oracle.threshold:
        raise AboveThresholdError(f"effective error {p_eff:.3e} is at or above "
                                  f"threshold {model.oracle.threshold:.3e}")
    training = model.training
    rows = np.asarray([request.noise.as_tuple()], dtype=np.float64)
    log_target = math.log10(request.target_logical_error_rate)
    neighbor = model.kind.method in ("range_search", "multivariate_interp")
    if model.kind.weighted:
        train, query = (_reference_scalarized(noise, training.weights)[:, None]
                        for noise in (training.noise, rows))
    elif neighbor:
        train, query = training.noise, rows
    else:
        train, query = (np.sqrt((noise ** 2).sum(axis=1))[:, None]
                        for noise in (training.noise, rows))
    if neighbor:
        raw_distance = _reference_neighbor(
            model, *_reference_standardized(np.column_stack([train, training.log_ler]),
                                            np.append(query[0], log_target)),
            training.distance)
    else:
        raw_distance = _reference_interp_1d(model, train[:, 0], training.distance, log_target,
                                            float(query[0, 0]))
    raw_distance = max(raw_distance, RAW_FLOOR)
    rounded_distance = round_distance(raw_distance)
    if neighbor:
        raw_rounds = _reference_neighbor(
            model, *_reference_standardized(np.column_stack([training.distance, training.log_ler]),
                                            np.asarray([float(rounded_distance), log_target])),
            training.rounds)
    else:
        raw_rounds = _reference_interp_1d(model, training.distance.astype(np.float64),
                                          training.rounds, log_target, float(rounded_distance))
    raw_rounds = max(raw_rounds, RAW_FLOOR)
    return PredictionResult(raw_distance=float(raw_distance), raw_rounds=float(raw_rounds))
