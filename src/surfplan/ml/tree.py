"""CART regression trees grown by greedy variance reduction.

Split gain is the reduction in the sum of squared errors; thresholds are
midpoints between consecutive sorted feature values that fall strictly below
the right-hand value, so never between equal values nor where the midpoint
rounds up or overflows. Gain ties are broken toward the lower feature index,
then the lower threshold. A node stays a leaf when the depth or size limits
bite, when no split clears the minimum gain, or when every candidate would
starve a child below the minimum leaf size. Zero-gain splits are never taken,
so constant targets yield a single leaf.

Trees grow level by level from one presort per fit, after the exact greedy
algorithm's presorted column blocks (Chen & Guestrin 2016, arXiv:1603.02754,
section 4.1). ``presort`` stable-sorts each feature once. One call can grow
several independent problems, such as a forest's bootstrap samples: their
rows are stacked in one row space, the presort is block-diagonal, and each
problem starts as its own root node of level 0. At every depth the presorted
rows are stably regrouped by node, so each node sees its rows in feature
order with ties in row order, and padded (nodes x features x rows) scans
score every candidate split of the level's nodes of at least
``max(min_samples_split, 2 * min_child_weight)`` rows, the only ones that can
split: one scan when they hold at most ``SCAN_CELLS`` padded cells, otherwise
several, each within that bound or holding a single node. One pass then moves
the rows of all split nodes to their children. Each node's prefix sums start
at its own first row and its value is the mean of its targets taken in row
order, so every tree is bit-identical to one grown alone, a node at a time.
Nodes are stored as they grow, level by level, each split's two children side
by side, left first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import ValidationError, check_int, check_number

LEAF = -1
# Rows walked together at prediction; bounds each step's temporaries.
BLOCK_ROWS = 64
# Padded (nodes x features x rows) cells scored in one split scan; bounds the
# scan's temporaries when a level holds many nodes of unequal size.
SCAN_CELLS = 1 << 15


@dataclass(frozen=True)
class TreeConfig:
    """Growth limits for a single regression tree."""

    max_depth: int = 6
    min_samples_split: int = 2
    min_child_weight: int = 1
    gamma: float = 0.0

    def __post_init__(self):
        check_int("max_depth", self.max_depth, 1)
        check_int("min_samples_split", self.min_samples_split, 2)
        check_int("min_child_weight", self.min_child_weight, 1)
        check_number("gamma", self.gamma, ge=0.0)


@dataclass
class TreeModel:
    """Flat-array binary tree: node i is a leaf when feature[i] == LEAF."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_features: int

    @property
    def node_count(self) -> int:
        return len(self.feature)

    def predict(self, features: np.ndarray) -> np.ndarray:
        # Packed per call: a tree inside an ensemble is predicted through its
        # ensemble's packing, so only a stand-alone tree comes here.
        return pack_trees((self,)).predict(_as_feature_matrix(features, self.n_features), -0.0)


@dataclass(frozen=True)
class PackedTrees:
    """Trees laid out for prediction: every node of every distinct tree in
    one set of flat arrays, so a tree repeated at several positions of an
    ensemble is laid out once.

    Child indices are absolute, and a leaf's children are the leaf itself on
    feature 0, so one step moves every row of every tree down a level or
    leaves it where it is. ``roots`` lists the positions' roots deepest
    first, and ``order`` gives each one's position. Step ``s`` advances only
    the first ``active[s]`` positions, those whose tree is deeper than ``s``;
    a tree that is a single leaf is never walked.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    order: np.ndarray
    active: tuple[int, ...]

    def _leaf_values(self, block: np.ndarray, out: np.ndarray) -> None:
        """Write the leaf value that row ``r`` of ``block`` reaches in tree
        ``t`` to ``out[t, r]``."""
        rows = np.arange(block.shape[0])
        deep = self.active[0] if self.active else 0
        current = np.repeat(self.roots[:deep, None], rows.size, axis=1)
        for count in self.active:
            nodes = current[:count]
            go_left = block[rows, self.feature[nodes]] <= self.threshold[nodes]
            current[:count] = np.where(go_left, self.left[nodes], self.right[nodes])
        out[self.order[:deep]] = self.value[current]
        out[self.order[deep:]] = self.value[self.roots[deep:], None]

    def predict(self, features: np.ndarray, base: float, weight: float = 1.0) -> np.ndarray:
        """``base`` plus ``weight`` times each tree's leaf value, added in
        tree order, for every row of ``features``; a base of -0.0 and weight
        1.0 give a lone tree's leaf values bit for bit, signed zeros included.

        Rows are walked ``BLOCK_ROWS`` at a time, so the working set does not
        grow with the batch. The sum is a running sum down a (trees + 1,
        rows) stack, the order in which a per-tree loop adds (``np.sum``
        would add a one-row block pairwise), so a row's answer is the same
        bits alone and inside any batch.
        """
        out = np.empty(features.shape[0])
        for start in range(0, features.shape[0], BLOCK_ROWS):
            block = features[start:start + BLOCK_ROWS]
            stack = np.empty((self.roots.size + 1, block.shape[0]))
            self._leaf_values(block, stack[1:])
            stack[0] = base
            stack[1:] *= weight
            out[start:start + BLOCK_ROWS] = np.cumsum(stack, axis=0, out=stack)[-1]
        return out


def pack_trees(trees) -> PackedTrees:
    """Pack an ensemble's trees, laying out each distinct tree object once.
    The distinct trees' nodes are concatenated in order of first appearance,
    their child indices, which count from each tree's root, made absolute,
    and each position names its tree by that order. A fit and a load both
    pack here.

    A tree's depth is its longest root-to-leaf path, found one level at a time
    for all trees at once. A level holds each node once, so a malformed tree
    whose nodes share children cannot blow up the frontier.
    """
    numbers = {}
    positions = np.asarray([numbers.setdefault(id(tree), len(numbers)) for tree in trees])
    distinct = list({id(tree): tree for tree in trees}.values())
    counts = np.asarray([tree.node_count for tree in distinct])
    feature, threshold, left, right, value = (
        np.concatenate([getattr(tree, name) for tree in distinct])
        for name in ("feature", "threshold", "left", "right", "value"))
    starts = np.cumsum(counts) - counts
    leaf = feature == LEAF
    node = np.arange(feature.size)
    offset = np.repeat(starts, counts)
    left = np.where(leaf, node, left + offset)
    right = np.where(leaf, node, right + offset)

    tree_of = np.repeat(np.arange(counts.size), counts)
    depth = np.zeros(counts.size, dtype=np.int64)
    frontier, level = starts, 0
    while frontier.size:
        depth[tree_of[frontier]] = level
        inner = frontier[~leaf[frontier]]
        reached = np.zeros(feature.size, dtype=bool)
        reached[left[inner]] = reached[right[inner]] = True
        frontier = np.flatnonzero(reached)
        level += 1
    depth = depth[positions]
    order = np.argsort(-depth, kind="stable")
    active = np.count_nonzero(depth[:, None] > np.arange(depth.max()), axis=0)
    return PackedTrees(feature=np.where(leaf, 0, feature), threshold=threshold, left=left,
                       right=right, value=value, roots=starts[positions][order], order=order,
                       active=tuple(active.tolist()))


def _as_feature_matrix(features, n_features: int | None = None) -> np.ndarray:
    mat = np.asarray(features, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat.reshape(-1, 1)
    if mat.ndim != 2:
        raise ValidationError(f"features must be 2-D, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValidationError("features must be finite")
    if n_features is not None and mat.shape[1] != n_features:
        raise ValidationError(
            f"schema mismatch: model expects {n_features} features, got {mat.shape[1]}")
    return mat


def _as_targets(targets, n_rows: int) -> np.ndarray:
    vec = np.asarray(targets, dtype=np.float64).reshape(-1)
    if vec.shape[0] != n_rows:
        raise ValidationError(
            f"targets length {vec.shape[0]} does not match {n_rows} feature rows")
    if not np.isfinite(vec).all():
        raise ValidationError("targets must be finite")
    return vec


def _training_set(features, targets, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The checked feature matrix and targets a fit of ``what`` grows from;
    an empty set is rejected."""
    mat = _as_feature_matrix(features)
    if mat.shape[0] == 0:
        raise ValidationError(f"cannot fit {what} on an empty dataset")
    return mat, _as_targets(targets, mat.shape[0])


def presort(features: np.ndarray, blocks: int = 1) -> np.ndarray:
    """Row orders that every tree grown on ``features`` starts from, when
    ``features`` stacks ``blocks`` problems of equal row count.

    Row ``f`` of the result lists each problem's rows by ascending feature
    ``f``, ties in row order, problem after problem; the last row lists all
    rows in row order. This is each problem's own presort, offset to its rows.
    """
    n_rows, n_features = features.shape
    size = n_rows // blocks
    within = np.argsort(features.reshape(blocks, size, n_features), axis=1, kind="stable")
    within += (np.arange(blocks) * size)[:, None, None]
    order = np.empty((n_features + 1, n_rows), dtype=np.intp)
    order[:n_features] = within.transpose(2, 0, 1).reshape(n_features, n_rows)
    order[n_features] = np.arange(n_rows)
    return order


def _level_splits(values: np.ndarray, targets: np.ndarray, counts: np.ndarray,
                  min_leaf: int):
    """Best split of every node of one level.

    ``values`` and ``targets`` are (nodes, features, width) arrays: for each
    feature, node k's ``counts[k]`` rows in ascending feature order (ties in
    row order), padded on the right to the common width. Candidates are
    midpoints strictly below the right-hand value, which for finite values
    also puts that value above the left-hand one, between neighbours whose
    children both hold at least ``min_leaf`` >= 1 rows, so the padding is
    never a candidate; gain is the reduction in the sum of squared errors.
    Gain ties go to the lower feature, then the lower threshold, and a
    feature with a NaN gain (from overflowing targets) is passed over.
    Returns (feature, threshold, gain) arrays with one entry per node; gain is
    -inf where no candidate exists. The caller ignores floating-point errors:
    the padding divides by zero.
    """
    n_nodes, _, width = values.shape
    node = np.arange(n_nodes)
    # Each node's prefix sums start at its own first row, as a per-node
    # cumsum would; past its last row they run on into the padding.
    csum = targets.cumsum(axis=2)
    total = csum[node, :, counts - 1][:, :, None]
    parent_term = total * total / counts[:, None, None]
    left_n = np.arange(1, width)
    right_n = counts[:, None, None] - left_n
    left_sum = csum[:, :, :-1]
    right_sum = total - left_sum
    # ls * ls / ln + rs * rs / rn - parent, in place and in that order.
    gains = left_sum * left_sum
    gains /= left_n
    right_sum *= right_sum
    right_sum /= right_n
    gains += right_sum
    gains -= parent_term
    upper = values[:, :, 1:]
    thresholds = (values[:, :, :-1] + upper) * 0.5
    # A midpoint that rounds up to the right-hand value cannot separate the two.
    invalid = thresholds >= upper
    invalid |= (left_n < min_leaf) | (right_n < min_leaf)
    gains[invalid] = -np.inf
    gains = gains.reshape(n_nodes, -1)
    # The first maximum over (feature, threshold) pairs is the lowest threshold
    # of the lowest feature among the best.
    best = gains.argmax(axis=1)
    gain = gains[node, best]
    if math.isnan(gain.sum()):
        # argmax stops at the first NaN, so drop every feature that has one.
        # (+inf and -inf gains also sum to NaN; redoing the argmax is harmless.)
        per_feature = gains.reshape(n_nodes, -1, width - 1)
        per_feature[np.isnan(per_feature.max(axis=2))] = -np.inf
        best = gains.argmax(axis=1)
        gain = gains[node, best]
    return best // (width - 1), thresholds.reshape(n_nodes, -1)[node, best], gain


def _scans(open_nodes: np.ndarray, sizes: np.ndarray, n_features: int) -> list:
    """Split a level's open nodes, of ``sizes`` rows, into scans of at most
    ``SCAN_CELLS`` padded cells each, or of one node where a node alone
    exceeds that. Returns (nodes, width) pairs, width being the scan's
    largest node.

    A level that fits is one scan. Otherwise nodes are taken largest first,
    so each scan pads its nodes to the size of its first. At least one node
    is open.
    """
    width = int(sizes.max())
    if sizes.size * width * n_features <= SCAN_CELLS:
        return [(open_nodes, width)]
    by_size = np.argsort(-sizes, kind="stable")
    scans, start = [], 0
    while start < by_size.size:
        width = int(sizes[by_size[start]])
        take = max(1, SCAN_CELLS // (width * n_features))
        scans.append((open_nodes[by_size[start:start + take]], width))
        start += take
    return scans


def _key_type(n_keys: int) -> type:
    """The integer type a level's regroup keys, all below ``n_keys``, are
    sorted as.

    Up to 16 bits it is the narrowest unsigned type that holds them, which
    numpy's stable sort radix-sorts in linear time; wider keys stay ``intp``.
    A stable sort's result is unique, so the order is the same for every
    type that holds the keys.
    """
    return np.uint8 if n_keys <= 1 << 8 else np.uint16 if n_keys <= 1 << 16 else np.intp


@np.errstate(all="ignore")  # the scans' padding divides by zero
def grow_tree(features: np.ndarray, targets: np.ndarray, order: np.ndarray,
              config: TreeConfig, sizes: np.ndarray | None = None
              ) -> tuple[list[TreeModel], np.ndarray]:
    """Grow one tree per stacked problem, level by level, from their presort.

    ``features`` and ``targets`` stack the problems' rows, problem after
    problem, and ``sizes`` gives each problem's row count; by default one
    problem holds every row. ``order`` is the block-diagonal presort: each
    problem's ``presort``, offset to its rows and concatenated, as
    ``presort(features, blocks)`` gives for equal sizes. ``features`` and
    ``targets`` must already be validated. Returns each problem's tree, and
    for each row the id of the leaf it falls in within its tree.
    """
    n_rows, n_features = features.shape
    order_axis = np.arange(n_features + 1)[:, None]
    feature_axis = np.arange(n_features)[:, None]
    # Both children of a split hold min_child_weight rows, so a smaller node
    # has no candidate and is not scanned.
    min_rows = max(config.min_samples_split, 2 * config.min_child_weight)
    # gamma >= 0, so a gain clears gamma and zero with one comparison.
    clears = np.greater_equal if config.gamma > 0.0 else np.greater
    rows = order  # the level's rows, grouped by node in every order
    counts = np.array([n_rows]) if sizes is None else np.asarray(sizes)
    n_trees = counts.size
    leaf = np.empty(n_rows, dtype=np.intp)
    problem = np.arange(n_trees)  # the level's nodes' problems
    feature, threshold, value, left, owner = [], [], [], [], []  # per level, level order
    first = 0  # id of the level's first node; ids count in level order
    depth = 0
    while True:
        n_nodes = counts.size
        ends = counts.cumsum()
        starts = ends - counts
        by_id = rows[-1]
        in_row_order = targets[by_id]
        # np.mean's arithmetic: a pairwise sum over the node's rows in row
        # order, then one division (a segmented np.add.reduceat sums in
        # another order and differs in the last bits).
        value += [float(np.add.reduce(in_row_order[lo:hi]) / (hi - lo))
                  for lo, hi in zip(starts.tolist(), ends.tolist())]
        node_of = np.arange(n_nodes).repeat(counts)
        leaf[by_id] = first + node_of

        split_feature = np.empty(n_nodes, dtype=np.int64)
        split_feature.fill(LEAF)
        split_threshold = np.zeros(n_nodes)
        open_nodes = (counts >= min_rows).nonzero()[0]
        if depth < config.max_depth and open_nodes.size:
            # Each node's window in every feature's order starts here, as an
            # index into ``rows.ravel()``; the row-order copy comes last, so a
            # window never runs off the end.
            window_starts = starts[:, None, None] + feature_axis * rows.shape[1]
            flat_rows = rows.ravel()
            for nodes, width in _scans(open_nodes, counts[open_nodes], n_features):
                grid = flat_rows[window_starts[nodes] + np.arange(width)]
                best, cut, gain = _level_splits(features[grid, feature_axis], targets[grid],
                                                counts[nodes], config.min_child_weight)
                taken = clears(gain, config.gamma)
                split_feature[nodes[taken]] = best[taken]
                split_threshold[nodes[taken]] = cut[taken]

        is_split = split_feature != LEAF
        child = 2 * (is_split.cumsum() - 1)
        feature.append(split_feature)
        threshold.append(split_threshold)
        left.append(np.where(is_split, first + n_nodes + child, LEAF))
        owner.append(problem)
        n_split = np.count_nonzero(is_split)
        if not n_split:
            break

        # Each row of a split node gets 2 plus its child's index on the next
        # level; rows of leaves get 0 or 1. Thresholds and features are never
        # NaN, so > is the exact complement of the <= that predict uses.
        goes_right = features[by_id, split_feature[node_of]] > split_threshold[node_of]
        key_type = _key_type(2 * n_split + 2)
        key = np.empty(n_rows, dtype=key_type)
        key[by_id] = np.where(is_split, child + 2, 0).astype(key_type)[node_of] + goes_right
        keys = key[rows]
        # A stable regroup by key keeps every order sorted within each child.
        kept = int(counts[is_split].sum())
        regroup = keys.argsort(axis=1, kind="stable")[:, keys.shape[1] - kept:]
        rows = rows[order_axis, regroup]
        counts = np.bincount(keys[-1], minlength=2 * n_split + 2)[2:]
        problem = problem[is_split].repeat(2)
        first += n_nodes
        depth += 1

    owner = np.concatenate(owner)
    nodes = np.argsort(owner, kind="stable")  # tree after tree, each in level order
    bounds = np.concatenate(([0], np.bincount(owner, minlength=n_trees).cumsum()))
    rank = np.empty_like(nodes)  # each node's position in its own tree
    rank[nodes] = np.arange(nodes.size) - bounds[owner[nodes]]
    left = np.concatenate(left)[nodes]
    left = np.where(left == LEAF, LEAF, rank[left])  # a right child follows its sibling
    columns = (np.concatenate(feature)[nodes], np.concatenate(threshold)[nodes], left,
               np.where(left == LEAF, LEAF, left + 1), np.asarray(value, dtype=np.float64)[nodes])
    trees = [TreeModel(*(column[lo:hi] for column in columns), n_features=n_features)
             for lo, hi in zip(bounds, bounds[1:])]
    return trees, rank[leaf]


def fit_tree(features, targets, config: TreeConfig = TreeConfig()) -> TreeModel:
    """Grow one regression tree; deterministic for identical inputs."""
    mat, y = _training_set(features, targets, "a tree")
    return grow_tree(mat, y, presort(mat), config)[0][0]
