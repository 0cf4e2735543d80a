"""CART regression trees grown by greedy variance reduction.

Split gain is the reduction in the sum of squared errors; thresholds are
midpoints between consecutive distinct sorted feature values. Gain ties are
broken toward the lower feature index, then the lower threshold. A node stays
a leaf when the depth or size limits bite, when no split clears the minimum
gain, or when every candidate would starve a child below the minimum leaf
size. Zero-gain splits are never taken, so constant targets yield a single
leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import ValidationError, check_int

LEAF = -1


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
        if not self.gamma >= 0.0:
            raise ValidationError(f"gamma must be >= 0, got {self.gamma!r}")


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

    def predict_row(self, row: np.ndarray) -> float:
        node = 0
        while self.feature[node] != LEAF:
            if row[self.feature[node]] <= self.threshold[node]:
                node = self.left[node]
            else:
                node = self.right[node]
        return float(self.value[node])

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = _as_feature_matrix(features, self.n_features)
        n = features.shape[0]
        current = np.zeros(n, dtype=np.int64)
        rows = np.arange(n)
        while True:
            split_feature = self.feature[current]
            internal = split_feature != LEAF
            if not internal.any():
                break
            idx = rows[internal]
            nodes = current[internal]
            go_left = features[idx, self.feature[nodes]] <= self.threshold[nodes]
            current[internal] = np.where(go_left, self.left[nodes], self.right[nodes])
        return self.value[current].copy()

    def leaf_values(self) -> np.ndarray:
        return self.value[self.feature == LEAF]


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


def _best_split(values: np.ndarray, targets: np.ndarray, min_leaf: int):
    """Best split of a sorted column. Returns (gain, threshold).

    ``values`` must be sorted ascending with ``targets`` aligned. Candidates
    are midpoints between consecutive distinct values whose children both hold
    at least ``min_leaf`` samples; gain is the reduction in the sum of squared
    errors. Ties keep the lowest threshold. Gain is -inf when no candidate
    exists.
    """
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
    # A midpoint that rounds up to the right-hand value cannot separate the two.
    valid &= thresholds < values[1:]
    if not valid.any():
        return float("-inf"), 0.0
    gains = np.where(valid, gains, -np.inf)
    best = int(np.argmax(gains))
    return float(gains[best]), float(thresholds[best])


@dataclass
class _Builder:
    features: np.ndarray
    targets: np.ndarray
    config: TreeConfig
    feature_col: list = field(default_factory=list)
    threshold_col: list = field(default_factory=list)
    left_col: list = field(default_factory=list)
    right_col: list = field(default_factory=list)
    value_col: list = field(default_factory=list)

    def grow(self, index: np.ndarray, depth: int) -> int:
        node = len(self.feature_col)
        y = self.targets[index]
        self.feature_col.append(LEAF)
        self.threshold_col.append(0.0)
        self.left_col.append(LEAF)
        self.right_col.append(LEAF)
        self.value_col.append(float(np.mean(y)))

        cfg = self.config
        if depth >= cfg.max_depth or index.shape[0] < cfg.min_samples_split:
            return node

        best_gain = float("-inf")
        best_feature = LEAF
        best_threshold = 0.0
        for f in range(self.features.shape[1]):
            column = self.features[index, f]
            order = np.argsort(column, kind="stable")
            gain, threshold = _best_split(column[order], y[order], cfg.min_child_weight)
            if gain > best_gain:
                best_gain = gain
                best_feature = f
                best_threshold = threshold

        if best_feature == LEAF or best_gain <= 0.0 or best_gain < cfg.gamma:
            return node

        go_left = self.features[index, best_feature] <= best_threshold
        self.feature_col[node] = best_feature
        self.threshold_col[node] = best_threshold
        self.left_col[node] = self.grow(index[go_left], depth + 1)
        self.right_col[node] = self.grow(index[~go_left], depth + 1)
        return node

    def finish(self) -> TreeModel:
        return TreeModel(
            feature=np.asarray(self.feature_col, dtype=np.int64),
            threshold=np.asarray(self.threshold_col, dtype=np.float64),
            left=np.asarray(self.left_col, dtype=np.int64),
            right=np.asarray(self.right_col, dtype=np.int64),
            value=np.asarray(self.value_col, dtype=np.float64),
            n_features=self.features.shape[1],
        )


def fit_tree(features, targets, config: TreeConfig = TreeConfig()) -> TreeModel:
    """Grow one regression tree; deterministic for identical inputs."""
    mat = _as_feature_matrix(features)
    if mat.shape[0] == 0:
        raise ValidationError("cannot fit a tree on an empty dataset")
    y = _as_targets(targets, mat.shape[0])
    builder = _Builder(features=mat, targets=y, config=config)
    builder.grow(np.arange(mat.shape[0]), 0)
    return builder.finish()
