"""Random forests and stagewise gradient boosting over the CART trees.

The forest averages trees fit on bootstrap resamples (all features at every
split). Boosting is plain squared-loss: each stage fits a tree to the current
residuals and contributes learning_rate times its output; with squared loss
every sample's hessian is 1, so the minimum-leaf-size reading of
min_child_weight is exact. Per-tree seeds derive from the master seed by
index, so models are bit-identical for identical data, config, and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core import ValidationError, check_int
from .tree import TreeConfig, TreeModel, _as_feature_matrix, _as_targets, fit_tree


@dataclass(frozen=True)
class ForestConfig:
    n_estimators: int = 10
    tree: TreeConfig = field(default_factory=lambda: TreeConfig(
        max_depth=20, min_samples_split=10, min_child_weight=1, gamma=0.0))
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        check_int("n_estimators", self.n_estimators, 1)
        if not isinstance(self.bootstrap, bool):
            raise ValidationError(f"bootstrap must be true or false, got {self.bootstrap!r}")


@dataclass(frozen=True)
class BoostConfig:
    n_estimators: int = 200
    learning_rate: float = 0.1
    tree: TreeConfig = field(default_factory=lambda: TreeConfig(
        max_depth=6, min_samples_split=2, min_child_weight=5, gamma=0.5))
    base_score: Optional[float] = None  # None: use the training-target mean

    def __post_init__(self):
        check_int("n_estimators", self.n_estimators, 1)
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValidationError(
                f"learning_rate must be in (0, 1], got {self.learning_rate!r}")


@dataclass
class ForestModel:
    trees: tuple[TreeModel, ...]
    n_features: int

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = _as_feature_matrix(features, self.n_features)
        acc = np.zeros(features.shape[0])
        for tree in self.trees:
            acc += tree.predict(features)
        return acc / len(self.trees)

    def predict_row(self, row: np.ndarray) -> float:
        return sum(tree.predict_row(row) for tree in self.trees) / len(self.trees)


@dataclass
class BoostedModel:
    trees: tuple[TreeModel, ...]
    learning_rate: float
    base_score: float
    n_features: int

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = _as_feature_matrix(features, self.n_features)
        acc = np.full(features.shape[0], self.base_score)
        for tree in self.trees:
            acc += self.learning_rate * tree.predict(features)
        return acc

    def predict_row(self, row: np.ndarray) -> float:
        out = self.base_score
        for tree in self.trees:
            out += self.learning_rate * tree.predict_row(row)
        return out


def fit_forest(features, targets, config: ForestConfig = ForestConfig()) -> ForestModel:
    """Bagged trees; resamples are drawn with replacement at full size."""
    mat = _as_feature_matrix(features)
    if mat.shape[0] == 0:
        raise ValidationError("cannot fit a forest on an empty dataset")
    y = _as_targets(targets, mat.shape[0])
    n = mat.shape[0]
    trees = []
    for i in range(config.n_estimators):
        if config.bootstrap:
            rng = np.random.default_rng((config.seed, i))
            take = rng.integers(0, n, size=n)
            trees.append(fit_tree(mat[take], y[take], config.tree))
        else:
            trees.append(fit_tree(mat, y, config.tree))
    return ForestModel(trees=tuple(trees), n_features=mat.shape[1])


def fit_boosted(features, targets, config: BoostConfig = BoostConfig()) -> BoostedModel:
    """Stagewise squared-loss boosting on residuals."""
    mat = _as_feature_matrix(features)
    if mat.shape[0] == 0:
        raise ValidationError("cannot fit a boosted model on an empty dataset")
    y = _as_targets(targets, mat.shape[0])
    base = float(np.mean(y)) if config.base_score is None else float(config.base_score)
    prediction = np.full(mat.shape[0], base)
    trees = []
    for _ in range(config.n_estimators):
        tree = fit_tree(mat, y - prediction, config.tree)
        prediction += config.learning_rate * tree.predict(mat)
        trees.append(tree)
    return BoostedModel(trees=tuple(trees), learning_rate=config.learning_rate,
                        base_score=base, n_features=mat.shape[1])
