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

from ..core import ValidationError, check_int, check_number
from .tree import (
    TreeConfig,
    TreeModel,
    _as_feature_matrix,
    _as_targets,
    _training_set,
    grow_tree,
    pack_trees,
    presort,
)


# The most trees a stage may have: 50 times the default boosted stage (the
# tuning grids keep the configured count), so that a config cannot ask for
# unbounded work.
MAX_ESTIMATORS = 10_000
# The most bootstrap rows a forest stacks into one ``grow_tree`` call; bounds
# the stacked samples, their presort and each level's regroup.
STACK_ROWS = 1 << 16


@dataclass(frozen=True)
class ForestConfig:
    n_estimators: int = 10
    tree: TreeConfig = field(default_factory=lambda: TreeConfig(
        max_depth=20, min_samples_split=10, min_child_weight=1, gamma=0.0))
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        check_int("n_estimators", self.n_estimators, 1, MAX_ESTIMATORS)
        if not isinstance(self.bootstrap, bool):
            raise ValidationError(f"bootstrap must be true or false, got {self.bootstrap!r}")
        check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class BoostConfig:
    n_estimators: int = 200
    learning_rate: float = 0.1
    tree: TreeConfig = field(default_factory=lambda: TreeConfig(
        max_depth=6, min_samples_split=2, min_child_weight=5, gamma=0.5))
    base_score: Optional[float] = None  # None: use the training-target mean

    def __post_init__(self):
        check_int("n_estimators", self.n_estimators, 1, MAX_ESTIMATORS)
        check_number("learning_rate", self.learning_rate, gt=0.0, le=1.0)
        if self.base_score is not None:
            check_number("base_score", self.base_score)


class _Ensemble:
    """A model of several trees, which predicts through their packing: built
    at fit and at load alike, never serialized, compared or shown."""

    def __post_init__(self):
        self._packed = pack_trees(self.trees)


@dataclass
class ForestModel(_Ensemble):
    trees: tuple[TreeModel, ...]
    n_features: int

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = _as_feature_matrix(features, self.n_features)
        return self._packed.predict(features, 0.0) / len(self.trees)


@dataclass
class BoostedModel(_Ensemble):
    trees: tuple[TreeModel, ...]
    learning_rate: float
    base_score: float
    n_features: int

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = _as_feature_matrix(features, self.n_features)
        return self._packed.predict(features, self.base_score, self.learning_rate)


def fit_forest(features, targets, config: ForestConfig = ForestConfig()) -> ForestModel:
    """Bagged trees; resamples are drawn with replacement at full size.

    The resamples are stacked into one row space, presorted together, and
    their trees grown in one call, at most ``STACK_ROWS`` stacked rows (or
    one resample) at a time; each tree is the one its resample grows alone.
    Without bootstrap every tree would see the same rows, and ``grow_tree``
    is deterministic, so one tree is grown and repeated.
    """
    mat, y = _training_set(features, targets, "a forest")
    n = mat.shape[0]
    if not config.bootstrap:
        trees = grow_tree(mat, y, presort(mat), config.tree)[0] * config.n_estimators
        return ForestModel(trees=tuple(trees), n_features=mat.shape[1])
    per_call = max(1, STACK_ROWS // n)
    trees = []
    for first in range(0, config.n_estimators, per_call):
        batch = range(first, min(first + per_call, config.n_estimators))
        take = np.concatenate([np.random.default_rng((config.seed, i)).integers(0, n, size=n)
                               for i in batch])
        sample = mat[take]
        trees += grow_tree(sample, y[take], presort(sample, len(batch)), config.tree,
                           np.full(len(batch), n))[0]
    return ForestModel(trees=tuple(trees), n_features=mat.shape[1])


def fit_boosted(features, targets, config: BoostConfig = BoostConfig()) -> BoostedModel:
    """Stagewise squared-loss boosting on residuals.

    Only the residuals change between stages, so the features are presorted
    once, and each stage updates the training prediction from the leaf that
    every row fell in while its tree grew.

    A stage that leaves every training prediction with the same bits leaves
    the next stage the same residuals, and ``grow_tree`` is deterministic, so
    every later stage would grow that same tree again. The fit stops there
    and repeats the tree for the remaining stages; the model is the one the
    full loop builds. Bits are compared, not values, because ``-0.0 + 0.0``
    is ``0.0``: equal in value, but a different residual.
    """
    mat, y = _training_set(features, targets, "a boosted model")
    base = float(np.mean(y)) if config.base_score is None else float(config.base_score)
    prediction = np.full(mat.shape[0], base)
    order = presort(mat)
    trees = []
    while len(trees) < config.n_estimators:
        (tree,), leaf = grow_tree(mat, _as_targets(y - prediction, mat.shape[0]), order,
                                  config.tree)
        trees.append(tree)
        step = prediction + config.learning_rate * tree.value[leaf]
        if np.array_equal(step.view(np.uint64), prediction.view(np.uint64)):
            trees += [tree] * (config.n_estimators - len(trees))
            break
        prediction = step
    return BoostedModel(trees=tuple(trees), learning_rate=config.learning_rate,
                        base_score=base, n_features=mat.shape[1])
