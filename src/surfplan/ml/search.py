"""Seeded k-fold cross-validation grid search, and the two pipeline stages'
tuning grids."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ..core import ValidationError
from .ensemble import BoostConfig, ForestConfig
from .tree import _as_feature_matrix, _as_targets


def kfold_indices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Deterministic shuffled partition of range(n) into ``folds`` blocks."""
    if folds < 2:
        raise ValidationError(f"folds must be >= 2, got {folds}")
    if n < folds:
        raise ValidationError(f"need at least {folds} samples for {folds} folds, got {n}")
    permutation = np.random.default_rng(seed).permutation(n)
    return [block for block in np.array_split(permutation, folds)]


@dataclass(frozen=True)
class GridSearchResult:
    best_config: object
    best_score: float
    scores: tuple[float, ...]  # mean validation MSE per grid entry, grid order


def stage1_grid(base: BoostConfig) -> list[BoostConfig]:
    """``base`` at tree depths 4, 6 and 8 (outer) and learning rates 0.05,
    0.1 and 0.2 (inner)."""
    return [replace(base, learning_rate=rate, tree=replace(base.tree, max_depth=depth))
            for depth in (4, 6, 8) for rate in (0.05, 0.1, 0.2)]


def stage2_grid(base: ForestConfig) -> list[ForestConfig]:
    """``base`` at tree depths 10, 20 and 30 (outer) and minimum split sizes
    5 and 10 (inner)."""
    return [replace(base, tree=replace(base.tree, max_depth=depth, min_samples_split=split))
            for depth in (10, 20, 30) for split in (5, 10)]


def grid_search(features, targets, grid: Sequence, folds: int,
                fit: Callable, seed: int = 0) -> GridSearchResult:
    """Pick the grid config with the lowest mean validation MSE.

    ``fit(features, targets, config)`` must return a model exposing
    ``predict``; ``fit_tree``, ``fit_forest`` and ``fit_boosted`` do. The fold
    partition is shuffled once from ``seed`` and shared by every config; ties
    keep the earlier grid entry.
    """
    if len(grid) == 0:
        raise ValidationError("grid must not be empty")
    mat = _as_feature_matrix(features)
    y = _as_targets(targets, mat.shape[0])
    blocks = kfold_indices(mat.shape[0], folds, seed)
    all_rows = np.arange(mat.shape[0])

    scores = []
    for config in grid:
        fold_mse = []
        for block in blocks:
            train_rows = np.setdiff1d(all_rows, block, assume_unique=True)
            model = fit(mat[train_rows], y[train_rows], config)
            error = model.predict(mat[block]) - y[block]
            fold_mse.append(float(np.mean(error * error)))
        scores.append(float(np.mean(fold_mse)))

    best = 0
    for i, score in enumerate(scores):
        if score < scores[best]:
            best = i
    return GridSearchResult(best_config=grid[best], best_score=scores[best],
                            scores=tuple(scores))
