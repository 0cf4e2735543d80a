"""Ordinary least squares with an intercept, solved via normal equations.

A small ridge term keeps the normal matrix positive definite, so rank-deficient
designs degrade gracefully instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import ValidationError
from .tree import _as_feature_matrix, _as_targets

RIDGE = 1e-8


@dataclass
class LinearModel:
    coefficients: np.ndarray
    intercept: float
    n_features: int

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = _as_feature_matrix(features, self.n_features)
        return features @ self.coefficients + self.intercept

    def predict_row(self, row: np.ndarray) -> float:
        return float(np.dot(row, self.coefficients) + self.intercept)


def fit_linear(features, targets) -> LinearModel:
    """Least-squares fit; requires at least n_features + 1 samples."""
    mat = _as_feature_matrix(features)
    n, f = mat.shape
    if n < f + 1:
        raise ValidationError(
            f"linear regression needs at least {f + 1} samples, got {n}")
    y = _as_targets(targets, n)
    design = np.hstack([mat, np.ones((n, 1))])
    normal = design.T @ design + RIDGE * np.eye(f + 1)
    try:
        beta = np.linalg.solve(normal, design.T @ y)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - ridge keeps it PD
        raise ValidationError(f"degenerate design matrix: {exc}") from exc
    return LinearModel(coefficients=beta[:f], intercept=float(beta[f]), n_features=f)
