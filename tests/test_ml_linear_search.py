import numpy as np
import pytest

from surfplan import TreeConfig, ValidationError, fit_linear, fit_tree, grid_search
from surfplan.ml.search import kfold_indices


class TestLinear:
    def test_exact_line(self):
        x = np.arange(10, dtype=float).reshape(-1, 1)
        y = 2.0 * x[:, 0] + 1.0
        model = fit_linear(x, y)
        assert model.coefficients[0] == pytest.approx(2.0, abs=1e-6)
        assert model.intercept == pytest.approx(1.0, abs=1e-6)

    def test_constant_targets(self):
        x = np.arange(8, dtype=float).reshape(-1, 1)
        model = fit_linear(x, np.full(8, 5.0))
        assert model.coefficients[0] == pytest.approx(0.0, abs=1e-6)
        assert model.intercept == pytest.approx(5.0, abs=1e-6)

    def test_residuals_orthogonal_to_features(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 3))
        y = x @ np.array([1.0, -2.0, 0.3]) + rng.normal(size=40)
        model = fit_linear(x, y)
        residuals = y - model.predict(x)
        assert np.abs(x.T @ residuals).max() < 1e-6
        assert abs(residuals.sum()) < 1e-6

    def test_needs_enough_samples(self):
        with pytest.raises(ValidationError):
            fit_linear(np.ones((3, 3)), np.ones(3))

    def test_collinear_features_survive_via_ridge(self):
        x = np.arange(12, dtype=float).reshape(-1, 1)
        duplicated = np.hstack([x, x])
        model = fit_linear(duplicated, 3.0 * x[:, 0])
        assert np.allclose(model.predict(duplicated), 3.0 * x[:, 0], atol=1e-4)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            fit_linear(np.array([[np.inf], [1.0], [2.0]]), np.arange(3.0))


class TestKFold:
    def test_partition_property(self):
        blocks = kfold_indices(10, 5, seed=0)
        assert len(blocks) == 5
        assert all(len(block) == 2 for block in blocks)
        assert sorted(np.concatenate(blocks).tolist()) == list(range(10))

    def test_deterministic(self):
        a = kfold_indices(17, 4, seed=3)
        b = kfold_indices(17, 4, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_bounds(self):
        with pytest.raises(ValidationError):
            kfold_indices(10, 1, seed=0)
        with pytest.raises(ValidationError):
            kfold_indices(3, 5, seed=0)


class TestGridSearch:
    def test_single_config_returned(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 1))
        y = rng.normal(size=30)
        config = TreeConfig(max_depth=2)
        found = grid_search(x, y, [config], folds=5, fit=fit_tree, seed=0)
        assert found.best_config is config
        assert found.scores[0] == found.best_score

    def test_depth_three_beats_depth_one_on_stepped_data(self):
        # A 1-D staircase with four levels needs more than one split.
        x = np.linspace(0, 1, 48).reshape(-1, 1)
        y = np.floor(x[:, 0] * 4.0)
        grid = [TreeConfig(max_depth=1), TreeConfig(max_depth=3)]
        found = grid_search(x, y, grid, folds=4, fit=fit_tree, seed=2)
        assert found.best_config is grid[1]
        assert found.scores[1] < found.scores[0]

    def test_result_always_from_grid(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(25, 2))
        y = rng.normal(size=25)
        grid = [TreeConfig(max_depth=d) for d in (1, 2, 4)]
        found = grid_search(x, y, grid, folds=5, fit=fit_tree, seed=1)
        assert found.best_config in grid

    def test_tie_keeps_grid_order(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(20, 1))
        y = np.full(20, 2.0)  # constant: every config scores identically
        grid = [TreeConfig(max_depth=1), TreeConfig(max_depth=2)]
        found = grid_search(x, y, grid, folds=4, fit=fit_tree, seed=5)
        assert found.best_config is grid[0]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            grid_search(np.ones((10, 1)), np.ones(10), [], folds=2,
                        fit=fit_tree, seed=0)
