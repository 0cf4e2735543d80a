import math

import numpy as np
import pytest

from surfplan import (
    CodeParams,
    DatasetRecord,
    HeuristicKind,
    HeuristicWeights,
    NoiseProfile,
    PredictionRequest,
    ValidationError,
    fit_heuristic,
    heuristic_predict,
    linear_interp,
    multivariate_interp,
    poly_interp,
    range_search,
)
from surfplan.heuristics import Standardizer, all_kinds


class TestRangeSearch:
    def test_exact_match_returns_its_label(self):
        features = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        labels = np.array([10.0, 20.0, 30.0])
        assert range_search(features, labels, [2.0, 3.0]) == 20.0

    def test_nearer_point_wins(self):
        assert range_search([[0.0], [10.0]], [1.0, 9.0], [2.0]) == 1.0

    def test_equidistant_tie_breaks_by_index(self):
        assert range_search([[0.0], [4.0]], [1.0, 9.0], [2.0]) == 1.0
        assert range_search([[4.0], [0.0]], [9.0, 1.0], [2.0]) == 9.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            range_search(np.empty((0, 2)), np.empty(0), [0.0, 0.0])


class TestLinearInterp:
    def test_midpoint(self):
        assert linear_interp([(0.0, 0.0), (2.0, 4.0)], 1.0) == pytest.approx(2.0)

    def test_extrapolation(self):
        assert linear_interp([(0.0, 0.0), (2.0, 4.0)], 3.0) == pytest.approx(6.0)

    def test_degenerate_abscissa(self):
        with pytest.raises(ValidationError, match="abscissa"):
            linear_interp([(1.0, 5.0), (1.0, 7.0)], 1.0)

    def test_reproduces_training_labels(self):
        points = [(0.0, 1.0), (1.0, 3.0), (2.0, -2.0), (5.0, 0.0)]
        for x, y in points:
            assert linear_interp(points, x) == pytest.approx(y, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            linear_interp([(0.0, 0.0)], 1.0)


class TestPolyInterp:
    def test_quadratic_fit(self):
        points = [(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)]
        assert poly_interp(points, 1.5) == pytest.approx(2.25, abs=1e-9)

    def test_collinear_degenerates_to_line(self):
        points = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
        assert poly_interp(points, 5.0) == pytest.approx(5.0, abs=1e-9)

    def test_repeated_abscissa_falls_back_to_linear(self):
        # three nearest share x = 0 twice; the fallback line goes through
        # (0, 0) and the nearest distinct-x point (2, 4)
        points = [(0.0, 0.0), (0.0, 1.0), (2.0, 4.0)]
        assert poly_interp(points, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_two_points_use_linear(self):
        assert poly_interp([(0.0, 0.0), (2.0, 4.0)], 1.0) == pytest.approx(2.0)

    def test_uses_three_nearest(self):
        # x = 10 region is quadratic, far points would distort it
        points = [(9.0, 81.0), (10.0, 100.0), (11.0, 121.0), (0.0, 5.0)]
        assert poly_interp(points, 10.5) == pytest.approx(110.25, abs=1e-6)


class TestMultivariateInterp:
    def test_exact_match_short_circuit(self):
        features = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert multivariate_interp(features, [3.0, 5.0], [1.0, 1.0]) == 5.0

    def test_symmetric_average(self):
        features = np.array([[-1.0], [1.0]])
        assert multivariate_interp(features, [3.0, 5.0], [0.0]) == pytest.approx(4.0)

    def test_inverse_square_weights(self):
        # distances 1 and 2 with labels 0 and 6: (1*0 + 0.25*6) / 1.25 = 1.2
        features = np.array([[1.0], [2.0]])
        assert multivariate_interp(features, [0.0, 6.0], [0.0]) == pytest.approx(1.2)

    def test_output_within_neighbor_hull(self):
        rng = np.random.default_rng(13)
        features = rng.normal(size=(50, 3))
        labels = rng.uniform(3, 19, size=50)
        for _ in range(25):
            query = rng.normal(size=3)
            value = multivariate_interp(features, labels, query)
            assert labels.min() - 1e-12 <= value <= labels.max() + 1e-12


class TestStandardizer:
    def test_fit_transform(self):
        data = np.array([[0.0, 10.0], [2.0, 10.0], [4.0, 10.0]])
        scaler = Standardizer.fit(data)
        out = scaler.transform(data)
        assert np.allclose(out[:, 0], [-1.22474487, 0.0, 1.22474487])
        # zero-variance column passes through centered with scale one
        assert np.allclose(out[:, 1], 0.0)


def _record(noise, d, r, ler):
    return DatasetRecord(noise=noise, params=CodeParams(distance=d, rounds=r),
                         logical_error_rate=ler)


@pytest.fixture
def small_records():
    profiles = [
        NoiseProfile(1e-4, 1e-3, 2e-4, 2e-3),
        NoiseProfile(2e-4, 1.5e-3, 3e-4, 3e-3),
        NoiseProfile(3e-4, 2e-3, 4e-4, 4e-3),
    ]
    records = []
    for i, profile in enumerate(profiles):
        for d, r, ler in [(3, 2, 10 ** (-2 - i * 0.3)),
                          (5, 5, 10 ** (-4 - i * 0.3)),
                          (7, 7, 10 ** (-5 - i * 0.3)),
                          (9, 9, 10 ** (-6 - i * 0.3))]:
            records.append(_record(profile, d, r, ler))
    return records


class TestHeuristicModel:
    @pytest.mark.parametrize(
        "kind", [k for k in all_kinds() if k.method == "range_search"],
        ids=lambda k: k.label)
    def test_exact_match_record_propagates_for_range_search(self, small_records, kind):
        record = small_records[5]
        request = PredictionRequest(noise=record.noise,
                                    target_logical_error_rate=record.logical_error_rate)
        result = heuristic_predict(kind, small_records, request)
        assert result.rounded_distance == record.params.distance
        assert result.rounded_rounds == record.params.rounds

    @pytest.mark.parametrize("kind", all_kinds(), ids=lambda k: k.label)
    def test_result_invariants_for_all_variants(self, small_records, kind):
        rng = np.random.default_rng(3)
        model = fit_heuristic(small_records, kind)
        for _ in range(20):
            request = PredictionRequest(
                noise=NoiseProfile(*(float(v) for v in rng.uniform(1e-4, 4e-3, size=4))),
                target_logical_error_rate=float(10 ** rng.uniform(-7, -2)))
            result = model.predict_result(request)
            assert result.rounded_distance >= 3
            assert result.rounded_distance % 2 == 1
            assert result.rounded_distance >= result.raw_distance
            assert result.rounded_rounds == max(1, math.ceil(result.raw_rounds))

    def test_hand_traced_weighted_range_search(self):
        # Two records; the query sits nearer the second in the standardized
        # (scalarized error, log10 rate) plane.
        weights = HeuristicWeights(0.4, 0.3, 0.2, 0.1)
        a = NoiseProfile(1e-4, 1e-3, 1e-4, 1e-3)   # scalar 0.4e-3+0.03e-3+0.2e-3+0.01e-3
        b = NoiseProfile(4e-4, 4e-3, 4e-4, 4e-3)
        records = [_record(a, 5, 4, 1e-4), _record(b, 9, 9, 1e-6)]
        request = PredictionRequest(noise=b, target_logical_error_rate=2e-6)
        kind = HeuristicKind(method="range_search", weighted=True)
        result = heuristic_predict(kind, records, request, weights=weights)
        assert result.rounded_distance == 9
        assert result.rounded_rounds == 9

    def test_hand_traced_weighted_linear_interp(self):
        # Single decade slice; distance varies linearly along the scalarized
        # axis, so interpolation lands between the two training rows.
        weights = HeuristicWeights(0.4, 0.3, 0.2, 0.1)
        lo = NoiseProfile(0, 1e-3, 0, 0)      # scalar 4e-4
        hi = NoiseProfile(0, 3e-3, 0, 0)      # scalar 12e-4
        mid = NoiseProfile(0, 2e-3, 0, 0)     # scalar 8e-4
        records = [_record(lo, 5, 5, 1e-4), _record(hi, 9, 9, 1.2e-4)]
        request = PredictionRequest(noise=mid, target_logical_error_rate=1.1e-4)
        kind = HeuristicKind(method="linear_interp", weighted=True)
        result = heuristic_predict(kind, records, request, weights=weights)
        # raw stage-1: 5 + (8e-4 - 4e-4) * (9 - 5) / (12e-4 - 4e-4) = 7.0
        assert result.raw_distance == pytest.approx(7.0, rel=1e-9)
        assert result.rounded_distance == 7
        # stage-2 x-axis is distance: 5 + (7 - 5) * (9 - 5) / (9 - 5) = 7.0
        assert result.raw_rounds == pytest.approx(7.0, rel=1e-9)
        assert result.rounded_rounds == 7

    def test_kind_parsing(self):
        assert HeuristicKind.parse("range_search_w") == HeuristicKind("range_search", True)
        assert HeuristicKind.parse("multivariate_interp_n_w") == \
            HeuristicKind("multivariate_interp", False)
        with pytest.raises(ValidationError):
            HeuristicKind.parse("range_search")
        with pytest.raises(ValidationError):
            HeuristicKind.parse("bogus_w")

    def test_empty_training_rejected(self):
        kind = HeuristicKind(method="range_search", weighted=True)
        with pytest.raises(ValidationError):
            fit_heuristic([], kind)
