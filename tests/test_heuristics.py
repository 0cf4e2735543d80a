import dataclasses
import json
import math

import numpy as np
import pytest
from helpers import reference_heuristic_predict
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from surfplan.heuristics import Standardizer, _distances, _k_nearest, all_kinds
from surfplan.ml.serialize import model_from_dict, model_to_dict
from surfplan.oracle import AboveThresholdError


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

    def test_fitted_model_is_frozen(self, small_records):
        model = fit_heuristic(small_records, HeuristicKind("multivariate_interp", False))
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.stage1_scaler = Standardizer(mean=(0.0,) * 5, scale=(1.0,) * 5)


class TestNeighborHelpers:
    @given(distances=arrays(np.float64, st.integers(1, 40), elements=st.one_of(
               st.sampled_from([0.0, 0.5, 1.0, 2.0, np.inf, np.nan]),
               st.floats(min_value=0.0, max_value=10.0))),
           k=st.integers(1, 45))
    @settings(max_examples=300)
    def test_k_nearest_is_the_head_of_a_full_lexsort(self, distances, k):
        # Ties, infinities and NaNs included: the partition shortcut must
        # return the first k of the (distance, index) order.
        expected = np.lexsort((np.arange(distances.shape[0]), distances))[:k]
        assert np.array_equal(_k_nearest(distances, k), expected)

    @given(features=arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 7)),
                           elements=st.floats(min_value=-1e200, max_value=1e200)),
           data=st.data())
    @settings(max_examples=200)
    def test_distances_equal_the_row_sum(self, features, data):
        query = data.draw(arrays(np.float64, features.shape[1],
                                 elements=st.floats(min_value=-1e200, max_value=1e200)))
        with np.errstate(all="ignore"):
            expected = np.sqrt(((features - query) ** 2).sum(axis=1))
            actual = _distances(tuple(features.T), query)
        assert actual.tobytes() == expected.tobytes()

    def test_query_width_must_match(self):
        with pytest.raises(ValidationError, match="features"):
            range_search([[0.0, 1.0]], [1.0], [0.0])
        with pytest.raises(ValidationError, match="k >= 1"):
            multivariate_interp([[0.0]], [1.0], [0.0], k=0)


_RATES = st.one_of(st.sampled_from([1e-4, 5e-4, 1e-3, 2e-3]),
                   st.floats(min_value=1e-5, max_value=4e-3))
_PROFILES = st.builds(NoiseProfile, _RATES, _RATES, _RATES, _RATES)
_TARGETS = st.one_of(st.floats(min_value=-14.0, max_value=-1.0).map(lambda e: 10.0 ** e),
                     st.sampled_from([1e-14, 1e-9, 1e-3, 1e-1]))


@st.composite
def _heuristic_problems(draw):
    """Records with repeated profiles and records (distance ties), a kind,
    weights, optionally tiny scaler scales, and requests that include exact
    record matches and targets outside the trained decades."""
    profiles = draw(st.lists(_PROFILES, min_size=1, max_size=6))
    records = []
    for _ in range(draw(st.integers(2, 60))):
        if records and draw(st.integers(0, 4)) == 0:
            records.append(records[draw(st.integers(0, len(records) - 1))])
            continue
        records.append(DatasetRecord(
            noise=profiles[draw(st.integers(0, len(profiles) - 1))],
            params=CodeParams(distance=draw(st.sampled_from([3, 5, 7, 9, 11, 13])),
                              rounds=draw(st.integers(1, 15))),
            logical_error_rate=10.0 ** draw(st.floats(min_value=-12.0, max_value=-2.0))))
    kind = draw(st.sampled_from(all_kinds()))
    weights = draw(st.sampled_from([HeuristicWeights(), HeuristicWeights(0.5, 0.25, 0.15, 0.1)]))
    requests = [PredictionRequest(noise=draw(_PROFILES), target_logical_error_rate=draw(_TARGETS))
                for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 3))):
        record = records[draw(st.integers(0, len(records) - 1))]
        requests.append(PredictionRequest(noise=record.noise,
                                          target_logical_error_rate=record.logical_error_rate))
    return records, kind, weights, requests


def _outcome(predict, request):
    """Every float field as float.hex, or the exception raised."""
    try:
        result = predict(request)
    except (ValidationError, AboveThresholdError) as exc:
        return type(exc).__name__, str(exc)
    return (result.raw_distance.hex(), result.rounded_distance,
            result.raw_rounds.hex(), result.rounded_rounds)


def _reloaded(model, scale=None):
    """The model after a JSON round trip, optionally with every scaler scale
    replaced, so that standardized differences overflow."""
    data = json.loads(json.dumps(model_to_dict(model)))
    if scale is not None:
        for name in ("stage1_scaler", "stage2_scaler"):
            scaler = data["model"][name]
            scaler["scale"] = [scale] * len(scaler["scale"])
    return model_from_dict(data)


class TestMatchesPerRequestReference:
    @given(problem=_heuristic_problems())
    @settings(max_examples=300)
    def test_fitted_and_reloaded_models(self, problem):
        records, kind, weights, requests = problem
        model = fit_heuristic(records, kind, weights)
        reloaded = _reloaded(model)
        for request in requests:
            expected = _outcome(lambda r: reference_heuristic_predict(model, r), request)
            assert _outcome(model.predict_result, request) == expected
            assert _outcome(reloaded.predict_result, request) == expected

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(problem=_heuristic_problems(), scale=st.sampled_from([1e-160, 5e-324]))
    @settings(max_examples=150)
    def test_overflowing_distances(self, problem, scale):
        # A scale of 1e-160 squares standardized differences to inf; 5e-324
        # makes the standardized values themselves inf, so inf - inf = NaN.
        records, kind, weights, requests = problem
        model = _reloaded(fit_heuristic(records, kind, weights), scale)
        for request in requests:
            assert (_outcome(model.predict_result, request)
                    == _outcome(lambda r: reference_heuristic_predict(model, r), request))
