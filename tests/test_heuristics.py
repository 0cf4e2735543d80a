import dataclasses
import json
import math

import numpy as np
import pytest
from helpers import _reference_scalarized, reference_heuristic_predict
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from surfplan import (
    Dataset,
    HeuristicKind,
    HeuristicWeights,
    NoiseProfile,
    PredictionRequest,
    ValidationError,
    fit_heuristic,
    linear_interp,
    poly_interp,
)
from surfplan.heuristics import (
    IDW_NEIGHBORS,
    IDW_POWER,
    NEIGHBOR_METHODS,
    Standardizer,
    _distances,
    _idw,
    _k_nearest,
    _nearest_label,
    _stage1_axis,
    _stage1_columns,
    _standardized_columns,
    all_kinds,
    derive_training,
)
from surfplan.ml.serialize import CorruptModelError, model_from_dict, model_to_dict
from surfplan.oracle import AboveThresholdError


def _columns(rows) -> tuple[np.ndarray, ...]:
    """Training points given as rows, as the per-feature columns the
    neighbor searches take."""
    return tuple(np.asarray(rows, dtype=np.float64).T)


class TestRangeSearch:
    def test_exact_match_returns_its_label(self):
        features = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        labels = np.array([10.0, 20.0, 30.0])
        assert _nearest_label(_columns(features), labels, (2.0, 3.0)) == 20.0

    def test_nearer_point_wins(self):
        assert _nearest_label(_columns([[0.0], [10.0]]), np.array([1.0, 9.0]), (2.0,)) == 1.0

    def test_equidistant_tie_breaks_by_index(self):
        assert _nearest_label(_columns([[0.0], [4.0]]), np.array([1.0, 9.0]), (2.0,)) == 1.0
        assert _nearest_label(_columns([[4.0], [0.0]]), np.array([9.0, 1.0]), (2.0,)) == 9.0


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
    @staticmethod
    def _interp(rows, labels, query) -> float:
        return _idw(_columns(rows), np.asarray(labels, dtype=np.float64), query,
                    IDW_NEIGHBORS, IDW_POWER)

    def test_exact_match_short_circuit(self):
        assert self._interp([[0.0, 0.0], [1.0, 1.0]], [3.0, 5.0], (1.0, 1.0)) == 5.0

    @pytest.mark.parametrize("n", [5, 12])  # the full lexsort, then the partition path
    def test_exact_match_takes_the_lowest_index_copy(self, n):
        # Exact copies of the query at indices 1, 3 and 4, with different
        # labels: the first copy's label is the answer.
        rows = [[float(i + 1), 0.0] for i in range(n)]
        for i in (1, 3, 4):
            rows[i] = [0.0, 0.0]
        labels = [10.0 * (i + 1) for i in range(n)]
        assert self._interp(rows, labels, (0.0, 0.0)) == 20.0

    def test_symmetric_average(self):
        assert self._interp([[-1.0], [1.0]], [3.0, 5.0], (0.0,)) == pytest.approx(4.0)

    def test_inverse_square_weights(self):
        # distances 1 and 2 with labels 0 and 6: (1*0 + 0.25*6) / 1.25 = 1.2
        assert self._interp([[1.0], [2.0]], [0.0, 6.0], (0.0,)) == pytest.approx(1.2)

    def test_output_within_neighbor_hull(self):
        rng = np.random.default_rng(13)
        features = rng.normal(size=(50, 3))
        labels = rng.uniform(3, 19, size=50)
        for _ in range(25):
            query = rng.normal(size=3)
            value = self._interp(features, labels, tuple(query.tolist()))
            assert labels.min() - 1e-12 <= value <= labels.max() + 1e-12


class TestStandardizer:
    def test_fit_transform(self):
        data = np.array([[0.0, 10.0], [2.0, 10.0], [4.0, 10.0]])
        scaler = Standardizer.fit(data)
        out = _standardized_columns(tuple(data.T), scaler)
        assert np.allclose(out[0], [-1.22474487, 0.0, 1.22474487])
        # zero-variance column passes through centered with scale one
        assert np.allclose(out[1], 0.0)


@pytest.fixture
def small_records():
    profiles = [(1e-4, 1e-3, 2e-4, 2e-3), (2e-4, 1.5e-3, 3e-4, 3e-3), (3e-4, 2e-3, 4e-4, 4e-3)]
    rows = [(profile, d, r, 10 ** (exponent - i * 0.3)) for i, profile in enumerate(profiles)
            for d, r, exponent in [(3, 2, -2), (5, 5, -4), (7, 7, -5), (9, 9, -6)]]
    return Dataset.from_rows(*zip(*rows))


class TestHeuristicModel:
    @pytest.mark.parametrize(
        "kind", [k for k in all_kinds() if k.method == "range_search"],
        ids=lambda k: k.label)
    def test_exact_match_record_propagates_for_range_search(self, small_records, kind):
        record = list(small_records)[5]
        request = PredictionRequest(noise=record.noise,
                                    target_logical_error_rate=record.logical_error_rate)
        result = fit_heuristic(small_records, kind).predict_result(request)
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
        records = Dataset.from_rows([a.as_tuple(), b.as_tuple()], [5, 9], [4, 9], [1e-4, 1e-6])
        request = PredictionRequest(noise=b, target_logical_error_rate=2e-6)
        kind = HeuristicKind(method="range_search", weighted=True)
        result = fit_heuristic(records, kind, weights).predict_result(request)
        assert result.rounded_distance == 9
        assert result.rounded_rounds == 9

    def test_hand_traced_weighted_linear_interp(self):
        # Single decade slice; distance varies linearly along the scalarized
        # axis, so interpolation lands between the two training rows.
        weights = HeuristicWeights(0.4, 0.3, 0.2, 0.1)
        lo = NoiseProfile(0, 1e-3, 0, 0)      # scalar 4e-4
        hi = NoiseProfile(0, 3e-3, 0, 0)      # scalar 12e-4
        mid = NoiseProfile(0, 2e-3, 0, 0)     # scalar 8e-4
        records = Dataset.from_rows([lo.as_tuple(), hi.as_tuple()], [5, 9], [5, 9],
                                    [1e-4, 1.2e-4])
        request = PredictionRequest(noise=mid, target_logical_error_rate=1.1e-4)
        kind = HeuristicKind(method="linear_interp", weighted=True)
        result = fit_heuristic(records, kind, weights).predict_result(request)
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
            fit_heuristic(Dataset.from_rows([], [], [], []), kind)

    def test_training_state_must_match_the_fit(self, small_records):
        kind = HeuristicKind("range_search", True)
        training = derive_training(small_records, HeuristicWeights(), (kind,))
        assert fit_heuristic(training, kind).stage1_scaler == \
            fit_heuristic(small_records, kind).stage1_scaler
        with pytest.raises(ValidationError, match="not derived for range_search_n_w"):
            fit_heuristic(training, HeuristicKind("range_search", False))
        with pytest.raises(ValidationError, match="with these weights"):
            fit_heuristic(training, kind, HeuristicWeights(0.5, 0.25, 0.15, 0.1))

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
    rows = []  # (noise, distance, rounds, logical error rate)
    for _ in range(draw(st.integers(2, 60))):
        if rows and draw(st.integers(0, 4)) == 0:
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
            continue
        rows.append((profiles[draw(st.integers(0, len(profiles) - 1))].as_tuple(),
                     draw(st.sampled_from([3, 5, 7, 9, 11, 13])), draw(st.integers(1, 15)),
                     10.0 ** draw(st.floats(min_value=-12.0, max_value=-2.0))))
    kind = draw(st.sampled_from(all_kinds()))
    weights = draw(st.sampled_from([HeuristicWeights(), HeuristicWeights(0.5, 0.25, 0.15, 0.1)]))
    requests = [PredictionRequest(noise=draw(_PROFILES), target_logical_error_rate=draw(_TARGETS))
                for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 3))):
        noise, _, _, rate = rows[draw(st.integers(0, len(rows) - 1))]
        requests.append(PredictionRequest(noise=NoiseProfile(*noise),
                                          target_logical_error_rate=rate))
    return Dataset.from_rows(*zip(*rows)), kind, weights, requests


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


def _standardized_overflow(model, scale) -> bool:
    """Whether either stage's training features, standardized with every
    scale set to ``scale``, hold a value or a squared column spread that is
    not finite."""
    rates = (_reference_scalarized(model.noise, model.weights) if model.kind.weighted
             else model.noise)
    stages = ((np.column_stack([rates, model.log_ler]), model.stage1_scaler),
              (np.column_stack([model.distance, model.log_ler]), model.stage2_scaler))
    with np.errstate(all="ignore"):
        standardized = [(train - np.asarray(scaler.mean)) / scale for train, scaler in stages]
        return not all(np.isfinite(z).all() and np.isfinite(np.ptp(z, axis=0) ** 2).all()
                       for z in standardized)


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
        # A scale of 1e-160 squares standardized spreads to inf; 5e-324 makes
        # the standardized values themselves inf. Such a model must fail to
        # load. One whose training columns do not spread at all still loads,
        # and predicts as the per-request computation does.
        records, kind, weights, requests = problem
        fitted = fit_heuristic(records, kind, weights)
        if _standardized_overflow(fitted, scale):
            with pytest.raises(CorruptModelError, match="overflow"):
                _reloaded(fitted, scale)
            return
        model = _reloaded(fitted, scale)
        for request in requests:
            assert (_outcome(model.predict_result, request)
                    == _outcome(lambda r: reference_heuristic_predict(model, r), request))


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestQueryEqualsTrainingRow:
    # On glibc the norm of this profile differs in its last bit when the
    # squares are taken with ``** 2`` (libm's pow) instead of ``x * x``.
    @example(problem=(Dataset.from_rows([(1e-4, 1e-4, 1e-4, 1.2e-4), (1e-3, 2e-3, 1e-3, 2e-3)],
                                        [3, 5], [2, 4], [1e-3, 1e-5]),
                      HeuristicKind("linear_interp", False), HeuristicWeights(), []))
    @given(problem=_heuristic_problems())
    @settings(max_examples=200)
    def test_record_query_gives_its_training_inputs(self, problem):
        # A query built from record i's own rates, log10 rate and distance
        # goes through the training-column code and must give record i's
        # training inputs bit for bit, as Python floats.
        records, kind, weights, _ = problem
        fitted = fit_heuristic(records, kind, weights)
        for model in (fitted, _reloaded(fitted)):
            (stage1, _), (stage2, _) = model._stages
            for i, record in enumerate(records):
                rates = record.noise.as_tuple()
                log_ler = math.log10(record.logical_error_rate)
                distance = float(record.params.distance)
                if kind.method in NEIGHBOR_METHODS:
                    queries = (
                        _standardized_columns(_stage1_columns(kind.weighted, weights, rates,
                                                              log_ler), model.stage1_scaler),
                        _standardized_columns((distance, log_ler), model.stage2_scaler))
                    rows = ([column[i] for column in stage1], [column[i] for column in stage2])
                else:
                    queries = ((_stage1_axis(kind.weighted, weights, rates),), (distance,))
                    rows = ([stage1[i]], [stage2[i]])
                for query, row in zip(queries, rows):
                    assert all(type(value) is float for value in query)
                    assert _hex(query) == _hex(row)
