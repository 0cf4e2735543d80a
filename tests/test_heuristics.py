import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from helpers import reference_heuristic_predict
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from surfplan import (
    Dataset,
    HeuristicKind,
    HeuristicWeights,
    NoiseProfile,
    OracleConfig,
    PredictionRequest,
    ValidationError,
    fit_heuristic,
    linear_interp,
    poly_interp,
)
from surfplan import heuristics
from surfplan.heuristics import (
    HeuristicModel,
    HeuristicTraining,
    NEIGHBOR_METHODS,
    Standardizer,
    _distances,
    _k_nearest,
    _nearest,
    _neighbor_label,
    _stage1_axis,
    _stage1_columns,
    _standardized_columns,
    all_kinds,
)
from surfplan.ml.serialize import model_from_dict, model_to_dict
from surfplan.models import fit_named_model
from surfplan.oracle import AboveThresholdError


def _columns(rows) -> tuple[np.ndarray, ...]:
    """Training points given as rows, as the per-feature columns the
    neighbor searches take."""
    return tuple(np.asarray(rows, dtype=np.float64).T)


def _answer(method, rows, labels, query) -> float:
    """A neighbor method's answer to ``query`` over training points given as
    rows."""
    return _neighbor_label(method, np.asarray(labels, dtype=np.float64),
                           *_nearest(_columns(rows), query))


class TestRangeSearch:
    def test_exact_match_returns_its_label(self):
        features = [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        assert _answer("range_search", features, [10.0, 20.0, 30.0], (2.0, 3.0)) == 20.0

    def test_nearer_point_wins(self):
        assert _answer("range_search", [[0.0], [10.0]], [1.0, 9.0], (2.0,)) == 1.0

    def test_equidistant_tie_breaks_by_index(self):
        assert _answer("range_search", [[0.0], [4.0]], [1.0, 9.0], (2.0,)) == 1.0
        assert _answer("range_search", [[4.0], [0.0]], [9.0, 1.0], (2.0,)) == 9.0


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

    @given(points=st.lists(st.tuples(st.integers(-1000, 1000).map(float),
                                     st.floats(-1e3, 1e3)),
                           min_size=2, max_size=2).filter(lambda p: p[0][0] != p[1][0]),
           x=st.floats(-1e3, 1e3))
    @settings(max_examples=50)
    def test_two_points_equal_linear_interp_bit_for_bit(self, points, x):
        assert poly_interp(points, x).hex() == linear_interp(points, x).hex()

    @pytest.mark.parametrize("points", [[], [(0.0, 0.0)]])
    def test_too_few_points(self, points):
        with pytest.raises(ValidationError, match="poly_interp needs at least two"):
            poly_interp(points, 1.0)

    def test_uses_three_nearest(self):
        # x = 10 region is quadratic, far points would distort it
        points = [(9.0, 81.0), (10.0, 100.0), (11.0, 121.0), (0.0, 5.0)]
        assert poly_interp(points, 10.5) == pytest.approx(110.25, abs=1e-6)


class TestMultivariateInterp:
    @staticmethod
    def _interp(rows, labels, query) -> float:
        return _answer("multivariate_interp", rows, labels, query)

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
        # A shared training state reaches a heuristic through fit_named_model,
        # which checks that it was built with the fit's weights. Any kind may
        # take it: a state fits each flag's scaler when first asked.
        training = HeuristicTraining(small_records, HeuristicWeights())
        for kind in all_kinds():
            model = fit_named_model(f"heuristic:{kind.label}", records=training)
            assert model.training is training
            assert model == fit_heuristic(small_records, kind)
        with pytest.raises(ValidationError, match="with these weights"):
            fit_named_model("heuristic:range_search_w", records=training,
                            weights=HeuristicWeights(0.5, 0.25, 0.15, 0.1))

    def test_model_built_from_a_state_equals_the_fit(self, small_records):
        # Every kind built directly on a HeuristicTraining of its own is the
        # model fit_heuristic gives, and predicts the same bits.
        weights = HeuristicWeights(0.5, 0.25, 0.15, 0.1)
        requests = [PredictionRequest(NoiseProfile(*record.noise.as_tuple()), target)
                    for record in small_records for target in (1e-3, 1e-7)]
        for kind in all_kinds():
            built = HeuristicModel(kind, OracleConfig(),
                                   HeuristicTraining(small_records, weights))
            fitted = fit_heuristic(small_records, kind, weights)
            assert built == fitted
            assert ([_outcome(built.predict_result, r) for r in requests]
                    == [_outcome(fitted.predict_result, r) for r in requests])

    def test_interpolators_fit_no_scaler(self, small_records, monkeypatch):
        # Only the neighbor methods standardize; a 1-D interpolator's fit and
        # predictions fit no Standardizer, and a neighbor model's first
        # request fits its two.
        fits, fit = [], Standardizer.fit

        def counted(features):
            fits.append(features.shape)
            return fit(features)

        monkeypatch.setattr(Standardizer, "fit", counted)
        request = PredictionRequest(NoiseProfile(2e-4, 1.2e-3, 5e-4, 3e-3), 1e-6)
        for kind in all_kinds():
            if kind.method not in NEIGHBOR_METHODS:
                fit_heuristic(small_records, kind).predict_result(request)
        assert fits == []
        fit_heuristic(small_records, HeuristicKind("range_search", False)).predict_result(request)
        assert len(fits) == 2

    def test_equal_fits_compare_equal(self, small_records):
        # Equality is that of the records and weights; the derived arrays
        # and scalers are not compared.
        kind = HeuristicKind("multivariate_interp", False)
        assert fit_heuristic(small_records, kind) == fit_heuristic(small_records, kind)
        assert fit_heuristic(small_records, kind) != fit_heuristic(
            small_records, kind, HeuristicWeights(0.5, 0.25, 0.15, 0.1))
        assert fit_heuristic(small_records, kind) != fit_heuristic(
            small_records, HeuristicKind("multivariate_interp", True))

    def test_fitted_model_is_frozen(self, small_records):
        model = fit_heuristic(small_records, HeuristicKind("multivariate_interp", False))
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.training = HeuristicTraining(small_records, HeuristicWeights())
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.training.distance = model.training.distance.copy()


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


def _reloaded(model):
    """The model after a JSON round trip."""
    return model_from_dict(json.loads(json.dumps(model_to_dict(model))))


# Rates whose column spreads are subnormal: multiples of the smallest
# subnormal square to zero, so such a column's std rounds to zero although
# its spread does not; multiples of 1e-160 square to subnormals.
_EXTREME_RATES = st.one_of(st.integers(0, 3).map(lambda k: k * 5e-324),
                           st.integers(1, 4).map(lambda k: k * 1e-160), _RATES)
_EXTREME_PROFILES = st.tuples(*[_EXTREME_RATES] * 4).filter(any).map(
    lambda rates: NoiseProfile(*rates))
_EXTREME_DISTANCES = st.one_of(st.sampled_from([3, 5, 2 ** 61 + 1, 2 ** 63 - 3, 2 ** 63 - 1]),
                               st.integers(1, 2 ** 62 - 1).map(lambda k: 2 * k + 1))
_EXTREME_RATES_REACHED = st.one_of(
    st.sampled_from([5e-324, 1e-320, 2.2250738585072014e-308, 0.5, 1.0]),
    st.floats(min_value=-12.0, max_value=-2.0).map(lambda e: 10.0 ** e))


@st.composite
def _extreme_problems(draw):
    """``_heuristic_problems`` over extreme records: subnormal rate spreads,
    distances and rounds near 2**63, rates from the smallest subnormal to 1."""
    profiles = draw(st.lists(_EXTREME_PROFILES, min_size=1, max_size=4))
    rows = [(profiles[draw(st.integers(0, len(profiles) - 1))].as_tuple(),
             draw(_EXTREME_DISTANCES),
             draw(st.one_of(st.integers(1, 15), st.just(2 ** 63 - 1))),
             draw(_EXTREME_RATES_REACHED))
            for _ in range(draw(st.integers(1, 30)))]
    kind = draw(st.sampled_from(all_kinds()))
    requests = [PredictionRequest(noise=NoiseProfile(*noise), target_logical_error_rate=rate)
                for noise, _, _, rate in rows[:3] if rate < 1.0]
    return Dataset.from_rows(*zip(*rows)), kind, HeuristicWeights(), requests


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

    @example(problem=(Dataset.from_rows(
        [(1e-3, 0.0, 0.0, 0.0), (1e-3, 5e-324, 0.0, 0.0), (1e-3, 1e-323, 1e-160, 0.0)],
        [3, 2 ** 63 - 1, 2 ** 63 - 3], [1, 2, 2 ** 63 - 1], [1e-3, 5e-324, 1.0]),
        HeuristicKind("range_search", False), HeuristicWeights(), []))
    @given(problem=_extreme_problems())
    @settings(max_examples=150)
    def test_overflowing_distances(self, problem):
        # No fitted model's neighbor distances overflow: with scalers fitted
        # from the data, every standardized training column and its squared
        # spread is finite, even for subnormal spreads, a column whose spread
        # is non-zero but whose std rounds to zero (its scale is then 1), and
        # distances near 2**63. The model predicts as the per-request
        # computation does.
        records, kind, weights, requests = problem
        model = fit_heuristic(records, kind, weights)
        for stage in (0, 1):
            for column in model.training.standardized(stage, kind.weighted)[1]:
                spread = column.max() - column.min()
                assert np.isfinite(column).all() and np.isfinite(spread * spread)
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
            # A neighbor model reads standardized columns through scalers; an
            # interpolator reads its 1-D axes and has none.
            if kind.method in NEIGHBOR_METHODS:
                (stage1_scaler, stage1), (stage2_scaler, stage2) = (
                    model.training.standardized(stage, kind.weighted) for stage in (0, 1))
            else:
                stage1, stage2 = (model.training.axis(stage, kind.weighted) for stage in (0, 1))
            for i, record in enumerate(records):
                rates = record.noise.as_tuple()
                log_ler = math.log10(record.logical_error_rate)
                distance = float(record.params.distance)
                if kind.method in NEIGHBOR_METHODS:
                    queries = (
                        _standardized_columns(_stage1_columns(kind.weighted, weights, rates,
                                                              log_ler), stage1_scaler),
                        _standardized_columns((distance, log_ler), stage2_scaler))
                    rows = ([column[i] for column in stage1], [column[i] for column in stage2])
                else:
                    queries = ((_stage1_axis(kind.weighted, weights, rates),), (distance,))
                    rows = ([stage1[i]], [stage2[i]])
                for query, row in zip(queries, rows):
                    assert all(type(value) is float for value in query)
                    assert _hex(query) == _hex(row)


@st.composite
def _repeated_requests(draw):
    """``_heuristic_problems``' records and weights, with requests that repeat
    profiles and targets: each mixes one drawn request's profile with
    another's target, and some come again later in the sequence."""
    records, _, weights, drawn = draw(_heuristic_problems())
    picks = st.integers(0, len(drawn) - 1)
    requests = [PredictionRequest(noise=drawn[draw(picks)].noise,
                                  target_logical_error_rate=drawn[draw(picks)]
                                  .target_logical_error_rate)
                for _ in range(draw(st.integers(1, 8)))]
    return records, weights, requests + draw(st.lists(st.sampled_from(requests), max_size=4))


def _tied_records(weights):
    """Two copies of one profile and rate with different labels, so their
    distances to any query tie exactly, and a third record elsewhere."""
    near, far = (1e-4, 1e-3, 2e-4, 2e-3), (3e-4, 2e-3, 4e-4, 4e-3)
    records = Dataset.from_rows([near, near, far], [9, 5, 3], [8, 4, 2], [1e-5, 1e-5, 1e-3])
    return records, weights, [PredictionRequest(NoiseProfile(*near), 1e-5),
                              PredictionRequest(NoiseProfile(*near), 3e-6)]


def _mirrored_records():
    """Two records whose weighted stage-1 column and stage-2 column
    standardize to exactly -1 and 1 in opposite orders, under one constant
    rate. The stage-1 query of the second record's profile then equals,
    float for float, the stage-2 query that the first record's profile
    leads to, while their nearest rows differ."""
    low, high = (0.0, 2.0 ** -10, 0.0, 0.0), (0.0, 2.0 ** -9, 0.0, 0.0)
    records = Dataset.from_rows([low, high], [9, 3], [8, 2], [1e-5, 1e-5])
    return records, HeuristicWeights(0.5, 0.25, 0.15, 0.1), [
        PredictionRequest(NoiseProfile(*low), 1e-5), PredictionRequest(NoiseProfile(*high), 1e-5)]


class TestSharedTrainingMemo:
    @pytest.mark.parametrize("memo_entries", [heuristics.MEMO_ENTRIES, 2],
                             ids=["default-bound", "overflowing"])
    # Range search must answer from the lowest-index record among the tied
    # nearest ones, as argmin does.
    @example(problem=_tied_records(HeuristicWeights()))
    @example(problem=_mirrored_records())
    @given(problem=_repeated_requests())
    @settings(max_examples=100)
    def test_answers_equal_the_reference(self, memo_entries, problem):
        # The eight kinds fitted from one state answer an interleaved request
        # sequence through its memo. Each answer must be the per-request
        # reference's and that of a model of its kind whose state was never
        # shared. With a bound of 2 the memo overflows and is emptied.
        records, weights, requests = problem
        with mock.patch.object(heuristics, "MEMO_ENTRIES", memo_entries):
            training = HeuristicTraining(records, weights)
            shared = [HeuristicModel(kind, OracleConfig(), training) for kind in all_kinds()]
            alone = [fit_heuristic(records, kind, weights) for kind in all_kinds()]
            for request in requests:
                for model, fresh in zip(shared, alone):
                    expected = _outcome(lambda r: reference_heuristic_predict(model, r), request)
                    assert _outcome(model.predict_result, request) == expected
                    assert _outcome(fresh.predict_result, request) == expected
            assert len(training._memo) <= memo_entries


def _arrays(answer) -> list[np.ndarray]:
    """Every array in ``answer``, at any depth of tuples."""
    if isinstance(answer, np.ndarray):
        return [answer]
    if isinstance(answer, tuple):
        return [array for part in answer for array in _arrays(part)]
    return []


class TestOneTrainingCache:
    """``HeuristicTraining.recall`` keeps every array the state derives, the
    answers' and the per-stage ones alike, and freezes what it hands out."""

    def test_every_array_handed_out_is_read_only(self, small_records):
        training = HeuristicTraining(small_records, HeuristicWeights())
        request = PredictionRequest(NoiseProfile(2e-4, 1.2e-3, 5e-4, 3e-3), 1e-6)
        for kind in all_kinds():
            HeuristicModel(kind, OracleConfig(), training).predict_result(request)
        interpolator = HeuristicModel(HeuristicKind("linear_interp", True), OracleConfig(),
                                      training)
        decades = training.decades()
        handed = {
            "standardized": [training.standardized(stage, weighted)
                             for stage, weighted in ((0, True), (0, False), (1, False))],
            "axes": [training.axis(0, True), training.axis(0, False)],
            "decades": [decades],
            "decade pairs": [interpolator._decade_pairs(stage, [decade])
                             for stage in (0, 1) for decade in decades[1]],
            # Nearest rows and distances, kept under (stage, flag, query).
            "nearest": [answer for key, answer in training._memo.items()
                        if isinstance(key[0], int)],
        }
        for what, answers in handed.items():
            arrays = _arrays(tuple(answers))
            assert arrays, what
            for array in arrays:
                assert not array.flags.writeable, what
                with pytest.raises(ValueError):
                    array.flat[0] = 0
        # Stage 1 under each flag, and stage 2 once per rounded distance.
        assert len(handed["nearest"]) >= 3
        assert len(_arrays(tuple(handed["nearest"]))) == 2 * len(handed["nearest"])

    def test_an_answer_is_frozen_at_every_depth(self, small_records):
        training = HeuristicTraining(small_records, HeuristicWeights())
        answer = training.recall(("probe",), lambda: (np.zeros(2), (np.ones(3), (np.ones(1),)),
                                                      1.5))
        assert [array.flags.writeable for array in _arrays(answer)] == [False] * 3
        assert training.recall(("probe",), lambda: None) is answer

    def test_an_emptied_memo_derives_the_same_bytes(self, small_records):
        # With room for two entries, asking for the six derived entries in
        # turn empties the memo again and again, so the second round derives
        # every one afresh.
        with mock.patch.object(heuristics, "MEMO_ENTRIES", 2):
            training = HeuristicTraining(small_records, HeuristicWeights(0.5, 0.25, 0.15, 0.1))

            def derived():
                return ([training.standardized(stage, weighted)
                         for stage, weighted in ((0, True), (0, False), (1, False))]
                        + [training.axis(0, True), training.axis(0, False), training.decades()])

            first, second = derived(), derived()
            assert len(training._memo) <= 2
        for old, new in zip(first, second):
            assert new is not old
            assert [array.tobytes() for array in _arrays(new)] == [
                array.tobytes() for array in _arrays(old)]
        for (old, _), (new, _) in zip(first[:3], second[:3]):
            assert _hex(new.mean + new.scale) == _hex(old.mean + old.scale)
        assert second[5][1] == first[5][1]
