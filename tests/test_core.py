import math
import operator
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfplan import (
    CodeParams,
    DatasetRecord,
    HeuristicWeights,
    NoiseProfile,
    PredictionRequest,
    PredictionResult,
    ValidationError,
    round_distance,
    round_rounds,
)
from surfplan.core import check_int, check_number
from surfplan.heuristics import _scalarized


class TestValidateProfile:
    """A NoiseProfile checks its rates when it is built."""

    def test_table_magnitudes_pass(self):
        profile = NoiseProfile(0.0002, 0.008, 0.001, 0.02)
        assert profile.as_tuple() == (0.0002, 0.008, 0.001, 0.02)

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError, match="all-zero"):
            NoiseProfile(0, 0, 0, 0)

    def test_negative_field_named(self):
        with pytest.raises(ValidationError, match="depolarizing"):
            NoiseProfile(-0.1, 0.008, 0.001, 0.02)

    def test_rate_of_one_rejected(self):
        with pytest.raises(ValidationError, match="gate"):
            NoiseProfile(0.0, 1.0, 0.0, 0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="readout"):
            NoiseProfile(0.1, 0.1, 0.1, float("nan"))

    @pytest.mark.parametrize("rates,message", [
        ((float("nan"), 1e-3, 0, 0), "depolarizing must be finite, got nan"),
        ((1e-4, float("inf"), 0, 0), "gate must be finite, got inf"),
        ((1e-4, 1e-3, float("-inf"), 0), "reset must be finite, got -inf"),
        # These keep the ids their earlier messages gave them.
        pytest.param((1e-4, 1e-3, -1e-4, 0), "reset must be in [0, 1), got -0.0001",
                     id="rates3-reset out of range [0, 1): -0.0001"),
        pytest.param((1e-4, 1e-3, 0, 1.0), "readout must be in [0, 1), got 1.0",
                     id="rates4-readout out of range [0, 1): 1.0"),
        pytest.param((1e-4, 1e-3, 0, 1.5), "readout must be in [0, 1), got 1.5",
                     id="rates5-readout out of range [0, 1): 1.5"),
        ((0.0, -0.0, 0, 0), "all-zero noise profile"),
        ((True, 1e-3, 0, 0), "depolarizing must be a number, got True"),
        (("1e-3", 1e-3, 0, 0), "depolarizing must be a number, got '1e-3'"),
    ])
    def test_construction_raises(self, rates, message):
        with pytest.raises(ValidationError) as caught:
            NoiseProfile(*rates)
        assert str(caught.value) == message

    def test_requests_and_records_need_a_profile_object(self):
        rates = (1e-4, 1e-3, 1e-4, 1e-3)
        message = "noise must be a NoiseProfile, got tuple"
        with pytest.raises(ValidationError, match=message):
            PredictionRequest(noise=rates, target_logical_error_rate=1e-6)
        with pytest.raises(ValidationError, match=message):
            DatasetRecord(noise=rates, params=CodeParams(3, 1), logical_error_rate=1e-3)


class TestRoundDistance:
    @pytest.mark.parametrize("raw,expected", [
        (4.2, 5), (1.7, 3), (5.0, 5), (4.0, 5), (3.0, 3),
        (2.999, 3), (0.1, 3), (7.0, 7), (6.0001, 7), (19.0, 19),
    ])
    def test_examples(self, raw, expected):
        assert round_distance(raw) == expected

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(ValidationError):
            round_distance(bad)

    def test_bound_is_where_a_float_stops_holding_odd_integers(self):
        # Below 2**53 the rounded distance is a float64 exactly, so stage two
        # reads the distance that was recommended; from 2**53 on it is not.
        below = math.nextafter(2.0 ** 53, 0.0)
        assert round_distance(below) == 2 ** 53 - 1 == float(2 ** 53 - 1)
        for bad in (2.0 ** 53, 1e300):
            with pytest.raises(ValidationError, match=r"raw distance must be below 2\*\*53"):
                round_distance(bad)

    def test_idempotent_monotone_odd(self):
        rng = np.random.default_rng(7)
        values = np.concatenate([rng.uniform(0.01, 40, size=300),
                                 np.arange(1, 25, 0.5)])
        previous = None
        for raw in sorted(values.tolist()):
            out = round_distance(raw)
            assert out % 2 == 1 and out >= 3 and out >= raw
            assert round_distance(float(out)) == out
            if previous is not None:
                assert out >= previous
            previous = out


class TestRoundRounds:
    @pytest.mark.parametrize("raw,expected", [
        (12.3, 13), (7.0, 7), (0.4, 1), (1.0, 1), (59.01, 60),
    ])
    def test_examples(self, raw, expected):
        assert round_rounds(raw) == expected

    @pytest.mark.parametrize("bad", [0.0, -3.0, float("inf"), float("nan")])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(ValidationError):
            round_rounds(bad)

    def test_idempotent_and_ceiling(self):
        rng = np.random.default_rng(11)
        for raw in rng.uniform(0.01, 80, size=300).tolist():
            out = round_rounds(raw)
            assert out == max(1, math.ceil(raw))
            assert round_rounds(float(out)) == out


class TestScalarize:
    def test_single_nonzero_term(self):
        weights = HeuristicWeights(0.4, 0.3, 0.2, 0.1)
        profile = NoiseProfile(0, 0, 0, 0.01)
        assert _scalarized(weights, profile.as_tuple()) == pytest.approx(0.002, abs=1e-15)

    def test_uniform_profile_returns_rate(self):
        weights = HeuristicWeights(0.4, 0.3, 0.2, 0.1)
        profile = NoiseProfile(1e-3, 1e-3, 1e-3, 1e-3)
        assert _scalarized(weights, profile.as_tuple()) == pytest.approx(1e-3, rel=1e-12)

    def test_table_instance(self):
        # 0.4*7.7e-3 + 0.3*2.4e-4 + 0.2*2.5e-2 + 0.1*1e-3
        weights = HeuristicWeights(0.4, 0.3, 0.2, 0.1)
        profile = NoiseProfile(2.4e-4, 7.7e-3, 1e-3, 2.5e-2)
        assert _scalarized(weights, profile.as_tuple()) == pytest.approx(8.252e-3, abs=1e-12)

    def test_linearity_in_profile(self):
        weights = HeuristicWeights()
        base = NoiseProfile(2e-4, 3e-3, 1e-3, 2e-2)
        for alpha in (0.25, 0.5, 2.0):
            scaled = NoiseProfile(*(alpha * v for v in base.as_tuple()))
            assert _scalarized(weights, scaled.as_tuple()) == pytest.approx(
                alpha * _scalarized(weights, base.as_tuple()), rel=1e-12)


class TestHeuristicWeights:
    def test_default_is_valid(self):
        weights = HeuristicWeights()
        assert (weights.w_gate, weights.w_depol, weights.w_readout,
                weights.w_reset) == (0.4, 0.3, 0.2, 0.1)

    def test_ordering_enforced(self):
        with pytest.raises(ValidationError, match="w_gate > w_depol"):
            HeuristicWeights(0.3, 0.4, 0.2, 0.1)

    def test_sum_enforced(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            HeuristicWeights(0.5, 0.3, 0.2, 0.1)


class TestTypes:
    def test_code_params_rejects_even_distance(self):
        with pytest.raises(ValidationError, match="odd"):
            CodeParams(distance=4, rounds=1)

    def test_code_params_bounds(self):
        with pytest.raises(ValidationError):
            CodeParams(distance=1, rounds=1)
        with pytest.raises(ValidationError):
            CodeParams(distance=3, rounds=0)

    def test_dataset_record_ler_range(self):
        noise = NoiseProfile(1e-4, 1e-3, 1e-4, 1e-2)
        params = CodeParams(distance=3, rounds=1)
        DatasetRecord(noise=noise, params=params, logical_error_rate=1.0)
        with pytest.raises(ValidationError):
            DatasetRecord(noise=noise, params=params, logical_error_rate=0.0)
        with pytest.raises(ValidationError):
            DatasetRecord(noise=noise, params=params, logical_error_rate=1.5)

    def test_request_target_open_interval(self):
        noise = NoiseProfile(1e-4, 1e-3, 1e-4, 1e-2)
        PredictionRequest(noise=noise, target_logical_error_rate=1e-9)
        for bad in (0.0, 1.0, -1e-3):
            with pytest.raises(ValidationError):
                PredictionRequest(noise=noise, target_logical_error_rate=bad)

    def test_result_invariants(self):
        # The rounded pair is derived from the raw one by round_distance and
        # round_rounds, so no result holds an even, undercutting or
        # non-ceiling rounding; a raw value they cannot round is rejected.
        result = PredictionResult(raw_distance=4.2, raw_rounds=12.3)
        assert (result.rounded_distance, result.rounded_rounds) == (5, 13)
        assert repr(result) == ("PredictionResult(raw_distance=4.2, rounded_distance=5, "
                                "raw_rounds=12.3, rounded_rounds=13)")
        assert PredictionResult(raw_distance=7.5, raw_rounds=0.2).rounded_distance == 9
        with pytest.raises(TypeError):
            PredictionResult(raw_distance=4.2, rounded_distance=5, raw_rounds=12.3,
                             rounded_rounds=13)
        for raw_distance, raw_rounds in ((0.0, 1.0), (math.inf, 1.0), (3.0, math.nan),
                                         (2.0 ** 53, 1.0)):
            with pytest.raises(ValidationError):
                PredictionResult(raw_distance=raw_distance, raw_rounds=raw_rounds)


def _reference_number(value, ends):
    """The number rule written out plainly: the float, or None to reject."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    if not math.isfinite(number) or not all(
            getattr(operator, end)(number, bound) for end, bound in ends.items()):
        return None
    return number


def _ends(kinds):
    return st.one_of(st.just({}), st.builds(lambda kind, bound: {kind: bound},
                                            st.sampled_from(kinds), st.floats(-2.0, 2.0)))


MESSAGE_CASES = [
    (math.nan, {"gt": 0.0}, "x must be finite, got nan"),
    (-math.inf, {}, "x must be finite, got -inf"),
    (1.0, {"ge": 0.0, "lt": 1.0}, "x must be in [0, 1), got 1.0"),
    (0, {"gt": 0.0, "le": 1.0}, "x must be in (0, 1], got 0"),
    (1.5, {"gt": 0.0, "lt": 1.0}, "x must be in (0, 1), got 1.5"),
    (-1.0, {"ge": 0.0}, "x must be >= 0, got -1.0"),
    (0.0, {"gt": 0.0}, "x must be > 0, got 0.0"),
    (2.0, {"lt": 1.0}, "x must be < 1, got 2.0"),
    (2.5, {"le": 2.0}, "x must be <= 2, got 2.5"),
]


class TestCheckNumber:
    """``check_number`` is the one number rule of every config and domain value."""

    @settings(max_examples=400)
    @given(value=st.one_of(
        st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, math.inf]),
        st.floats().map(np.float64), st.integers(-2 ** 1100, 2 ** 1100), st.integers(-3, 3),
        st.booleans(), st.text(max_size=3), st.none()),
        lower=_ends(["gt", "ge"]), upper=_ends(["lt", "le"]))
    def test_matches_the_reference_rule(self, value, lower, upper):
        ends = {**lower, **upper}
        expected = _reference_number(value, ends)
        if expected is None:
            with pytest.raises(ValidationError, match="^x "):
                check_number("x", value, **ends)
        else:
            got = check_number("x", value, **ends)
            assert type(got) is float
            assert struct.pack("<d", got) == struct.pack("<d", expected)

    @pytest.mark.parametrize("value, ends, message", MESSAGE_CASES,
                             ids=[message for _, _, message in MESSAGE_CASES])
    def test_messages(self, value, ends, message):
        with pytest.raises(ValidationError) as caught:
            check_number("x", value, **ends)
        assert str(caught.value) == message


def _reference_int(value, minimum, maximum) -> bool:
    """The integer rule written out plainly."""
    return (type(value) is int and minimum <= value
            and (maximum is None or value <= maximum))


_BOUNDS = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))

INT_MESSAGE_CASES = [
    (1.0, 1, None, "x must be an integer, got 1.0"),
    (True, 0, None, "x must be an integer, got True"),
    (None, 0, 5, "x must be an integer, got None"),
    (0, 1, None, "x must be >= 1, got 0"),
    (10_001, 1, 10_000, "x must be <= 10000, got 10001"),
]


class TestCheckInt:
    """``check_int`` is the one integer rule of every config and domain value."""

    @settings(max_examples=400)
    @given(value=st.one_of(
        st.integers(-2 ** 70, 2 ** 70), st.integers(-4, 4), st.booleans(), st.floats(),
        st.text(max_size=3), st.none()),
        minimum=_BOUNDS, maximum=st.one_of(st.none(), _BOUNDS))
    def test_matches_the_reference_rule(self, value, minimum, maximum):
        if _reference_int(value, minimum, maximum):
            assert check_int("x", value, minimum, maximum) is None
        else:
            with pytest.raises(ValidationError, match="^x must be "):
                check_int("x", value, minimum, maximum)

    @pytest.mark.parametrize("value, minimum, maximum, message", INT_MESSAGE_CASES,
                             ids=[message for *_, message in INT_MESSAGE_CASES])
    def test_messages(self, value, minimum, maximum, message):
        with pytest.raises(ValidationError) as caught:
            check_int("x", value, minimum, maximum)
        assert str(caught.value) == message

    @pytest.mark.parametrize("distance, rounds, message", [
        (1, 1.5, "distance must be >= 3, got 1"),
        (3.0, 1, "distance must be an integer, got 3.0"),
        (4, 0, "distance must be odd, got 4"),
        (5, True, "rounds must be an integer, got True"),
        (5, 0, "rounds must be >= 1, got 0"),
    ])
    def test_code_point_checks_the_distance_then_the_rounds(self, distance, rounds, message):
        with pytest.raises(ValidationError) as caught:
            CodeParams(distance, rounds)
        assert str(caught.value) == message
