"""Property tests: the array oracle against the scalar oracle it replaces.

``rate_grids``, on one profile or a table of them, must equal
``logical_error_rate`` exactly at every grid point, and the dataset
generation built on it must give the records the scalar sweep protocol
gives.
"""

import logging
import math

import numpy as np
import pytest
from helpers import record_columns
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfplan import (
    AboveThresholdError,
    CodeParams,
    Dataset,
    DatasetRecord,
    NoiseProfile,
    OracleConfig,
    SweepConfig,
    ValidationError,
    build_training_cases,
    effective_error,
    generate_dataset,
    logical_error_rate,
    rate_grids,
)
from surfplan.oracle import meets_target

def profiles_of(rate):
    """Profiles of four ``rate`` draws, less the all-zero one NoiseProfile rejects."""
    return st.tuples(rate, rate, rate, rate).filter(any).map(lambda row: NoiseProfile(*row))


rates = st.floats(min_value=0.0, max_value=0.02, allow_subnormal=False)
profiles = profiles_of(rates)
oracle_configs = st.builds(
    OracleConfig,
    amplitude=st.floats(min_value=1e-3, max_value=1.0),
    threshold=st.floats(min_value=1e-3, max_value=0.5),
    gate_weight=st.floats(min_value=0.0, max_value=1.0),
    depolarizing_weight=st.floats(min_value=0.0, max_value=1.0),
    readout_weight=st.floats(min_value=0.0, max_value=1.0),
    reset_weight=st.floats(min_value=0.0, max_value=1.0),
    decoherence=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=20.0)),
    floor=st.floats(min_value=1e-30, max_value=1.0),
)
distance_grids = st.lists(st.integers(min_value=1, max_value=15).map(lambda k: 2 * k + 1),
                          min_size=1, max_size=6, unique=True)
round_grids = st.lists(st.integers(min_value=1, max_value=80),
                       min_size=1, max_size=20, unique=True)


@given(profile=profiles, config=st.one_of(st.just(OracleConfig()), oracle_configs),
       distances=distance_grids, rounds=round_grids)
@settings(max_examples=300)
def test_rate_grid_equals_scalar_oracle(profile, config, distances, rounds):
    if effective_error(profile, config) >= config.threshold:
        with pytest.raises(AboveThresholdError):
            rate_grids([profile.as_tuple()], distances, rounds, config)[0]
        with pytest.raises(AboveThresholdError):
            logical_error_rate(distances[0], rounds[0], profile, config)
        return
    grid = rate_grids([profile.as_tuple()], distances, rounds, config)[0]
    assert grid.shape == (len(distances), len(rounds))
    for row, distance in zip(grid.tolist(), distances):
        for rate, r in zip(row, rounds):
            assert rate == logical_error_rate(distance, r, profile, config)


@pytest.mark.parametrize("decoherence", [0, 2, 10 ** 19, 1e308])
def test_integer_constants_reach_both_oracles_as_floats(decoherence):
    # An int past int64 cannot multiply the array oracle's int64 arrays. At
    # 1e308 the penalty overflows to inf, and both oracles clamp to 1.0; the
    # array oracle must not warn (pytest turns a RuntimeWarning into an error).
    config = OracleConfig(amplitude=1, gate_weight=1, depolarizing_weight=0, readout_weight=0,
                          reset_weight=0, decoherence=decoherence)
    assert {type(value) for value in vars(config).values()} == {float}
    profiles = [NoiseProfile(1e-4, 1e-3, 1e-4, 2e-3), NoiseProfile(3e-4, 2e-3, 0.0, 1e-3)]
    distances, rounds = (3, 5, 9), range(1, 14)
    grids = rate_grids([profile.as_tuple() for profile in profiles], distances, rounds, config)
    assert grids.tolist() == [[[logical_error_rate(d, r, profile, config) for r in rounds]
                               for d in distances] for profile in profiles]


@pytest.mark.parametrize("distances, rounds", [((3, 4), (1, 2)), ((1,), (1,)),
                                               ((3,), (0, 1)), ((3.0,), (1,))])
def test_rate_grid_rejects_bad_code_points(distances, rounds):
    profile = NoiseProfile(1e-4, 1e-3, 1e-4, 2e-3)
    with pytest.raises(ValidationError):
        rate_grids([profile.as_tuple()], distances, rounds)[0]


table_profiles = profiles_of(st.one_of(st.sampled_from([0.0, -0.0]), rates))


@given(rows=st.lists(table_profiles, min_size=1, max_size=8),
       config=st.one_of(st.just(OracleConfig()), oracle_configs),
       distances=distance_grids, rounds=round_grids)
@settings(max_examples=200)
def test_rate_grids_equal_scalar_oracle(rows, config, distances, rounds):
    """The rows below threshold give the scalar oracle's rates bit for bit;
    a table with a row at or above it raises that row's scalar error."""
    hot = [effective_error(profile, config) >= config.threshold for profile in rows]
    cool = [profile for profile, above in zip(rows, hot) if not above]
    grids = rate_grids([profile.as_tuple() for profile in cool], distances, rounds, config)
    assert grids.shape == (len(cool), len(distances), len(rounds))
    for grid, profile in zip(grids, cool):
        one = rate_grids([profile.as_tuple()], distances, rounds, config)[0]
        assert grid.tobytes() == one.tobytes()
        for row, distance in zip(grid.tolist(), distances):
            for rate, r in zip(row, rounds):
                assert rate == logical_error_rate(distance, r, profile, config)
    if any(hot):
        with pytest.raises(AboveThresholdError) as expected:
            logical_error_rate(distances[0], rounds[0], rows[hot.index(True)], config)
        with pytest.raises(AboveThresholdError) as got:
            rate_grids([profile.as_tuple() for profile in rows], distances, rounds, config)
        assert str(got.value) == str(expected.value)


extreme_weights = st.one_of(st.sampled_from([0.0, 5e-324, 1.0, 1e308]),
                            st.floats(min_value=0.0, max_value=1.0))
extreme_configs = st.builds(
    OracleConfig,
    amplitude=st.one_of(st.just(1.0), st.floats(min_value=5e-324, max_value=1.0)),
    threshold=st.one_of(st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 0.01]),
                        st.floats(min_value=5e-324, max_value=0.5)),
    gate_weight=extreme_weights, depolarizing_weight=extreme_weights,
    readout_weight=extreme_weights, reset_weight=extreme_weights,
    decoherence=st.one_of(st.sampled_from([0.0, 5e-324, 1e300, 1e308, 1.7976931348623157e308]),
                          st.floats(min_value=0.0, max_value=1e308)),
    floor=st.floats(min_value=5e-324, max_value=1.0),
)
extreme_profiles = profiles_of(st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e-3, 0.5]),
                                         st.floats(min_value=0.0, max_value=0.99)))


@example(config=OracleConfig(decoherence=1e308), rows=[NoiseProfile(0.0, 1e-3, 1e-3, 1e-3)],
         distances=[3], rounds=[10])
@example(config=OracleConfig(gate_weight=0, depolarizing_weight=0, readout_weight=0,
                             reset_weight=0, threshold=5e-324),
         rows=[NoiseProfile(1e-3, 1e-3, 1e-3, 1e-3)], distances=[3], rounds=[1, 10])
@given(config=extreme_configs, rows=st.lists(extreme_profiles, min_size=1, max_size=4),
       distances=distance_grids, rounds=round_grids)
@settings(max_examples=300)
def test_extreme_configs_give_finite_equal_rates(config, rows, distances, rounds):
    """Decoherence up to 1e308, zero weights and subnormal thresholds: both
    oracles give every profile below threshold the same bits, a finite rate
    in [floor, 1]. (``inf * 0.0`` in the penalty once made both NaN.)"""
    cool = [profile for profile in rows if effective_error(profile, config) < config.threshold]
    grids = rate_grids([profile.as_tuple() for profile in cool], distances, rounds, config)
    for grid, profile in zip(grids.tolist(), cool):
        for row, distance in zip(grid, distances):
            for rate, r in zip(row, rounds):
                assert rate.hex() == logical_error_rate(distance, r, profile, config).hex()
                assert math.isfinite(rate) and config.floor <= rate <= 1.0


@pytest.mark.parametrize("distances, rounds", [((3, 4), (1, 2)), ((1,), (1,)),
                                               ((3,), (0, 1)), ((3.0,), (1,)),
                                               ((3, 5), (2, True))])
def test_rate_grids_reject_bad_code_points_like_the_scalar_oracle(distances, rounds):
    table = [(1e-4, 1e-3, 1e-4, 2e-3), (0.0, 2e-3, 0.0, 0.0), (5e-2, 5e-2, 5e-2, 5e-2)]
    with pytest.raises(ValidationError) as expected:
        for distance in distances:
            for r in rounds:
                logical_error_rate(distance, r, NoiseProfile(*table[0]))
    with pytest.raises(ValidationError) as got:
        rate_grids(table, distances, rounds)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("table, shape", [
    ([[1e-4, 1e-3, 0.0, 0.0, 1e-4, 1e-3, 0.0, 1e-3]], (1, 8)),
    ([[1e-4, 1e-3, 0.0]], (1, 3)),
    ([1e-4, 1e-3, 0.0, 0.0], (4,)),
])
def test_rate_grids_reject_a_table_of_the_wrong_shape_like_dataset(table, shape):
    """A table that is not (p, 4) raises Dataset's message, rather than being
    read as other rows (a row of 8 rates as two profiles) or failing in a
    reshape."""
    message = f"profiles must have shape (p, 4), got {shape}"
    with pytest.raises(ValidationError, match=message.replace("(", r"\(").replace(")", r"\)")):
        Dataset(table, [0], [3], [3], [1e-3])
    with pytest.raises(ValidationError) as got:
        rate_grids(table, [3], [3])
    assert str(got.value) == message


@pytest.mark.parametrize("bad", [
    (float("nan"), 1e-3, 0.0, 0.0), (1e-4, float("inf"), 0.0, 0.0),
    (1e-4, float("-inf"), 0.0, 0.0), (-1.0, 1e-3, 0.0, 0.0), (1e-4, 1e-3, -0.0001, 0.0),
    (1e-4, 1e-3, 0.0, 1.0), (0.0, -0.0, 0.0, 0.0),
])
def test_rate_grids_reject_bad_rows_like_noise_profile(bad):
    """A row that NoiseProfile rejects raises its message, even after a row
    at or above threshold."""
    table = [(1e-4, 1e-3, 1e-4, 2e-3), (5e-2, 5e-2, 5e-2, 5e-2), bad, (-1.0, -1.0, 0.0, 0.0)]
    with pytest.raises(ValidationError) as expected:
        NoiseProfile(*bad)
    with pytest.raises(ValidationError) as got:
        rate_grids(table, (3, 5), (1, 2, 3))
    assert str(got.value) == str(expected.value)


# Rates below 1e-2 keep every profile below the default threshold, since
# the default channel weights sum to 1.
shape_profiles = profiles_of(st.one_of(st.sampled_from([0.0, -0.0, 1e-4]),
                                       st.floats(min_value=0.0, max_value=9.9e-3)))


@given(profile=shape_profiles,
       decoherence=st.one_of(st.sampled_from([0.0, 1.0]),
                             st.floats(min_value=0.0, max_value=20.0)),
       rounds_max=st.one_of(st.just(60), st.integers(min_value=1, max_value=30)))
@settings(max_examples=300)
def test_oracle_shape(profile, decoherence, rounds_max):
    """Each distance's rates first reach their minimum at r = d, unless that
    rate is clamped at the floor, and the minimum does not rise with d."""
    config = OracleConfig(decoherence=decoherence)
    sweep = SweepConfig(rounds_max=rounds_max)
    grid = rate_grids([profile.as_tuple()], sweep.distances, sweep.rounds(), config)[0]
    for distance, row in zip(sweep.distances, grid):
        if distance <= rounds_max and row[distance - 1] > config.floor:
            assert int(row.argmin()) == distance - 1
    minima = grid.min(axis=1)
    assert (minima[1:] <= minima[:-1]).all()


def test_generate_dataset_warns_and_skips_above_threshold_profile(caplog):
    cool = [NoiseProfile(1e-4, 1e-3, 1e-4, 2e-3), NoiseProfile(2e-4, 0.0, 0.0, 3e-3)]
    hot = NoiseProfile(0.0, 0.03, 0.0, 0.0)
    sweep = SweepConfig(rounds_max=12)
    with caplog.at_level(logging.WARNING, logger="surfplan.oracle"):
        records = generate_dataset(sweep, profiles=[cool[0], hot, cool[1]])
    assert caplog.messages == [f"profile 1 is at or above threshold, skipped: {hot}"]
    assert records == generate_dataset(sweep, profiles=cool)
    assert records.profiles.tolist() == [list(profile.as_tuple()) for profile in cool]


def _scalar_sweep(sweep, config, profile_list):
    """The sweep protocol one scalar oracle call at a time."""
    records = []
    for profile in profile_list:
        if effective_error(profile, config) >= config.threshold:
            continue
        for distance in sweep.distances:
            terminated = False
            for r in sweep.rounds():
                ler = logical_error_rate(distance, r, profile, config)
                records.append(DatasetRecord(noise=profile, params=CodeParams(distance, r),
                                             logical_error_rate=ler))
                terminated = terminated or meets_target(ler, sweep.termination_rate)
            if terminated:
                break
    return records


sweep_profiles = st.builds(
    NoiseProfile,
    depolarizing=st.floats(min_value=0.0, max_value=5e-3),
    gate=st.floats(min_value=1e-5, max_value=1e-2),
    reset=st.floats(min_value=0.0, max_value=1e-2),
    readout=st.floats(min_value=0.0, max_value=1e-2),
)


@given(profile_list=st.lists(sweep_profiles, min_size=1, max_size=3),
       config=st.one_of(st.just(OracleConfig()), oracle_configs),
       distances=distance_grids.map(sorted),
       rounds_max=st.integers(min_value=1, max_value=40),
       termination_rate=st.floats(min_value=1e-15, max_value=0.5))
@settings(max_examples=100)
def test_generate_dataset_matches_scalar_sweep(profile_list, config, distances,
                                               rounds_max, termination_rate):
    sweep = SweepConfig(distances=tuple(distances), rounds_max=rounds_max,
                        termination_rate=termination_rate)
    expected = _scalar_sweep(sweep, config, profile_list)
    assert list(generate_dataset(sweep, config, profiles=profile_list)) == expected


def test_above_threshold_profile_in_records_raises():
    sweep = SweepConfig(profiles_per_run=2, seed=8)
    records = generate_dataset(sweep)
    hot = ([[0.0, 0.03, 0.0, 0.0]], [3], [1], [0.5])
    with pytest.raises(AboveThresholdError):
        build_training_cases(Dataset.from_rows(*map(np.concatenate, zip(
            record_columns(records), hot))), sweep)
