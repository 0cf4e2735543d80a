"""Property tests: the array oracle against the scalar oracle it replaces.

``rate_grid`` must equal ``logical_error_rate`` exactly at every grid point,
and the dataset generation built on it must give the records the scalar sweep
protocol gives.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfplan import (
    AboveThresholdError,
    CodeParams,
    DatasetRecord,
    NoiseProfile,
    OracleConfig,
    SweepConfig,
    ValidationError,
    build_training_cases,
    effective_error,
    generate_dataset,
    logical_error_rate,
    rate_grid,
)
from surfplan.oracle import meets_target

rates = st.floats(min_value=0.0, max_value=0.02, allow_subnormal=False)
profiles = st.builds(NoiseProfile, depolarizing=rates, gate=rates, reset=rates, readout=rates)
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
            rate_grid(profile, distances, rounds, config)
        with pytest.raises(AboveThresholdError):
            logical_error_rate(distances[0], rounds[0], profile, config)
        return
    grid = rate_grid(profile, distances, rounds, config)
    assert grid.shape == (len(distances), len(rounds))
    for row, distance in zip(grid.tolist(), distances):
        for rate, r in zip(row, rounds):
            assert rate == logical_error_rate(distance, r, profile, config)


@pytest.mark.parametrize("distances, rounds", [((3, 4), (1, 2)), ((1,), (1,)),
                                               ((3,), (0, 1)), ((3.0,), (1,))])
def test_rate_grid_rejects_bad_code_points(distances, rounds):
    profile = NoiseProfile(1e-4, 1e-3, 1e-4, 2e-3)
    with pytest.raises(ValidationError):
        rate_grid(profile, distances, rounds)


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
    assert generate_dataset(sweep, config, profiles=profile_list) == expected


def test_above_threshold_profile_in_records_raises():
    sweep = SweepConfig(profiles_per_run=2, seed=8)
    records = generate_dataset(sweep)
    hot = DatasetRecord(noise=NoiseProfile(0, 0.03, 0, 0), params=CodeParams(3, 1),
                        logical_error_rate=0.5)
    with pytest.raises(AboveThresholdError):
        build_training_cases(records + [hot], sweep)
