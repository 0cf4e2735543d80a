import logging

import numpy as np
import pytest

from surfplan import (
    AboveThresholdError,
    NoiseProfile,
    OracleConfig,
    PredictionRequest,
    SweepConfig,
    ValidationError,
    effective_error,
    find_optimal_params,
    generate_dataset,
    logical_error_rate,
    sample_profiles,
)
from surfplan.oracle import meets_target

GATE_ONLY = NoiseProfile(0, 2e-3, 0, 0)
WITH_DEPOL = NoiseProfile(1e-3, 2e-3, 0, 0)


class TestEffectiveError:
    def test_single_term(self):
        assert effective_error(GATE_ONLY) == pytest.approx(1e-3, rel=1e-12)

    def test_two_terms(self):
        assert effective_error(WITH_DEPOL) == pytest.approx(1.3e-3, rel=1e-12)

    def test_zero_profile(self):
        # An all-zero profile cannot be built, so it never reaches the oracle.
        with pytest.raises(ValidationError, match="all-zero"):
            NoiseProfile(0, 0, 0, 0)


class TestLogicalErrorRate:
    def test_matched_rounds_distance_three(self):
        assert logical_error_rate(3, 3, GATE_ONLY) == pytest.approx(1e-3, rel=1e-9)

    def test_matched_rounds_distance_five(self):
        assert logical_error_rate(5, 5, GATE_ONLY) == pytest.approx(1e-4, rel=1e-9)

    def test_decoherence_penalty(self):
        # base 0.1*(0.13)^2 = 1.69e-3, penalty 1 + 1*10*0.1 = 2
        assert logical_error_rate(3, 13, WITH_DEPOL) == pytest.approx(3.38e-3, rel=1e-9)

    def test_above_threshold_raises(self):
        hot = NoiseProfile(0, 0.03, 0, 0)  # p_eff = 0.015 >= 0.01
        with pytest.raises(AboveThresholdError):
            logical_error_rate(3, 3, hot)

    def test_rejects_bad_code_points(self):
        with pytest.raises(ValidationError):
            logical_error_rate(4, 3, GATE_ONLY)
        with pytest.raises(ValidationError):
            logical_error_rate(3, 0, GATE_ONLY)
        with pytest.raises(ValidationError):
            logical_error_rate(1, 1, GATE_ONLY)

    def test_clamps_to_floor_and_one(self):
        config = OracleConfig()
        tiny = NoiseProfile(0, 4e-5, 0, 0)  # ratio 2e-3; d=19 underflows the floor
        assert logical_error_rate(19, 19, tiny, config) == config.floor
        for d in (3, 9, 19):
            for r in (1, d, 60):
                value = logical_error_rate(d, r, GATE_ONLY, config)
                assert config.floor <= value <= 1.0

    def test_round_shape_and_sweet_spot(self):
        # Strictly decreasing up to r = d, strictly increasing past it when
        # depolarizing > 0, so the argmin sits exactly at r = d.
        profile = NoiseProfile(2e-4, 2e-3, 1e-4, 5e-3)
        for d in (3, 7, 13):
            curve = [logical_error_rate(d, r, profile) for r in range(1, 61)]
            for r in range(1, d):
                assert curve[r] < curve[r - 1]
            for r in range(d, 60):
                assert curve[r] > curve[r - 1]
            assert int(np.argmin(curve)) + 1 == d

    def test_distance_monotonicity_at_fixed_rounds(self):
        profile = NoiseProfile(2e-4, 2e-3, 1e-4, 5e-3)
        values = [logical_error_rate(d, 60, profile) for d in range(3, 21, 2)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_argmin_rounds_nondecreasing_in_distance(self):
        profile = NoiseProfile(3e-4, 1.5e-3, 5e-4, 4e-3)
        argmins = []
        for d in range(3, 21, 2):
            curve = [logical_error_rate(d, r, profile) for r in range(1, 61)]
            argmins.append(int(np.argmin(curve)) + 1)
        assert argmins == sorted(argmins)


class TestGenerateDataset:
    def test_tiny_sweep_counts(self):
        sweep = SweepConfig(distances=(3,), rounds_min=1, rounds_max=2,
                            profiles_per_run=1, seed=5)
        records = generate_dataset(sweep)
        assert len(records) == 2
        assert [r.params.rounds for r in records] == [1, 2]

    def test_termination_stops_further_distances(self):
        # ratio 0.05: first reaches 1e-9 during d = 13, so distances stop there
        # but d = 13 still records every round.
        profile = NoiseProfile(0, 1e-3, 0, 0)
        sweep = SweepConfig(profiles_per_run=1)
        records = generate_dataset(sweep, profiles=[profile])
        distances = sorted({r.params.distance for r in records})
        assert distances == [3, 5, 7, 9, 11, 13]
        per_distance = {d: sum(1 for r in records if r.params.distance == d)
                        for d in distances}
        assert all(count == 60 for count in per_distance.values())
        d13 = [r.logical_error_rate for r in records if r.params.distance == 13]
        assert min(d13) <= sweep.termination_rate * (1 + 1e-12)

    def test_above_threshold_profile_skipped_with_warning(self, caplog):
        hot = NoiseProfile(0, 0.03, 0, 0)
        sweep = SweepConfig(profiles_per_run=1)
        with caplog.at_level(logging.WARNING):
            records = generate_dataset(sweep, profiles=[hot])
        assert len(records) == 0
        assert any("threshold" in message for message in caplog.messages)

    def test_reproducible_bit_for_bit(self):
        sweep = SweepConfig(profiles_per_run=3, seed=123)
        first = generate_dataset(sweep)
        second = generate_dataset(sweep)
        assert first == second

    def test_default_scale_matches_reference_order(self):
        records = generate_dataset()
        assert 4000 <= len(records) <= 20000

    def test_record_order_is_profile_distance_rounds(self):
        sweep = SweepConfig(profiles_per_run=2, seed=9)
        records = generate_dataset(sweep)
        profiles = [r.noise.as_tuple() for r in records]
        # profile blocks are contiguous
        seen = []
        for p in profiles:
            if not seen or seen[-1] != p:
                seen.append(p)
        assert len(set(seen)) == len(seen)

    def test_sample_profiles_deterministic(self):
        sweep = SweepConfig(seed=77)
        assert sample_profiles(sweep) == sample_profiles(sweep)


class TestFindOptimalParams:
    def test_reaches_exact_boundary(self):
        request = PredictionRequest(noise=GATE_ONLY, target_logical_error_rate=1e-4)
        optimal = find_optimal_params(request)
        assert (optimal.distance, optimal.rounds) == (5, 5)

    def test_loose_target_returns_minimum_pair(self):
        request = PredictionRequest(noise=GATE_ONLY, target_logical_error_rate=0.5)
        optimal = find_optimal_params(request)
        assert (optimal.distance, optimal.rounds) == (3, 1)

    def test_unreachable_target_is_infeasible(self):
        request = PredictionRequest(noise=GATE_ONLY, target_logical_error_rate=1e-12)
        assert find_optimal_params(request) is None

    def test_above_threshold_raises(self):
        hot = NoiseProfile(0, 0.03, 0, 0)
        request = PredictionRequest(noise=hot, target_logical_error_rate=1e-4)
        with pytest.raises(AboveThresholdError):
            find_optimal_params(request)

    def test_self_consistency_and_lexicographic_minimality(self):
        sweep = SweepConfig()
        config = OracleConfig()
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 30:
            profile = NoiseProfile(
                depolarizing=float(rng.uniform(*sweep.depolarizing_range)),
                gate=float(rng.uniform(*sweep.gate_range)),
                reset=float(rng.uniform(*sweep.reset_range)),
                readout=float(rng.uniform(*sweep.readout_range)))
            target = float(10 ** rng.uniform(-9, -2))
            request = PredictionRequest(noise=profile, target_logical_error_rate=target)
            optimal = find_optimal_params(request, sweep, config)
            if optimal is None:
                continue
            checked += 1
            assert logical_error_rate(optimal.distance, optimal.rounds,
                                      profile, config) <= target
            for d in sweep.distances:
                for r in sweep.rounds():
                    if (d, r) >= (optimal.distance, optimal.rounds):
                        break
                    assert not meets_target(
                        logical_error_rate(d, r, profile, config), target)
