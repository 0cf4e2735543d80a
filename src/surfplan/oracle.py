"""Synthetic logical-error-rate oracle and the dataset-generation protocol.

The oracle stands in for a stabilizer-circuit simulator. It folds the four
physical error rates into one effective rate, applies the standard exponential
suppression law below threshold, truncates the effective spacetime distance
when too few rounds are run, and adds a decoherence penalty that grows with
every round past the code distance. The resulting landscape falls steeply with
rounds up to r = d, then climbs again: the sweet spot sits at r = d.

``rate_grid`` evaluates a profile's whole (distance, rounds) grid as one
array, bit for bit equal to ``logical_error_rate`` at every point; dataset
generation and training-label construction use it, and the property tests
check it against the scalar oracle. ``find_optimal_params`` is the scalar
ground-truth search: the lexicographically smallest (distance, rounds) pair on
the sweep grid that reaches the target rate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    CodeParams,
    DatasetRecord,
    NoiseProfile,
    PredictionRequest,
    ValidationError,
    check_int,
    validate_profile,
)

logger = logging.getLogger(__name__)


class AboveThresholdError(ValueError):
    """The effective physical error rate is at or above the code threshold."""


# Feasibility comparisons allow this relative slack so that rates which equal
# the target in exact arithmetic are not rejected over a few ulps of pow error.
TARGET_REL_TOL = 1e-12


def meets_target(rate, target):
    """True when ``rate`` reaches ``target`` up to TARGET_REL_TOL.

    Works elementwise (with broadcasting) on numpy arrays.
    """
    return rate <= target * (1.0 + TARGET_REL_TOL)


@dataclass(frozen=True)
class OracleConfig:
    """Constants of the synthetic logical-error-rate model.

    ``amplitude`` sets the error rate at threshold, ``threshold`` is the
    physical rate beyond which the code stops helping, the channel weights
    combine the four rates into one effective rate, ``decoherence`` scales the
    per-extra-round penalty, and ``floor`` is the smallest reportable rate.
    """

    amplitude: float = 0.1
    threshold: float = 0.01
    gate_weight: float = 0.5
    depolarizing_weight: float = 0.3
    readout_weight: float = 0.15
    reset_weight: float = 0.05
    decoherence: float = 1.0
    floor: float = 1e-15

    def __post_init__(self):
        if not 0.0 < self.amplitude <= 1.0:
            raise ValidationError(f"amplitude must be in (0, 1], got {self.amplitude!r}")
        if not 0.0 < self.threshold < 1.0:
            raise ValidationError(f"threshold must be in (0, 1), got {self.threshold!r}")
        if self.floor <= 0.0:
            raise ValidationError(f"floor must be > 0, got {self.floor!r}")
        if self.decoherence < 0.0:
            raise ValidationError(f"decoherence must be >= 0, got {self.decoherence!r}")
        for name in ("gate_weight", "depolarizing_weight", "readout_weight", "reset_weight"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")


def _check_range(name: str, bounds: tuple[float, float]) -> None:
    lo, hi = bounds
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"{name} bounds must be finite, got {bounds!r}")
    if not 0.0 <= lo <= hi < 1.0:
        raise ValidationError(f"{name} must satisfy 0 <= lo <= hi < 1, got {bounds!r}")


@dataclass(frozen=True)
class SweepConfig:
    """Grid and sampling plan for dataset generation.

    Distances 3..19 (odd) and rounds 1..60 mirror the reference sweep; a
    profile's sweep stops early once some (d, r) reaches ``termination_rate``.
    Per-channel sampling ranges are uniform and sized so the default target
    menu stays reachable within the distance grid.
    """

    distances: tuple[int, ...] = (3, 5, 7, 9, 11, 13, 15, 17, 19)
    rounds_min: int = 1
    rounds_max: int = 60
    termination_rate: float = 1e-9
    depolarizing_range: tuple[float, float] = (1e-4, 5e-4)
    gate_range: tuple[float, float] = (6e-4, 2e-3)
    readout_range: tuple[float, float] = (1e-3, 5e-3)
    reset_range: tuple[float, float] = (1e-4, 2e-3)
    profiles_per_run: int = 20
    seed: int = 42

    def __post_init__(self):
        if not self.distances:
            raise ValidationError("distances must be non-empty")
        for d in self.distances:
            if not isinstance(d, int) or d < 3 or d % 2 == 0:
                raise ValidationError(f"distances must be odd integers >= 3, got {d!r}")
        if list(self.distances) != sorted(set(self.distances)):
            raise ValidationError("distances must be strictly increasing")
        check_int("rounds_min", self.rounds_min, 1)
        check_int("rounds_max", self.rounds_max, 1)
        if self.rounds_min > self.rounds_max:
            raise ValidationError(
                f"need rounds_min <= rounds_max, got {self.rounds_min}..{self.rounds_max}")
        if not 0.0 < self.termination_rate < 1.0:
            raise ValidationError(
                f"termination_rate must be in (0, 1), got {self.termination_rate!r}")
        _check_range("depolarizing_range", self.depolarizing_range)
        _check_range("gate_range", self.gate_range)
        _check_range("readout_range", self.readout_range)
        _check_range("reset_range", self.reset_range)
        check_int("profiles_per_run", self.profiles_per_run, 1)

    def rounds(self) -> range:
        return range(self.rounds_min, self.rounds_max + 1)


def effective_error(profile: NoiseProfile, config: OracleConfig = OracleConfig()) -> float:
    """Collapse the four physical rates into one effective rate."""
    return (config.gate_weight * profile.gate
            + config.depolarizing_weight * profile.depolarizing
            + config.readout_weight * profile.readout
            + config.reset_weight * profile.reset)


def _check_code_point(distance: int, rounds: int) -> None:
    if not isinstance(distance, int) or isinstance(distance, bool):
        raise ValidationError(f"distance must be an integer, got {distance!r}")
    if not isinstance(rounds, int) or isinstance(rounds, bool):
        raise ValidationError(f"rounds must be an integer, got {rounds!r}")
    if distance < 3 or distance % 2 == 0:
        raise ValidationError(f"distance must be an odd integer >= 3, got {distance}")
    if rounds < 1:
        raise ValidationError(f"rounds must be >= 1, got {rounds}")


def _below_threshold_error(profile: NoiseProfile, config: OracleConfig) -> float:
    """The effective rate; raises AboveThresholdError at or above threshold."""
    p_eff = effective_error(profile, config)
    if p_eff >= config.threshold:
        raise AboveThresholdError(
            f"effective error {p_eff:.3e} is at or above threshold {config.threshold:.3e}")
    return p_eff


def logical_error_rate(distance: int, rounds: int, profile: NoiseProfile,
                       config: OracleConfig = OracleConfig()) -> float:
    """Synthetic logical error rate for one (distance, rounds, noise) point.

    Raises AboveThresholdError when the effective rate reaches the threshold.
    """
    _check_code_point(distance, rounds)
    p_eff = _below_threshold_error(profile, config)
    exponent = (min(distance, rounds) + 1) / 2
    base = config.amplitude * (p_eff / config.threshold) ** exponent
    penalty = 1.0 + config.decoherence * max(0, rounds - distance) * (
        profile.depolarizing / config.threshold)
    return min(max(base * penalty, config.floor), 1.0)


def rate_grid(profile: NoiseProfile, distances: Sequence[int], rounds: Sequence[int],
              config: OracleConfig = OracleConfig()) -> np.ndarray:
    """``logical_error_rate`` at every (distance, rounds) pair, as one array.

    Entry [i, j] is the rate at (distances[i], rounds[j]) and equals the
    scalar oracle bit for bit: the suppression base comes from Python ``**``
    once per distinct min(d, r), because ``np.power`` can differ in the last
    ulp, and the penalty and clamp repeat the scalar operation order
    elementwise. Raises AboveThresholdError like the scalar oracle.
    """
    # Every (d, r) pair is a valid code point iff each d and each r is.
    for distance in distances:
        _check_code_point(distance, 1)
    for count in rounds:
        _check_code_point(3, count)
    p_eff = _below_threshold_error(profile, config)
    d = np.asarray(distances, dtype=np.int64)[:, None]
    r = np.asarray(rounds, dtype=np.int64)[None, :]
    shortest_grid = np.minimum(d, r)
    shortest, index = np.unique(shortest_grid.ravel(), return_inverse=True)
    ratio = p_eff / config.threshold
    bases = np.asarray([config.amplitude * ratio ** ((int(m) + 1) / 2) for m in shortest],
                       dtype=np.float64)
    penalty = 1.0 + config.decoherence * np.maximum(r - d, 0) * (
        profile.depolarizing / config.threshold)
    rates = bases[index].reshape(shortest_grid.shape) * penalty
    return np.minimum(np.maximum(rates, config.floor), 1.0)


def sample_profiles(sweep: SweepConfig, count: Optional[int] = None,
                    seed: Optional[int] = None) -> list[NoiseProfile]:
    """Draw uniform random profiles from the sweep's per-channel ranges."""
    rng = np.random.default_rng(sweep.seed if seed is None else seed)
    n = sweep.profiles_per_run if count is None else count
    profiles = []
    for _ in range(n):
        profiles.append(NoiseProfile(
            depolarizing=float(rng.uniform(*sweep.depolarizing_range)),
            gate=float(rng.uniform(*sweep.gate_range)),
            reset=float(rng.uniform(*sweep.reset_range)),
            readout=float(rng.uniform(*sweep.readout_range)),
        ))
    return profiles


def generate_dataset(sweep: SweepConfig = SweepConfig(),
                     config: OracleConfig = OracleConfig(),
                     profiles: Optional[list[NoiseProfile]] = None) -> list[DatasetRecord]:
    """Run the sweep protocol and return the records in (profile, d, r) order.

    For each profile, distances are visited in ascending order and every round
    in range is recorded. Once any (d, r) reaches the termination rate, the
    current distance's round sweep is finished and no further distances are
    visited for that profile. Profiles at or above threshold are skipped with
    a warning. Deterministic given the sweep seed. Each profile's grid is
    evaluated as one array by ``rate_grid``, and the records at one grid
    point share a CodeParams.
    """
    if profiles is None:
        profiles = sample_profiles(sweep)
    distances, rounds = sweep.distances, sweep.rounds()
    params = [[CodeParams(distance=d, rounds=r) for r in rounds] for d in distances]
    records: list[DatasetRecord] = []
    for index, profile in enumerate(profiles):
        validate_profile(profile)
        if effective_error(profile, config) >= config.threshold:
            logger.warning("profile %d is at or above threshold, skipped: %s",
                           index, profile)
            continue
        grid = rate_grid(profile, distances, rounds, config)
        terminated = meets_target(grid, sweep.termination_rate).any(axis=1)
        stop = int(terminated.argmax()) + 1 if terminated.any() else len(distances)
        for row_params, row_rates in zip(params[:stop], grid[:stop].tolist()):
            records.extend(DatasetRecord(noise=profile, params=point, logical_error_rate=ler)
                           for point, ler in zip(row_params, row_rates))
    return records


def find_optimal_params(request: PredictionRequest,
                        sweep: SweepConfig = SweepConfig(),
                        config: OracleConfig = OracleConfig()) -> Optional[CodeParams]:
    """Exhaustive ground-truth search over the sweep grid.

    Returns the lexicographically smallest (distance, rounds) pair whose
    logical error rate is at or below the target, or None when no grid point
    qualifies. Raises AboveThresholdError for profiles the code cannot help.
    """
    target = request.target_logical_error_rate
    if effective_error(request.noise, config) >= config.threshold:
        raise AboveThresholdError(
            "profile is at or above threshold; no parameters can reach the target")
    for distance in sweep.distances:
        for rounds in sweep.rounds():
            if meets_target(logical_error_rate(distance, rounds, request.noise, config),
                            target):
                return CodeParams(distance=distance, rounds=rounds)
    return None
