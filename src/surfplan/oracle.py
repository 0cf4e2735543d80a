"""Synthetic logical-error-rate oracle and the dataset-generation protocol.

The oracle stands in for a stabilizer-circuit simulator. It folds the four
physical error rates into one effective rate, applies the standard exponential
suppression law below threshold, truncates the effective spacetime distance
when too few rounds are run, and adds a decoherence penalty that grows with
every round past the code distance. The resulting landscape falls steeply with
rounds up to r = d, then climbs again: the sweet spot sits at r = d.

``rate_grids`` evaluates the whole (distance, rounds) grid of every profile in
a (p, 4) table as one array, bit for bit equal to ``logical_error_rate`` at
every point; dataset generation and training-label construction call it once
per dataset, ``rate_grid`` is its one-profile case, and the property tests
check both against the scalar oracle. ``find_optimal_params`` is the scalar
ground-truth search: the lexicographically smallest (distance, rounds) pair on
the sweep grid that reaches the target rate. Table rows and code points are
checked by the rules of ``NoiseProfile`` and ``CodeParams``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .core import (
    PROFILE_FIELDS,
    CodeParams,
    Dataset,
    NoiseProfile,
    PredictionRequest,
    ValidationError,
    check_code_point,
    check_int,
    check_number,
    check_profile_table,
    invalid_profiles,
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
    Every constant must be a finite number, and is stored as a float, so the
    scalar and the array oracle compute in the same type (an int past int64
    cannot multiply an int64 array).
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
        for item in fields(self):
            value = getattr(self, item.name)
            check_number(item.name, value)
            if not math.isfinite(value):
                raise ValidationError(f"{item.name} must be finite, got {value!r}")
            object.__setattr__(self, item.name, float(value))
        if not 0.0 < self.amplitude <= 1.0:
            raise ValidationError(f"amplitude must be in (0, 1], got {self.amplitude!r}")
        if not 0.0 < self.threshold < 1.0:
            raise ValidationError(f"threshold must be in (0, 1), got {self.threshold!r}")
        if self.floor <= 0.0:
            raise ValidationError(f"floor must be > 0, got {self.floor!r}")
        for name in ("decoherence", "gate_weight", "depolarizing_weight", "readout_weight",
                     "reset_weight"):
            value = getattr(self, name)
            if value < 0.0:
                raise ValidationError(f"{name} must be >= 0, got {value!r}")


def _check_range(name: str, bounds: tuple[float, float]) -> None:
    if not isinstance(bounds, tuple) or len(bounds) != 2:
        raise ValidationError(f"{name} must be a pair (lo, hi), got {bounds!r}")
    for value in bounds:
        check_number(name, value)
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
        if not isinstance(self.distances, tuple):
            raise ValidationError(f"distances must be a tuple, got {self.distances!r}")
        if not self.distances:
            raise ValidationError("distances must be non-empty")
        for d in self.distances:
            if not isinstance(d, int) or not 3 <= d < 2 ** 63 or d % 2 == 0:
                raise ValidationError(
                    f"distances must be odd integers in [3, 2**63), got {d!r}")
        if list(self.distances) != sorted(set(self.distances)):
            raise ValidationError("distances must be strictly increasing")
        check_int("rounds_min", self.rounds_min, 1)
        check_int("rounds_max", self.rounds_max, 1)
        if self.rounds_min > self.rounds_max:
            raise ValidationError(
                f"need rounds_min <= rounds_max, got {self.rounds_min}..{self.rounds_max}")
        check_number("termination_rate", self.termination_rate)
        if not 0.0 < self.termination_rate < 1.0:
            raise ValidationError(
                f"termination_rate must be in (0, 1), got {self.termination_rate!r}")
        _check_range("depolarizing_range", self.depolarizing_range)
        _check_range("gate_range", self.gate_range)
        _check_range("readout_range", self.readout_range)
        _check_range("reset_range", self.reset_range)
        check_int("profiles_per_run", self.profiles_per_run, 1)
        check_int("seed", self.seed, 0)

    def rounds(self) -> range:
        return range(self.rounds_min, self.rounds_max + 1)


def _weighted_rates(config: OracleConfig, depolarizing, gate, reset, readout):
    """The channel-weighted sum of the four rates, on floats or arrays alike."""
    return (config.gate_weight * gate + config.depolarizing_weight * depolarizing
            + config.readout_weight * readout + config.reset_weight * reset)


def effective_error(profile: NoiseProfile, config: OracleConfig = OracleConfig()) -> float:
    """Collapse the four physical rates into one effective rate."""
    return _weighted_rates(config, *profile.as_tuple())


def _above_threshold(p_eff: float, config: OracleConfig) -> AboveThresholdError:
    return AboveThresholdError(
        f"effective error {p_eff:.3e} is at or above threshold {config.threshold:.3e}")


def check_below_threshold(profile: NoiseProfile, config: OracleConfig = OracleConfig()) -> float:
    """The effective rate; raises AboveThresholdError at or above threshold.

    Every model's prediction and the scalar oracle reject a profile through
    this check, so they all give the same message."""
    p_eff = effective_error(profile, config)
    if p_eff >= config.threshold:
        raise _above_threshold(p_eff, config)
    return p_eff


def logical_error_rate(distance: int, rounds: int, profile: NoiseProfile,
                       config: OracleConfig = OracleConfig()) -> float:
    """Synthetic logical error rate for one (distance, rounds, noise) point.

    Raises AboveThresholdError when the effective rate reaches the threshold.
    """
    check_code_point(distance, rounds)
    p_eff = check_below_threshold(profile, config)
    exponent = (min(distance, rounds) + 1) / 2
    base = config.amplitude * (p_eff / config.threshold) ** exponent
    penalty = 1.0 + config.decoherence * max(0, rounds - distance) * (
        profile.depolarizing / config.threshold)
    return min(max(base * penalty, config.floor), 1.0)


def rate_grids(profiles, distances: Sequence[int], rounds: Sequence[int],
               config: OracleConfig = OracleConfig()) -> np.ndarray:
    """``logical_error_rate`` at every (profile, distance, rounds) triple, as
    one array.

    ``profiles`` is a (p, 4) table in ``PROFILE_FIELDS`` order. Entry
    [k, i, j] is the rate of row k at (distances[i], rounds[j]) and equals the
    scalar oracle bit for bit: the effective rate, the penalty and the clamp
    repeat the scalar operation order elementwise, and the suppression base
    comes from Python ``**`` once per (row, distinct min(d, r)), because
    ``np.power`` can differ in the last ulp. Code points and rows are checked
    once per call, with the messages of ``CodeParams``, ``Dataset`` (the
    table's shape) and ``NoiseProfile``; then AboveThresholdError is raised for
    the first row at or above threshold.
    """
    # Every (d, r) pair is a valid code point iff each d and each r is.
    for distance in distances:
        check_code_point(distance, 1)
    for count in rounds:
        check_code_point(3, count)
    table = np.asarray(profiles, dtype=np.float64)
    if table.shape == (0,):  # an empty list of rows
        table = table.reshape(0, len(PROFILE_FIELDS))
    check_profile_table(table)
    bad = invalid_profiles(table)
    if bad.any():
        NoiseProfile(*table[bad.argmax()].tolist())  # raises the row's message
    depolarizing, gate, reset, readout = table.T
    p_eff = _weighted_rates(config, depolarizing, gate, reset, readout)
    above = p_eff >= config.threshold
    if above.any():
        raise _above_threshold(float(p_eff[above.argmax()]), config)
    d = np.asarray(distances, dtype=np.int64)[:, None]
    r = np.asarray(rounds, dtype=np.int64)[None, :]
    shortest_grid = np.minimum(d, r)
    shortest, index = np.unique(shortest_grid.ravel(), return_inverse=True)
    exponents = [(m + 1) / 2 for m in shortest.tolist()]
    bases = np.array([[config.amplitude * ratio ** exponent for exponent in exponents]
                      for ratio in (p_eff / config.threshold).tolist()],
                     dtype=np.float64).reshape(p_eff.size, shortest.size)
    # A huge decoherence makes the penalty inf, and the rate then clamps to
    # 1.0, as the scalar oracle's does.
    with np.errstate(over="ignore"):
        penalty = 1.0 + config.decoherence * np.maximum(r - d, 0) * (
            depolarizing / config.threshold)[:, None, None]
    rates = bases[:, index].reshape((p_eff.size,) + shortest_grid.shape) * penalty
    return np.minimum(np.maximum(rates, config.floor), 1.0)


def rate_grid(profile: NoiseProfile, distances: Sequence[int], rounds: Sequence[int],
              config: OracleConfig = OracleConfig()) -> np.ndarray:
    """``logical_error_rate`` at every (distance, rounds) pair of one profile:
    the one-row case of ``rate_grids``, with entry [i, j] at (distances[i],
    rounds[j])."""
    return rate_grids([profile.as_tuple()], distances, rounds, config)[0]


def sample_profiles(sweep: SweepConfig) -> list[NoiseProfile]:
    """Draw the sweep's ``profiles_per_run`` uniform random profiles from its
    per-channel ranges, seeded by the sweep seed."""
    rng = np.random.default_rng(sweep.seed)
    profiles = []
    for _ in range(sweep.profiles_per_run):
        profiles.append(NoiseProfile(
            depolarizing=float(rng.uniform(*sweep.depolarizing_range)),
            gate=float(rng.uniform(*sweep.gate_range)),
            reset=float(rng.uniform(*sweep.reset_range)),
            readout=float(rng.uniform(*sweep.readout_range)),
        ))
    return profiles


def generate_dataset(sweep: SweepConfig = SweepConfig(),
                     config: OracleConfig = OracleConfig(),
                     profiles: Optional[list[NoiseProfile]] = None) -> Dataset:
    """Run the sweep protocol and return the records in (profile, d, r) order.

    For each profile, distances are visited in ascending order and every round
    in range is recorded. Once any (d, r) reaches the termination rate, the
    current distance's round sweep is finished and no further distances are
    visited for that profile. Profiles at or above threshold are skipped with
    a warning. Deterministic given the sweep seed. Every kept profile's grid
    is evaluated in one ``rate_grids`` call; a profile's records are a prefix
    of its grid in row-major order, and they fill one block of the Dataset's
    columns.
    """
    if profiles is None:
        profiles = sample_profiles(sweep)
    distances, rounds = sweep.distances, sweep.rounds()
    table = []
    for index, profile in enumerate(profiles):
        if effective_error(profile, config) >= config.threshold:
            logger.warning("profile %d is at or above threshold, skipped: %s",
                           index, profile)
            continue
        table.append(profile.as_tuple())
    table = np.asarray(table, dtype=np.float64).reshape(-1, len(PROFILE_FIELDS))
    grids = rate_grids(table, distances, rounds, config)
    terminated = meets_target(grids, sweep.termination_rate).any(axis=2)
    stop = np.where(terminated.any(axis=1), terminated.argmax(axis=1) + 1, len(distances))
    kept = np.arange(len(distances)) < stop[:, None]
    profile_rows, distance_rows = np.nonzero(kept)  # the swept (profile, distance) pairs
    return Dataset(
        profiles=table,
        profile_index=np.repeat(profile_rows, len(rounds)),
        distance=np.repeat(np.asarray(distances, dtype=np.int64)[distance_rows], len(rounds)),
        rounds=np.tile(np.asarray(rounds, dtype=np.int64), len(profile_rows)),
        logical_error_rate=grids[kept].ravel(),
    )


def find_optimal_params(request: PredictionRequest,
                        sweep: SweepConfig = SweepConfig(),
                        config: OracleConfig = OracleConfig()) -> Optional[CodeParams]:
    """Exhaustive ground-truth search over the sweep grid.

    Returns the lexicographically smallest (distance, rounds) pair whose
    logical error rate is at or below the target, or None when no grid point
    qualifies. Raises AboveThresholdError for profiles the code cannot help.
    """
    target = request.target_logical_error_rate
    check_below_threshold(request.noise, config)
    for distance in sweep.distances:
        for rounds in sweep.rounds():
            if meets_target(logical_error_rate(distance, rounds, request.noise, config),
                            target):
                return CodeParams(distance=distance, rounds=rounds)
    return None
