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
per dataset, and the property tests check it against the scalar oracle.
``find_optimal_params`` is the scalar ground-truth search: the
lexicographically smallest (distance, rounds) pair on the sweep grid that
reaches the target rate. Table rows and code points are checked by the rules
of ``NoiseProfile`` and ``CodeParams``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields
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
    Every constant must be a finite number, inside the interval its field's
    metadata gives or else >= 0, and is stored as a float, so the scalar and
    the array oracle compute in the same type (an int past int64 cannot
    multiply an int64 array).
    """

    amplitude: float = field(default=0.1, metadata={"gt": 0.0, "le": 1.0})
    threshold: float = field(default=0.01, metadata={"gt": 0.0, "lt": 1.0})
    gate_weight: float = 0.5
    depolarizing_weight: float = 0.3
    readout_weight: float = 0.15
    reset_weight: float = 0.05
    decoherence: float = 1.0
    floor: float = field(default=1e-15, metadata={"gt": 0.0})

    def __post_init__(self):
        for item in fields(self):
            interval = item.metadata or {"ge": 0.0}
            object.__setattr__(self, item.name,
                               check_number(item.name, getattr(self, item.name), **interval))


# The most (distance, rounds) points a sweep may visit per profile, and the
# most grid cells ``generate_dataset`` may evaluate (``profiles_per_run``
# times the points): about 180 and 90 times the default sweep's 540 points
# and 200-profile sweep's 108,000 cells, so that a config cannot ask for
# unbounded work.
MAX_SWEEP_POINTS = 100_000
MAX_SWEEP_CELLS = 10_000_000


def _check_range(name: str, bounds: tuple[float, float]) -> None:
    if not isinstance(bounds, tuple) or len(bounds) != 2:
        raise ValidationError(f"{name} must be a pair (lo, hi), got {bounds!r}")
    lo, hi = (check_number(name, value, ge=0.0, lt=1.0) for value in bounds)
    if lo > hi:
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
        check_number("termination_rate", self.termination_rate, gt=0.0, lt=1.0)
        _check_range("depolarizing_range", self.depolarizing_range)
        _check_range("gate_range", self.gate_range)
        _check_range("readout_range", self.readout_range)
        _check_range("reset_range", self.reset_range)
        check_int("profiles_per_run", self.profiles_per_run, 1)
        check_int("seed", self.seed, 0)
        # Counted, not built: a range of 10**19 rounds has no len().
        points = len(self.distances) * (self.rounds_max - self.rounds_min + 1)
        if points > MAX_SWEEP_POINTS:
            raise ValidationError(
                f"rounds_max - rounds_min + 1 rounds at {len(self.distances)} distances is "
                f"{points} (distance, rounds) points per profile; at most {MAX_SWEEP_POINTS} "
                "are allowed")
        if points * self.profiles_per_run > MAX_SWEEP_CELLS:
            raise ValidationError(
                f"profiles_per_run {self.profiles_per_run} at {points} points per profile is "
                f"{points * self.profiles_per_run} grid cells; at most {MAX_SWEEP_CELLS} are "
                "allowed")

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
    growth = config.decoherence * max(0, rounds - distance)
    excess = profile.depolarizing / config.threshold
    # A product with a zero factor is zero, even when the other is inf.
    penalty = 1.0 + (growth * excess if growth and excess else 0.0)
    return min(max(base * penalty if base else 0.0, config.floor), 1.0)


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
    # 1.0. As in the scalar oracle, a product with a zero factor is zero, even
    # when the other factor is inf. With finite, non-negative factors that
    # 0 * inf is the only way to a NaN, and np.fmax, which passes over a NaN,
    # makes it the zero (penalty term) or the floor (rate).
    # The grid-sized steps work in place: a fresh array of this size costs
    # more in page faults than the arithmetic.
    with np.errstate(over="ignore", invalid="ignore"):
        penalty = np.fmax(config.decoherence * np.maximum(r - d, 0) * (
            depolarizing / config.threshold)[:, None, None], 0.0)
        penalty += 1.0
        rates = bases[:, index].reshape((p_eff.size,) + shortest_grid.shape)
        rates *= penalty
    return np.minimum(np.fmax(rates, config.floor, out=rates), 1.0, out=rates)


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
