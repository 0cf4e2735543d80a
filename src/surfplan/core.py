"""Domain types, validation, and the rounding rules shared by every predictor.

Distances are odd integers >= 3 throughout: the training sweep only visits odd
values and every raw distance prediction is rounded up to the next odd number.
Rounds are rounded up to the next whole number, never down, so a recommendation
errs on the side of more protection rather than less.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ValidationError(ValueError):
    """An input violates a domain invariant."""


PROFILE_FIELDS = ("depolarizing", "gate", "reset", "readout")


@dataclass(frozen=True)
class NoiseProfile:
    """Device-level physical error rates, one per error channel."""

    depolarizing: float
    gate: float
    reset: float
    readout: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.depolarizing, self.gate, self.reset, self.readout)


def validate_profile(profile: NoiseProfile) -> NoiseProfile:
    """Return ``profile`` unchanged if every rate is finite, in [0, 1), and at
    least one rate is strictly positive; raise ValidationError otherwise."""
    for name in PROFILE_FIELDS:
        value = getattr(profile, name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValidationError(f"{name} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")
        if not 0.0 <= value < 1.0:
            raise ValidationError(f"{name} out of range [0, 1): {value!r}")
    if all(getattr(profile, name) == 0.0 for name in PROFILE_FIELDS):
        raise ValidationError("all-zero noise profile")
    return profile


def _check_positive_finite(value: float, name: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value) or value <= 0.0:
        raise ValidationError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def check_int(name: str, value, minimum: int) -> None:
    """Reject bools, non-integers and integers below ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value!r}")


# Raw stage outputs are clipped here before rounding, so rounding always sees
# a positive value.
RAW_FLOOR = 1e-6


def round_distance(raw: float) -> int:
    """Smallest odd integer >= max(raw, 3).

    An input that is already an odd integer >= 3 comes back unchanged.
    """
    value = _check_positive_finite(raw, "raw distance")
    rounded = math.ceil(max(value, 3.0))
    if rounded % 2 == 0:
        rounded += 1
    return rounded


def round_rounds(raw: float) -> int:
    """Ceiling of ``raw``, floored at 1."""
    value = _check_positive_finite(raw, "raw rounds")
    return max(1, math.ceil(value))


@dataclass(frozen=True)
class CodeParams:
    """A (distance, rounds) pair for a rotated surface code."""

    distance: int
    rounds: int

    def __post_init__(self):
        if not isinstance(self.distance, int) or isinstance(self.distance, bool):
            raise ValidationError(f"distance must be an integer, got {self.distance!r}")
        if not isinstance(self.rounds, int) or isinstance(self.rounds, bool):
            raise ValidationError(f"rounds must be an integer, got {self.rounds!r}")
        if self.distance < 3:
            raise ValidationError(f"distance must be >= 3, got {self.distance}")
        if self.distance % 2 == 0:
            raise ValidationError(f"distance must be odd, got {self.distance}")
        if self.rounds < 1:
            raise ValidationError(f"rounds must be >= 1, got {self.rounds}")


@dataclass(frozen=True)
class DatasetRecord:
    """One (noise, distance, rounds) -> logical-error-rate experiment."""

    noise: NoiseProfile
    params: CodeParams
    logical_error_rate: float

    def __post_init__(self):
        validate_profile(self.noise)
        ler = self.logical_error_rate
        if not isinstance(ler, (int, float)) or isinstance(ler, bool):
            raise ValidationError(f"logical_error_rate must be a number, got {ler!r}")
        if not math.isfinite(ler) or not 0.0 < ler <= 1.0:
            raise ValidationError(f"logical_error_rate out of range (0, 1]: {ler!r}")


@dataclass(frozen=True)
class PredictionRequest:
    """The inverse query: a noise profile plus the logical error rate to hit."""

    noise: NoiseProfile
    target_logical_error_rate: float

    def __post_init__(self):
        validate_profile(self.noise)
        target = self.target_logical_error_rate
        if not isinstance(target, (int, float)) or isinstance(target, bool):
            raise ValidationError(f"target rate must be a number, got {target!r}")
        if not math.isfinite(target) or not 0.0 < target < 1.0:
            raise ValidationError(f"target rate out of range (0, 1): {target!r}")


@dataclass(frozen=True)
class PredictionResult:
    """Raw and rounded (distance, rounds) recommendation."""

    raw_distance: float
    rounded_distance: int
    raw_rounds: float
    rounded_rounds: int

    def __post_init__(self):
        _check_positive_finite(self.raw_distance, "raw_distance")
        _check_positive_finite(self.raw_rounds, "raw_rounds")
        if self.rounded_distance < 3 or self.rounded_distance % 2 == 0:
            raise ValidationError(
                f"rounded_distance must be an odd integer >= 3, got {self.rounded_distance!r}")
        if self.rounded_distance < self.raw_distance:
            raise ValidationError("rounded_distance must not undercut raw_distance")
        if self.rounded_rounds != max(1, math.ceil(self.raw_rounds)):
            raise ValidationError("rounded_rounds must be the ceiling of raw_rounds, floored at 1")


@dataclass(frozen=True)
class HeuristicWeights:
    """Per-channel weights for collapsing a profile into one scalar feature.

    Gate errors weigh heaviest, then depolarizing, readout, and reset; the
    weights must be non-negative and sum to 1.
    """

    w_gate: float = 0.4
    w_depol: float = 0.3
    w_readout: float = 0.2
    w_reset: float = 0.1

    def __post_init__(self):
        values = (self.w_gate, self.w_depol, self.w_readout, self.w_reset)
        for name, value in zip(("w_gate", "w_depol", "w_readout", "w_reset"), values):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValidationError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value) or value < 0.0:
                raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")
        if abs(sum(values) - 1.0) > 1e-9:
            raise ValidationError(f"weights must sum to 1, got {sum(values)!r}")
        if not (self.w_gate > self.w_depol > self.w_readout > self.w_reset):
            raise ValidationError(
                "weights must satisfy w_gate > w_depol > w_readout > w_reset")


def scalarize(profile: NoiseProfile, weights: HeuristicWeights) -> float:
    """Weighted sum of the four error rates: a single aggregated error feature."""
    validate_profile(profile)
    return (weights.w_gate * profile.gate
            + weights.w_depol * profile.depolarizing
            + weights.w_readout * profile.readout
            + weights.w_reset * profile.reset)
