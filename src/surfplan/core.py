"""Domain types, validation, and the rounding rules shared by every predictor.

Distances are odd integers >= 3 throughout: the training sweep only visits odd
values and every raw distance prediction is rounded up to the next odd number.
Rounds are rounded up to the next whole number, never down, so a recommendation
errs on the side of more protection rather than less. A ``PredictionResult``
takes the raw pair and derives the rounded one by these rules; a raw distance
at or above 2**53, past which a float64 skips odd integers, is rejected.

Each type checks itself when built, every number passes the one rule
``check_number`` and every integer ``check_int``; ``check_profile_table``,
``invalid_profiles`` and ``check_code_point`` apply the ``Dataset``,
``NoiseProfile`` and ``CodeParams`` rules to a rate table and to a bare
(distance, rounds). A dataset travels as a ``Dataset``: one column per field,
checked column by column, rather than one ``DatasetRecord`` object per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ValidationError(ValueError):
    """An input violates a domain invariant."""


PROFILE_FIELDS = ("depolarizing", "gate", "reset", "readout")


@dataclass(frozen=True)
class NoiseProfile:
    """Device-level physical error rates, each finite and in [0, 1), not all zero."""

    depolarizing: float
    gate: float
    reset: float
    readout: float

    def __post_init__(self):
        for name, value in zip(PROFILE_FIELDS, self.as_tuple()):
            check_number(name, value, ge=0.0, lt=1.0)
        if all(value == 0.0 for value in self.as_tuple()):
            raise ValidationError("all-zero noise profile")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.depolarizing, self.gate, self.reset, self.readout)


def check_profile_table(table: np.ndarray) -> None:
    """Raise unless ``table`` is a (p, 4) rate table, one profile per row."""
    if table.ndim != 2 or table.shape[1] != len(PROFILE_FIELDS):
        raise ValidationError(f"profiles must have shape (p, 4), got {table.shape}")


def invalid_profiles(table: np.ndarray) -> np.ndarray:
    """The mask of the rows of a (p, 4) rate table that ``NoiseProfile`` rejects."""
    return (~np.isfinite(table).all(axis=1)
            | ((table < 0.0) | (table >= 1.0)).any(axis=1)
            | (table == 0.0).all(axis=1))


def check_int(name: str, value, minimum: int, maximum: int | None = None) -> None:
    """Reject bools, non-integers, and integers below ``minimum`` or above
    ``maximum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{name} must be <= {maximum}, got {value!r}")


def check_number(name: str, value, *, gt=-math.inf, ge=-math.inf, lt=math.inf,
                 le=math.inf) -> float:
    """The rule of every config and domain number: ``value`` as a float, if it
    is a finite int or float (not a bool) inside the interval of at most one
    lower end, ``gt`` or ``ge``, and one upper end, ``lt`` or ``le``. Else
    raise, e.g. ``NAME must be finite, got VALUE``, ``NAME must be in (0, 1],
    got VALUE`` or ``NAME must be >= 0, got VALUE``."""
    if type(value) is float:
        number = value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            raise ValidationError(f"{name} is too large for a float") from None
    else:
        raise ValidationError(f"{name} must be a number, got {value!r}")
    # The default ends are infinite and open, so NaN and infinities fail too.
    if gt < number < lt and ge <= number <= le:
        return number
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    ends = [(bracket, op, bound) for bracket, op, bound in (
        ("(", ">", gt), ("[", ">=", ge), (")", "<", lt), ("]", "<=", le)) if math.isfinite(bound)]
    if len(ends) == 2:
        (left, _, low), (right, _, high) = ends
        rule = f"in {left}{low:g}, {high:g}{right}"
    else:
        (_, op, bound), = ends
        rule = f"{op} {bound:g}"
    raise ValidationError(f"{name} must be {rule}, got {value!r}")


# Raw stage outputs are clipped here before rounding, so rounding always sees
# a positive value.
RAW_FLOOR = 1e-6


def round_distance(raw: float) -> int:
    """Smallest odd integer >= max(raw, 3).

    An input that is already an odd integer >= 3 comes back unchanged. A raw
    distance at or above 2**53 is rejected: past it a float64 does not hold
    every odd integer, so stage two would read another distance than the one
    recommended.
    """
    value = check_number("raw distance", raw, gt=0.0)
    if value >= 2.0 ** 53:
        raise ValidationError(f"raw distance must be below 2**53, got {value!r}")
    rounded = math.ceil(max(value, 3.0))
    if rounded % 2 == 0:
        rounded += 1
    return rounded


def round_rounds(raw: float) -> int:
    """Ceiling of ``raw``, floored at 1."""
    value = check_number("raw rounds", raw, gt=0.0)
    return max(1, math.ceil(value))


def check_code_point(distance: int, rounds: int) -> None:
    """The rule of ``CodeParams``, without building one."""
    check_int("distance", distance, 3)
    if distance % 2 == 0:
        raise ValidationError(f"distance must be odd, got {distance}")
    check_int("rounds", rounds, 1)


@dataclass(frozen=True)
class CodeParams:
    """A (distance, rounds) pair for a rotated surface code."""

    distance: int
    rounds: int

    def __post_init__(self):
        check_code_point(self.distance, self.rounds)


@dataclass(frozen=True)
class DatasetRecord:
    """One (noise, distance, rounds) -> logical-error-rate experiment."""

    noise: NoiseProfile
    params: CodeParams
    logical_error_rate: float

    def __post_init__(self):
        if not isinstance(self.noise, NoiseProfile):
            raise ValidationError(f"noise must be a NoiseProfile, got {type(self.noise).__name__}")
        check_number("logical_error_rate", self.logical_error_rate, gt=0.0, le=1.0)


def _frozen(value, dtype) -> np.ndarray:
    array = np.array(value, dtype=dtype)
    array.flags.writeable = False
    return array


def _integer_column(name: str, value) -> np.ndarray:
    array = np.asarray(value)
    if array.size and array.dtype.kind not in "iu":
        raise ValidationError(f"{name} must be an integer column, got dtype {array.dtype}")
    # A column of Python ints at or above 2**63 comes out as uint64, which
    # the int64 copy would wrap to negative values.
    if array.dtype.kind == "u" and array.size and array.max() > np.iinfo(np.int64).max:
        raise ValidationError(f"{name} must fit in a signed 64-bit integer")
    return _frozen(array, np.int64)


class Dataset:
    """Dataset records as a frozen struct of arrays.

    ``profiles`` is a (p, 4) float64 table in ``PROFILE_FIELDS`` order with one
    row per block of consecutive records that share a profile, and
    ``profile_index`` gives each record's row in it: it starts at 0 and steps
    by 0 or 1. Neighbouring rows of the given table with equal bits are merged
    into one, so a signed zero keeps its sign and the records do not change.
    ``distance`` and ``rounds`` are int64 columns and
    ``logical_error_rate`` is a float64 column. Every array is a read-only
    copy of what was passed in, and every column is checked once, as a whole,
    against the rules of ``NoiseProfile``, ``CodeParams`` and
    ``DatasetRecord``; the first bad record is rebuilt as a ``DatasetRecord``
    so that its own message is raised.

    Iteration yields ``DatasetRecord`` views, built on demand, and two
    datasets are equal when every record's values are.
    """

    __slots__ = ("profiles", "profile_index", "distance", "rounds", "logical_error_rate")

    def __init__(self, profiles, profile_index, distance, rounds, logical_error_rate):
        table = np.asarray(profiles, dtype=np.float64)
        index = _integer_column("profile_index", profile_index)
        columns = (index, _integer_column("distance", distance),
                   _integer_column("rounds", rounds),
                   _frozen(logical_error_rate, np.float64))
        check_profile_table(table)
        if any(column.shape != index.shape for column in columns) or index.ndim != 1:
            raise ValidationError("dataset columns must be one-dimensional and of equal length")
        blocks = (index[0] == 0 and index[-1] == table.shape[0] - 1
                  and np.isin(np.diff(index), (0, 1)).all()) if index.size else not table.size
        if not blocks:
            raise ValidationError(
                "profile_index must start at 0 and step by 0 or 1 to the last profile")
        bits = table.view(np.uint64)
        starts = np.ones(table.shape[0], dtype=bool)
        starts[1:] = (bits[1:] != bits[:-1]).any(axis=1)
        # Fresh arrays of their own, so frozen in place rather than copied.
        table, index = table[starts], (np.cumsum(starts) - 1)[index]
        table.flags.writeable = index.flags.writeable = False
        for name, column in zip(self.__slots__, (table, index) + columns[1:]):
            object.__setattr__(self, name, column)
        self._validate()

    def _validate(self) -> None:
        table, index, ler = self.profiles, self.profile_index, self.logical_error_rate
        bad = ((self.distance < 3) | (self.distance % 2 == 0) | (self.rounds < 1)
               | invalid_profiles(table)[index] | ~((ler > 0.0) & (ler <= 1.0)))
        if bad.any():
            row = int(np.argmax(bad))
            # Raises the record's message; code point, then profile, then rate.
            DatasetRecord(params=CodeParams(int(self.distance[row]), int(self.rounds[row])),
                          noise=NoiseProfile(*table[index[row]].tolist()),
                          logical_error_rate=float(ler[row]))
            raise ValidationError("dataset record failed validation")

    def __setattr__(self, name, value):
        raise AttributeError(f"Dataset is frozen; cannot set {name!r}")

    @classmethod
    def from_rows(cls, noise, distance, rounds, logical_error_rate) -> "Dataset":
        """A dataset from per-record (n, 4) rates; consecutive records whose
        rates have the same bits share one profile row."""
        noise = np.reshape(noise, (-1, len(PROFILE_FIELDS)))
        return cls(noise, np.arange(noise.shape[0]), distance, rounds, logical_error_rate)

    def noise(self) -> np.ndarray:
        """Each record's rates, shape (n, 4)."""
        return self.profiles[self.profile_index]

    def block_bounds(self) -> np.ndarray:
        """Offsets of the profile blocks: block i is rows bounds[i]:bounds[i + 1]."""
        return np.searchsorted(self.profile_index, np.arange(self.profiles.shape[0] + 1))

    def __len__(self) -> int:
        return self.distance.shape[0]

    def __iter__(self):
        # Kept for the benchmark, whose record checks walk these views.
        # Views of one block share a NoiseProfile, and views at one grid
        # point share a CodeParams.
        profiles = [NoiseProfile(*row) for row in self.profiles.tolist()]
        points: dict[tuple[int, int], CodeParams] = {}
        for profile, distance, rounds, ler in zip(
                self.profile_index.tolist(), self.distance.tolist(), self.rounds.tolist(),
                self.logical_error_rate.tolist()):
            params = points.get((distance, rounds))
            if params is None:
                params = points[distance, rounds] = CodeParams(distance=distance, rounds=rounds)
            yield DatasetRecord(noise=profiles[profile], params=params, logical_error_rate=ler)

    def __eq__(self, other):
        if isinstance(other, Dataset):
            return (len(self) == len(other)
                    and np.array_equal(self.distance, other.distance)
                    and np.array_equal(self.rounds, other.rounds)
                    and np.array_equal(self.logical_error_rate, other.logical_error_rate)
                    and np.array_equal(self.noise(), other.noise()))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"Dataset({len(self)} records, {self.profiles.shape[0]} profile blocks)"


@dataclass(frozen=True)
class PredictionRequest:
    """The inverse query: a noise profile plus the logical error rate to hit."""

    noise: NoiseProfile
    target_logical_error_rate: float

    def __post_init__(self):
        if not isinstance(self.noise, NoiseProfile):
            raise ValidationError(f"noise must be a NoiseProfile, got {type(self.noise).__name__}")
        check_number("target rate", self.target_logical_error_rate, gt=0.0, lt=1.0)


@dataclass(frozen=True)
class PredictionResult:
    """A raw (distance, rounds) recommendation and its rounding by
    ``round_distance`` and ``round_rounds``, which raise for a raw value they
    cannot round."""

    raw_distance: float
    rounded_distance: int = field(init=False)
    raw_rounds: float
    rounded_rounds: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "rounded_distance", round_distance(self.raw_distance))
        object.__setattr__(self, "rounded_rounds", round_rounds(self.raw_rounds))


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
            check_number(name, value, ge=0.0)
        if abs(sum(values) - 1.0) > 1e-9:
            raise ValidationError(f"weights must sum to 1, got {sum(values)!r}")
        if not (self.w_gate > self.w_depol > self.w_readout > self.w_reset):
            raise ValidationError(
                "weights must satisfy w_gate > w_depol > w_readout > w_reset")

