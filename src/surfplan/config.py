"""Tool configuration: one JSON file, one master seed.

Every section is optional and falls back to the documented defaults. Unknown
keys are rejected at every level. All randomness flows from the single master
seed: a ``ToolConfig`` derives its per-purpose sub-seeds (sweep sampling,
splitting, the rounds-stage forest, cross-validation) from it when it is
built, however it is built, so ``ToolConfig()`` is the default config and a
config plus a seed pins the whole generate/train/evaluate flow.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .core import HeuristicWeights, ValidationError, check_int, check_number
from .evaluate import SplitConfig
from .ml.ensemble import BoostConfig, ForestConfig
from .ml.pipeline import DEFAULT_TARGET_MENU, check_menu
from .oracle import OracleConfig, SweepConfig

SEED_SWEEP_OFFSET = 1
SEED_SPLIT_OFFSET = 2
SEED_FOREST_OFFSET = 3
SEED_CV_OFFSET = 4

DEFAULT_SEED = 42


class ConfigError(ValidationError):
    """The config file is missing, unparseable, or violates the schema."""


@dataclass(frozen=True)
class ToolConfig:
    seed: int = DEFAULT_SEED
    oracle: OracleConfig = field(default_factory=OracleConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    heuristic_weights: HeuristicWeights = field(default_factory=HeuristicWeights)
    stage1: BoostConfig = field(default_factory=BoostConfig)
    stage2: ForestConfig = field(default_factory=ForestConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    targets: tuple[float, ...] = DEFAULT_TARGET_MENU
    out_dir: str = "runs"

    def __post_init__(self):
        check_int("seed", self.seed, 0)
        for name, offset in (("sweep", SEED_SWEEP_OFFSET), ("split", SEED_SPLIT_OFFSET),
                             ("stage2", SEED_FOREST_OFFSET)):
            object.__setattr__(self, name,
                               replace(getattr(self, name), seed=self.seed + offset))
        if not isinstance(self.targets, tuple) or not self.targets:
            raise ValidationError("targets must be a non-empty list of rates")
        for value in self.targets:
            check_number("target", value, gt=0.0, lt=1.0)
        check_menu(self.targets)
        if not isinstance(self.out_dir, str):
            raise ValidationError(f"out_dir must be a string, got {self.out_dir!r}")
        try:
            nameable = b"\0" not in os.fsencode(self.out_dir)
        except UnicodeEncodeError:
            nameable = False
        if not nameable:
            raise ValidationError(
                f"out_dir must be a name the file system can take, got {self.out_dir!r}")

    def with_seed(self, seed: int) -> "ToolConfig":
        """This config under a new master seed, every sub-seed derived from it;
        the same as ``replace(self, seed=seed)``."""
        return replace(self, seed=seed)

    @property
    def cv_seed(self) -> int:
        return self.seed + SEED_CV_OFFSET


def _reject_unknown(section: str, data: dict, allowed: tuple[str, ...]) -> None:
    unknown = [key for key in data if key not in allowed]
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} in '{section}' section; allowed: {list(allowed)}")


def _section(data: dict, name: str) -> dict:
    section = data[name]
    if not isinstance(section, dict):
        raise ConfigError(f"'{name}' section must be a JSON object, got {section!r}")
    return dict(section)


def _as_value(value):
    """A JSON value as a config value: lists become tuples."""
    return tuple(value) if isinstance(value, list) else value


def _keys(config) -> tuple[str, ...]:
    """A config dataclass's keys in its section: its fields, less ``seed``
    (derived from the master seed) and ``tree`` (whose keys sit flat in the
    section beside its owner's)."""
    return tuple(item.name for item in fields(config) if item.name not in ("seed", "tree"))


def _section_config(name: str, current, section: dict):
    """``current`` with the values of its config section."""
    tree = getattr(current, "tree", None)
    tree_keys = _keys(tree) if tree is not None else ()
    _reject_unknown(name, section, _keys(current) + tree_keys)
    values = {key: _as_value(value) for key, value in section.items()}
    try:
        if tree is not None:
            values["tree"] = replace(
                tree, **{key: values.pop(key) for key in tree_keys if key in values})
        return replace(current, **values)
    except ValidationError as exc:
        raise ConfigError(f"'{name}' section: {exc}") from exc


def _build_config(data: dict) -> ToolConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    config = ToolConfig()
    # Every field is a top-level key, except out_dir, which sits in "paths".
    _reject_unknown("top-level", data,
                    tuple(item.name for item in fields(config) if item.name != "out_dir")
                    + ("paths",))
    values = {}
    for name in data:
        if name == "paths":
            section = _section(data, "paths")
            _reject_unknown("paths", section, ("out_dir",))
            if "out_dir" in section:
                values["out_dir"] = section["out_dir"]
        elif is_dataclass(getattr(config, name)):
            values[name] = _section_config(name, getattr(config, name), _section(data, name))
        else:
            values[name] = _as_value(data[name])
    return replace(config, **values)


def load_config(path: str | os.PathLike | None = None) -> ToolConfig:
    """Load a config file, or the defaults when ``path`` is None."""
    if path is None:
        return ToolConfig()
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    try:
        return _build_config(data)
    except ValidationError as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
