"""Tool configuration: one JSON file, one master seed.

Every section is optional and falls back to the documented defaults. Unknown
keys are rejected at every level. All randomness flows from the single master
seed, fanned out to fixed per-purpose sub-seeds (sweep sampling, splitting,
the rounds-stage forest, cross-validation), so a config plus a seed pins the
whole generate/train/evaluate flow.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

from .core import HeuristicWeights, ValidationError
from .evaluate import SplitConfig
from .ml.ensemble import BoostConfig, ForestConfig
from .ml.pipeline import DEFAULT_TARGET_MENU
from .ml.tree import TreeConfig
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

    def with_seed(self, seed: int) -> "ToolConfig":
        """Re-derive every sub-seed from a new master seed."""
        return replace(
            self,
            seed=seed,
            sweep=replace(self.sweep, seed=seed + SEED_SWEEP_OFFSET),
            split=replace(self.split, seed=seed + SEED_SPLIT_OFFSET),
            stage2=replace(self.stage2, seed=seed + SEED_FOREST_OFFSET),
        )

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


def _tree_config(section: str, data: dict, defaults: TreeConfig) -> TreeConfig:
    allowed = ("max_depth", "min_samples_split", "min_child_weight", "gamma")
    picked = {key: data.pop(key) for key in list(data) if key in allowed}
    return replace(defaults, **picked)


def _build_config(data: dict) -> ToolConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    allowed = ("seed", "oracle", "sweep", "heuristic_weights", "stage1",
               "stage2", "split", "targets", "paths")
    _reject_unknown("top-level", data, allowed)
    config = ToolConfig()

    if "seed" in data:
        if not isinstance(data["seed"], int) or isinstance(data["seed"], bool):
            raise ConfigError(f"seed must be an integer, got {data['seed']!r}")
        config = replace(config, seed=data["seed"])

    if "oracle" in data:
        section = _section(data, "oracle")
        _reject_unknown("oracle", section, (
            "amplitude", "threshold", "gate_weight", "depolarizing_weight",
            "readout_weight", "reset_weight", "decoherence", "floor"))
        config = replace(config, oracle=replace(config.oracle, **section))

    if "sweep" in data:
        section = _section(data, "sweep")
        _reject_unknown("sweep", section, (
            "distances", "rounds_min", "rounds_max", "termination_rate",
            "depolarizing_range", "gate_range", "readout_range", "reset_range",
            "profiles_per_run"))
        for key in ("distances", "depolarizing_range", "gate_range",
                    "readout_range", "reset_range"):
            if key in section:
                section[key] = tuple(section[key])
        config = replace(config, sweep=replace(config.sweep, **section))

    if "heuristic_weights" in data:
        section = _section(data, "heuristic_weights")
        _reject_unknown("heuristic_weights", section,
                        ("w_gate", "w_depol", "w_readout", "w_reset"))
        config = replace(config,
                         heuristic_weights=replace(config.heuristic_weights, **section))

    if "stage1" in data:
        section = _section(data, "stage1")
        tree = _tree_config("stage1", section, config.stage1.tree)
        _reject_unknown("stage1", section, ("n_estimators", "learning_rate", "base_score"))
        config = replace(config, stage1=replace(config.stage1, tree=tree, **section))

    if "stage2" in data:
        section = _section(data, "stage2")
        tree = _tree_config("stage2", section, config.stage2.tree)
        _reject_unknown("stage2", section, ("n_estimators", "bootstrap"))
        config = replace(config, stage2=replace(config.stage2, tree=tree, **section))

    if "split" in data:
        section = _section(data, "split")
        _reject_unknown("split", section, ("test_fraction",))
        config = replace(config, split=replace(config.split, **section))

    if "targets" in data:
        targets = data["targets"]
        if not isinstance(targets, list) or not targets:
            raise ConfigError("targets must be a non-empty list of rates")
        for value in targets:
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or not 0.0 < value < 1.0:
                raise ConfigError(f"target {value!r} out of range (0, 1)")
        config = replace(config, targets=tuple(float(v) for v in targets))

    if "paths" in data:
        section = _section(data, "paths")
        _reject_unknown("paths", section, ("out_dir",))
        if "out_dir" in section:
            config = replace(config, out_dir=str(section["out_dir"]))

    # Fan the master seed out to the per-purpose sub-seeds.
    return config.with_seed(config.seed)


def load_config(path: str | os.PathLike | None = None) -> ToolConfig:
    """Load a config file, or the defaults when ``path`` is None."""
    if path is None:
        return ToolConfig().with_seed(DEFAULT_SEED)
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    try:
        return _build_config(data)
    except TypeError as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    except ValidationError as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
