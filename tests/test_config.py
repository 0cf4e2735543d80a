"""The config schema: each section's keys come from its dataclass's fields, and
the dataclasses enforce every value rule, so a library caller and a config file
are held to the same rules."""

import json
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from surfplan import (
    BoostConfig,
    ForestConfig,
    HeuristicWeights,
    OracleConfig,
    SweepConfig,
    TreeConfig,
    ValidationError,
)
from surfplan.config import ConfigError, ToolConfig, load_config
from surfplan.evaluate import SplitConfig
from surfplan.ml.ensemble import MAX_ESTIMATORS
from surfplan.ml.search import stage1_grid, stage2_grid
from surfplan.oracle import MAX_SWEEP_CELLS, MAX_SWEEP_POINTS

README = Path(__file__).resolve().parents[1] / "README.md"

# The keys each section accepted when config.py listed them by hand.
SECTION_KEYS = {
    "oracle": {"amplitude", "threshold", "gate_weight", "depolarizing_weight",
               "readout_weight", "reset_weight", "decoherence", "floor"},
    "sweep": {"distances", "rounds_min", "rounds_max", "termination_rate",
              "depolarizing_range", "gate_range", "readout_range", "reset_range",
              "profiles_per_run"},
    "heuristic_weights": {"w_gate", "w_depol", "w_readout", "w_reset"},
    "stage1": {"n_estimators", "learning_rate", "base_score",
               "max_depth", "min_samples_split", "min_child_weight", "gamma"},
    "stage2": {"n_estimators", "bootstrap",
               "max_depth", "min_samples_split", "min_child_weight", "gamma"},
    "split": {"test_fraction"},
    "paths": {"out_dir"},
}
TOP_LEVEL_KEYS = {"seed", "targets", "paths"} | set(SECTION_KEYS)

TREE_KEYS = {"max_depth", "min_samples_split", "min_child_weight", "gamma"}
SECTION_CLASSES = {"oracle": OracleConfig, "sweep": SweepConfig,
                   "heuristic_weights": HeuristicWeights, "stage1": BoostConfig,
                   "stage2": ForestConfig, "split": SplitConfig}


def _write(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _readme_defaults() -> dict:
    text = README.read_text(encoding="utf-8")
    return json.loads(re.search(r"Defaults\s+shown:\s*```json\n(.*?)```", text, re.S).group(1))


def test_each_section_accepts_the_same_keys(tmp_path):
    defaults = _readme_defaults()
    # Every field name of every config class, so that a derived section that
    # took in a field it should leave out (seed, tree, out_dir) shows here.
    candidates = {item.name for cls in (ToolConfig, TreeConfig, *SECTION_CLASSES.values())
                  for item in fields(cls)}
    for key in candidates | TOP_LEVEL_KEYS:
        path = _write(tmp_path, {key: defaults.get(key, 1)})
        if key in TOP_LEVEL_KEYS:
            load_config(path)
        else:
            with pytest.raises(ConfigError, match="unknown key"):
                load_config(path)
    for section, keys in SECTION_KEYS.items():
        for key in candidates | keys:
            path = _write(tmp_path, {section: {key: defaults[section].get(key, 1)}})
            if key in keys:
                load_config(path)
            else:
                with pytest.raises(ConfigError, match="unknown key"):
                    load_config(path)


def test_readme_defaults_block_is_the_default_config(tmp_path):
    defaults = _readme_defaults()
    assert load_config(_write(tmp_path, defaults)) == load_config(None)
    assert set(defaults) == TOP_LEVEL_KEYS
    for section, keys in SECTION_KEYS.items():
        assert set(defaults[section]) == keys, section


# Every value payload of tests/test_cli.py's malformed-config test; the two
# payloads whose section is not an object have no dataclass to build.
MALFORMED_VALUES = [
    {"sweep": {"profiles_per_run": 1.5}},
    {"sweep": {"rounds_max": 10.5}},
    {"sweep": {"rounds_min": True}},
    {"stage1": {"n_estimators": 2.5}},
    {"stage1": {"max_depth": 3.0}},
    {"stage2": {"n_estimators": True}},
    {"stage1": {"n_estimators": 10 ** 30}},
    {"stage2": {"n_estimators": 10_001}},
    {"stage2": {"min_samples_split": 10.0}},
    {"stage2": {"min_child_weight": 1.0}},
    {"stage2": {"bootstrap": 1}},
    {"stage1": {"gamma": "x"}},
    {"stage2": {"gamma": None}},
    {"stage1": {"learning_rate": True}},
    {"stage1": {"base_score": "1"}},
    {"oracle": {"amplitude": "0.1"}},
    {"oracle": {"floor": True}},
    {"heuristic_weights": {"w_gate": None}},
    {"sweep": {"termination_rate": "1e-3"}},
    {"split": {"test_fraction": [0.2]}},
    {"sweep": {"distances": 5}},
    {"sweep": {"gate_range": "ab"}},
    {"sweep": {"reset_range": [0.001, 0.002, 0.003]}},
    {"sweep": {"rounds_max": 10 ** 19}},
    {"sweep": {"profiles_per_run": 2_000_000}},
]


@pytest.mark.parametrize("payload", MALFORMED_VALUES, ids=repr)
def test_library_rejects_what_the_config_file_rejects(tmp_path, payload):
    (section, values), = payload.items()
    (key, value), = values.items()
    cls = TreeConfig if key in TREE_KEYS else SECTION_CLASSES[section]
    # A config file's lists arrive as tuples; a library caller may pass either.
    candidates = [value, tuple(value)] if isinstance(value, list) else [value]
    for candidate in candidates:
        with pytest.raises(ValidationError, match=key):
            cls(**{key: candidate})
    with pytest.raises(ConfigError, match=f"'{section}' section: {key}"):
        load_config(_write(tmp_path, payload))


def _kept(payload, message, old_message):
    """A row whose message changed, under the id its earlier message gave it."""
    return pytest.param(payload, message, id=f"{payload!r}-{old_message!r}")


# Well-typed values that break a value rule, each with the start of the rule's
# message, which names the key it is about.
OUT_OF_RANGE_VALUES = [
    ({"targets": []}, "targets must be a non-empty list"),
    _kept({"targets": [2.0]}, "target must be in (0, 1), got 2.0", "target 2.0 out of range"),
    _kept({"targets": [1]}, "target must be in (0, 1), got 1", "target 1 out of range"),
    _kept({"heuristic_weights": {"w_reset": -0.1}}, "w_reset must be >= 0, got -0.1",
          "w_reset must be finite and >= 0"),
    _kept({"heuristic_weights": {"w_gate": math.inf}}, "w_gate must be finite, got inf",
          "w_gate must be finite and >= 0"),
    _kept({"heuristic_weights": {"w_depol": math.nan}}, "w_depol must be finite, got nan",
          "w_depol must be finite and >= 0"),
    ({"split": {"test_fraction": 0.0}}, "test_fraction must be in (0, 1)"),
    ({"split": {"test_fraction": 1.0}}, "test_fraction must be in (0, 1)"),
    ({"stage1": {"learning_rate": 0.0}}, "learning_rate must be in (0, 1]"),
    ({"stage1": {"learning_rate": 1.5}}, "learning_rate must be in (0, 1]"),
    ({"stage1": {"gamma": -0.5}}, "gamma must be >= 0"),
    _kept({"stage2": {"gamma": math.nan}}, "gamma must be finite, got nan", "gamma must be >= 0"),
    _kept({"sweep": {"gate_range": [0.0, math.inf]}}, "gate_range must be finite, got inf",
          "gate_range bounds must be finite"),
    _kept({"sweep": {"reset_range": [math.nan, 0.1]}}, "reset_range must be finite, got nan",
          "reset_range bounds must be finite"),
    ({"sweep": {"readout_range": [0.2, 0.1]}}, "readout_range must satisfy 0 <= lo <= hi < 1"),
    _kept({"sweep": {"depolarizing_range": [0.0, 1.0]}},
          "depolarizing_range must be in [0, 1), got 1.0",
          "depolarizing_range must satisfy 0 <= lo <= hi < 1"),
    ({"sweep": {"distances": []}}, "distances must be non-empty"),
    ({"sweep": {"distances": [5, 3]}}, "distances must be strictly increasing"),
    ({"sweep": {"distances": [3, 3]}}, "distances must be strictly increasing"),
    ({"sweep": {"rounds_min": 5, "rounds_max": 4}}, "need rounds_min <= rounds_max"),
    ({"sweep": {"termination_rate": 0.0}}, "termination_rate must be in (0, 1)"),
    ({"sweep": {"termination_rate": 1.0}}, "termination_rate must be in (0, 1)"),
    ({"oracle": {"amplitude": 0.0}}, "amplitude must be in (0, 1], got 0.0"),
    ({"oracle": {"amplitude": 1.5}}, "amplitude must be in (0, 1], got 1.5"),
    ({"oracle": {"threshold": 1.0}}, "threshold must be in (0, 1), got 1.0"),
    ({"oracle": {"floor": 0.0}}, "floor must be > 0, got 0.0"),
    ({"oracle": {"decoherence": -1.0}}, "decoherence must be >= 0, got -1.0"),
    ({"stage1": {"gamma": math.inf}}, "gamma must be finite, got inf"),
]


@pytest.mark.parametrize("payload, message", OUT_OF_RANGE_VALUES, ids=repr)
def test_out_of_range_value_names_its_section_and_key(tmp_path, payload, message):
    (section, value), = payload.items()
    where = f"'{section}' section: " if isinstance(value, dict) else ""
    path = _write(tmp_path, payload)
    with pytest.raises(ConfigError, match=re.escape(f"config file {path}: {where}{message}")):
        load_config(path)


@pytest.mark.parametrize("cls, key, value", [
    (OracleConfig, "floor", math.nan),
    (OracleConfig, "floor", math.inf),
    (OracleConfig, "decoherence", math.nan),
    (OracleConfig, "decoherence", math.inf),
    (BoostConfig, "base_score", math.nan),
    (BoostConfig, "base_score", -math.inf),
], ids=repr)
def test_non_finite_constants_are_rejected(cls, key, value):
    with pytest.raises(ValidationError, match=key):
        cls(**{key: value})


@pytest.mark.parametrize("cls", [BoostConfig, ForestConfig])
def test_n_estimators_is_capped(cls):
    # The cap admits every count the defaults and the tuning grids use.
    assert cls(n_estimators=MAX_ESTIMATORS).n_estimators == MAX_ESTIMATORS
    assert all(config.n_estimators <= MAX_ESTIMATORS
               for config in stage1_grid(BoostConfig()) + stage2_grid(ForestConfig()))
    with pytest.raises(ValidationError, match=f"n_estimators must be <= {MAX_ESTIMATORS}"):
        cls(n_estimators=MAX_ESTIMATORS + 1)


def test_sweep_size_is_capped():
    # The caps admit the default and README sweeps and the 200-profile sweep
    # of the benchmark's 10x scale; the largest sweeps they admit are checked
    # without being built.
    defaults = SweepConfig()
    assert SweepConfig(profiles_per_run=200).profiles_per_run == 200
    points = len(defaults.distances) * len(defaults.rounds())
    assert SweepConfig(rounds_max=MAX_SWEEP_POINTS // len(defaults.distances), profiles_per_run=1)
    assert SweepConfig(profiles_per_run=MAX_SWEEP_CELLS // points)
    with pytest.raises(ValidationError, match=f"at most {MAX_SWEEP_POINTS}"):
        SweepConfig(rounds_max=MAX_SWEEP_POINTS // len(defaults.distances) + 1, profiles_per_run=1)
    with pytest.raises(ValidationError, match=f"at most {MAX_SWEEP_CELLS}"):
        SweepConfig(profiles_per_run=MAX_SWEEP_CELLS // points + 1)


def test_floor_of_one_and_null_base_score_stay_legal():
    assert OracleConfig(floor=1.0).floor == 1.0
    assert BoostConfig(base_score=None).base_score is None
    assert BoostConfig(base_score=-2.5).base_score == -2.5


@pytest.mark.parametrize("cls", [SweepConfig, ForestConfig, SplitConfig, ToolConfig])
def test_negative_seed_is_rejected(cls):
    with pytest.raises(ValidationError, match="seed"):
        cls(seed=-1)
    assert cls(seed=0).seed == 0


# The last two are strings that no file system can name: a NUL, and a lone
# surrogate that the file system encoding cannot encode. Either would fail
# only in os.makedirs, after all the work.
@pytest.mark.parametrize("out_dir", [None, 5, ["runs"], "a\x00b", "r\ud800"], ids=repr)
def test_out_dir_must_be_a_string(tmp_path, out_dir):
    with pytest.raises(ConfigError, match="out_dir"):
        load_config(_write(tmp_path, {"paths": {"out_dir": out_dir}}))
    with pytest.raises(ValidationError, match="out_dir"):
        ToolConfig(out_dir=out_dir)


def test_out_dir_may_hold_an_undecodable_argv_byte(tmp_path):
    # Python decodes the byte 0xff of an argv or a path to "\udcff", which
    # encodes back to it, so a file system can take the name.
    assert load_config(_write(tmp_path, {"paths": {"out_dir": "r\udcff"}})).out_dir == "r\udcff"


def test_every_config_derives_its_sub_seeds_from_its_seed():
    assert ToolConfig() == load_config()
    configs = [ToolConfig(seed=7), replace(ToolConfig(), seed=7), ToolConfig().with_seed(7),
               ToolConfig(seed=7, sweep=SweepConfig(seed=0), split=SplitConfig(seed=0),
                          stage2=ForestConfig(seed=99))]
    for config in configs:
        assert config == configs[0]
        assert (config.sweep.seed, config.split.seed, config.stage2.seed,
                config.cv_seed) == (8, 9, 10, 11)
    # A sub-config's other values are kept.
    config = ToolConfig(sweep=SweepConfig(seed=0, profiles_per_run=3))
    assert (config.sweep.seed, config.sweep.profiles_per_run) == (43, 3)


def test_with_seed_rejects_negative_and_non_integer_seeds():
    config = ToolConfig()
    for seed in (-5, 1.0, True, "3"):
        with pytest.raises(ValidationError, match="seed"):
            config.with_seed(seed)
    assert config.with_seed(0).sweep.seed == 1


@pytest.mark.parametrize("targets", [(1e-4, 1e-4), (1e-4, 1e-5, 0.0001)], ids=repr)
def test_repeated_target_is_rejected(targets):
    # A repeat would label every profile twice, and a split could put a case
    # in the test set and its twin in the training set.
    with pytest.raises(ValidationError, match=r"target 0\.0001 is repeated"):
        ToolConfig(targets=targets)
