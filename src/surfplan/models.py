"""Named model registry shared by the CLI and the comparison harness.

Names: ``pipeline`` (boosted distance stage + forest rounds stage), ``linear``
(two sequential least-squares stages), and ``heuristic:<method>_<w|n_w>`` for
the eight instance-based variants.
"""

from __future__ import annotations

from typing import Optional

from .core import Dataset, HeuristicWeights, ValidationError
from .heuristics import HeuristicKind, HeuristicTraining, all_kinds, fit_heuristic
from .ml.ensemble import BoostConfig, ForestConfig
from .ml.pipeline import (
    DEFAULT_TARGET_MENU,
    LabeledCase,
    build_training_cases,
    fit_linear_pipeline,
    fit_pipeline_cases,
)
from .oracle import OracleConfig, SweepConfig

HEURISTIC_NAMES = tuple(f"heuristic:{kind.label}" for kind in all_kinds())
MODEL_NAMES = ("pipeline", "linear") + HEURISTIC_NAMES


def check_model_name(name: str) -> None:
    """Raise ValidationError unless ``name`` is one of ``MODEL_NAMES``."""
    if name not in MODEL_NAMES:
        raise ValidationError(
            f"unknown model {name!r}; expected one of {', '.join(MODEL_NAMES)}")


def check_model_names(names: list[str]) -> None:
    """Raise ValidationError unless every name is known and there are at
    least two of them: the models ``evaluate.compare_models`` can compare."""
    for name in names:
        check_model_name(name)
    if len(names) < 2:
        raise ValidationError("compare_models needs at least two model names")


def heuristic_kind(name: str) -> Optional[HeuristicKind]:
    """The kind a ``heuristic:`` model name stands for; None for any other name."""
    return HeuristicKind.parse(name.split(":", 1)[1]) if name.startswith("heuristic:") else None


def fit_named_model(name: str,
                    records: Optional[Dataset | HeuristicTraining] = None,
                    cases: Optional[list[LabeledCase]] = None,
                    sweep: SweepConfig = SweepConfig(),
                    oracle: OracleConfig = OracleConfig(),
                    stage1_config: BoostConfig = BoostConfig(),
                    stage2_config: ForestConfig = ForestConfig(),
                    weights: HeuristicWeights = HeuristicWeights(),
                    menu: tuple[float, ...] = DEFAULT_TARGET_MENU):
    """Train the named model.

    Label-supervised models use ``cases`` (built from ``records`` when not
    given); heuristics embed ``records`` directly, and take them as the
    training state ``heuristics.derive_training`` made of them too.
    """
    check_model_name(name)
    kind = heuristic_kind(name)
    if kind is not None:
        if not records:
            raise ValidationError(f"model {name!r} needs training records")
        return fit_heuristic(records, kind, weights, oracle)
    if cases is None:
        if not isinstance(records, Dataset) or not records:
            raise ValidationError(f"model {name!r} needs records or labeled cases")
        cases = build_training_cases(records, sweep, oracle, menu)
    if name == "linear":
        return fit_linear_pipeline(cases, oracle)
    return fit_pipeline_cases(cases, stage1_config, stage2_config, oracle)
