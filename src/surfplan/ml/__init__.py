"""Tree, ensemble, and pipeline learners plus persistence."""

from .ensemble import BoostConfig, BoostedModel, ForestConfig, ForestModel, fit_boosted, fit_forest
from .linear import LinearModel, fit_linear
from .pipeline import (
    DEFAULT_TARGET_MENU,
    LabeledCase,
    PipelineModel,
    build_training_cases,
    distinct_profiles,
    fit_linear_pipeline,
    fit_pipeline,
    fit_pipeline_cases,
    fit_tuned_pipeline,
    predict,
    predict_many,
    stage1_features,
)
from .search import GridSearchResult, grid_search, kfold_indices, stage1_grid, stage2_grid
from .serialize import (
    CorruptModelError,
    ModelIOError,
    ModelVersionError,
    load_model,
    save_model,
)
from .tree import TreeConfig, TreeModel, fit_tree

__all__ = [
    "BoostConfig", "BoostedModel", "ForestConfig", "ForestModel",
    "LinearModel", "TreeConfig", "TreeModel", "PipelineModel", "LabeledCase",
    "GridSearchResult", "DEFAULT_TARGET_MENU",
    "fit_tree", "fit_forest", "fit_boosted", "fit_linear",
    "fit_pipeline", "fit_pipeline_cases", "fit_linear_pipeline", "fit_tuned_pipeline",
    "build_training_cases", "distinct_profiles", "stage1_features",
    "predict", "predict_many", "grid_search", "kfold_indices",
    "stage1_grid", "stage2_grid",
    "save_model", "load_model",
    "ModelIOError", "ModelVersionError", "CorruptModelError",
]
