"""surfplan: inverse designer for rotated surface codes.

Given a device noise profile and a target logical error rate, recommends the
minimal code distance and number of syndrome-measurement rounds. Models train
on datasets from the built-in synthetic logical-error-rate oracle or imported
from external simulators via the dataset CSV.
"""

from .core import (
    CodeParams,
    Dataset,
    DatasetRecord,
    HeuristicWeights,
    NoiseProfile,
    PredictionRequest,
    PredictionResult,
    ValidationError,
    round_distance,
    round_rounds,
)
from .evaluate import (
    ComparisonRow,
    EvalReport,
    SplitConfig,
    compare_models,
    evaluate_model,
    pearson,
    split,
)
from .heuristics import (
    HeuristicKind,
    HeuristicModel,
    fit_heuristic,
    linear_interp,
    poly_interp,
)
from .ml import (
    BoostConfig,
    BoostedModel,
    DEFAULT_TARGET_MENU,
    ForestConfig,
    ForestModel,
    LabeledCase,
    LinearModel,
    PipelineModel,
    TreeConfig,
    TreeModel,
    build_training_cases,
    fit_boosted,
    fit_forest,
    fit_linear,
    fit_pipeline,
    fit_pipeline_cases,
    fit_tree,
    fit_tuned_pipeline,
    grid_search,
    load_model,
    predict,
    predict_many,
    save_model,
)
from .oracle import (
    AboveThresholdError,
    OracleConfig,
    SweepConfig,
    effective_error,
    find_optimal_params,
    generate_dataset,
    logical_error_rate,
    rate_grids,
    sample_profiles,
)

__version__ = "0.1.0"
