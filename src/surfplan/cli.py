"""Command-line surface: generate, train, predict, evaluate, compare.

Exit codes: 0 success, 1 I/O failure, 2 invalid input or config, 3 infeasible
request (profile at or above threshold, or the recommendation cannot reach the
target). Output lines meant for machines are key=value pairs on stdout;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import ConfigError, ToolConfig, load_config
from .core import (
    NoiseProfile,
    PredictionRequest,
    ValidationError,
)
from .dataio import (
    read_calibration,
    read_dataset_csv,
    write_comparison_csv,
    write_dataset_csv,
    write_deltas_csv,
    write_heatmap_csv,
    write_report_json,
)
from .evaluate import evaluate_model, split
from .ml.ensemble import BoostConfig, ForestConfig
from .ml.pipeline import build_training_cases
from .ml.search import grid_search
from .ml.serialize import ModelIOError, load_model, save_model
from .models import MODEL_NAMES, fit_named_model
from .oracle import AboveThresholdError, generate_dataset, logical_error_rate

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3


class InfeasibleRequestError(Exception):
    """The recommendation cannot reach the requested target."""


def _config_from_args(args) -> ToolConfig:
    config = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        config = config.with_seed(args.seed)
    return config


def _fmt_maybe(value) -> str:
    return "undefined" if value is None else f"{value:.6f}"


# -- commands ----------------------------------------------------------------


def cmd_generate(args) -> int:
    config = _config_from_args(args)
    records = generate_dataset(config.sweep, config.oracle)
    count = write_dataset_csv(records, args.out)
    print(f"records={count}")
    print(f"path={args.out}")
    return EXIT_OK


def _stage1_grid(base: BoostConfig) -> list[BoostConfig]:
    from dataclasses import replace
    grid = []
    for depth in (4, 6, 8):
        for rate in (0.05, 0.1, 0.2):
            grid.append(replace(base, learning_rate=rate,
                                tree=replace(base.tree, max_depth=depth)))
    return grid


def _stage2_grid(base: ForestConfig) -> list[ForestConfig]:
    from dataclasses import replace
    grid = []
    for depth in (10, 20, 30):
        for min_split in (5, 10):
            grid.append(replace(base, tree=replace(
                base.tree, max_depth=depth, min_samples_split=min_split)))
    return grid


def cmd_train(args) -> int:
    from .ml.ensemble import fit_boosted, fit_forest
    from .ml.pipeline import stage1_features, stage2_features
    import numpy as np

    config = _config_from_args(args)
    records = read_dataset_csv(args.data)
    if not records:
        raise ValidationError(f"dataset {args.data} contains no records")

    stage1_config, stage2_config = config.stage1, config.stage2
    cases = None
    if not args.model.startswith("heuristic:"):
        cases = build_training_cases(records, config.sweep, config.oracle, config.targets)
        if not cases:
            raise ValidationError(
                "no feasible (profile, target) pairs to train on; every menu "
                "target is out of reach for the dataset's profiles")
        if args.tune and args.model == "pipeline":
            mat1 = stage1_features([case.request for case in cases])
            y1 = np.asarray([case.distance for case in cases], dtype=np.float64)
            found = grid_search(mat1, y1, _stage1_grid(stage1_config), folds=5,
                                fitter=lambda cfg, X, y: fit_boosted(X, y, cfg),
                                seed=config.cv_seed)
            stage1_config = found.best_config
            _, mat2 = stage2_features(fit_boosted(mat1, y1, stage1_config), mat1)
            y2 = np.asarray([case.rounds for case in cases], dtype=np.float64)
            found2 = grid_search(mat2, y2, _stage2_grid(stage2_config), folds=5,
                                 fitter=lambda cfg, X, y: fit_forest(X, y, cfg),
                                 seed=config.cv_seed)
            stage2_config = found2.best_config
            logger.info("tuned stage1=%s stage2=%s", stage1_config, stage2_config)

    model = fit_named_model(
        args.model, records=records, cases=cases,
        sweep=config.sweep, oracle=config.oracle,
        stage1_config=stage1_config, stage2_config=stage2_config,
        weights=config.heuristic_weights, menu=config.targets)
    save_model(model, args.out_model)

    if cases is None:
        cases = build_training_cases(records, config.sweep, config.oracle, config.targets)
    report = evaluate_model(model, cases, config.oracle)
    print(f"model={args.model}")
    print(f"training_cases={len(cases)}")
    print(f"train_pearson_raw_distance={_fmt_maybe(report.pearson_raw_distance)}")
    print(f"train_pearson_raw_rounds={_fmt_maybe(report.pearson_raw_rounds)}")
    print(f"train_pearson_rounded_distance={_fmt_maybe(report.pearson_rounded_distance)}")
    print(f"train_pearson_rounded_rounds={_fmt_maybe(report.pearson_rounded_rounds)}")
    print(f"model_path={args.out_model}")
    return EXIT_OK


def _request_from_args(args) -> PredictionRequest:
    if args.calibration is not None:
        snapshot = read_calibration(args.calibration)
        profile = snapshot.profile
    else:
        missing = [name for name, value in (
            ("--depol", args.depol), ("--gate", args.gate),
            ("--reset", args.reset), ("--readout", args.readout)) if value is None]
        if missing:
            raise ValidationError(
                f"missing {' '.join(missing)} (or pass --calibration FILE)")
        profile = NoiseProfile(depolarizing=args.depol, gate=args.gate,
                               reset=args.reset, readout=args.readout)
    return PredictionRequest(noise=profile, target_logical_error_rate=args.target)


def cmd_predict(args) -> int:
    request = _request_from_args(args)
    model = load_model(args.model)
    result = model.predict_result(request)

    d = result.rounded_distance
    print(f"raw_distance={result.raw_distance!r}")
    print(f"rounded_distance={d}")
    print(f"raw_rounds={result.raw_rounds!r}")
    print(f"rounded_rounds={result.rounded_rounds}")
    print(f"data_qubits={d * d}")
    print(f"total_qubits={2 * d * d - 1}")

    oracle = getattr(model, "oracle", None)
    if oracle is not None:
        estimated = logical_error_rate(d, result.rounded_rounds, request.noise, oracle)
        print(f"estimated_ler={estimated!r}")
        if estimated > request.target_logical_error_rate:
            raise InfeasibleRequestError(
                f"recommendation reaches {estimated:.3e}, above the target "
                f"{request.target_logical_error_rate:.3e}; the target may be "
                "below this model's trained range")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _config_from_args(args)
    out_dir = args.out_dir if args.out_dir is not None else config.out_dir
    model = load_model(args.model)
    records = read_dataset_csv(args.data)
    if not records:
        raise ValidationError(f"dataset {args.data} contains no records")
    cases = build_training_cases(records, config.sweep, config.oracle, config.targets)
    if not cases:
        raise ValidationError("no feasible (profile, target) pairs to evaluate on")
    report = evaluate_model(model, cases, config.oracle)

    os.makedirs(out_dir, exist_ok=True)
    write_report_json(report, os.path.join(out_dir, "report.json"))
    write_deltas_csv(report, os.path.join(out_dir, "deltas.csv"))
    write_heatmap_csv(report, os.path.join(out_dir, "heatmap.csv"))

    print(f"cases={report.n_cases}")
    print(f"pearson_raw_distance={_fmt_maybe(report.pearson_raw_distance)}")
    print(f"pearson_raw_rounds={_fmt_maybe(report.pearson_raw_rounds)}")
    print(f"pearson_rounded_distance={_fmt_maybe(report.pearson_rounded_distance)}")
    print(f"pearson_rounded_rounds={_fmt_maybe(report.pearson_rounded_rounds)}")
    print(f"achievement_fraction={report.achievement_fraction:.6f}")
    print(f"latency_mean_ms={report.latency_mean_ms:.3f}")
    print(f"out_dir={out_dir}")
    return EXIT_OK


def cmd_compare(args) -> int:
    from .evaluate import compare_models

    config = _config_from_args(args)
    out_dir = args.out_dir if args.out_dir is not None else config.out_dir
    records = read_dataset_csv(args.data)
    if not records:
        raise ValidationError(f"dataset {args.data} contains no records")
    names = list(MODEL_NAMES) if args.models is None else args.models.split(",")

    cases = build_training_cases(records, config.sweep, config.oracle, config.targets)
    if len(cases) < 5:
        raise ValidationError(
            f"only {len(cases)} labeled cases; too few to split for comparison")
    train_cases, test_cases = split(cases, config.split)
    rows = compare_models(
        names, train_records=records, train_cases=train_cases,
        test_cases=test_cases, sweep=config.sweep, oracle=config.oracle,
        stage1_config=config.stage1, stage2_config=config.stage2,
        weights=config.heuristic_weights, menu=config.targets)

    os.makedirs(out_dir, exist_ok=True)
    write_comparison_csv(rows, os.path.join(out_dir, "comparison.csv"))
    for row in rows:
        print(f"{row.model}: distance={_fmt_maybe(row.pearson_raw_distance)} "
              f"rounds={_fmt_maybe(row.pearson_raw_rounds)}")
    print(f"out_dir={out_dir}")
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfplan",
        description="Recommend rotated-surface-code distance and rounds from a "
                    "noise profile and a target logical error rate.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a dataset CSV with the synthetic oracle")
    gen.add_argument("--config", default=None)
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=None)
    gen.set_defaults(func=cmd_generate)

    train = sub.add_parser("train", help="train a model on a dataset CSV")
    train.add_argument("--data", required=True)
    train.add_argument("--model", default="pipeline",
                       help=f"one of: {', '.join(MODEL_NAMES)}")
    train.add_argument("--out-model", required=True)
    train.add_argument("--tune", action="store_true",
                       help="grid-search stage hyperparameters with 5-fold CV")
    train.add_argument("--config", default=None)
    train.add_argument("--seed", type=int, default=None)
    train.set_defaults(func=cmd_train)

    predict = sub.add_parser("predict", help="recommend (distance, rounds) for a request")
    predict.add_argument("--model", required=True)
    predict.add_argument("--depol", type=float, default=None)
    predict.add_argument("--gate", type=float, default=None)
    predict.add_argument("--reset", type=float, default=None)
    predict.add_argument("--readout", type=float, default=None)
    predict.add_argument("--calibration", default=None,
                         help="calibration snapshot JSON instead of explicit rates")
    predict.add_argument("--target", type=float, required=True)
    predict.set_defaults(func=cmd_predict)

    evaluate = sub.add_parser("evaluate", help="evaluate a model against a dataset")
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--out-dir", default=None,
                          help="defaults to the config's paths.out_dir")
    evaluate.add_argument("--config", default=None)
    evaluate.add_argument("--seed", type=int, default=None)
    evaluate.set_defaults(func=cmd_evaluate)

    compare = sub.add_parser("compare", help="train and compare every model variant")
    compare.add_argument("--data", required=True)
    compare.add_argument("--out-dir", default=None,
                          help="defaults to the config's paths.out_dir")
    compare.add_argument("--models", default=None,
                         help="comma-separated subset of model names")
    compare.add_argument("--config", default=None)
    compare.add_argument("--seed", type=int, default=None)
    compare.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AboveThresholdError, InfeasibleRequestError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigError, ModelIOError, ValidationError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
