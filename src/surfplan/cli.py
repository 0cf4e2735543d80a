"""Command-line surface: generate, train, predict, evaluate, compare.

Exit codes: 0 success, 1 I/O failure, 2 invalid input or config, 3 infeasible
request (profile at or above threshold, or the recommendation cannot reach the
target). Output lines meant for machines are key=value pairs on stdout;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import errno
import logging
import os
import sys
from pathlib import Path

from .config import ToolConfig, load_config
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
from .evaluate import compare_models, evaluate_model, split
from .ml.pipeline import build_training_cases, fit_tuned_pipeline
from .ml.serialize import ModelIOError, load_model, save_model
from .models import MODEL_NAMES, check_model_name, check_model_names, fit_named_model
from .oracle import AboveThresholdError, generate_dataset, logical_error_rate, meets_target

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3


class InfeasibleRequestError(Exception):
    """The recommendation cannot reach the requested target."""


def _config_from_args(args) -> ToolConfig:
    config = load_config(args.config)
    return config if args.seed is None else config.with_seed(args.seed)


def _fmt_maybe(value) -> str:
    return "undefined" if value is None else f"{value:.6f}"


def _print_pearson(report, prefix: str) -> None:
    for key in ("raw_distance", "raw_rounds", "rounded_distance", "rounded_rounds"):
        print(f"{prefix}pearson_{key}={_fmt_maybe(getattr(report, 'pearson_' + key))}")


def _check_output(path, directory: bool) -> None:
    """Fail now, creating nothing, where making the directory or writing the
    file ``path`` would fail after the work. An empty path names nothing."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    target = Path(path).absolute()
    if not directory and target.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    place = target if directory else target.parent  # must be, or become, a directory
    found = next(head for head in (place, *place.parents) if os.path.lexists(head))
    if not found.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
    if found != place and not directory:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


# -- commands ----------------------------------------------------------------


def cmd_generate(args) -> int:
    config = _config_from_args(args)
    _check_output(args.out, directory=False)
    records = generate_dataset(config.sweep, config.oracle)
    count = write_dataset_csv(records, args.out)
    print(f"records={count}")
    print(f"path={args.out}")
    return EXIT_OK


def _labeled_cases(path, config: ToolConfig):
    """The dataset CSV at ``path`` and its labeled cases, which
    ``build_training_cases`` rejects when there are none."""
    records = read_dataset_csv(path)
    return records, build_training_cases(records, config.sweep, config.oracle, config.targets)


def cmd_train(args) -> int:
    config = _config_from_args(args)
    check_model_name(args.model)
    if args.tune and args.model != "pipeline":
        raise ValidationError(f"--tune applies only to the pipeline model, not {args.model!r}")
    _check_output(args.out_model, directory=False)
    # Every model kind is evaluated on the labeled cases, so they are built
    # (and an unreachable target menu rejected) before anything is fitted.
    records, cases = _labeled_cases(args.data, config)
    if args.tune:
        model = fit_tuned_pipeline(cases, config.stage1, config.stage2, config.oracle,
                                   config.cv_seed)
    else:
        model = fit_named_model(
            args.model, records=records, cases=cases,
            sweep=config.sweep, oracle=config.oracle,
            stage1_config=config.stage1, stage2_config=config.stage2,
            weights=config.heuristic_weights, menu=config.targets)
    # Evaluated before it is saved, so a model it rejects leaves no file.
    report = evaluate_model(model, cases, config.oracle)
    save_model(model, args.out_model)
    print(f"model={args.model}")
    print(f"training_cases={len(cases)}")
    _print_pearson(report, "train_")
    print(f"model_path={args.out_model}")
    return EXIT_OK


def _request_from_args(args) -> PredictionRequest:
    rates = (("--depol", args.depol), ("--gate", args.gate),
             ("--reset", args.reset), ("--readout", args.readout))
    if args.calibration is not None:
        given = [name for name, value in rates if value is not None]
        if given:
            raise ValidationError(
                f"--calibration and {' '.join(given)} both give the noise profile; "
                "pass the snapshot or the rates, not both")
        profile = read_calibration(args.calibration).profile
    else:
        missing = [name for name, value in rates if value is None]
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

    estimated = logical_error_rate(d, result.rounded_rounds, request.noise, model.oracle)
    print(f"estimated_ler={estimated!r}")
    if not meets_target(estimated, request.target_logical_error_rate):
        raise InfeasibleRequestError(
            f"recommendation reaches {estimated:.3e}, above the target "
            f"{request.target_logical_error_rate:.3e}; the target may be "
            "below this model's trained range")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _config_from_args(args)
    out_dir = args.out_dir if args.out_dir is not None else config.out_dir
    _check_output(out_dir, directory=True)
    model = load_model(args.model)
    _, cases = _labeled_cases(args.data, config)
    report = evaluate_model(model, cases, config.oracle)

    os.makedirs(out_dir, exist_ok=True)
    write_report_json(report, os.path.join(out_dir, "report.json"))
    write_deltas_csv(report, os.path.join(out_dir, "deltas.csv"))
    write_heatmap_csv(report, os.path.join(out_dir, "heatmap.csv"))

    print(f"cases={report.n_cases}")
    _print_pearson(report, "")
    print(f"achievement_fraction={report.achievement_fraction:.6f}")
    print(f"latency_mean_ms={report.latency_mean_ms:.3f}")
    print(f"out_dir={out_dir}")
    return EXIT_OK


def cmd_compare(args) -> int:
    config = _config_from_args(args)
    out_dir = args.out_dir if args.out_dir is not None else config.out_dir
    names = list(MODEL_NAMES) if args.models is None else args.models.split(",")
    check_model_names(names)
    _check_output(out_dir, directory=True)
    records, cases = _labeled_cases(args.data, config)
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


# The options of every command that reads a config.
_CONFIG_OPTIONS = (("--config", {"default": None}), ("--seed", {"type": int, "default": None}))

# Each command: its help line, the function it runs, whether it reads a config,
# and its own options, in the order ``--help`` lists them after -h.
COMMANDS = {
    "generate": ("generate a dataset CSV with the synthetic oracle", cmd_generate, True, (
        ("--out", {"required": True}),)),
    "train": ("train a model on a dataset CSV", cmd_train, True, (
        ("--data", {"required": True}),
        ("--model", {"default": "pipeline", "help": f"one of: {', '.join(MODEL_NAMES)}"}),
        ("--out-model", {"required": True}),
        ("--tune", {"action": "store_true",
                    "help": "grid-search stage hyperparameters with 5-fold CV"}))),
    "predict": ("recommend (distance, rounds) for a request", cmd_predict, False, (
        ("--model", {"required": True}),
        ("--depol", {"type": float, "default": None}),
        ("--gate", {"type": float, "default": None}),
        ("--reset", {"type": float, "default": None}),
        ("--readout", {"type": float, "default": None}),
        ("--calibration", {"default": None,
                           "help": "calibration snapshot JSON instead of explicit rates"}),
        ("--target", {"type": float, "required": True}))),
    "evaluate": ("evaluate a model against a dataset", cmd_evaluate, True, (
        ("--model", {"required": True}),
        ("--data", {"required": True}),
        ("--out-dir", {"default": None, "help": "defaults to the config's paths.out_dir"}))),
    "compare": ("train and compare every model variant", cmd_compare, True, (
        ("--data", {"required": True}),
        ("--out-dir", {"default": None, "help": "defaults to the config's paths.out_dir"}),
        ("--models", {"default": None, "help": "comma-separated subset of model names"}))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser. Every command is listed, but with ``command`` named
    only that command gets its options, -h included. An argv that starts
    with ``command`` reaches no other command's, so it parses, fails and
    prints help as on the full parser (``command`` None)."""
    parser = argparse.ArgumentParser(
        prog="surfplan",
        description="Recommend rotated-surface-code distance and rounds from a "
                    "noise profile and a target logical error rate.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, func, configured, options) in COMMANDS.items():
        wanted = command in (None, name)
        child = sub.add_parser(name, help=help_line, add_help=wanted)
        child.set_defaults(func=func)
        if wanted:
            for flag, settings in (_CONFIG_OPTIONS if configured else ()) + options:
                child.add_argument(flag, **settings)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    argv = sys.argv[1:] if argv is None else argv
    # Only the command the argv starts with gets its options built.
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except (AboveThresholdError, InfeasibleRequestError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ModelIOError, ValidationError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
