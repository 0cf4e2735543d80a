"""The four closed-loop workloads: one client thread, one process.

Each workload has a ``setup`` (repeated, and timed as ``setup_s``), an
``iteration`` (timed), a ``check`` of that iteration's outputs that runs after
its timed region, and a ``finish`` that runs after the timed loop: deferred
checks against library references, and the held-out quality scalars.

The benchmark calls surfplan through module attributes (``oracle.
generate_dataset``, ``cli.main``, ...) so the traced run can wrap them.

Workloads, and why each exists:

- design-lib: generate -> label -> split -> fit -> evaluate -> save/load at the
  default scale, cycling over a fixed seed list. Tree fitting is about half of
  an iteration and no CSV is involved: a tree-builder change shows here, a
  dataio change must not.
- design-cli-10x: ``surfplan generate``, ``train --model pipeline`` and
  ``evaluate`` through ``cli.main`` at 10x profiles. The CSV is written once
  and read twice and labeling runs twice: oracle, labeling and dataset work
  shows here.
- serve: the default model, trained in set-up, answers a seeded stream of single
  ``predict`` calls, ``predict_many`` batches of 8 and 1024, and cold
  ``cli.main(["predict", ...])`` calls. Only prediction, serialize and cli
  run, so it is the control for fit, oracle and dataio changes.
- compare: ``surfplan compare`` over all ten models through ``cli.main`` on
  datasets generated in set-up. The only workload that runs the heuristics.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import traceback
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from surfplan import cli, dataio, evaluate, models, oracle
from surfplan.config import DEFAULT_SEED, load_config
from surfplan.core import NoiseProfile, PredictionRequest
from surfplan.heuristics import all_kinds
from surfplan.ml import pipeline, serialize

HEURISTIC_LABELS = tuple(kind.label for kind in all_kinds())


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``default`` is the benchmark; ``tiny`` is for the smoke test."""

    profiles: int = 20             # design-lib and serve: the default sweep
    cli_profiles: int = 200        # design-cli-10x: 10x profiles
    compare_profiles: int = 50
    quality_seeds: int = 12        # design-lib seed list
    compare_datasets: int = 2
    pool: int = 2048               # distinct serve requests
    probe: int = 512               # serve requests labeled for quality
    setup_repeats: int = 3


SCALES = {
    "default": Scale(),
    "tiny": Scale(profiles=6, cli_profiles=6, compare_profiles=6, quality_seeds=2,
                  compare_datasets=1, pool=64, probe=32, setup_repeats=1),
}

# One serve cycle, in a seeded order: the closed-loop client's request mix.
# Neither the paper nor the repo describes real serve traffic, so the counts
# give each request kind an equal share of a cycle's time instead: about
# 50 ms each at the code this benchmark was written against, from mean wall
# times of 0.20 ms per single predict, 4.4 ms per batch of 8, 17 ms per batch
# of 1024 and 5.3 ms per cold CLI predict on a 2-core x86-64 host. The
# per-kind metrics (predict_us_*, batch*_rows_per_s, cli_predict_ms_*) carry
# each kind's own signal; run_s_p50 weighs the four kinds equally.
SERVE_MIX = {"single": 250, "batch8": 12, "batch1024": 3, "cli": 10}
BATCH_SIZES = {"batch8": 8, "batch1024": 1024}


def tool_config(profiles: int, seed: int):
    """The CLI's config for ``--seed seed`` with ``profiles`` per sweep."""
    base = load_config(None)
    return replace(base, sweep=replace(base.sweep, profiles_per_run=profiles)).with_seed(seed)


def derived_seeds(seed: int, salt: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, salt])
    return [int(value) for value in rng.integers(0, 2**31 - 1, size=count)]


def random_requests(rng, sweep, count: int) -> list[PredictionRequest]:
    """In-range profiles from the sweep ranges, targets log-uniform in [1e-9, 1e-4]."""
    return [PredictionRequest(
        noise=NoiseProfile(
            depolarizing=float(rng.uniform(*sweep.depolarizing_range)),
            gate=float(rng.uniform(*sweep.gate_range)),
            reset=float(rng.uniform(*sweep.reset_range)),
            readout=float(rng.uniform(*sweep.readout_range))),
        target_logical_error_rate=float(10 ** rng.uniform(-9, -4)))
        for _ in range(count)]


def call_cli(argv) -> tuple:
    """``cli.main(argv)`` in-process: (exit code, stdout, stderr).

    An exception or ``SystemExit`` comes back as a non-integer code, which
    every check treats as a failure.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code!r})"
        except Exception:  # a traceback is an outcome to report, not to raise
            code = "traceback"
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def key_values(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def records_fingerprint(records) -> int:
    return hash(tuple((r.noise.as_tuple(), r.params.distance, r.params.rounds,
                       r.logical_error_rate) for r in records))


def cases_fingerprint(cases) -> int:
    return hash(tuple((c.request.noise.as_tuple(), c.request.target_logical_error_rate,
                       c.distance, c.rounds) for c in cases))


# -- checks shared by the workloads --------------------------------------------


def record_errors(records, sweep, oracle_config) -> list[str]:
    """Every record's rate is the oracle's rate at its grid point."""
    if not records:
        return ["no records generated"]
    for record in records:
        expected = oracle.logical_error_rate(record.params.distance, record.params.rounds,
                                             record.noise, oracle_config)
        if record.logical_error_rate != expected:
            return [f"record {record} has rate {record.logical_error_rate!r}, "
                    f"oracle gives {expected!r}"]
    return []


def label_errors(cases, records, sweep, oracle_config, menu) -> list[str]:
    """Each label meets its target, no lexicographically smaller grid point
    does, and every (profile, target) pair left out has no feasible point."""
    grid = [(d, r) for d in sweep.distances for r in sweep.rounds()]

    def first_feasible(noise, target, stop):
        for point in grid:
            if point >= stop:
                return None
            if oracle.meets_target(oracle.logical_error_rate(*point, noise, oracle_config),
                                   target):
                return point
        return None

    errors = []
    labeled = set()
    for case in cases:
        noise, target = case.request.noise, case.request.target_logical_error_rate
        point = (case.distance, case.rounds)
        labeled.add((noise.as_tuple(), target))
        if point not in grid or not oracle.meets_target(
                oracle.logical_error_rate(*point, noise, oracle_config), target):
            errors.append(f"label {point} misses target {target!r} for {noise}")
        elif (smaller := first_feasible(noise, target, point)) is not None:
            errors.append(f"label {point} is not minimal: {smaller} meets {target!r}")
    for noise in pipeline.distinct_profiles(records):
        for target in menu:
            if (noise.as_tuple(), target) not in labeled and \
                    first_feasible(noise, target, (float("inf"),)) is not None:
                errors.append(f"feasible pair ({noise}, {target!r}) was dropped")
    return errors


def report_errors(model, report, cases, oracle_config) -> list[str]:
    """evaluate_model's predictions equal predict_many's rows bit for bit, and
    its Pearson, DLER and achievement values follow from them."""
    errors = []
    rows = pipeline.predict_many(model, [case.request for case in cases])
    if (report.n_cases != len(cases)
            or report.predicted_raw_distance != [row.raw_distance for row in rows]
            or report.predicted_distance != [row.rounded_distance for row in rows]
            or report.predicted_raw_rounds != [row.raw_rounds for row in rows]
            or report.predicted_rounds != [row.rounded_rounds for row in rows]):
        errors.append("evaluate_model predictions differ from predict_many rows")
        return errors
    dler = [oracle.logical_error_rate(row.rounded_distance, row.rounded_rounds,
                                      case.request.noise, oracle_config)
            for row, case in zip(rows, cases)]
    achieved = sum(d <= case.request.target_logical_error_rate
                   for d, case in zip(dler, cases)) / len(cases)
    if report.dler != dler or report.achievement_fraction != achieved:
        errors.append("evaluate_model DLER or achievement fraction is wrong")
    for got, predicted, optimal in (
            (report.pearson_raw_distance, report.predicted_raw_distance,
             [case.distance for case in cases]),
            (report.pearson_raw_rounds, report.predicted_raw_rounds,
             [case.rounds for case in cases])):
        if got is None:
            continue
        expected = float(np.corrcoef(predicted, optimal)[0, 1])
        if not abs(got - expected) <= 1e-9:
            errors.append(f"Pearson {got!r} differs from reference {expected!r}")
    return errors


def quality_of(report) -> dict:
    return {"pearson_distance": report.pearson_raw_distance,
            "pearson_rounds": report.pearson_raw_rounds,
            "achievement_frac": report.achievement_fraction}


# -- workloads -------------------------------------------------------------------


class Workload:
    """Base class: the runner calls setup, iteration/check in a loop, finish."""

    ops_per_iteration = 1

    def __init__(self, seed: int, scale: Scale, workdir: str):
        self.seed, self.scale, self.workdir = seed, scale, workdir
        # Set by the runner: the iteration's index and mode, and ``pause()``,
        # which a long iteration calls between steps to re-measure host speed.
        self.index, self.traced, self.pause = 0, False, lambda: None

    def path(self, *parts) -> str:
        return os.path.join(self.workdir, *parts)

    # (module, name) of library calls inside one CLI call after which the
    # iteration re-measures host speed: such a call lasts seconds, and the
    # host's speed drifts within that.
    pause_after: tuple = ()

    def pausing(self):
        return pausing(self.pause_after, self.pause)

    def min_steps(self) -> int:
        """Iterations the run needs at least, so that checks and quality
        cover every input in the workload's fixed list."""
        return 1

    def prepare(self) -> None:
        """Untimed work after set-up and before the first iteration."""

    def check(self, index: int, output) -> list[str]:
        """Failure messages for this iteration, one per failed operation."""
        return []

    def finish(self) -> tuple[dict, list[str]]:
        """(quality scalars, failure messages of deferred checks)."""
        return {}, []

    def extra_metrics(self, factor) -> dict:
        """Workload-specific end-to-end metrics; ``factor(index)`` converts a
        wall time of untraced iteration ``index`` to normalized seconds."""
        return {}


class DesignLib(Workload):
    name = "design-lib"

    def setup(self):
        self.seeds = derived_seeds(self.seed, 1, self.scale.quality_seeds)
        self.configs = {s: tool_config(self.scale.profiles, s) for s in self.seeds}
        self.probe = random_requests(np.random.default_rng([self.seed, 2]),
                                     self.configs[self.seeds[0]].sweep, 64)
        self.model_path = self.path("model.json")
        self.verified: dict[int, tuple] = {}
        self.quality: dict[int, dict] = {}

    def min_steps(self):
        return len(self.seeds)

    def iteration(self, index):
        seed = self.seeds[index % len(self.seeds)]
        cfg = self.configs[seed]
        records = oracle.generate_dataset(cfg.sweep, cfg.oracle)
        cases = pipeline.build_training_cases(records, cfg.sweep, cfg.oracle, cfg.targets)
        train, test = evaluate.split(cases, cfg.split)
        model = pipeline.fit_pipeline_cases(train, cfg.stage1, cfg.stage2, cfg.oracle)
        report = evaluate.evaluate_model(model, test, cfg.oracle)
        serialize.save_model(model, self.model_path)
        loaded = serialize.load_model(self.model_path)
        return seed, records, cases, train, test, model, report, loaded

    def check(self, index, output):
        seed, records, cases, train, test, model, report, loaded = output
        cfg = self.configs[seed]
        fingerprints = (records_fingerprint(records), cases_fingerprint(cases))
        errors = []
        if self.verified.get(seed, (None,))[:2] != fingerprints:
            errors += record_errors(records, cfg.sweep, cfg.oracle)
            errors += label_errors(cases, records, cfg.sweep, cfg.oracle, cfg.targets)
        if len(test) != int(len(cases) * cfg.split.test_fraction) or \
                len(train) + len(test) != len(cases):
            errors.append("split sizes are wrong")
        errors += report_errors(model, report, test, cfg.oracle)
        in_memory = pipeline.predict_many(model, self.probe)
        if pipeline.predict_many(loaded, self.probe) != in_memory:
            errors.append("loaded model predicts differently from the saved one")
        if seed in self.verified and self.verified[seed][2] != in_memory:
            errors.append("model differs from an earlier fit on the same seed")
        if not errors:
            self.verified[seed] = fingerprints + (in_memory,)
            self.quality.setdefault(seed, quality_of(report))
        return errors[:1]

    def finish(self):
        return mean_quality(self.quality[s] for s in self.seeds if s in self.quality), []


def mean_quality(qualities) -> dict:
    qualities = list(qualities)
    out = {}
    for key in ("pearson_distance", "pearson_rounds", "achievement_frac"):
        values = [q[key] for q in qualities if q[key] is not None]
        out[key] = sum(values) / len(values) if values else None
    return out


# stdout keys that name per-call paths or wall-clock time
PER_CALL_KEYS = ("path", "model_path", "out_dir", "latency_mean_ms")


@contextlib.contextmanager
def pausing(targets, pause):
    """Call ``pause()`` after each call of ``module.name`` for the
    ``(module, name)`` pairs in ``targets``."""
    originals = [(module, name, getattr(module, name)) for module, name in targets]

    def wrap(fn):
        def call(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                pause()
        return call

    for module, name, fn in originals:
        setattr(module, name, wrap(fn))
    try:
        yield
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)


class DesignCli10x(Workload):
    name = "design-cli-10x"
    pause_after = tuple((cli, name) for name in (
        "generate_dataset", "write_dataset_csv", "read_dataset_csv",
        "build_training_cases", "fit_named_model", "evaluate_model"))

    def setup(self):
        profiles = self.scale.cli_profiles
        self.cli_seed, self.held_seed = derived_seeds(self.seed, 3, 2)
        self.config_path = self.path("config.json")
        with open(self.config_path, "w", encoding="utf-8") as handle:
            json.dump({"sweep": {"profiles_per_run": profiles}}, handle)
        self.cfg = tool_config(profiles, self.cli_seed)
        held = tool_config(profiles, self.held_seed)
        self.held_csv = self.path("heldout.csv")
        dataio.write_dataset_csv(oracle.generate_dataset(held.sweep, held.oracle),
                                 self.held_csv)
        self.outputs: list[tuple] = []
        self.calls = 0

    def iteration(self, index):
        self.calls += 1
        files = (self.path(f"train-{self.calls}.csv"), self.path(f"model-{self.calls}.json"),
                 self.path(f"report-{self.calls}"))
        data, model, report_dir = files
        common = ["--config", self.config_path, "--seed", str(self.cli_seed)]
        with self.pausing():
            results = [call_cli(["generate", "--out", data] + common)]
            self.pause()
            results.append(call_cli(["train", "--data", data, "--model", "pipeline",
                                     "--out-model", model] + common))
            self.pause()
            results.append(call_cli(["evaluate", "--model", model, "--data", self.held_csv,
                                     "--out-dir", report_dir] + common))
        return files, results

    def check(self, index, output):
        """Keep exit codes, stdout, file hashes and report scalars; the files
        of the first good iteration stay for ``finish`` to verify in full."""
        (data, model, report_dir), results = output
        if any(code != cli.EXIT_OK for code, _, _ in results):
            return [f"cli exit codes {[code for code, _, _ in results]}: "
                    f"{[err[-300:] for _, _, err in results]}"]
        with open(os.path.join(report_dir, "report.json"), encoding="utf-8") as handle:
            report = json.load(handle)
        report.pop("timing_ms", None)
        stdouts = [{key: value for key, value in key_values(out).items()
                    if key not in PER_CALL_KEYS} for _, out, _ in results]
        self.outputs.append((data, model, stdouts, sha256(data), sha256(model), report))
        if len(self.outputs) > 1:
            os.remove(data)
            os.remove(model)
            shutil.rmtree(report_dir)
        return []

    def finish(self):
        if not self.outputs:
            return mean_quality([]), []
        data, model, stdouts, data_hash, model_hash, report = self.outputs[0]
        cfg = self.cfg
        errors = []
        records = oracle.generate_dataset(cfg.sweep, cfg.oracle)
        if dataio.read_dataset_csv(data) != records:
            errors.append("CSV read-back differs from the generated records")
        cases = pipeline.build_training_cases(records, cfg.sweep, cfg.oracle, cfg.targets)
        errors += label_errors(cases, records, cfg.sweep, cfg.oracle, cfg.targets)
        reference = pipeline.fit_pipeline_cases(cases, cfg.stage1, cfg.stage2, cfg.oracle)
        probe = random_requests(np.random.default_rng([self.seed, 4]), cfg.sweep, 64)
        loaded = serialize.load_model(model)
        if pipeline.predict_many(loaded, probe) != pipeline.predict_many(reference, probe):
            errors.append("trained model file predicts differently from the library fit")
        held = tool_config(self.scale.cli_profiles, self.held_seed)
        held_records = oracle.generate_dataset(held.sweep, held.oracle)
        held_cases = pipeline.build_training_cases(held_records, cfg.sweep, cfg.oracle,
                                                   cfg.targets)
        expected = evaluate.evaluate_model(reference, held_cases, cfg.oracle)
        if json.loads(json.dumps(dataio.report_scalars(expected))) != report:
            errors.append("evaluate report differs from the library evaluation")
        if stdouts[0].get("records") != str(len(records)) or \
                stdouts[1].get("training_cases") != str(len(cases)) or \
                stdouts[2].get("cases") != str(len(held_cases)):
            errors.append("cli stdout counts differ from the library")
        failures = len(errors) > 0
        # Later iterations ran the same inputs: they must match byte for byte.
        repeats = sum(1 for entry in self.outputs[1:]
                      if entry[2:] != (stdouts, data_hash, model_hash, report))
        messages = ([f"first iteration: {errors[0]}"] if failures else [])
        messages += ["iteration output differs from the first"] * repeats
        quality = quality_of(expected) if not failures else mean_quality([])
        return quality, messages


class Serve(Workload):
    name = "serve"
    ops_per_iteration = sum(SERVE_MIX.values())

    def setup(self):
        # The model is the default one (what ``surfplan generate`` then
        # ``train`` give without --seed), so every seed serves the same trees;
        # the request stream is what the seed varies.
        cfg = tool_config(self.scale.profiles, DEFAULT_SEED)
        (stream_seed,) = derived_seeds(self.seed, 5, 1)
        records = oracle.generate_dataset(cfg.sweep, cfg.oracle)
        cases = pipeline.build_training_cases(records, cfg.sweep, cfg.oracle, cfg.targets)
        self.model = pipeline.fit_pipeline_cases(cases, cfg.stage1, cfg.stage2, cfg.oracle)
        self.model_path = self.path("model.json")
        serialize.save_model(self.model, self.model_path)
        rng = np.random.default_rng(stream_seed)
        self.pool = random_requests(rng, cfg.sweep, self.scale.pool)
        self.argv = [["predict", "--model", self.model_path,
                      "--depol", repr(r.noise.depolarizing), "--gate", repr(r.noise.gate),
                      "--reset", repr(r.noise.reset), "--readout", repr(r.noise.readout),
                      "--target", repr(r.target_logical_error_rate)] for r in self.pool]
        self.schedule = [kind for kind, count in SERVE_MIX.items() for _ in range(count)]
        rng.shuffle(self.schedule)
        self.cursor = 0
        self.cfg = cfg
        self.latency = {kind: [] for kind in SERVE_MIX}   # (iteration, seconds), untraced

    def prepare(self):
        self.reference = [pipeline.predict(self.model, r) for r in self.pool]

    def iteration(self, index):
        outputs = []
        n = len(self.pool)
        for kind in self.schedule:
            size = BATCH_SIZES.get(kind, 1)
            indices = [(self.cursor + k) % n for k in range(size)]
            self.cursor = (self.cursor + size) % n
            if kind == "single":
                request = self.pool[indices[0]]
                start = perf_counter()
                try:
                    result = pipeline.predict(self.model, request)
                except Exception:
                    result = traceback.format_exc()
            elif kind == "cli":
                argv = self.argv[indices[0]]
                start = perf_counter()
                result = call_cli(argv)
            else:
                requests = [self.pool[i] for i in indices]
                start = perf_counter()
                try:
                    result = pipeline.predict_many(self.model, requests)
                except Exception:
                    result = traceback.format_exc()
            elapsed = perf_counter() - start
            if not self.traced:
                self.latency[kind].append((self.index, elapsed))
            outputs.append((kind, indices, result))
        return outputs

    def check(self, index, output):
        errors = []
        for kind, indices, result in output:
            expected = [self.reference[i] for i in indices]
            if kind == "single":
                ok = result == expected[0]
            elif kind == "cli":
                ok = self._cli_ok(self.pool[indices[0]], expected[0], *result)
            else:
                ok = result == expected
            if not ok:
                errors.append(f"{kind} request {indices[0]}: {str(result)[-300:]}")
        return errors

    def _cli_ok(self, request, expected, code, out, err) -> bool:
        d, r = expected.rounded_distance, expected.rounded_rounds
        estimated = oracle.logical_error_rate(d, r, request.noise, self.cfg.oracle)
        misses = estimated > request.target_logical_error_rate
        want = {"raw_distance": repr(expected.raw_distance), "rounded_distance": str(d),
                "raw_rounds": repr(expected.raw_rounds), "rounded_rounds": str(r),
                "data_qubits": str(d * d), "total_qubits": str(2 * d * d - 1),
                "estimated_ler": repr(estimated)}
        if misses:
            return (code == cli.EXIT_INFEASIBLE and key_values(out) == want
                    and err.startswith("infeasible:"))
        return code == cli.EXIT_OK and key_values(out) == want and err == ""

    def finish(self):
        labeled = []
        for request in self.pool[:self.scale.probe]:
            optimal = oracle.find_optimal_params(request, self.cfg.sweep, self.cfg.oracle)
            if optimal is not None:
                labeled.append(pipeline.LabeledCase(request, optimal.distance,
                                                    optimal.rounds))
        report = evaluate.evaluate_model(self.model, labeled, self.cfg.oracle)
        return quality_of(report), []

    def extra_metrics(self, factor):
        latency = {kind: [seconds * factor(index) for index, seconds in samples]
                   for kind, samples in self.latency.items()}
        metrics = {"predict_us": [t * 1e6 for t in latency["single"]],
                   "cli_predict_ms": [t * 1e3 for t in latency["cli"]]}
        for kind, size in BATCH_SIZES.items():
            if latency[kind]:
                metrics[f"{kind}_rows_per_s"] = size * len(latency[kind]) / sum(latency[kind])
        return metrics


class Compare(Workload):
    name = "compare"
    # ``compare_models`` looks ``evaluate_model`` up in ``evaluate``.
    pause_after = ((cli, "read_dataset_csv"), (cli, "build_training_cases"),
                   (evaluate, "evaluate_model"))

    def setup(self):
        profiles = self.scale.compare_profiles
        self.seeds = derived_seeds(self.seed, 6, self.scale.compare_datasets)
        self.config_path = self.path("config.json")
        with open(self.config_path, "w", encoding="utf-8") as handle:
            json.dump({"sweep": {"profiles_per_run": profiles}}, handle)
        self.datasets = []
        for seed in self.seeds:
            cfg = tool_config(profiles, seed)
            path = self.path(f"data-{seed}.csv")
            dataio.write_dataset_csv(oracle.generate_dataset(cfg.sweep, cfg.oracle), path)
            self.datasets.append((seed, cfg, path))
        self.outputs: list[tuple] = []
        self.calls = 0

    def min_steps(self):
        return len(self.datasets)

    def iteration(self, index):
        self.calls += 1
        seed, _, data = self.datasets[index % len(self.datasets)]
        out_dir = self.path(f"cmp-{self.calls}")
        with self.pausing():
            return out_dir, call_cli(["compare", "--data", data, "--out-dir", out_dir,
                                      "--config", self.config_path, "--seed", str(seed)])

    def check(self, index, output):
        out_dir, (code, _, err) = output
        if code != cli.EXIT_OK:
            return [f"compare exit code {code!r}: {err[-300:]}"]
        with open(os.path.join(out_dir, "comparison.csv"), encoding="utf-8") as handle:
            rows = [comparison_row(row) for row in csv.DictReader(handle)]
        shutil.rmtree(out_dir)
        self.outputs.append((index % len(self.datasets), rows))
        return []

    def _reference(self, seed, cfg, data):
        """Library run of ``compare`` on the same split: every model's row, in
        order, and the pipeline's quality scalars."""
        records = oracle.generate_dataset(cfg.sweep, cfg.oracle)
        errors = []
        if dataio.read_dataset_csv(data) != records:
            errors.append("CSV read-back differs from the generated records")
        cases = pipeline.build_training_cases(records, cfg.sweep, cfg.oracle, cfg.targets)
        train, test = evaluate.split(cases, cfg.split)
        options = dict(sweep=cfg.sweep, oracle=cfg.oracle, stage1_config=cfg.stage1,
                       stage2_config=cfg.stage2, weights=cfg.heuristic_weights,
                       menu=cfg.targets)
        rows = evaluate.compare_models(list(models.MODEL_NAMES), train_records=records,
                                       train_cases=train, test_cases=test, **options)
        model = models.fit_named_model("pipeline", records=records, cases=train, **options)
        report = evaluate.evaluate_model(model, test, cfg.oracle)
        return [comparison_row(vars(row)) for row in rows], quality_of(report), errors

    def finish(self):
        references = [self._reference(*dataset) for dataset in self.datasets]
        messages = []
        for which, rows in self.outputs:
            want, _, errors = references[which]
            if rows != want:
                errors = errors + [f"comparison rows {rows} differ from the library {want}"]
            if errors:
                messages.append(errors[0])
        return mean_quality(quality for _, quality, _ in references), messages


COMPARISON_KEYS = ("pearson_raw_distance", "pearson_raw_rounds",
                   "pearson_rounded_distance", "pearson_rounded_rounds")


def comparison_row(row: dict) -> tuple:
    """(model, four coefficients) from a comparison.csv row or a
    ``ComparisonRow``'s fields; an empty cell is an undefined coefficient."""
    def value(cell):
        return None if cell is None or cell == "" else float(cell)

    return (row["model"],) + tuple(value(row[key]) for key in COMPARISON_KEYS)


WORKLOADS = {cls.name: cls for cls in (DesignLib, DesignCli10x, Serve, Compare)}
