"""surfplan benchmark: one closed-loop workload, one client thread, one process.

    python3 perfbench/run.py --workload design-lib --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; surfplan is imported from ``src/``.
Workloads: design-lib, design-cli-10x, serve, compare (see ``workloads.py``).

The run repeats the workload's set-up ``setup_repeats`` times (``setup_s`` is
the median of import plus set-up), then runs iterations until ``--seconds``
have passed, checking each iteration's outputs after its timed region. A
failed check counts in ``failed``; it never stops the run.

Times are reported in normalized seconds: each timed segment is scaled by a
calibration kernel measured around it (see ``Normalizer``), because the host's
speed drifts by tens of percent during a run. Wall seconds are kept next to
them in the run record and the printed notes. Per-layer times are wall
seconds of the traced iterations.

``--trace 0`` prints every end-to-end metric. ``--trace 1`` alternates
untraced and traced iterations on the same inputs, derives the per-layer
metrics from the traced iterations' spans and reports the tracing overhead as
traced minus untraced ``run_s_p50``. Every metric is printed by name and unit
(``n/a`` where a workload does not apply), a run record with the environment,
samples and spans goes to ``<out-dir>/results/``, and the last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` holding the metrics that
``BENCHMARK.json`` lists for the trace mode.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Normalized seconds equal wall seconds when the calibration kernel takes this
# long: about its time on an idle 2-core x86-64 host.
CALIBRATION_REFERENCE_S = 0.015
CALIBRATE_EVERY_S = 0.25
CALIBRATION_WINDOW = 1
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import surfplan; print(time.perf_counter() - t)")

END_TO_END_UNITS = {
    "setup_s": "s", "run_s_p50": "s", "run_s_tail": "s",
    "predict_us_p50": "us", "predict_us_tail": "us",
    "batch8_rows_per_s": "1/s", "batch1024_rows_per_s": "1/s",
    "cli_predict_ms_p50": "ms", "cli_predict_ms_tail": "ms",
    "peak_rss_mb": "MB", "failed_frac": "frac",
    "pearson_distance": "coef", "pearson_rounds": "coef", "achievement_frac": "frac",
}


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it; the maximum when there are ten or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    return ordered[-1], 100.0, 0


def import_seconds() -> float:
    """Time ``import surfplan`` in a fresh interpreter."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def environment() -> dict:
    import numpy
    import surfplan

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() if done.returncode == 0 else None
    except OSError:
        commit = None
    active_kernel = getattr(surfplan, "active_kernel", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "active_kernel": active_kernel() if callable(active_kernel) else None,
        "machine": platform.machine(),
        "threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def calibration_kernel() -> float:
    """Fixed work independent of surfplan: small-array numpy sorts and sums,
    frozen-dataclass construction and hashing, float formatting and parsing,
    the same mix of interpreter and numpy work the workloads do."""
    import numpy as np

    values = np.random.default_rng(0).random(4096)
    acc = 0.0
    for i in range(64):
        segment = values[i:i + 2048]
        acc += float(np.cumsum(segment[np.argsort(segment, kind="stable")])[-1])
    items = [_Item(float(i) * 0.5, i) for i in range(6000)]
    text = ",".join(format(item.value, ".17e") for item in items[:2000])
    acc += sum(float(cell) for cell in text.split(","))
    return acc + sum(hash(item) & 1 for item in items)


@dataclass(frozen=True)
class _Item:
    value: float
    index: int


def calibrate() -> float:
    """Seconds the calibration kernel takes now: the best of three, with the
    garbage collector off so the size of the program's live heap does not
    move it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            calibration_kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


class Normalizer:
    """Converts wall seconds to normalized seconds.

    This host's speed drifts by tens of percent, in bursts of seconds and
    phases of minutes. Each timed segment is scaled by
    ``CALIBRATION_REFERENCE_S`` over the median kernel time of the
    calibrations around it (the one just before, the one just after, and
    ``CALIBRATION_WINDOW`` more on each side), so a change in host speed
    cancels while a change in the program does not. Segments of one key add
    up. ``add`` only records a segment; the runner calls ``tick`` once the
    iteration's outputs are checked and dropped, so the kernel never runs
    beside them.
    """

    def __init__(self):
        self.kernel_s = [calibrate()]
        self.segments: list[tuple] = []   # (key, seconds, index of next calibration)
        self._last = time.perf_counter()

    def add(self, key, seconds: float) -> None:
        self.segments.append((key, seconds, len(self.kernel_s)))

    def tick(self, force: bool = False) -> None:
        """Re-measure the host speed if ``CALIBRATE_EVERY_S`` has passed."""
        if force or time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.kernel_s.append(calibrate())
            self._last = time.perf_counter()

    def close(self) -> tuple[dict, dict]:
        """(wall, normalized) seconds per key."""
        if self.segments and self.segments[-1][2] == len(self.kernel_s):
            self.kernel_s.append(calibrate())
        wall, normalized = {}, {}
        for key, seconds, after in self.segments:
            window = self.kernel_s[max(0, after - 1 - CALIBRATION_WINDOW):
                                   after + 1 + CALIBRATION_WINDOW]
            factor = CALIBRATION_REFERENCE_S / statistics.median(window)
            wall[key] = wall.get(key, 0.0) + seconds
            normalized[key] = normalized.get(key, 0.0) + seconds * factor
        return wall, normalized


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale_name: str,
                 out_dir: Path) -> dict:
    from tracing import SPAN_FIELDS, Tracer, per_layer_metrics
    from workloads import HEURISTIC_LABELS, SCALES, WORKLOADS, mean_quality

    workdir = out_dir / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    attempted = 0
    failures: list[str] = []

    def guarded(call, *args, failed=1, default=None):
        """``call(*args)``; an exception counts as ``failed`` failed
        operations and gives ``default``, so the run always reaches its result."""
        try:
            return call(*args)
        except Exception:  # counted as failed operations; the run goes on
            failures.extend([traceback.format_exc()] * failed)
            return default

    try:
        workload = WORKLOADS[name](seed, SCALES[scale_name], str(workdir))
        setups = Normalizer()
        for repeat in range(workload.scale.setup_repeats):
            imported = import_seconds()
            start = time.perf_counter()
            workload.setup()
            setups.add(repeat, imported + time.perf_counter() - start)
            setups.tick(force=True)
        attempted += 1   # prepare and finish count as one operation each
        guarded(workload.prepare)

        tracer = Tracer() if trace else None
        traced_indices = []
        # Traced and untraced iterations alternate on the same inputs.
        stride = 2 if trace else 1
        minimum = stride * workload.min_steps()
        normalizer = Normalizer()
        index, begin = 0, 0.0

        def pause():
            """Ends a timed segment of the current iteration and re-measures
            the host speed; long iterations call it between their steps. In a
            traced iteration the calibration is a span of its own, so that it
            never counts in an enclosing span's self time."""
            nonlocal begin
            normalizer.add(index, time.perf_counter() - begin)
            if tracer is not None and tracer.iteration is not None:
                tracer.record("bench.calibrate", normalizer.tick, True)
            else:
                normalizer.tick(force=True)
            begin = time.perf_counter()

        workload.pause = pause
        started = time.perf_counter()
        while index < minimum or time.perf_counter() - started < seconds:
            step, traced = index // stride, trace and index % 2 == 1
            workload.index, workload.traced = index, traced
            gc.collect()
            if traced:
                tracer.install(index)
                traced_indices.append(index)
            begin = time.perf_counter()
            ops = workload.ops_per_iteration
            output = guarded(workload.iteration, step, failed=ops)
            normalizer.add(index, time.perf_counter() - begin)
            if traced:
                tracer.uninstall()
            attempted += ops
            if output is not None:
                failures += guarded(workload.check, step, output, failed=ops, default=[])
            del output
            normalizer.tick()
            index += 1
        wall, normalized = normalizer.close()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted += 1
        quality, errors = guarded(workload.finish, default=(mean_quality([]), []))
        failures += errors
        extra = workload.extra_metrics(lambda i: normalized[i] / wall[i])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, value in quality.items():
        if value is None:   # reported as 0 and counted as a failed operation
            attempted += 1
            failures.append(f"{key} is undefined")
            quality[key] = 0.0

    setup_wall, setup = (list(times.values()) for times in setups.close())
    untraced_indices = sorted(set(wall) - set(traced_indices))
    untraced = [normalized[i] for i in untraced_indices]
    untraced_wall = [wall[i] for i in untraced_indices]
    traced_wall = [wall[i] for i in traced_indices]
    run_tail = tail(untraced)
    e2e = {
        "setup_s": statistics.median(setup),
        "run_s_p50": statistics.median(untraced),
        "run_s_tail": run_tail[0],
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": len(failures) / attempted,
        **quality,
    }
    notes = {"setup_s": f"median of {len(setup)} set-ups; wall "
                        f"{statistics.median(setup_wall):.6g} s",
             "run_s_p50": f"{len(untraced)} iterations; wall "
                          f"{statistics.median(untraced_wall):.6g} s",
             "run_s_tail": f"p{run_tail[1]:.1f}, {run_tail[2]} beyond, "
                           f"{len(untraced)} iterations"}
    for key in ("predict_us", "cli_predict_ms"):
        values = extra.get(key)
        if values:
            value, pct, beyond = tail(values)
            e2e[f"{key}_p50"] = statistics.median(values)
            e2e[f"{key}_tail"] = value
            notes[f"{key}_p50"] = f"{len(values)} requests"
            notes[f"{key}_tail"] = f"p{pct:.1f}, {beyond} beyond, {len(values)} requests"
    for key in ("batch8_rows_per_s", "batch1024_rows_per_s"):
        if key in extra:
            e2e[key] = extra[key]

    per_layer = {}
    if trace:
        per_layer = per_layer_metrics(tracer.spans, traced_indices, HEURISTIC_LABELS)
        per_layer["trace.overhead_s"] = (statistics.median(
            normalized[i] for i in traced_indices) - e2e["run_s_p50"], "s")
        per_layer["trace.missing_targets"] = (len(tracer.missing), "count")

    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": scale_name, "environment": environment(),
        "attempted": attempted, "failed": len(failures), "failures": failures[:20],
        "end_to_end": e2e, "notes": notes,
        "per_layer": {key: value for key, (value, _) in per_layer.items()},
        "per_layer_units": {key: unit for key, (_, unit) in per_layer.items()},
        "samples": {"setup_wall_s": setup_wall, "setup_s": setup,
                    "run_wall_s": untraced_wall, "run_s": untraced,
                    "run_traced_wall_s": traced_wall,
                    "calibration_s": normalizer.kernel_s,
                    "segments": normalizer.segments,
                    "setup_calibration_s": setups.kernel_s},
        "quality_by_input": {str(key): value for key, value in
                             getattr(workload, "quality", {}).items()},
        "missing_trace_targets": tracer.missing if trace else [],
        "span_fields": SPAN_FIELDS,
        "spans": tracer.spans if trace else [],
    }


def result_line(record: dict, spec: dict) -> dict:
    """The object on the last stdout line: the metrics BENCHMARK.json lists
    for this trace mode, each of which the run must have produced."""
    if record["trace"]:
        values, units = record["per_layer"], record["per_layer_units"]
        listed = spec["per_layer"]
    else:
        values, units = record["end_to_end"], END_TO_END_UNITS
        listed = spec["end_to_end"]
    metrics = {}
    for entry in listed:
        name = entry["name"]
        value = values.get(name)
        if value is None:
            raise RuntimeError(f"metric {name} was not produced by workload "
                               f"{record['workload']}")
        if units[name] != entry["unit"]:
            raise RuntimeError(f"metric {name} is in {units[name]}, "
                               f"BENCHMARK.json says {entry['unit']}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_table(record: dict) -> None:
    print(f"workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} scale={record['scale']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    env = record["environment"]
    print("environment: " + " ".join(f"{key}={env[key]}" for key in (
        "nproc", "python", "numpy", "commit", "active_kernel")))
    for name, unit in END_TO_END_UNITS.items():
        value = record["end_to_end"].get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        note = record["notes"].get(name, "")
        print(f"  {name:<24} {shown:>14} {unit:<5} {note}")
    for name, value in record["per_layer"].items():
        print(f"  {name:<52} {value:>14.6g} {record['per_layer_units'][name]}")
    for target in record["missing_trace_targets"]:
        print(f"  trace target missing, not wrapped: {target}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure.strip().splitlines()[-1][:300]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("design-lib", "design-cli-10x", "serve", "compare"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("default", "tiny"), default="default",
                        help="input sizes; 'tiny' is for the smoke test")
    parser.add_argument("--out-dir", default=str(ROOT / ".perfbench"),
                        help="scratch files and run records")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "surfplan" / "__init__.py").is_file():
        print(f"error: no surfplan sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    out_dir = Path(args.out_dir)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.scale, out_dir)
    line = result_line(record, spec)
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    print_table(record)
    print(f"run record: {path}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:   # before numpy loads: one BLAS/OpenMP thread
        os.environ[var] = "1"
    sys.exit(main())
