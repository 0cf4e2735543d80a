"""In-memory spans around the benchmark's calls into each surfplan layer.

The traced run wraps module-level names (and two model methods) from outside
the program: ``Tracer.install`` swaps each target for a wrapper that records a
span, ``Tracer.uninstall`` puts the originals back. Nothing under ``src/`` is
edited. A name is wrapped where its caller looks it up, so a function that
another module imported by name is wrapped in that module too, e.g.
``surfplan.cli.read_dataset_csv`` next to ``surfplan.dataio``'s own.

A span is ``[id, parent, iteration, name, start, end, meta]``; ``parent`` is
the id of the enclosing span and ``iteration`` the benchmark iteration it
belongs to. ``per_layer_metrics`` derives the per-layer numbers from them.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
import time

SPAN_FIELDS = ("id", "parent", "iteration", "name", "start", "end", "meta")


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _label_meta(fn, result, args, kwargs) -> dict:
    """Cases, (profile, target) pairs and lexicographic grid positions scanned.

    A feasible label at (d, r) cost the scan every grid point up to and
    including it; an infeasible pair cost the whole grid.
    """
    arguments = _bound(fn, args, kwargs)
    sweep = arguments["sweep"]
    distances = list(sweep.distances)
    n_rounds = sweep.rounds_max - sweep.rounds_min + 1
    profiles = len({record.noise.as_tuple() for record in arguments["records"]})
    pairs = profiles * len(arguments["menu"])
    scanned = sum(distances.index(case.distance) * n_rounds
                  + (case.rounds - sweep.rounds_min) + 1 for case in result)
    scanned += (pairs - len(result)) * len(distances) * n_rounds
    return {"cases": len(result), "pairs": pairs, "grid_points": scanned}


def _fit_meta(fn, result, args, kwargs) -> dict:
    return {"trees": len(result.trees),
            "nodes": sum(tree.node_count for tree in result.trees)}


def _path_arg(name):
    def meta(fn, result, args, kwargs) -> dict:
        return {"bytes": _size(_bound(fn, args, kwargs)[name])}
    return meta


def _csv_write_meta(fn, result, args, kwargs) -> dict:
    return {"rows": result, "bytes": _size(_bound(fn, args, kwargs)["path"])}


def _csv_read_meta(fn, result, args, kwargs) -> dict:
    return {"rows": len(result), "bytes": _size(_bound(fn, args, kwargs)["path"])}


# (module, attribute, span name, meta(fn, result, args, kwargs) or None)
TARGETS = (
    ("surfplan.oracle", "generate_dataset", "oracle.generate_dataset",
     lambda fn, result, args, kwargs: {"records": len(result)}),
    ("surfplan.cli", "generate_dataset", "oracle.generate_dataset",
     lambda fn, result, args, kwargs: {"records": len(result)}),
    ("surfplan.ml.pipeline", "build_training_cases", "ml.pipeline.build_training_cases",
     _label_meta),
    ("surfplan.cli", "build_training_cases", "ml.pipeline.build_training_cases",
     _label_meta),
    ("surfplan.models", "build_training_cases", "ml.pipeline.build_training_cases",
     _label_meta),
    ("surfplan.cli", "write_dataset_csv", "dataio.write_dataset_csv", _csv_write_meta),
    ("surfplan.cli", "read_dataset_csv", "dataio.read_dataset_csv", _csv_read_meta),
    ("surfplan.ml.pipeline", "fit_pipeline_cases", "ml.pipeline.fit_pipeline_cases", None),
    ("surfplan.models", "fit_pipeline_cases", "ml.pipeline.fit_pipeline_cases", None),
    ("surfplan.ml.pipeline", "fit_boosted", "ml.ensemble.fit_boosted", _fit_meta),
    ("surfplan.ml.pipeline", "fit_forest", "ml.ensemble.fit_forest", _fit_meta),
    ("surfplan.ml.pipeline", "predict", "ml.pipeline.predict", None),
    ("surfplan.ml.pipeline", "predict_many", "ml.pipeline.predict_many",
     lambda fn, result, args, kwargs: {"rows": len(result)}),
    ("surfplan.ml.pipeline", "PipelineModel.predict_result",
     "ml.pipeline.predict_result", None),
    ("surfplan.ml.serialize", "save_model", "ml.serialize.save_model", _path_arg("path")),
    ("surfplan.cli", "save_model", "ml.serialize.save_model", _path_arg("path")),
    ("surfplan.ml.serialize", "load_model", "ml.serialize.load_model", _path_arg("path")),
    ("surfplan.cli", "load_model", "ml.serialize.load_model", _path_arg("path")),
    ("surfplan.cli", "main", "cli.main", None),
    ("surfplan.evaluate", "evaluate_model", "evaluate.evaluate_model",
     lambda fn, result, args, kwargs: {"cases": result.n_cases}),
    ("surfplan.cli", "evaluate_model", "evaluate.evaluate_model",
     lambda fn, result, args, kwargs: {"cases": result.n_cases}),
    ("surfplan.models", "fit_named_model", "models.fit_named_model", None),
    ("surfplan.cli", "fit_named_model", "models.fit_named_model", None),
    ("surfplan.heuristics", "HeuristicModel.predict_result", "heuristics.predict_result",
     lambda fn, result, args, kwargs: {"label": args[0].kind.label}),
)


class Tracer:
    """Records spans while installed; keeps every span in memory."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.iteration = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, name, meta):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else None, self.iteration,
                      name, 0.0, 0.0, None]
            spans.append(record)
            stack.append(record[0])
            record[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = time.perf_counter()
                stack.pop()
            if meta is not None:
                record[6] = meta(fn, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def record(self, name, fn, *args):
        """``fn(*args)`` inside a span named ``name``."""
        return self._wrap(fn, name, None)(*args)

    def install(self, iteration) -> None:
        """Wrap every target; a target that no longer exists is listed in
        ``missing`` rather than skipped silently."""
        self.iteration = iteration
        for module_name, attr_path, name, meta in self.targets:
            target = f"{module_name}.{attr_path}"
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = attr_path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if target not in self.missing:
                    self.missing.append(target)
                continue
            own = attr in vars(owner)
            self._patches.append((owner, attr, original, own))
            setattr(owner, attr, self._wrap(original, name, meta))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self.iteration = None


# -- derivation ----------------------------------------------------------------


def _self_times(spans) -> dict[int, float]:
    """Span duration minus the time its direct children cover (one thread, so
    siblings never overlap)."""
    self_time = {span[0]: span[5] - span[4] for span in spans}
    for span in spans:
        if span[1] is not None:
            self_time[span[1]] -= span[5] - span[4]
    return self_time


def _outermost(spans) -> list:
    """Drop spans nested inside a span of the same name, so totals count once."""
    by_id = {span[0]: span for span in spans}
    kept = []
    for span in spans:
        parent = span[1]
        while parent is not None and by_id[parent][3] != span[3]:
            parent = by_id[parent][1]
        if parent is None:
            kept.append(span)
    return kept


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer_metrics(spans, iterations, heuristic_labels) -> dict:
    """Per-layer metrics, each ``(value, unit)``.

    ``*_s`` and count metrics are medians over ``iterations`` of the
    per-iteration total; per-call latencies are medians over calls; rates and
    fractions pool every traced iteration. A layer the workload never reached
    reads 0.
    """
    spans = _outermost(spans)
    self_time = _self_times(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[3], []).append(span)

    def per_iteration(name, value):
        totals = {iteration: 0.0 for iteration in iterations}
        for span in by_name.get(name, ()):
            if span[2] in totals:
                totals[span[2]] += value(span)
        return _median(list(totals.values()))

    def duration(span):
        return span[5] - span[4]

    def meta(key):
        return lambda span: (span[6] or {}).get(key, 0)

    def pooled(name, numerator):
        found = by_name.get(name, ())
        total_time = sum(duration(span) for span in found)
        return sum(numerator(span) for span in found) / total_time if total_time else 0.0

    def per_call(name, value, keep=lambda span: True):
        return _median([value(span) for span in by_name.get(name, ()) if keep(span)])

    def ratio(name, numerator, denominator):
        found = by_name.get(name, ())
        den = sum(denominator(span) for span in found)
        return sum(numerator(span) for span in found) / den if den else 0.0

    gen, label = "oracle.generate_dataset", "ml.pipeline.build_training_cases"
    write, read = "dataio.write_dataset_csv", "dataio.read_dataset_csv"
    io_bytes = (per_iteration(write, meta("bytes")) + per_iteration(read, meta("bytes")))
    fits = ("ml.ensemble.fit_boosted", "ml.ensemble.fit_forest")
    serialize_spans = (by_name.get("ml.serialize.save_model", [])
                       + by_name.get("ml.serialize.load_model", []))

    def batch(rows):
        return per_call("ml.pipeline.predict_many",
                        lambda span: duration(span) / rows * 1e6,
                        lambda span: meta("rows")(span) == rows)

    metrics = {
        "oracle.generate_s": (per_iteration(gen, duration), "s"),
        "oracle.records": (per_iteration(gen, meta("records")), "count"),
        "oracle.records_per_s": (pooled(gen, meta("records")), "1/s"),
        "ml.pipeline.label_s": (per_iteration(label, duration), "s"),
        "ml.pipeline.cases": (per_iteration(label, meta("cases")), "count"),
        "ml.pipeline.grid_points": (per_iteration(label, meta("grid_points")), "count"),
        "ml.pipeline.label_feasible_frac": (ratio(label, meta("cases"), meta("pairs")), "frac"),
        "dataio.write_s": (per_iteration(write, duration), "s"),
        "dataio.read_s": (per_iteration(read, duration), "s"),
        "dataio.read_rows_per_s": (pooled(read, meta("rows")), "1/s"),
        "dataio.csv_mb": (io_bytes / 1e6, "MB"),
        "ml.pipeline.fit_s": (per_iteration("ml.pipeline.fit_pipeline_cases", duration), "s"),
        "ml.ensemble.boosted_fit_s": (per_iteration(fits[0], duration), "s"),
        "ml.ensemble.forest_fit_s": (per_iteration(fits[1], duration), "s"),
        "ml.tree.fits": (sum(per_iteration(name, meta("trees")) for name in fits), "count"),
        "ml.tree.nodes": (sum(per_iteration(name, meta("nodes")) for name in fits), "count"),
        "ml.pipeline.predict_us_p50": (per_call("ml.pipeline.predict",
                                                lambda span: duration(span) * 1e6), "us"),
        "ml.pipeline.predict_many_us_per_row.b8": (batch(8), "us"),
        "ml.pipeline.predict_many_us_per_row.b1024": (batch(1024), "us"),
        "ml.serialize.save_ms": (per_call("ml.serialize.save_model",
                                          lambda span: duration(span) * 1e3), "ms"),
        "ml.serialize.load_ms": (per_call("ml.serialize.load_model",
                                          lambda span: duration(span) * 1e3), "ms"),
        "ml.serialize.model_kb": (_median([meta("bytes")(span) / 1e3
                                           for span in serialize_spans]), "KB"),
        "cli.self_ms": (per_call("cli.main", lambda span: self_time[span[0]] * 1e3), "ms"),
        "evaluate.evaluate_s": (per_iteration("evaluate.evaluate_model", duration), "s"),
        "evaluate.self_s": (per_iteration("evaluate.evaluate_model",
                                          lambda span: self_time[span[0]]), "s"),
        "evaluate.cases": (per_iteration("evaluate.evaluate_model", meta("cases")), "count"),
        "models.fit_s": (per_iteration("models.fit_named_model", duration), "s"),
    }
    heuristic = by_name.get("heuristics.predict_result", [])
    for kind in heuristic_labels:
        calls = [duration(span) for span in heuristic if span[6] and span[6]["label"] == kind]
        metrics[f"heuristics.{kind}.ms_per_case"] = (
            sum(calls) / len(calls) * 1e3 if calls else 0.0, "ms")
    return metrics
