"""File formats: the dataset CSV, calibration snapshots, and report files.

Dataset CSV schema (header mandatory, column order fixed):

    depolarizing,gate,reset,readout,distance,rounds,logical_error_rate

Rates and error rates are written in scientific notation with 17 digits after
the point, which round-trips float64 exactly; distance and rounds are plain
integers. The reader parses a valid body in fixed row chunks with
``np.loadtxt``, keeping the profile cells as text and converting each run of
identical profile text once; any file that fails that parse or a check, or
has a line over 1,024 characters, is read again row by row, and that reader
alone words the errors. Calibration snapshots are flat JSON objects with keys
``device``, ``timestamp``, ``depolarizing``, ``gate``, ``reset``, ``readout``.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    PROFILE_FIELDS,
    CodeParams,
    Dataset,
    DatasetRecord,
    NoiseProfile,
    ValidationError,
    check_number,
)
from .evaluate import ComparisonRow, EvalReport
from .oracle import meets_target

DATASET_HEADER = PROFILE_FIELDS + ("distance", "rounds", "logical_error_rate")

# Body rows per bulk-parse chunk. A chunk's profile cells are held as bytes
# fields as wide as its longest line, so the chunk and the widest line the bulk
# parse takes bound that buffer (16 MiB); a longer line is read row-wise.
_CHUNK_ROWS = 4096
_MAX_BULK_WIDTH = 1024

CALIBRATION_KEYS = ("device", "timestamp") + PROFILE_FIELDS


class DataFormatError(ValidationError):
    """A file does not match its documented schema."""


def _fmt(value: float) -> str:
    return format(float(value), ".17e")


def write_dataset_csv(dataset: Dataset, path: str | os.PathLike) -> int:
    """Write records; returns the row count. Output is byte-deterministic.

    The profile cells are formatted once per profile block, and each block's
    rows are written in one call.
    """
    bounds = dataset.block_bounds().tolist()
    distance, rounds = dataset.distance.tolist(), dataset.rounds.tolist()
    ler = dataset.logical_error_rate.tolist()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(DATASET_HEADER) + "\n")
        for profile, start, stop in zip(dataset.profiles.tolist(), bounds, bounds[1:]):
            prefix = ",".join([_fmt(value) for value in profile] + [""])
            handle.write("".join([f"{prefix}{d},{r},{v:.17e}\n" for d, r, v in zip(
                distance[start:stop], rounds[start:stop], ler[start:stop])]))
    return len(dataset)


def _parse_cell(row_number: int, column: str, text: str, kind: type):
    try:
        if kind is int:
            return int(text)
        return float(text)
    except ValueError as exc:
        raise DataFormatError(
            f"row {row_number}, column '{column}': cannot parse {text!r}") from exc


def read_dataset_csv(path: str | os.PathLike) -> Dataset:
    """Parse and validate a dataset CSV; errors carry the row and column.

    The body is parsed in chunks of ``_CHUNK_ROWS`` rows by ``np.loadtxt``
    and checked column by column. ``loadtxt`` is stricter than
    ``int``/``float`` and ``csv`` (``3.0``, ``3_0`` and quoted cells fail
    it), so a file that fails the bulk parse or any check is read again by
    the row-wise reader, which raises the error or returns the records.
    """
    dataset = _read_columns(path)
    return dataset if dataset is not None else _read_rows(path)


def _read_columns(path: str | os.PathLike) -> Optional[Dataset]:
    """The dataset from a chunked bulk parse, or None when the header, any
    cell or any check fails.

    Each chunk gives a table with one row per run of identical profile text
    and each record's run; the ``Dataset`` constructor then merges
    neighbouring runs whose values have equal bits (``1e-4`` and ``0.0001``,
    or one block cut by a chunk boundary) into one profile row.
    """
    tables, chunks, run_count = [], [], 0
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            if next(csv.reader(handle), None) != list(DATASET_HEADER):
                return None
            while lines := list(itertools.islice(handle, _CHUNK_ROWS)):
                # A bytes field drops trailing NULs, which float() rejects.
                if "\x00" in "".join(lines):
                    return None
                table, run, *columns = _parse_chunk(lines)
                tables.append(table)
                chunks.append([run + run_count, *columns])
                run_count += len(table)
        if not chunks:
            return Dataset.from_rows([], [], [], [])
        return Dataset(np.concatenate(tables),
                       *[np.concatenate(column) for column in zip(*chunks)])
    except (ValueError, csv.Error):
        return None


def _parse_chunk(lines: list[str]) -> tuple[np.ndarray, ...]:
    """Some body lines as a run table, each line's run, and the distance,
    rounds and logical_error_rate columns.

    A run is a stretch of lines with identical profile text. The profile
    cells are parsed as bytes fields as wide as the longest line, so none is
    truncated, and each run's cells are converted once, with ``float`` as the
    row-wise reader does. Raises ValueError on any cell that ``loadtxt`` or
    ``float`` rejects, and on a line over ``_MAX_BULK_WIDTH`` characters.
    """
    width = max(map(len, lines))
    if width > _MAX_BULK_WIDTH:
        raise ValueError(f"a {width}-character line is left to the row-wise reader")
    dtype = np.dtype([("noise", f"S{width}", (4,)), ("distance", np.int64),
                      ("rounds", np.int64), ("logical_error_rate", np.float64)])
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    # The cells fill the first 4 * width bytes of a row, NUL-padded; with no
    # NUL in the text, equal text means equal words.
    words = rows.view(np.uint32).reshape(len(rows), dtype.itemsize // 4)[:, :width]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (words[1:] != words[:-1]).any(axis=1)
    table = np.array([float(cell) for cell in rows["noise"][starts].ravel().tolist()])
    return (table.reshape(-1, 4), np.cumsum(starts) - 1, rows["distance"].copy(),
            rows["rounds"].copy(), rows["logical_error_rate"].copy())


def _numbered_rows(handle):
    """(row number, row) for each row ``csv.reader`` reads, the header being
    row 1; a row the reader rejects (a field over its size limit, say) is a
    DataFormatError naming the row."""
    row_number = 0
    try:
        for row_number, row in enumerate(csv.reader(handle), start=1):
            yield row_number, row
    except csv.Error as exc:
        raise DataFormatError(f"row {row_number + 1}: {exc}") from None


def _read_rows(path: str | os.PathLike) -> Dataset:
    """The row-wise reader: cells are parsed in column order, the first bad
    cell is reported, and each row is checked as a ``DatasetRecord``."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = _numbered_rows(handle)
        _, header = next(reader, (1, None))
        if header is None:
            raise DataFormatError("empty file: missing header")
        if tuple(header) != DATASET_HEADER:
            raise DataFormatError(
                f"bad header {header!r}; expected {','.join(DATASET_HEADER)}")
        for row_number, row in reader:
            if not row:
                continue
            if len(row) != len(DATASET_HEADER):
                raise DataFormatError(
                    f"row {row_number}: expected {len(DATASET_HEADER)} fields, got {len(row)}")
            rates = tuple(_parse_cell(row_number, column, text, float)
                          for column, text in zip(DATASET_HEADER[:4], row))
            distance = _parse_cell(row_number, "distance", row[4], int)
            rounds = _parse_cell(row_number, "rounds", row[5], int)
            ler = _parse_cell(row_number, "logical_error_rate", row[6], float)
            try:
                # Code point, then profile, then rate, as Dataset checks them.
                DatasetRecord(params=CodeParams(distance=distance, rounds=rounds),
                              noise=NoiseProfile(*rates), logical_error_rate=ler)
            except ValidationError as exc:
                raise DataFormatError(f"row {row_number}: {exc}") from exc
            rows.append((rates, distance, rounds, ler))
    noise, distance, rounds, ler = zip(*rows) if rows else ((), (), (), ())
    try:
        distance, rounds = np.array(distance, dtype=np.int64), np.array(rounds, dtype=np.int64)
    except OverflowError:
        raise DataFormatError("distance and rounds must fit in a signed 64-bit integer") from None
    return Dataset.from_rows(noise, distance, rounds, ler)


@dataclass(frozen=True)
class CalibrationSnapshot:
    device: str
    timestamp: str
    profile: NoiseProfile


def read_calibration(path: str | os.PathLike) -> CalibrationSnapshot:
    """Load a calibration snapshot. The keys must match the schema exactly,
    ``device`` and ``timestamp`` must be strings, and each rate must pass
    ``check_number`` (a finite number) before the profile checks its range."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"invalid calibration JSON {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DataFormatError("calibration snapshot must be a JSON object")
    missing = [key for key in CALIBRATION_KEYS if key not in data]
    unknown = [key for key in data if key not in CALIBRATION_KEYS]
    if missing or unknown:
        raise DataFormatError(
            f"calibration snapshot keys mismatch: missing {missing}, unknown {unknown}")
    for key in ("device", "timestamp"):
        if not isinstance(data[key], str):
            raise DataFormatError(
                f"calibration key '{key}' must be a string, got {type(data[key]).__name__}")
    try:
        rates = [check_number(f"calibration key '{key}'", data[key]) for key in PROFILE_FIELDS]
    except ValidationError as exc:
        raise DataFormatError(str(exc)) from None
    return CalibrationSnapshot(device=data["device"], timestamp=data["timestamp"],
                               profile=NoiseProfile(*rates))


# -- report files -----------------------------------------------------------


def report_scalars(report: EvalReport) -> dict:
    """The deterministic scalar section of report.json (timing excluded)."""
    return {
        "n_cases": report.n_cases,
        "pearson": {
            "raw_distance": report.pearson_raw_distance,
            "rounded_distance": report.pearson_rounded_distance,
            "raw_rounds": report.pearson_raw_rounds,
            "rounded_rounds": report.pearson_rounded_rounds,
        },
        "achievement_fraction": report.achievement_fraction,
        "deltas": {
            "count": len(report.dler_tler_deltas),
            "mean": (sum(report.dler_tler_deltas) / len(report.dler_tler_deltas)
                     if report.dler_tler_deltas else None),
            "min": min(report.dler_tler_deltas) if report.dler_tler_deltas else None,
            "max": max(report.dler_tler_deltas) if report.dler_tler_deltas else None,
            "positive_count": sum(1 for dler, target in zip(report.dler, report.targets)
                                  if not meets_target(dler, target)),
            "p95_positive_over_target": report.positive_delta_over_target_p95,
        },
        "dler_source": "synthetic-oracle",
    }


def write_report_json(report: EvalReport, path: str | os.PathLike) -> None:
    payload = report_scalars(report)
    # Wall-clock; not covered by determinism checks.
    payload["timing_ms"] = {"mean": report.latency_mean_ms}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def write_deltas_csv(report: EvalReport, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("target_ler,dler,delta,pred_distance,pred_rounds,"
                     "opt_distance,opt_rounds\n")
        rows = zip(report.targets, report.dler, report.dler_tler_deltas,
                   report.predicted_distance, report.predicted_rounds,
                   report.optimal_distance, report.optimal_rounds)
        for target, dler, delta, pd, pr, od, orr in rows:
            handle.write(f"{_fmt(target)},{_fmt(dler)},{_fmt(delta)},"
                         f"{pd},{pr},{od},{orr}\n")


def write_heatmap_csv(report: EvalReport, path: str | os.PathLike) -> None:
    """Predicted-vs-optimal distance bins: one row per (pred, opt) pair."""
    counts: dict[tuple[int, int], int] = {}
    for pred, opt in zip(report.predicted_distance, report.optimal_distance):
        counts[(pred, opt)] = counts.get((pred, opt), 0) + 1
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("pred_distance,opt_distance,count\n")
        for (pred, opt) in sorted(counts):
            handle.write(f"{pred},{opt},{counts[(pred, opt)]}\n")


def write_comparison_csv(rows: list[ComparisonRow], path: str | os.PathLike) -> None:
    def cell(value: Optional[float]) -> str:
        return "" if value is None else _fmt(value)

    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("model,pearson_raw_distance,pearson_raw_rounds,"
                     "pearson_rounded_distance,pearson_rounded_rounds\n")
        for row in rows:
            handle.write(f"{row.model},{cell(row.pearson_raw_distance)},"
                         f"{cell(row.pearson_raw_rounds)},"
                         f"{cell(row.pearson_rounded_distance)},"
                         f"{cell(row.pearson_rounded_rounds)}\n")
