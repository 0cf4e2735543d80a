"""Hostile-input fuzzing of the CLI, in process.

Each example takes one valid input file (a pipeline, linear or heuristic
model of any of the eight kinds, a config or a calibration snapshot, all built
on a 3-profile dataset), replaces one field at any depth, array elements
included, with a hostile JSON value or truncates the file, and runs
``predict``, ``evaluate`` or ``generate`` on it. The dataset CSV itself is
fuzzed the same way, one cell replaced by a hostile string or the file
truncated, and given to ``train`` and ``evaluate``. Last, one bit of a saved
pipeline file, a saved heuristic file or the dataset CSV is flipped, and the
file is given to every command that reads it. Whatever the input, the CLI
must end with one of its documented exit codes and print no traceback.
"""

import contextlib
import io
import json
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from surfplan import HeuristicWeights, OracleConfig, SweepConfig
from surfplan.cli import main
from surfplan.models import HEURISTIC_NAMES

HOSTILE = (None, True, "x", [], {}, -1, 1.5, 10 ** 19, 1e308)
# Dataset CSV cells: empty, quoted, a NUL, a lone carriage return, digits the
# bulk parse rejects, non-finite values, an integer past Python's digit limit
# and a field past the csv module's size limit.
HOSTILE_CELLS = ("", '"1e-3"', "\x00", "\r", "3_0", "nan", "inf", "9" * 5000, "1" * 200_000)
MODELS = ("pipeline", "linear") + HEURISTIC_NAMES
RATES = ["--depol", "2e-4", "--gate", "1.2e-3", "--reset", "5e-4", "--readout", "3e-3"]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The valid input files as parsed JSON, and the paths the commands use."""
    root = tmp_path_factory.mktemp("hostile")
    sweep = {key: value for key, value in asdict(SweepConfig()).items() if key != "seed"}
    config = {"seed": 11, "oracle": asdict(OracleConfig()),
              "sweep": {**sweep, "profiles_per_run": 3},
              "stage1": {"n_estimators": 10, "max_depth": 3},
              "stage2": {"n_estimators": 4, "max_depth": 6},
              "heuristic_weights": asdict(HeuristicWeights())}
    paths = {"config": root / "config.json", "data": root / "data.csv",
             "calibration": root / "calibration.json", "out": root / "out"}
    paths["config"].write_text(json.dumps(config))
    paths["calibration"].write_text(json.dumps({
        "device": "backend_a", "timestamp": "2026-08-01T00:00:00Z",
        "depolarizing": 2e-4, "gate": 1.2e-3, "reset": 5e-4, "readout": 3e-3}))
    assert _run(["generate", "--config", str(paths["config"]),
                 "--out", str(paths["data"])])[0] == 0
    for name in MODELS:
        paths[name] = root / f"{name.replace(':', '_')}.json"
        assert _run(["train", "--data", str(paths["data"]), "--model", name,
                     "--out-model", str(paths[name]), "--config", str(paths["config"])])[0] == 0
    documents = {kind: json.loads(paths[kind].read_text())
                 for kind in MODELS + ("config", "calibration")}
    return documents, {key: str(path) for key, path in paths.items()}


def _commands(kind, bad, paths):
    """The commands that read a ``kind`` input file, given ``bad`` in its place."""
    predict = ["predict", "--target", "1e-6"]
    evaluate = ["evaluate", "--data", paths["data"], "--out-dir", paths["out"]]
    if kind == "calibration":
        return [predict + ["--model", paths["pipeline"], "--calibration", bad]]
    if kind == "config":
        return [["generate", "--config", bad, "--out", paths["out"] + ".csv"],
                evaluate + ["--model", paths["pipeline"], "--config", bad]]
    return [predict + ["--model", bad] + RATES,
            evaluate + ["--model", bad, "--config", paths["config"]]]


def _csv_commands(bad, paths):
    """The commands that read a dataset CSV, given ``bad`` in its place."""
    return [["train", "--data", bad, "--config", paths["config"],
             "--out-model", paths["out"] + ".json"],
            ["evaluate", "--data", bad, "--model", paths["pipeline"],
             "--config", paths["config"], "--out-dir", paths["out"]]]


def test_the_valid_inputs_run(inputs):
    _, paths = inputs
    for kind in MODELS + ("config", "calibration"):
        for argv in _commands(kind, paths[kind], paths):
            assert _run(argv)[0] == 0, (kind, argv)


def _fields(node, path=()):
    """Every path into ``node``, with None standing for any list index."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _fields(child, path + (key,))
    elif isinstance(node, list):
        for child in node:
            yield from _fields(child, path + (None,))


@st.composite
def hostile_files(draw, documents):
    """(kind, text): one input file with one field replaced, or truncated.

    The file is a pipeline, linear or heuristic model, a config or a
    calibration, each as likely; a heuristic is one of the eight kinds. The
    field is drawn from the document's distinct paths, so a field of the
    envelope weighs as much as a tree threshold; a list index on the way is
    drawn next.
    """
    kind = draw(st.sampled_from(["calibration", "config", "heuristic", "linear", "pipeline"]))
    if kind == "heuristic":
        kind = draw(st.sampled_from(HEURISTIC_NAMES))
    document = json.loads(json.dumps(documents[kind]))  # a copy to change
    text = json.dumps(document)
    if draw(st.integers(0, 9)) == 0:
        return kind, text[:draw(st.integers(0, len(text) - 1))]
    fields = sorted(set(_fields(document)), key=repr)
    field = draw(st.sampled_from(fields))
    value = draw(st.sampled_from(HOSTILE))
    if not field:
        return kind, json.dumps(value)
    parent = document
    for key in field[:-1]:
        parent = parent[key if key is not None else draw(st.integers(0, len(parent) - 1))]
    key = field[-1] if field[-1] is not None else draw(st.integers(0, len(parent) - 1))
    parent[key] = value
    return kind, json.dumps(document)


@given(data=st.data())
@settings(max_examples=250, suppress_health_check=[HealthCheck.too_slow])
def test_hostile_file_exits_with_a_documented_code(inputs, tmp_path_factory, data):
    documents, paths = inputs
    kind, text = data.draw(hostile_files(documents))
    bad = tmp_path_factory.getbasetemp() / "hostile_input.json"
    bad.write_text(text)
    argv = data.draw(st.sampled_from(_commands(kind, str(bad), paths)))
    code, err = _run(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@st.composite
def hostile_csvs(draw, text):
    """A dataset CSV with one cell, the header's included, replaced by a
    hostile string, or truncated."""
    if draw(st.integers(0, 9)) == 0:
        return text[:draw(st.integers(0, len(text) - 1))]
    lines = text.split("\n")
    row = draw(st.integers(0, len(lines) - 2))
    cells = lines[row].split(",")
    cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(HOSTILE_CELLS))
    lines[row] = ",".join(cells)
    return "\n".join(lines)


@given(data=st.data())
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_hostile_csv_exits_with_a_documented_code(inputs, tmp_path_factory, data):
    _, paths = inputs
    with open(paths["data"], encoding="utf-8", newline="") as handle:
        text = handle.read()
    bad = tmp_path_factory.getbasetemp() / "hostile_input.csv"
    with open(bad, "w", encoding="utf-8", newline="") as handle:
        handle.write(data.draw(hostile_csvs(text)))
    code, err = _run(data.draw(st.sampled_from(_csv_commands(str(bad), paths))))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@given(data=st.data())
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
def test_bit_flip_exits_with_a_documented_code(inputs, tmp_path_factory, data):
    _, paths = inputs
    kind = data.draw(st.sampled_from(["pipeline", "heuristic:range_search_w", "data"]))
    with open(paths[kind], "rb") as handle:
        flipped = bytearray(handle.read())
    flipped[data.draw(st.integers(0, len(flipped) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    bad = tmp_path_factory.getbasetemp() / ("bit_flip.csv" if kind == "data" else "bit_flip.json")
    bad.write_bytes(flipped)
    if kind == "data":
        commands = _csv_commands(str(bad), paths)
    else:
        commands = _commands(kind, str(bad), paths)
    code, err = _run(data.draw(st.sampled_from(commands)))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
