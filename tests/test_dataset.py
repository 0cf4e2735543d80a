"""The columnar Dataset against the list-of-records reference.

A Dataset built from the columns of a list of DatasetRecord must stand for
that list: its record views hold the same values row by row, two datasets
are equal exactly when their lists are, and it gives the same distinct
profiles and the same CSV. The bulk CSV reader must agree with the row-wise
reader, in records or in the exact error message, and the valid-input path
must build no DatasetRecord at all.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfplan import dataio
from surfplan.config import load_config
from surfplan.core import (
    CodeParams,
    Dataset,
    DatasetRecord,
    HeuristicWeights,
    NoiseProfile,
    ValidationError,
)
from surfplan.dataio import DATASET_HEADER, read_dataset_csv, write_dataset_csv
from surfplan.heuristics import HeuristicKind, fit_heuristic
from surfplan.ml.pipeline import build_training_cases, distinct_profiles
from surfplan.oracle import SweepConfig, generate_dataset

HEADER = ",".join(DATASET_HEADER)

_RATE = st.one_of(st.sampled_from([0.0, -0.0, 1e-4, 5e-3]),
                  st.floats(min_value=1e-12, max_value=0.999))
_PROFILES = st.tuples(_RATE, _RATE, _RATE, _RATE).filter(
    lambda rates: any(rate != 0.0 for rate in rates)).map(lambda rates: NoiseProfile(*rates))
# Profile rows as tuples; the first two differ only in the sign of a zero.
_ROWS = st.one_of(st.sampled_from([(0.0, 1e-3, 1e-4, 1e-3), (-0.0, 1e-3, 1e-4, 1e-3)]),
                  _PROFILES.map(NoiseProfile.as_tuple))
_LER = st.one_of(st.sampled_from([1.0, 1e-15, 5e-324]),
                 st.floats(min_value=5e-324, max_value=1.0))


@st.composite
def record_lists(draw, max_size=40):
    """Records over a few profiles, with runs, non-adjacent repeats, equal
    profiles as separate objects, and signed zeros."""
    profiles = draw(st.lists(_PROFILES, min_size=1, max_size=5))
    records = []
    for _ in range(draw(st.integers(0, max_size))):
        noise = profiles[draw(st.integers(0, len(profiles) - 1))]
        if draw(st.booleans()):
            noise = NoiseProfile(*noise.as_tuple())  # equal, not identical
        records.append(DatasetRecord(
            noise=noise,
            params=CodeParams(distance=draw(st.sampled_from([3, 5, 7, 19, 101])),
                              rounds=draw(st.integers(1, 80))),
            logical_error_rate=draw(_LER)))
    return records


def _dataset(records) -> Dataset:
    """The records' columns as a Dataset."""
    return Dataset.from_rows([r.noise.as_tuple() for r in records],
                             [r.params.distance for r in records],
                             [r.params.rounds for r in records],
                             [r.logical_error_rate for r in records])


def _bits(records) -> list:
    """Every field of every record, floats as their exact hex."""
    return [(tuple(float(v).hex() for v in r.noise.as_tuple()), r.params.distance,
             r.params.rounds, float(r.logical_error_rate).hex()) for r in records]


def _reference_distinct_profiles(records) -> list:
    seen = {}
    for record in records:
        seen.setdefault(record.noise.as_tuple(), record.noise)
    return list(seen.values())


def _reference_csv(records) -> str:
    """The per-record writer the block writer replaced."""
    def fmt(value):
        return format(float(value), ".17e")

    lines = [HEADER]
    for r in records:
        lines.append(",".join([fmt(v) for v in r.noise.as_tuple()]
                              + [str(r.params.distance), str(r.params.rounds),
                                 fmt(r.logical_error_rate)]))
    return "\n".join(lines) + "\n"


def _outcome(read, path):
    """The records' bits, or the error type and message."""
    try:
        return _bits(read(path))
    except (ValidationError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)


class TestMatchesRecordList:
    @settings(max_examples=150)
    @given(record_lists())
    def test_rows_match(self, records):
        dataset = _dataset(records)
        assert len(dataset) == len(records)
        assert list(dataset) == records
        assert _bits(dataset) == _bits(records)

    @settings(max_examples=100)
    @given(record_lists(max_size=15), record_lists(max_size=15))
    def test_equality_matches(self, first, second):
        assert (_dataset(first) == _dataset(second)) == (first == second)
        assert (_dataset(first) != _dataset(second)) == (first != second)
        # A dataset equals datasets only.
        assert _dataset(first) != first

    @settings(max_examples=100)
    @given(record_lists())
    def test_distinct_profiles_match(self, records):
        expected = _reference_distinct_profiles(records)
        got = distinct_profiles(_dataset(records))
        assert [p.as_tuple() for p in got] == [p.as_tuple() for p in expected]
        # The first appearance wins, signed zeros included.
        assert ([tuple(math.copysign(1.0, v) for v in p.as_tuple()) for p in got]
                == [tuple(math.copysign(1.0, v) for v in p.as_tuple()) for p in expected])

    def test_equal_up_to_signed_zero(self):
        plus = DatasetRecord(NoiseProfile(0.0, 1e-3, 0.0, 0.0), CodeParams(3, 1), 1e-3)
        minus = DatasetRecord(NoiseProfile(-0.0, 1e-3, 0.0, 0.0), CodeParams(3, 1), 1e-3)
        assert _dataset([plus]) == _dataset([minus])
        assert list(_dataset([plus])) == [minus]
        assert _dataset([plus, minus]).profiles.shape == (2, 4)
        [view] = _dataset([minus])
        assert view.noise.depolarizing.hex() == "-0x0.0p+0"

    def test_empty(self):
        empty = Dataset.from_rows([], [], [], [])
        assert len(empty) == 0 and not empty
        assert empty == _dataset([])
        assert list(empty) == []
        assert empty.profiles.shape == (0, 4)


class TestColumns:
    def test_arrays_are_read_only_copies(self):
        table = np.array([[1e-4, 1e-3, 1e-4, 1e-3]])
        index, distance = np.array([0, 0]), np.array([3, 5])
        dataset = Dataset(table, index, distance, np.array([1, 1]), np.array([1e-3, 1e-4]))
        table[0, 0] = 0.5
        distance[0] = 9
        assert dataset.profiles[0, 0] == 1e-4 and dataset.distance[0] == 3
        for column in (dataset.profiles, dataset.profile_index, dataset.distance,
                       dataset.rounds, dataset.logical_error_rate):
            assert column.flags.writeable is False
        with pytest.raises(ValueError):
            dataset.rounds[0] = 2
        with pytest.raises(AttributeError):
            dataset.rounds = np.array([2, 2])

    @pytest.mark.parametrize("index", [[1, 1], [0, 2], [0, 1, 0], [0, 0, 0]])
    def test_profile_index_must_walk_the_blocks(self, index):
        table = np.array([[1e-4, 1e-3, 1e-4, 1e-3], [2e-4, 1e-3, 1e-4, 1e-3]])
        n = len(index)
        with pytest.raises(ValidationError, match="profile_index"):
            Dataset(table, index, [3] * n, [1] * n, [1e-3] * n)

    def test_from_blocks_merges_neighbouring_rows_with_equal_bits(self):
        a, b = [1e-4, 1e-3, 1e-4, 1e-3], [2e-4, 1e-3, 1e-4, 1e-3]
        table = [a, a, [0.0] + b[1:], [-0.0] + b[1:], b, a]
        block = [0, 1, 1, 2, 3, 4, 5, 5]
        n = len(block)
        columns = ([3] * n, list(range(1, n + 1)), [1e-3] * n)
        dataset = Dataset(table, block, *columns)
        assert dataset.profiles.tobytes() == np.array([a, [0.0] + b[1:], [-0.0] + b[1:],
                                                       b, a]).tobytes()
        assert dataset.profile_index.tolist() == [0, 0, 0, 1, 2, 3, 4, 4]
        assert _bits(dataset) == _bits(Dataset.from_rows(np.array(table)[block], *columns))
        with pytest.raises(ValidationError, match="profile_index"):
            Dataset(table, [0, 3, 3, 3, 4, 4, 5, 5], *columns)

    @given(runs=st.lists(st.tuples(_ROWS, st.integers(1, 3)), min_size=1, max_size=6),
           data=st.data())
    @settings(max_examples=60)
    def test_no_two_neighbouring_profile_rows_have_equal_bits(self, runs, data):
        # A table with repeated neighbouring rows, signed zeros among them,
        # builds the dataset that the same records give row by row.
        table = np.array([row for row, copies in runs for _ in range(copies)])
        per_row = data.draw(st.lists(st.integers(1, 3), min_size=len(table),
                                     max_size=len(table)))
        block = np.repeat(np.arange(len(table)), per_row)
        columns = ([3] * block.size, list(range(1, block.size + 1)), [1e-3] * block.size)
        dataset = Dataset(table, block, *columns)
        bits = dataset.profiles.view(np.uint64)
        assert (bits[1:] != bits[:-1]).any(axis=1).all()
        assert dataset.noise().tobytes() == table[block].tobytes()
        for column in (dataset.profiles, dataset.profile_index, dataset.distance,
                       dataset.rounds, dataset.logical_error_rate):
            assert column.flags.writeable is False
        by_rows = Dataset.from_rows(table[block], *columns)
        assert dataset == by_rows
        assert dataset.profiles.tobytes() == by_rows.profiles.tobytes()
        assert dataset.profile_index.tolist() == by_rows.profile_index.tolist()

    def test_integer_columns_only(self):
        with pytest.raises(ValidationError, match="distance must be an integer column"):
            Dataset([[1e-4, 1e-3, 1e-4, 1e-3]], [0], [3.0], [1], [1e-3])
        with pytest.raises(ValidationError, match="rounds must be an integer column"):
            Dataset([[1e-4, 1e-3, 1e-4, 1e-3]], [0], [3], [True], [1e-3])

    def test_distance_beyond_64_bits_rejected(self, tmp_path):
        path = tmp_path / "big.csv"
        for distance, rounds in [(2 ** 63 + 1, 1), (2 ** 64 + 1, 1), (3, 2 ** 63)]:
            path.write_text(f"{HEADER}\n1e-4,1e-3,1e-4,1e-3,{distance},{rounds},1e-3\n")
            with pytest.raises(ValidationError, match="64-bit"):
                read_dataset_csv(path)

    @pytest.mark.parametrize("value", [2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1])
    def test_python_ints_beyond_64_bits_rejected(self, value):
        # Such a column parses as uint64; an int64 copy would wrap it.
        profile = ([[1e-4, 1e-3, 1e-4, 1e-3]], [0])
        with pytest.raises(ValidationError, match="distance must fit in a signed 64-bit"):
            Dataset(*profile, [value], [1], [1e-3])
        with pytest.raises(ValidationError, match="rounds must fit in a signed 64-bit"):
            Dataset(*profile, [3], [value], [1e-3])

    @settings(max_examples=150)
    @given(record_lists(max_size=12), st.data())
    def test_first_bad_row_raises_its_record_message(self, records, data):
        """One bad cell among valid rows: the column check raises what
        building that row's CodeParams, then DatasetRecord, raises."""
        if not records:
            return
        noise = np.array([r.noise.as_tuple() for r in records]).reshape(-1, 4)
        distance = np.array([r.params.distance for r in records])
        rounds = np.array([r.params.rounds for r in records])
        ler = np.array([r.logical_error_rate for r in records])
        row = data.draw(st.integers(0, len(records) - 1))
        column, value = data.draw(st.sampled_from([
            ("distance", 4), ("distance", 1), ("distance", -3), ("rounds", 0),
            ("ler", 0.0), ("ler", 1.5), ("ler", math.nan), ("ler", -math.inf),
            ("noise", math.nan), ("noise", 1.0), ("noise", -1e-3), ("noise", math.inf),
            ("zero", 0.0)]))
        if column == "distance":
            distance[row] = value
        elif column == "rounds":
            rounds[row] = value
        elif column == "ler":
            ler[row] = value
        elif column == "noise":
            noise[row, data.draw(st.integers(0, 3))] = value
        else:
            noise[row] = 0.0
        with pytest.raises(ValidationError) as expected:
            for i in range(len(records)):
                DatasetRecord(NoiseProfile(*noise[i].tolist()),
                              CodeParams(int(distance[i]), int(rounds[i])), float(ler[i]))
        with pytest.raises(ValidationError) as got:
            Dataset.from_rows(noise, distance, rounds, ler)
        assert str(got.value) == str(expected.value)

    def test_record_faults_are_named_code_point_then_profile_then_rate(self, tmp_path):
        faults = [("-1e-4", "4", "0", "distance must be odd, got 4"),
                  ("-1e-4", "3", "0", "depolarizing must be in [0, 1), got -0.0001"),
                  ("1e-4", "3", "0", "logical_error_rate must be in (0, 1], got 0.0")]
        path = tmp_path / "faults.csv"
        for depolarizing, distance, ler, message in faults:
            with pytest.raises(ValidationError) as got:
                Dataset([[float(depolarizing), 2e-3, 1e-4, 3e-3]], [0], [int(distance)], [2],
                        [float(ler)])
            assert str(got.value) == message
            path.write_text(f"{HEADER}\n{depolarizing},2e-3,1e-4,3e-3,{distance},2,{ler}\n")
            with pytest.raises(ValidationError) as got:
                read_dataset_csv(path)
            assert str(got.value) == f"row 2: {message}"


class TestCsv:
    @settings(max_examples=60)
    @given(records=record_lists())
    def test_round_trip_is_byte_exact(self, records, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        assert write_dataset_csv(_dataset(records), path) == len(records)
        text = path.read_bytes()
        assert text.decode() == _reference_csv(records)
        back = read_dataset_csv(path)
        assert _bits(back) == _bits(records)
        write_dataset_csv(back, path)
        assert path.read_bytes() == text

    @settings(max_examples=60)
    @given(records=record_lists())
    def test_bulk_reader_matches_row_wise_reader(self, records, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        write_dataset_csv(_dataset(records), path)
        bulk = dataio._read_columns(path)
        assert bulk is not None, "a valid file must not need the row-wise reader"
        assert _bits(bulk) == _bits(dataio._read_rows(path))

    def test_valid_file_never_runs_row_wise_reader(self, tmp_path, monkeypatch):
        small = generate_dataset(SweepConfig(profiles_per_run=3, seed=4))
        large = generate_dataset(SweepConfig(profiles_per_run=12, seed=4))
        assert len(small) < dataio._CHUNK_ROWS < len(large)
        files = []
        for name, records in (("small", small), ("large", large)):
            files.append((tmp_path / f"{name}.csv", records))
            write_dataset_csv(records, files[-1][0])
        # Profile cells with 30 significant digits still round to the same floats.
        wide = tmp_path / "wide.csv"
        wide.write_text("\n".join([HEADER] + [
            ",".join([format(v, ".29e") for v in r.noise.as_tuple()]
                     + [str(r.params.distance), str(r.params.rounds),
                        format(r.logical_error_rate, ".17e")])
            for r in small]) + "\n")
        files.append((wide, small))

        def fail(path):
            raise AssertionError("row-wise reader ran")

        monkeypatch.setattr(dataio, "_read_rows", fail)
        for path, records in files:
            back = read_dataset_csv(path)
            assert back == records
            assert back.profiles.shape[0] == records.profiles.shape[0]

    GOOD = "1e-4,2e-3,1e-4,3e-3,3,1,1e-3"
    SEEN = "1e-4,2e-3,1e-4,3e-3,"

    @pytest.mark.parametrize("body", [
        [GOOD, SEEN + "+3,2,1e-3"],
        [GOOD, SEEN + " 3,2,1e-3"],
        [GOOD, SEEN + "3_0,2,1e-3"],
        [GOOD, SEEN + "3.0,2,1e-3"],
        [GOOD, SEEN + "3e0,2,1e-3"],
        [GOOD, SEEN + '3,2,"1e-3"'],
        ['"1e-4",2e-3,1e-4,3e-3,3,1,1e-3'],
        [GOOD, SEEN + "3,2,1_0e-4"],
        [GOOD, "", "", SEEN + "3,2,1e-3", ""],
        [GOOD, "   ", SEEN + "3,2,1e-3"],
        [GOOD, "\t"],
        [GOOD, "# comment", SEEN + "3,2,1e-3"],
        ["#" + GOOD],
        [GOOD, SEEN + "3,2,1e-3", "1e-4,2e-3,1e-4"],
        [GOOD, SEEN + "3,2,1e-3,"],
        [GOOD, SEEN + "3,2,oops"],
        [GOOD, SEEN + "x,2,oops"],
        [GOOD, SEEN + "4,2,1e-3"],
        [GOOD, SEEN + "3,2,0"],
        [GOOD, SEEN + "3,2,nan"],
        [GOOD, "1e400,2e-3,1e-4,3e-3,3,2,1e-3"],
        [GOOD, "0,0,0,0,3,2,1e-3"],
        [GOOD, "-1e-4,2e-3,1e-4,3e-3,4,2,1e-3"],  # two faults: the code point is named
        [GOOD, SEEN + "9223372036854775809,2,1e-3"],
        [GOOD, SEEN + "3,2,1e-3\x0c"],
        [GOOD + "\r", SEEN + "3,2,1e-3\r"],
        [GOOD + "\r" + SEEN + "5,2,1e-3"],
        [],
        [""],
        # A bytes field drops the NUL that the row-wise reader rejects.
        ["1e-4\x00,2e-3,1e-4,3e-3,3,1,1e-3"],
        [GOOD, SEEN + "3,2,1e-3\x00"],
        [GOOD, "0.1" + "0" * 34 + "e-3,2e-3,1e-4,3e-3,3,2,1e-3"],  # a 40-character cell
        [GOOD, "0.0001,2e-3,1e-4,3e-3,3,2,1e-3"],
        [GOOD] * (dataio._CHUNK_ROWS - 1) + [SEEN + "3,2,1e-3", SEEN + "3,3,1e-3"],
        [GOOD] * dataio._CHUNK_ROWS + ["0.0001,2e-3,1e-4,3e-3,3,2,1e-3"],
        [GOOD, "2e-4,2e-3,1e-4,3e-3,3,1,1e-3", SEEN + "3,2,1e-3"],
    ])
    def test_odd_inputs_agree_with_row_wise_reader(self, tmp_path, body):
        path = tmp_path / "odd.csv"
        path.write_text("\n".join([HEADER] + body) + "\n", encoding="utf-8", newline="")
        expected = _outcome(dataio._read_rows, path)
        assert _outcome(read_dataset_csv, path) == expected
        if isinstance(expected, list):  # and the same profile table
            assert (read_dataset_csv(path).profiles.tobytes()
                    == dataio._read_rows(path).profiles.tobytes())

    @pytest.mark.parametrize("content", [b"", b"a,b\n1,2\n", HEADER.encode() + b"\n\xff\n"])
    def test_bad_files_agree_with_row_wise_reader(self, tmp_path, content):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        assert _outcome(read_dataset_csv, path) == _outcome(dataio._read_rows, path)


def test_valid_path_builds_no_records(tmp_path, monkeypatch):
    """generate, write, read, label and a heuristic fit at 200 profiles build
    no DatasetRecord and no CodeParams."""
    built = []
    for cls in (DatasetRecord, CodeParams):
        original = cls.__post_init__

        def counted(self, original=original):
            built.append(type(self).__name__)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    config = load_config(None)
    sweep = SweepConfig(profiles_per_run=200, seed=7)
    path = tmp_path / "data.csv"
    records = generate_dataset(sweep, config.oracle)
    write_dataset_csv(records, path)
    back = read_dataset_csv(path)
    build_training_cases(back, sweep, config.oracle, config.targets)
    fit_heuristic(back, HeuristicKind("range_search", True), HeuristicWeights(), config.oracle)
    assert len(back) == len(records) > 90_000
    assert built == []
    next(iter(back))
    assert built == ["CodeParams", "DatasetRecord"]
