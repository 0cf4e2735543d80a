import hashlib
import json
import tracemalloc
from dataclasses import replace

import pytest

from surfplan import SweepConfig, build_training_cases, generate_dataset
from surfplan.config import load_config
from surfplan.dataio import (
    DataFormatError,
    read_calibration,
    read_dataset_csv,
    write_dataset_csv,
)


@pytest.fixture(scope="module")
def records():
    return generate_dataset(SweepConfig(profiles_per_run=2, seed=8))


class TestDatasetCsv:
    def test_round_trip_exact(self, records, tmp_path):
        path = tmp_path / "data.csv"
        count = write_dataset_csv(records, path)
        assert count == len(records)
        assert read_dataset_csv(path) == records

    def test_header_and_formatting(self, records, tmp_path):
        path = tmp_path / "data.csv"
        write_dataset_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("depolarizing,gate,reset,readout,distance,rounds,"
                            "logical_error_rate")
        first = lines[1].split(",")
        assert "e" in first[0]  # scientific notation
        assert first[4].isdigit() and first[5].isdigit()

    def test_byte_identical_rewrites(self, records, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset_csv(records, a)
        write_dataset_csv(records, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataFormatError, match="header"):
            read_dataset_csv(path)

    def test_malformed_cell_reports_row_and_column(self, records, tmp_path):
        path = tmp_path / "bad.csv"
        lines = ["depolarizing,gate,reset,readout,distance,rounds,logical_error_rate",
                 "1e-4,2e-3,1e-4,3e-3,3,1,1e-3",
                 "1e-4,not_a_number,1e-4,3e-3,3,2,1e-3"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="row 3.*gate"):
            read_dataset_csv(path)

    @pytest.mark.parametrize("cells, match", [
        ("3,3,oops", "row 4, column 'logical_error_rate'"),
        ("x,3,oops", "row 4, column 'distance'"),
    ])
    def test_bad_cell_of_seen_profile_reports_row_and_column(self, tmp_path, cells, match):
        path = tmp_path / "bad.csv"
        lines = ["depolarizing,gate,reset,readout,distance,rounds,logical_error_rate",
                 "1e-4,2e-3,1e-4,3e-3,3,1,1e-3",
                 "1e-4,2e-3,1e-4,3e-3,3,2,1e-3",
                 "1e-4,2e-3,1e-4,3e-3," + cells]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=match):
            read_dataset_csv(path)

    def test_new_invalid_distance_after_valid_rows_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        lines = ["depolarizing,gate,reset,readout,distance,rounds,logical_error_rate",
                 "1e-4,2e-3,1e-4,3e-3,3,1,1e-3",
                 "1e-4,2e-3,1e-4,3e-3,5,1,1e-3",
                 "1e-4,2e-3,1e-4,3e-3,4,1,1e-3"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="row 4.*odd"):
            read_dataset_csv(path)

    def test_wrong_field_count_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("depolarizing,gate,reset,readout,distance,rounds,"
                        "logical_error_rate\n1,2,3\n")
        with pytest.raises(DataFormatError, match="row 2"):
            read_dataset_csv(path)

    def test_invalid_domain_value_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("depolarizing,gate,reset,readout,distance,rounds,"
                        "logical_error_rate\n1e-4,2e-3,1e-4,3e-3,4,1,1e-3\n")
        with pytest.raises(DataFormatError, match="row 2.*odd"):
            read_dataset_csv(path)

    def test_long_line_is_read_row_wise_in_bounded_memory(self, records, tmp_path):
        # The bulk parse holds each cell of a chunk as wide as its widest
        # line: 300 rows and one 100,000-character line would take 120 MB.
        short, long = tmp_path / "short.csv", tmp_path / "long.csv"
        write_dataset_csv(records, short)
        lines = short.read_text().splitlines()[:301]
        short.write_text("\n".join(lines) + "\n")
        head, _, exponent = lines[5].rpartition("e")  # the rate, with more zero digits
        lines[5] = f"{head}{'0' * 100_000}e{exponent}"
        long.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            read = read_dataset_csv(long)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read == read_dataset_csv(short)
        assert peak < 16 * 2 ** 20


def _pinned_hashes(tmp_path, profiles):
    """SHA-256 of the default-config CSV at ``profiles`` profiles and of its
    labels; the file must read back as the generated dataset."""
    config = load_config(None)
    sweep = replace(config.sweep, profiles_per_run=profiles)
    path = tmp_path / "data.csv"
    records = generate_dataset(sweep, config.oracle)
    write_dataset_csv(records, path)
    back = read_dataset_csv(path)
    assert back == records
    cases = build_training_cases(back, sweep, config.oracle, config.targets)
    labels = "\n".join(repr((case.request.noise.as_tuple(),
                             case.request.target_logical_error_rate,
                             case.distance, case.rounds)) for case in cases)
    return (hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(labels.encode()).hexdigest())


def test_default_dataset_and_labels_are_pinned(tmp_path):
    # The hashes as produced by the scalar oracle, one logical_error_rate
    # call per grid point. A last-ulp drift in the oracle or in the float
    # formatting changes them.
    assert _pinned_hashes(tmp_path, 20) == (
        "71d87eadd2d3b6cf2902eab29dccdceb3982ea8fb045a923881bee46455bc99e",
        "86be97e2a3616092ecfae35888d1d404009f71dc3d4f0810d5d321d57631c80c")


def test_10x_dataset_and_labels_are_pinned(tmp_path):
    # 200 profiles: about 97.5k records, more than one read chunk.
    assert _pinned_hashes(tmp_path, 200) == (
        "c24b2ab4ee722fbcb111af3a305443e51ce9be27d44223dcadd38637551ce0ed",
        "29854aba888524d442bf99cbabae75d5d04611d718fa74b10927fd817387a570")


class TestCalibration:
    def test_reads_valid_snapshot(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({
            "device": "backend_a", "timestamp": "2026-08-01T00:00:00Z",
            "depolarizing": 2.4e-4, "gate": 1.7e-3, "reset": 1e-3,
            "readout": 2.5e-3}))
        snapshot = read_calibration(path)
        assert snapshot.device == "backend_a"
        assert snapshot.profile.gate == pytest.approx(1.7e-3)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"device": "x", "timestamp": "t",
                                    "depolarizing": 1e-4, "gate": 1e-3,
                                    "reset": 1e-4}))
        with pytest.raises(DataFormatError, match="readout"):
            read_calibration(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"device": "x", "timestamp": "t",
                                    "depolarizing": 1e-4, "gate": 1e-3,
                                    "reset": 1e-4, "readout": 1e-3,
                                    "extra": 1}))
        with pytest.raises(DataFormatError, match="extra"):
            read_calibration(path)

    @pytest.mark.parametrize("key, value", [("device", None), ("device", 3),
                                            ("timestamp", 5), ("timestamp", {})])
    def test_non_string_device_or_timestamp_rejected(self, tmp_path, key, value):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"device": "x", "timestamp": "t",
                                    "depolarizing": 1e-4, "gate": 1e-3,
                                    "reset": 1e-4, "readout": 1e-3, key: value}))
        with pytest.raises(DataFormatError, match=f"calibration key '{key}' must be a string"):
            read_calibration(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError):
            read_calibration(path)
