import numpy as np
import pytest

from ppboot.errors import DataError, DuplicatePointError, OutOfWindowError
from ppboot.geometry import Interval1, PointPattern, Window2, unit_square
from ppboot.patternio import ingest_pattern, read_window, write_pattern, write_window


def test_round_trip_planar(tmp_path):
    pts = np.array([[0.25, 0.75], [0.5, 0.5], [0.125, 0.0625]])
    pat = PointPattern(pts, unit_square())
    write_pattern(pat, tmp_path / "pat.csv")
    back = ingest_pattern(tmp_path / "pat.csv")
    assert np.array_equal(back.points, pts)
    assert back.window == unit_square()


def test_round_trip_interval(tmp_path):
    pat = PointPattern(np.array([0.1, 0.9, 0.5]), Interval1(0, 1))
    write_pattern(pat, tmp_path / "pat1d.csv")
    back = ingest_pattern(tmp_path / "pat1d.csv")
    assert np.array_equal(back.points, pat.points)
    assert back.window == Interval1(0, 1)


def test_well_formed_three_rows(tmp_path):
    (tmp_path / "p.csv").write_text("x,y\n0.1,0.2\n0.3,0.4\n0.5,0.6\n")
    write_window(unit_square(), tmp_path / "p.json")
    assert ingest_pattern(tmp_path / "p.csv").n == 3


def test_duplicate_row_rejected(tmp_path):
    (tmp_path / "p.csv").write_text("x,y\n0.1,0.2\n0.1,0.2\n")
    write_window(unit_square(), tmp_path / "p.json")
    with pytest.raises(DuplicatePointError, match="row 3"):
        ingest_pattern(tmp_path / "p.csv")


def test_out_of_window_rejected_with_row(tmp_path):
    (tmp_path / "p.csv").write_text("x,y\n0.1,0.2\n1.5,0.2\n")
    write_window(unit_square(), tmp_path / "p.json")
    with pytest.raises(OutOfWindowError, match="row 3"):
        ingest_pattern(tmp_path / "p.csv")


def test_header_must_match_window_kind(tmp_path):
    (tmp_path / "p.csv").write_text("x\n0.1\n")
    write_window(unit_square(), tmp_path / "p.json")
    with pytest.raises(DataError):
        ingest_pattern(tmp_path / "p.csv")


def test_bad_float_reports_row(tmp_path):
    (tmp_path / "p.csv").write_text("x,y\n0.1,0.2\noops,0.4\n")
    write_window(unit_square(), tmp_path / "p.json")
    with pytest.raises(DataError, match="row 3"):
        ingest_pattern(tmp_path / "p.csv")


def test_window_sidecar_schema(tmp_path):
    (tmp_path / "w.json").write_text('{"window": {"x_min": 0, "x_max": 1}}')
    with pytest.raises(DataError):
        read_window(tmp_path / "w.json")
    (tmp_path / "w2.json").write_text('{"not_a_window": 1}')
    with pytest.raises(DataError):
        read_window(tmp_path / "w2.json")
    (tmp_path / "w3.json").write_text("{broken")
    with pytest.raises(DataError):
        read_window(tmp_path / "w3.json")


def test_missing_files(tmp_path):
    with pytest.raises(DataError):
        ingest_pattern(tmp_path / "nope.csv", tmp_path / "nope.json")
    write_window(Window2(0, 1, 0, 1), tmp_path / "w.json")
    with pytest.raises(DataError):
        ingest_pattern(tmp_path / "nope.csv", tmp_path / "w.json")


def test_explicit_window_path(tmp_path):
    (tmp_path / "p.csv").write_text("x\n0.25\n")
    (tmp_path / "custom.json").write_text('{"window": {"lo": 0.0, "hi": 1.0}}')
    pat = ingest_pattern(tmp_path / "p.csv", tmp_path / "custom.json")
    assert pat.window == Interval1(0.0, 1.0)
