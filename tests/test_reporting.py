import json
from dataclasses import replace

import pytest
from mpmath import mp

from nikmop.precision import working
from nikmop.reporting import (
    CSV_HEADER,
    ConvergenceRecord,
    config_hash,
    format_value,
    write_csv,
    write_gnuplot_dat,
    write_json,
)


def test_format_value_kinds():
    assert format_value(0.5) == "0.5"
    assert format_value(3) == "3"
    assert format_value("x") == "x"
    with working(256):
        assert format_value(mp.mpf(1) / 4) == "0.25"
        assert format_value(mp.mpc(1, -2)) == "(1.0 - 2.0j)"
    assert format_value(complex(0, 1)) == "(0.0 + 1.0j)"


def test_format_value_float_round_trips():
    v = 0.1 + 0.2
    assert float(format_value(v)) == v


def test_config_hash_is_stable_and_order_blind():
    a = {"kind": "ratio", "seed": 7, "ray": {"steps": 4}}
    b = {"ray": {"steps": 4}, "seed": 7, "kind": "ratio"}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 64
    c = {"kind": "ratio", "seed": 8, "ray": {"steps": 4}}
    assert config_hash(a) != config_hash(c)


def _synthetic_record():
    return ConvergenceRecord(
        label="synthetic",
        points=(2.0, -3.0),
        sample_sizes=(4, 8, 16),
        values=((1.5, 1.1, 1.01), (0.4, 0.52, 0.501)),
        targets=(1.0, 0.5),
        errors=((0.5, 0.1, 0.01), (0.1, 0.02, 0.001)),
    )


def test_record_trend_and_errors():
    rec = _synthetic_record()
    assert rec.trend_ok()
    # One point whose error ends above where it started fails the trend.
    grows = replace(rec, errors=((0.5, 0.1, 0.01), (0.1, 0.02, 0.2)))
    assert not grows.trend_ok()


def test_record_trend_needs_errors():
    rec = ConvergenceRecord(
        label="bare", points=(1,), sample_sizes=(2,), values=((3.0,),)
    )
    with pytest.raises(ValueError, match="no errors"):
        rec.trend_ok()


def test_record_trend_fails_on_growth():
    rec = ConvergenceRecord(
        label="worse",
        points=(1,),
        sample_sizes=(2, 4),
        values=((1.0, 2.0),),
        targets=(0.0,),
        errors=((1.0, 2.0),),
    )
    assert not rec.trend_ok()


def test_record_stabilization_metric():
    rec = _synthetic_record()
    moves = rec.stabilization()
    assert len(moves) == 2
    assert moves[0] == pytest.approx(0.4)
    assert moves[1] == pytest.approx(0.09)


def test_record_rows_shape():
    rec = _synthetic_record()
    rows = rec.to_rows()
    assert len(rows) == 6
    assert rows[0] == ("2.0", 4, "1.5", "1.0", "0.5")


def test_write_csv_deterministic(tmp_path):
    rec = _synthetic_record()
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(p1, rec.to_rows())
    write_csv(p2, rec.to_rows())
    assert p1.read_bytes() == p2.read_bytes()
    head = p1.read_text().splitlines()[0]
    assert head == ",".join(CSV_HEADER)


def test_write_summary_sorted_and_byte_stable(tmp_path):
    payload = {"zeta": 1, "alpha": {"b": 2, "a": 3}, "passed": True}
    p1 = tmp_path / "s1.json"
    p2 = tmp_path / "s2.json"
    write_json(p1, payload)
    write_json(p2, {"passed": True, "alpha": {"a": 3, "b": 2}, "zeta": 1})
    blob = p1.read_bytes()
    assert blob == p2.read_bytes()
    assert blob.endswith(b"\n")
    text = p1.read_text()
    assert text.index('"alpha"') < text.index('"passed"') < text.index('"zeta"')
    assert json.loads(text) == payload


def test_write_gnuplot_dat_format(tmp_path):
    p = tmp_path / "d.dat"
    write_gnuplot_dat(
        p, {"n": [4, 8], "err": [0.5, 0.25]}, comment="toy run"
    )
    lines = p.read_text().splitlines()
    assert lines[0] == "# toy run"
    assert lines[1] == "# n err"
    assert lines[2] == "4 0.5"
    assert lines[3] == "8 0.25"


def test_write_gnuplot_dat_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="mismatched length"):
        write_gnuplot_dat(tmp_path / "r.dat", {"a": [1, 2], "b": [3]})
