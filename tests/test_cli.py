import argparse
import importlib
import json
import math

import pytest

from progvar import cli, linnik, parse_descriptor, variance
from progvar.cli import main

variance_mod = importlib.import_module("progvar.variance")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def body_lines(text):
    """CSV body: everything that is not a comment line."""
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


def test_variance_json_example(capsys):
    code, out, _ = run(capsys, "variance", "--f", "mobius", "--q", "3", "--x", "10",
                       "--chi1", "principal", "--format", "json",
                       "--sieve-limit", "10000")
    assert code == 0
    doc = json.loads(out)
    assert doc["variance"] == 4.5
    assert doc["q"] == 3 and doc["chi1_index"] == 0


def test_variance_sweep_csv(capsys):
    code, out, _ = run(capsys, "variance", "--f", "mobius", "--q", "3,5", "--x", "50",
                       "--chi1", "principal", "--sieve-limit", "10000")
    assert code == 0
    lines = body_lines(out)
    assert lines[0].startswith("q,x,f,chi1_index,variance,normalized,max_deviation")
    assert len(lines) == 3
    assert out.splitlines()[0] == "# progvar-schema v1"


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "variance" in out


def test_invalid_modulus_exits_2(capsys):
    code, _, err = run(capsys, "variance", "--f", "mobius", "--q", "0", "--x", "10",
                       "--sieve-limit", "10000")
    assert code == 2
    assert "progvar" in err


def test_unknown_function_exits_2(capsys):
    code, _, err = run(capsys, "variance", "--f", "zeta", "--q", "3", "--x", "10",
                       "--sieve-limit", "10000")
    assert code == 2


def test_determinism_byte_identical_bodies(capsys, tmp_path):
    args = ("variance", "--f", "mobius", "--q", "7,11", "--x", "200",
            "--chi1", "auto", "--sieve-limit", "10000")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert body_lines(out1) == body_lines(out2)


def test_config_file_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("f=mobius\nq=3\nx=10\nchi1=principal\nformat=csv\nsieve-limit=10000\n")
    code, out, _ = run(capsys, "variance", "--config", str(cfg))
    assert code == 0
    assert body_lines(out)[1].split(",")[4] == "4.5"
    # flag overrides file value for chi1
    code, out, _ = run(capsys, "variance", "--config", str(cfg), "--chi1", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["variance"] == 0.5


def test_output_file(capsys, tmp_path):
    path = tmp_path / "rep.json"
    code, out, _ = run(capsys, "parseval", "--f", "mobius", "--q", "3", "--x", "10",
                       "--xi", "1", "--format", "json", "--output", str(path),
                       "--sieve-limit", "10000")
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["lhs"] == pytest.approx(0.5)
    assert doc["abs_err"] < 1e-12


def test_hybrid_cli(capsys):
    code, out, _ = run(capsys, "hybrid", "--f", "mobius", "--q", "1", "--X", "1000",
                       "--h", "50", "--chi1", "principal", "--step", "4",
                       "--format", "json", "--sieve-limit", "10000")
    assert code == 0
    doc = json.loads(out)
    assert 0 <= doc["normalized"] < 1


def test_spectrum_cli_columns(capsys):
    code, out, _ = run(capsys, "spectrum", "--q", "5", "--P", "10", "--delta", "1",
                       "--eps", "0.5", "--sieve-limit", "10000")
    assert code == 0
    lines = body_lines(out)
    assert lines[0] == "q,chi_index,t,re,im,abs,normalized"
    assert len(lines) == 2  # principal only at this threshold


def test_spectrum_cli_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--q", "12", "--P", "100", "--delta", "1",
                       "--eps", "0.1", "--t-grid", "0,1.5,3", "--format", "json",
                       "--sieve-limit", "10000")
    assert code == 0
    doc = json.loads(out)
    points = doc["points"]
    assert doc["count"] == len(points) > 0
    assert all(type(p["chi_index"]) is int and 0 <= p["chi_index"] < 4 for p in points)
    assert {p["t"] for p in points} <= {0.0, 1.5, 3.0}
    keys = [(p["chi_index"], p["t"]) for p in points]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_linnik_cli_and_resume(capsys, tmp_path):
    state = tmp_path / "scan.json"
    args = ("linnik", "--q-range", "5:6", "--predicate", "e3",
            "--bound-exponent", "3", "--resume", str(state),
            "--sieve-limit", "10000")
    code, out, _ = run(capsys, *args)
    assert code == 0
    lines = body_lines(out)
    assert lines[0] == "q,a,n,exponent"
    assert "5,1,66," in lines[1]
    saved = json.loads(state.read_text())
    assert saved["5:1:e3"] == 66
    # resumed run reuses the state and emits the same body
    code2, out2, _ = run(capsys, *args)
    assert code2 == 0
    assert body_lines(out2) == lines


def test_linnik_resume_respects_smaller_bound(capsys, tmp_path):
    state = tmp_path / "scan.json"
    base = ("linnik", "--q-range", "101:101", "--predicate", "e3",
            "--sieve-limit", "10000", "--format", "json")
    run(capsys, *base, "--bound-exponent", "3", "--resume", str(state))
    stored = json.loads(state.read_text())
    assert max(stored.values()) > round(101**1.2)  # minima beyond the smaller bound
    _, fresh, _ = run(capsys, *base, "--bound-exponent", "1.2")
    _, resumed, _ = run(capsys, *base, "--bound-exponent", "1.2", "--resume", str(state))
    assert json.loads(resumed) == json.loads(fresh)
    assert sum(r["n"] is None for r in json.loads(fresh)) == 49
    # the smaller bound loses none of the stored minima, and no temporary remains
    assert json.loads(state.read_text()) == stored
    assert [p.name for p in tmp_path.iterdir()] == ["scan.json"]


def test_linnik_partial_resume_matches_fresh_run(capsys, tmp_path, monkeypatch):
    state = tmp_path / "scan.json"
    base = ("linnik", "--predicate", "e3", "--bound-exponent", "3",
            "--sieve-limit", "10000", "--format", "json")
    run(capsys, *base, "--q-range", "5:9", "--resume", str(state))
    stored = json.loads(state.read_text())
    del stored["7:3:e3"]  # q = 7 is no longer fully answered
    state.write_text(json.dumps(stored))
    _, fresh, _ = run(capsys, *base, "--q-range", "3:12")
    scanned = []
    scan = linnik.linnik_scan

    def recording(qs, bounds, predicate, table=None):
        scanned.append(list(qs))
        return scan(qs, bounds, predicate, table)

    monkeypatch.setattr(linnik, "linnik_scan", recording)
    _, resumed, _ = run(capsys, *base, "--q-range", "3:12", "--resume", str(state))
    assert resumed == fresh
    assert scanned == [[3, 4, 7, 10, 11, 12]]


@pytest.mark.parametrize("block", [linnik.BLOCK, 997])
def test_linnik_q_range_sieves_each_block_once(capsys, monkeypatch, block):
    monkeypatch.setattr(linnik, "BLOCK", block)
    calls = []
    sieve_block = linnik.big_omega_range

    def counting(lo, hi, table=None):
        calls.append((lo, hi))
        return sieve_block(lo, hi, table)

    monkeypatch.setattr(linnik, "big_omega_range", counting)
    code, out, _ = run(capsys, "linnik", "--q-range", "100:119", "--predicate", "e3",
                       "--bound-exponent", "3", "--sieve-limit", "10000",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(r["n"] is not None for r in rows)
    # the slowest modulus needs the blocks up to its largest minimum
    slowest = max(math.ceil(r["n"] / block) for r in rows)
    assert len(calls) == slowest
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("qs", ["101", "1,12,101"])
@pytest.mark.parametrize("f", ["mobius", "character:q=101,idx=7"])
def test_variance_json_matches_report_json(capsys, qs, f):
    # the payload the command built by parsing each report's to_json back
    code, out, _ = run(capsys, "variance", "--f", f, "--q", qs, "--x", "5000",
                       "--chi1", "principal", "--sieve-limit", "10000", "--format", "json")
    assert code == 0
    reports = [json.loads(variance(parse_descriptor(f), int(q), 5000.0, "principal").to_json())
               for q in qs.split(",")]
    doc = reports[0] if len(reports) == 1 else reports
    assert out == json.dumps(doc, ensure_ascii=False) + "\n"


def test_variance_q_list_evaluates_f_once_per_block(capsys, monkeypatch):
    calls = []
    evaluate = variance_mod.evaluate_range

    def counting(f, lo, hi, table=None):
        calls.append((lo, hi))
        return evaluate(f, lo, hi, table)

    monkeypatch.setattr(variance_mod, "evaluate_range", counting)
    code, out, _ = run(capsys, "variance", "--f", "mobius", "--q", "83,97,127",
                       "--x", "3e6", "--chi1", "principal", "--sieve-limit", "10000",
                       "--format", "json")
    assert code == 0
    assert [rep["q"] for rep in json.loads(out)] == [83, 97, 127]
    assert len(calls) == math.ceil(3e6 / variance_mod.BLOCK)


@pytest.mark.parametrize("argv", [
    ["variance", "--f", "mobius", "--q", "101", "--x", "1e15", "--chi1", "principal"],
    ["hybrid", "--f", "mobius", "--q", "7", "--X", "1e15", "--h", "1000",
     "--chi1", "principal"],
    ["parseval", "--f", "mobius", "--q", "101", "--x", "1e15"],
])
def test_uncovered_range_is_a_capacity_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--sieve-limit", "10000")
    assert code == 1
    assert "capacity error" in err
    assert out == ""


def test_emit_json_matches_json_dump(tmp_path):
    doc = {"q": 7, "x": 1.0e7, "tiny": 5e-324, "third": 1 / 3, "nan": math.nan,
           "neg": -0.0, "missing": None, "name": "Möbius μ(n) ≤ 1",
           "rows": [{"a": 1, "n": None, "exponent": 2.5}, {"nested": {"b": [1.5, None]}}]}
    path = tmp_path / "out.json"
    cli._emit(argparse.Namespace(format="json", output=str(path)), [], [], doc)
    with open(tmp_path / "ref.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_workers_option_is_gone(capsys):
    code, _, err = run(capsys, "linnik", "--q-range", "3:10", "--predicate",
                       "mobius-minus", "--workers", "4", "--sieve-limit", "10000")
    assert code == 2
    assert "--workers" in err


@pytest.mark.parametrize("bad", [("--grid-dt", "0"), ("--grid-dt", "-0.1"),
                                 ("--grid-dt", "nan"), ("--T", "-1")])
def test_invalid_twist_grid_exits_2(capsys, bad):
    code, out, err = run(capsys, "variance", "--f", "mobius", "--q", "5", "--x", "1000",
                         "--chi1", "auto", *bad, "--sieve-limit", "10000")
    assert code == 2
    assert out == ""
    assert "progvar: invalid arguments" in err


def test_smooth_cli(capsys):
    code, out, _ = run(capsys, "smooth", "--mode", "psi", "--X", "10", "--Y", "2",
                       "--format", "json", "--sieve-limit", "10000")
    assert code == 0
    assert json.loads(out)["psi"] == 4
    code, out, _ = run(capsys, "smooth", "--mode", "recip", "--x1", "1", "--x2", "10",
                       "--Y", "2", "--format", "json", "--sieve-limit", "10000")
    assert json.loads(out)["sum"] == 0.875


def test_dickman_table_cli(capsys):
    code, out, _ = run(capsys, "dickman-table", "--u-max", "3", "--step", "0.5",
                       "--sieve-limit", "10000")
    assert code == 0
    lines = body_lines(out)
    assert lines[0] == "u,rho"
    assert len(lines) == 8
    assert lines[1] == "0.0,1.0"


def test_character_cli_roundtrip(capsys):
    code, out, _ = run(capsys, "character", "--q", "8", "--format", "json",
                       "--sieve-limit", "10000")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert rows[0]["descriptor"] == [8, [0, 0]]
    conductors = sorted(r["conductor"] for r in rows)
    assert conductors == [1, 4, 8, 8]
