import argparse
import importlib
import json
import math
import tracemalloc

import pytest

from progvar import PrimeTable, cli, linnik, parse_descriptor, psi_q, sieve, variance
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


@pytest.mark.parametrize("q", ["0", "-3"])
@pytest.mark.parametrize("chi1", ["auto", "principal"])
def test_invalid_modulus_exits_2(capsys, chi1, q):
    code, out, err = run(capsys, "variance", "--f", "mobius", "--q", q, "--x", "10",
                         "--chi1", chi1, "--sieve-limit", "10000")
    assert code == 2
    assert out == ""
    assert "progvar: invalid arguments" in err


@pytest.mark.parametrize("argv", [
    ["smooth", "--mode", "ratio", "--X", "0", "--Y", "10"],
    ["smooth", "--mode", "ratio", "--X", "100", "--Y", "1"],
    ["dickman-table", "--step", "0"],
    ["dickman-table", "--u-max", "nan"],
])
def test_invalid_smooth_and_dickman_arguments_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--sieve-limit", "10000")
    assert code == 2
    assert out == ""
    assert "progvar: invalid arguments" in err


@pytest.mark.parametrize("argv", [
    ["smooth", "--mode", "psi", "--X", "inf", "--Y", "100"],
    ["smooth", "--mode", "psi", "--X", "nan", "--Y", "100"],
    ["smooth", "--mode", "psi", "--X", "1000", "--Y", "nan"],
    ["smooth", "--mode", "recip", "--x1", "1", "--x2", "inf", "--Y", "100"],
    ["spectrum", "--q", "7", "--P", "nan", "--delta", "1", "--eps", "0.1"],
    ["spectrum", "--q", "7", "--P", "100", "--delta", "nan", "--eps", "0.1"],
    ["linnik", "--q-range", "5:6", "--bound-exponent", "nan"],
    ["linnik", "--q-range", "5:6", "--bound-exponent", "inf"],
    ["linnik", "--q-range", "5:6", "--bound-exponent", "1000"],
])
def test_non_finite_arguments_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--sieve-limit", "100000")
    assert code == 2
    assert out == ""
    assert "progvar: invalid arguments" in err


@pytest.mark.parametrize("argv", [
    ["variance", "--x", "nan", "--chi1", "principal"],
    ["variance", "--x", "0", "--chi1", "principal"],
    ["variance", "--x", "0.5", "--chi1", "principal"],
    ["variance", "--x", "inf", "--chi1", "principal"],
    ["variance", "--x", "inf", "--chi1", "auto"],
    ["variance", "--x=-inf", "--chi1", "auto"],
    ["parseval", "--x", "inf"],
    ["parseval", "--x", "nan"],
    ["parseval", "--x", "0"],
    ["hybrid", "--X", "inf", "--h", "100", "--chi1", "principal"],
])
def test_non_finite_or_small_x_exits_2(capsys, argv):
    code, out, err = run(capsys, argv[0], "--f", "mobius", "--q", "7", *argv[1:],
                         "--sieve-limit", "10000")
    assert code == 2
    assert out == ""
    assert "progvar: invalid arguments" in err


def test_refine_tol_option_is_gone(capsys):
    code, out, err = run(capsys, "variance", "--f", "mobius", "--q", "5", "--x", "1000",
                         "--refine-tol", "0.1", "--sieve-limit", "10000")
    assert code == 2
    assert out == ""
    assert "--refine-tol" in err


def test_sieve_limit_holds_for_one_command(capsys, monkeypatch):
    monkeypatch.setattr(sieve, "_default_table", PrimeTable(1000))
    before = sieve.default_table()
    code, _, _ = run(capsys, "character", "--q", "8", "--sieve-limit", "10000")
    assert code == 0
    assert sieve.default_table() is before


@pytest.mark.parametrize("limit,code,message", [
    ("1", 2, "progvar: invalid arguments: sieve limit must be >= 2"),
    ("3000000000", 1, "progvar: capacity error: sieve limit 3000000000"),
])
def test_sieve_limit_out_of_range_exits_with_one_line(capsys, monkeypatch, limit, code,
                                                      message):
    monkeypatch.setattr(sieve, "_default_table", PrimeTable(1000))
    before = sieve.default_table()
    tracemalloc.start()
    try:
        got, out, err = run(capsys, "smooth", "--mode", "psi", "--X", "1000", "--Y", "10",
                            "--sieve-limit", limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got, out) == (code, "")
    assert err.startswith(message) and err.count("\n") == 1
    assert peak < 2**20  # a 3e9 table (12 GB) is refused before it is allocated
    assert sieve.default_table() is before


@pytest.mark.parametrize("text", ["1e6", "abc"])
def test_non_integer_sieve_limit_variable_exits_2(capsys, monkeypatch, text):
    monkeypatch.setenv("PROGVAR_SIEVE_LIMIT", text)
    monkeypatch.setattr(sieve, "_default_table", None)
    code, out, err = run(capsys, "smooth", "--mode", "psi", "--X", "1000", "--Y", "10")
    assert (code, out) == (2, "")
    assert err == ("progvar: invalid arguments: PROGVAR_SIEVE_LIMIT must be a positive "
                   f"integer, got {text!r}\n")


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


def linnik_reference(table, q_range, predicate, exponent):
    """The rows of a linnik run as dicts, from linnik_scan."""
    lo, hi = q_range
    qs = list(range(lo, hi + 1))
    bounds = [max(8, int(round(q**exponent))) for q in qs]
    rows = []
    for res in linnik.linnik_scan(qs, bounds, predicate, table):
        for a, n in sorted(res.minima.items()):
            e = math.log(n) / math.log(res.q) if n is not None and res.q > 1 else None
            rows.append({"q": res.q, "a": a, "n": n, "exponent": e})
    return rows


def dict_rows_text(rows, fmt):
    """rows as json.dumps or the _csv_cell path writes them (CSV without
    its two comment lines)."""
    if fmt == "json":
        return json.dumps(rows, ensure_ascii=False) + "\n"
    fields = ["q", "a", "n", "exponent"]
    return "".join(",".join(cli._csv_cell(row[k]) for k in fields) + "\n"
                   for row in [dict(zip(fields, fields))] + rows)


def without_comments(text, fmt):
    if fmt == "json":
        return text
    lines = text.splitlines(keepends=True)
    assert lines[0] == cli.SCHEMA + "\n"
    assert lines[1].startswith("# generated: ")
    return "".join(lines[2:])


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("q_range, predicate, exponent", [
    ((1, 12), "e3", 0.5),  # q = 1, and classes with no witness
    ((1, 30), "e3", 1.2),
    ((1, 3), "e3", 3.0),
    ((97, 99), "mobius-plus", 3.0),
    ((5, 9), "e3-distinct", 3.0),
])
def test_linnik_rows_match_dict_rendering(capsys, tmp_path, table, q_range, predicate,
                                          exponent, fmt, to_file):
    path = tmp_path / "rows.out"
    argv = ["linnik", "--q-range", "{}:{}".format(*q_range), "--predicate", predicate,
            "--bound-exponent", str(exponent), "--format", fmt, "--sieve-limit", "100000"]
    code, out, _ = run(capsys, *argv, *(["--output", str(path)] if to_file else []))
    assert code == 0
    if to_file:
        assert out == ""
        out = path.read_bytes().decode("utf-8")
    rows = linnik_reference(table, q_range, predicate, exponent)
    assert without_comments(out, fmt) == dict_rows_text(rows, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_resumed_linnik_rows_match_dict_rendering(capsys, tmp_path, table, fmt):
    state = tmp_path / "scan.json"
    base = ("linnik", "--predicate", "e3", "--format", fmt, "--sieve-limit", "100000",
            "--resume", str(state))
    run(capsys, *base, "--q-range", "5:9")
    # 5..9 come from the state, the rest of 1..12 from a scan
    code, out, _ = run(capsys, *base, "--q-range", "1:12")
    assert code == 0
    rows = linnik_reference(table, (1, 12), "e3", 3.0)
    assert without_comments(out, fmt) == dict_rows_text(rows, fmt)
    saved = json.loads(state.read_text())
    assert any(r["n"] is None for r in rows)  # q = 2 and 3 stay open below 8
    assert saved == {f"{r['q']}:{r['a']}:e3": r["n"] if r["n"] is not None else "pending"
                     for r in rows}


@pytest.mark.parametrize("key, value, minimum", [
    ("5:4:e3", True, 44),  # a bool is not a minimum
    ("5:1:e3", 3, 66),  # 3 is not = 1 (mod 5)
    ("5:1:e3", 0, 66),
    ("5:1:e3", -4, 66),
    ("5:1:e3", 66.0, 66),
    ("5:1:e3", "66", 66),
    ("5:1:e3", None, 66),
    ("5:1:e3", [66], 66),
])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_linnik_resume_rescans_entries_that_cannot_be_minima(capsys, tmp_path, fmt, key,
                                                              value, minimum):
    state = tmp_path / "scan.json"
    base = ("linnik", "--q-range", "5:6", "--predicate", "e3", "--format", fmt,
            "--sieve-limit", "100000")
    _, fresh, _ = run(capsys, *base)
    stored = {"5:1:e3": 66, "5:2:e3": 12, "5:3:e3": 8, "5:4:e3": 44,
              "6:1:e3": 343, "6:5:e3": 20}
    stored[key] = value
    state.write_text(json.dumps(stored))
    code, resumed, err = run(capsys, *base, "--resume", str(state))
    assert (code, err) == (0, "")
    assert without_comments(resumed, fmt) == without_comments(fresh, fmt)
    saved = json.loads(state.read_text())
    assert saved[key] == minimum and type(saved[key]) is int


@pytest.mark.parametrize("content", [b"{not json", b"[1, 2]", b'"state"', b"3", b"",
                                     b"\xff\xfe{}"],
                         ids=["bad-json", "list", "string", "number", "empty", "bad-utf8"])
def test_unreadable_resume_state_exits_2(capsys, tmp_path, content):
    state = tmp_path / "scan.json"
    state.write_bytes(content)
    code, out, err = run(capsys, "linnik", "--q-range", "5:6", "--sieve-limit", "100000",
                         "--resume", str(state))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "resume state" in err
    assert state.read_bytes() == content  # left as it was
    code, out, err = run(capsys, "linnik", "--q-range", "5:6", "--sieve-limit", "100000",
                         "--resume", str(tmp_path))  # a directory
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "resume state" in err


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
    assert len(calls) == math.ceil(3e6 / sieve.BLOCK)


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


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("rows", [
    [{"q": 1, "a": 0, "n": 8, "exponent": None}, {"q": 7, "a": 3, "n": None, "exponent": None},
     {"q": 7, "a": 5, "n": 110, "exponent": math.log(110) / math.log(7)},
     {"q": 7, "a": 6, "n": 1, "exponent": 0.0}],
    [],
], ids=["rows", "empty"])
def test_emit_lines_match_row_path(capsys, tmp_path, rows, fmt, to_file):
    fields = ["q", "a", "n", "exponent"]
    path = tmp_path / "out"
    args = argparse.Namespace(format=fmt, output=str(path) if to_file else None)

    def emitted(*call, **kwargs):
        cli._emit(args, fields, *call, **kwargs)
        text = path.read_text(encoding="utf-8") if to_file else capsys.readouterr().out
        return without_comments(text, fmt)

    if fmt == "json":
        lines = [json.dumps(row, ensure_ascii=False) for row in rows]
    else:
        lines = [",".join(cli._csv_cell(row[k]) for k in fields) for row in rows]
    from_lines = emitted(None, lines=lines)
    assert from_lines == emitted(rows, rows) == dict_rows_text(rows, fmt)


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


def test_smooth_ratio_counts_the_psi_difference(capsys):
    # non-integer X, a window (X, 1.1X] across the 2^20 block boundary, q = 12
    X, Y, q = 1_000_000.5, 50, 12
    code, out, _ = run(capsys, "smooth", "--mode", "ratio", "--X", str(X), "--Y", str(Y),
                       "--q", str(q), "--delta", "0.1", "--format", "json",
                       "--sieve-limit", "100000")
    assert code == 0
    table = PrimeTable(100_000)
    want = psi_q(1.1 * X, Y, q, table) - psi_q(X, Y, q, table)
    assert want > 0 and json.loads(out)["count"] == want


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


@pytest.mark.parametrize("index", ["7", "4", "-1"])
def test_character_index_out_of_range_exits_2(capsys, index):
    code, out, err = run(capsys, "character", "--q", "5", "--index", index,
                         "--sieve-limit", "10000")
    assert code == 2
    assert out == ""
    assert "progvar: invalid arguments" in err


def test_character_listing_holds_one_character_at_a_time(capsys):
    # the 480 characters mod 2310 hold an int64 and a complex table of 2310
    # values each, about 25 MiB if all were kept at once
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "character", "--q", "2310", "--sieve-limit", "10000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(body_lines(out)) == 481
    assert peak < 8 * 2**20
