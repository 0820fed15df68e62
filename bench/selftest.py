"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection; they start benchmark runs in child processes at tiny size.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run  # noqa: F401  (sets the thread pins and the import paths)
import spans
import workloads
from checks import check, compare
from run import HERE, ROOT, run_round

E2E = [m["name"] for m in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["end_to_end"]]
LAYERS = [m["name"] for m in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["per_layer"]]


def _moduli(jobs):
    return [j.opt("q") if j.cmd != "linnik" else j.opt("q-range") for j in jobs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_lists_follow_the_seed(workload):
    for r in range(3):
        assert workloads.jobs(workload, 7, r) == workloads.jobs(workload, 7, r)
    assert _moduli(workloads.jobs(workload, 7, 0)) != _moduli(workloads.jobs(workload, 8, 0))
    # Rounds of one run ask for different moduli, so no job repeats in a run.
    assert _moduli(workloads.jobs(workload, 7, 0)) != _moduli(workloads.jobs(workload, 7, 1))


def test_main_char_moduli_are_distinct_primes_in_range():
    for r in range(4):
        qs = [int(j.opt("q")) for j in workloads.jobs("main-char", 3, r) if j.cmd == "variance"]
        assert len(set(qs)) == len(qs)
        assert all(9000 < q < 10000 and workloads._is_prime(q) for q in qs)


def _span(id, parent, start, end, name="x", **counters):
    return spans.Span(id, name, parent, "j", start, end, counters)


def test_self_time_arithmetic():
    s = [_span(0, None, 0.0, 10.0, "outer"),
         _span(1, 0, 1.0, 3.0, "inner"),
         _span(2, 0, 2.0, 5.0, "inner"),   # overlaps span 1, as threads do
         _span(3, 0, 9.0, 12.0, "inner"),  # runs past its parent's end
         _span(4, 1, 1.5, 2.5, "leaf", ints=7)]
    assert spans.self_times(s) == pytest.approx({0: 5.0, 1: 1.0, 2: 3.0, 3: 3.0, 4: 1.0})
    m = spans.layer_metrics(s, ["outer.self_s", "inner.calls", "inner.total_s",
                                "inner.self_s", "leaf.ints", "leaf.ints_per_s", "none.calls"])
    assert m == pytest.approx({"outer.self_s": 5.0, "inner.calls": 3, "inner.total_s": 8.0,
                               "inner.self_s": 7.0, "leaf.ints": 7, "leaf.ints_per_s": 7.0,
                               "none.calls": 0})


def test_distinct_frac_counts_repeated_work():
    s = [spans.Span(i, "a.f", None, "j", 0.0, 1.0, key=k)
         for i, k in enumerate([("m", 1, 9), ("m", 1, 9), ("l", 1, 9), ("m", 1, 9)])]
    assert spans.layer_metrics(s, ["a.f.distinct_frac"])["a.f.distinct_frac"] == 0.5


def test_checks_catch_wrong_outputs():
    planted = workloads.Job("j", "variance", (("f", "character:q=5,idx=2"), ("q", "5"),
                                              ("x", "100"), ("chi1", "auto")), planted=2)
    doc = {"q": 5, "x": 100.0, "f": "c", "chi1_index": 1, "variance": 0.0, "normalized": 0.0,
           "max_deviation": 0.0, "chi1_mode": "auto",
           "deviations": {str(a): [0.0, 0.0] for a in range(1, 5)}}
    assert any("planted" in p for p in check(planted, json.dumps(doc))[1])
    parseval = workloads.Job("j", "parseval", (("f", "liouville"), ("q", "5"), ("x", "9")))
    assert check(parseval, json.dumps({"lhs": 10.0, "rhs": 10.0 + 1e-6}))[1]
    assert compare({"v": 1.0, "n": 3}, {"v": 1.0 + 1e-12, "n": 3}) == []
    assert compare({"v": 1.0, "n": 3}, {"v": 1.0 + 1e-6, "n": 3})
    assert compare({"v": 1.0, "n": 3}, {"v": 1.0, "n": 4})


def test_traced_and_untraced_outputs_are_identical():
    run._setup_here()
    from progvar import cli

    original = cli.main
    for workload in workloads.WORKLOADS:
        jobs = workloads.jobs(workload, 5, 0, "tiny")
        _, plain, errors = run_round(jobs)
        assert not errors
        tracer = spans.Tracer()
        tracer.install()
        try:
            _, traced, errors = run_round(jobs, tracer)
        finally:
            tracer.uninstall()
        assert not errors
        assert traced == plain
        assert {s.job for s in tracer.spans} == {j.id for j in jobs}
    assert cli.main is original


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run(workload):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0",
                  "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == E2E
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run(workload):
    proc = _bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "1",
                  "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(m) == LAYERS
    assert m["sieve.window_apply.calls"] > 0
    assert m["sieve.PrimeTable.build_s"] > 0
    if workload == "main-char":
        assert m["pretentious.select_main_character.calls"] > 0
    else:
        assert m["pretentious.select_main_character.calls"] == 0
    if workload == "sieve-scan":
        assert m["linnik._scan.calls"] > 0
        # Scans run on the linnik thread pool; each span must still carry
        # the id of the linnik job that started it.
        with open(os.path.join(ROOT, ".bench_out", "spans-sieve-scan-2.json")) as fh:
            rows = json.load(fh)
        linnik_jobs = {j.id for j in workloads.jobs("sieve-scan", 2, 0, "tiny")
                       if j.cmd == "linnik"}
        scans = [r for r in rows if r["name"] == "linnik._scan"]
        assert len(scans) == m["linnik._scan.calls"]
        assert {r["job"] for r in scans} == linnik_jobs


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "main-char",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
