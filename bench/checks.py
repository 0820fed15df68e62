"""Output checks for benchmark jobs.

`check(job, text)` parses one job's JSON output, tests the identities and
invariants the output must satisfy, and returns a summary of the numbers
that are compared against the stored reference for the default seed.
Integers in a summary must match the reference exactly and floats to a
relative 1e-9, loose enough for sums evaluated in another order.  Values that
are pure rounding noise (the variance of a planted character against
itself) are left out of summaries.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

import progvar as pv
from progvar import sieve

REL_TOL = 1e-9


def _units(q: int) -> list[int]:
    return [a for a in range(1, q) if math.gcd(a, q) == 1] if q > 1 else [0]


def _close(a: float, b: float) -> bool:
    """Equal up to the rounding of recomputing from the printed values."""
    return math.isclose(a, b, rel_tol=1e-12)


def _variance(job, doc, problems):
    reports = doc if isinstance(doc, list) else [doc]
    moduli = [int(q) for q in job.opt("q").split(",")]
    x = float(job.opt("x"))
    if [r["q"] for r in reports] != moduli:
        problems.append(f"reports for moduli {[r['q'] for r in reports]}, asked {moduli}")
        return {}
    summary = {}
    for rep in reports:
        q = rep["q"]
        devs = {int(a): complex(re, im) for a, (re, im) in rep["deviations"].items()}
        if sorted(devs) != _units(q):
            problems.append(f"q={q}: deviations not over the coprime classes")
            continue
        var = math.fsum(abs(z) ** 2 for z in devs.values())
        if not _close(rep["variance"], var):
            problems.append(f"q={q}: variance {rep['variance']} != sum |dev|^2 = {var}")
        if not _close(rep["max_deviation"], max(abs(z) for z in devs.values())):
            problems.append(f"q={q}: max_deviation disagrees with the deviations")
        phi = len(devs)
        if not _close(rep["normalized"], rep["variance"] / (phi * (x / q) ** 2)):
            problems.append(f"q={q}: normalized != variance / (phi (x/q)^2)")
        mode = job.opt("chi1")
        if rep["chi1_mode"] != mode:
            problems.append(f"q={q}: chi1_mode {rep['chi1_mode']}, asked {mode}")
        if not 0 <= rep["chi1_index"] < phi:
            problems.append(f"q={q}: chi1_index {rep['chi1_index']} out of range")
        if job.planted is not None:
            if rep["chi1_index"] != job.planted:
                problems.append(f"q={q}: planted character {job.planted} came back as "
                                f"{rep['chi1_index']}")
            summary[f"{q}.chi1_index"] = rep["chi1_index"]
            continue
        if mode == "principal":
            # Deviations from the principal main term cancel over the classes.
            if rep["chi1_index"] != 0:
                problems.append(f"q={q}: principal mode chose index {rep['chi1_index']}")
            if abs(sum(devs.values())) > 1e-9 * x:
                problems.append(f"q={q}: principal deviations sum to {sum(devs.values())}")
        for key in ("chi1_index", "variance", "normalized", "max_deviation"):
            summary[f"{q}.{key}"] = rep[key]
    return summary


def _parseval(job, doc, problems):
    lhs, rhs = doc["lhs"], doc["rhs"]
    if abs(lhs - rhs) > 1e-9 * max(1.0, abs(lhs)):
        problems.append(f"Parseval: |lhs - rhs| = {abs(lhs - rhs)} for lhs = {lhs}")
    return {"lhs": lhs, "rhs": rhs}


def _hybrid(job, doc, problems):
    value = doc["normalized"]
    if not (math.isfinite(value) and value >= 0):
        problems.append(f"hybrid statistic {value} is not a finite nonnegative number")
    return {"normalized": value}


def _spectrum(job, doc, problems):
    q, eps = int(job.opt("q")), float(job.opt("eps"))
    grid = [float(t) for t in job.opt("t-grid").split(",")]
    phi = len(_units(q))
    points = doc["points"]
    if doc["count"] != len(points):
        problems.append(f"census count {doc['count']} != {len(points)} points")
    keys = [(p["chi_index"], p["t"]) for p in points]
    if keys != sorted(keys):
        problems.append("census points not ordered by (character, t)")
    summary = {"count": doc["count"]}
    for p in points:
        if not (0 <= p["chi_index"] < phi and p["t"] in grid and p["normalized"] >= eps):
            problems.append(f"census point {p} outside the grid or below eps")
        summary[f"{p['chi_index']}@{p['t']}.abs"] = p["abs"]
    return summary


def _linnik(job, doc, problems):
    lo, _, hi = job.opt("q-range").partition(":")
    lo, hi = int(lo), int(hi)
    predicate = job.opt("predicate")
    exponent = float(job.opt("bound-exponent"))
    by_q: dict[int, dict[int, int]] = {}
    for row in doc:
        by_q.setdefault(row["q"], {})[row["a"]] = row["n"]
    if sorted(by_q) != list(range(lo, hi + 1)):
        problems.append(f"linnik rows cover moduli {min(by_q, default=None)}..."
                        f"{max(by_q, default=None)}, asked {lo}..{hi}")
    bad = []
    for q, minima in by_q.items():
        bound = max(8, int(round(q**exponent)))
        if sorted(minima) != _units(q):
            bad.append(f"q={q}: classes are not the coprime residues")
        for a, n in minima.items():
            if n is None or n > bound or n % q != a % q:
                bad.append(f"q={q} a={a}: witness {n} missing, above {bound} or in another class")
                continue
            f = pv.factor(n)
            if predicate == "e3":
                ok = f.big_omega == 3
            else:  # mobius-minus
                ok = pv.mobius(n) == -1
            if not ok:
                bad.append(f"q={q} a={a}: witness {n} = {f.factors} fails {predicate}")
    problems.extend(bad[:5])
    canon = ";".join(f"{r['q']},{r['a']},{r['n']}" for r in doc)
    return {"rows": len(doc), "sha256": hashlib.sha256(canon.encode()).hexdigest(),
            "max_n": max((r["n"] or 0) for r in doc) if doc else 0}


def _smooth_count(lo: int, hi: int, Y: float, q: int) -> int:
    """#{lo <= n <= hi : P+(n) <= Y, gcd(n, q) = 1} by walking the
    smallest-prime-factor table, independently of the interval sieve."""
    spf = sieve.default_table().spf
    m = np.arange(lo, hi + 1, dtype=np.int64)
    largest = np.ones_like(m)
    while True:
        live = m > 1
        if not live.any():
            break
        p = spf[m[live]].astype(np.int64)
        largest[live] = np.maximum(largest[live], p)
        m[live] //= p
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    return int(np.count_nonzero((largest <= Y) & (np.gcd(ns, q) == 1)))


def _smooth(job, doc, problems):
    X, Y = float(job.opt("X")), float(job.opt("Y"))
    q, delta = int(job.opt("q")), float(job.opt("delta"))
    lo, hi = math.floor(X) + 1, math.floor((1 + delta) * X)
    expected = _smooth_count(lo, hi, Y, q)
    if doc["count"] != expected:
        problems.append(f"smooth count {doc['count']}, spf walk gives {expected}")
    if not (doc["predicted"] > 0 and _close(doc["ratio"], doc["count"] / doc["predicted"])):
        problems.append(f"ratio {doc['ratio']} != count / predicted")
    return {"count": doc["count"], "predicted": doc["predicted"]}


_CHECKS = {"variance": _variance, "parseval": _parseval, "hybrid": _hybrid,
           "spectrum": _spectrum, "linnik": _linnik, "smooth": _smooth}


def check(job, text: str) -> tuple[dict, list[str]]:
    """(summary, problems) for one job's JSON output."""
    problems: list[str] = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        return {}, [f"output is not JSON: {e}"]
    return _CHECKS[job.cmd](job, doc, problems), problems


def compare(summary: dict, reference: dict) -> list[str]:
    """Differences between a job summary and its stored reference."""
    problems = []
    if sorted(summary) != sorted(reference):
        return [f"summary keys {sorted(summary)} != reference keys {sorted(reference)}"]
    for key, want in reference.items():
        got = summary[key]
        if isinstance(want, float):
            same = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
        else:
            same = got == want
        if not same:
            problems.append(f"{key}: {got!r}, reference {want!r}")
    return problems
