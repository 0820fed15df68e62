"""Span recorder for the traced benchmark run.

`Tracer.install()` replaces each traced progvar function, in every progvar
module that binds its name, with a wrapper that records a span: name, start,
end, parent span and job id, plus counters read from the call's arguments.
Spans are kept in memory; `Tracer.write` saves them when the run ends.
The parent is the span open in the caller's context.  Contexts do not follow
work into threads, so `install()` also swaps the `ThreadPoolExecutor` that
progvar modules bind for one that runs each task in a copy of the
submitter's context; spans made on linnik's scan workers then belong to
the job that started the scan.
"""

from __future__ import annotations

import contextlib
import contextvars
import importlib
import inspect
import itertools
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from progvar import pretentious, sieve

_current: contextvars.ContextVar = contextvars.ContextVar("bench_span", default=None)


class Span:
    __slots__ = ("id", "name", "parent", "job", "start", "end", "counters", "key")

    def __init__(self, id, name, parent, job, start=0.0, end=0.0, counters=None, key=None):
        self.id, self.name, self.parent, self.job = id, name, parent, job
        self.start, self.end = start, end
        self.counters = counters or {}
        self.key = key  # identifies the work done, for distinct_frac


class _ContextExecutor(ThreadPoolExecutor):
    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


# -- probes: counters read from a call's arguments ---------------------------
# A probe gets the bound arguments, may wrap a callback argument to count its
# calls, and returns a function giving (counters, key) once the call returned.


def _window_apply(a):
    lo, hi, table, pmax, visit = (a["lo"], a["hi"], a["table"], a["pmax"],
                                  a["on_prime_power"])
    calls = 0

    def counted(p, k, pos):
        nonlocal calls
        calls += 1
        return visit(p, k, pos)

    a["on_prime_power"] = counted

    def done():
        ps = table.primes_in(2, min(pmax, math.isqrt(hi)))
        passes = int(np.count_nonzero((lo + ps - 1) // ps * ps <= hi))
        return {"ints": hi - lo + 1, "prime_passes": passes, "callbacks": calls}, None

    return done


def _evaluate_range(a):
    lo, hi = a["lo"], a["hi"]
    return lambda: ({"ints": hi - lo + 1}, (a["f"].name, lo, hi))


def _select_main_character(a):
    x, q = a["x"], a["q"]
    T = a["T"] if a["T"] is not None else math.log(x)
    dt = a["grid_dt"] if a["grid_dt"] is not None else pretentious.default_grid_dt(x)
    points = len(pretentious._grid(T, dt)) if T > 0 else 1
    table = a["table"] if a["table"] is not None else sieve.default_table()
    primes = table.prime_count(x) - sum(1 for p, _ in sieve.factor(q, table).factors if p <= x)
    counters = {"cells": points * sieve.euler_phi(q, table), "prime_terms": points * primes}
    return lambda: (counters, None)


def _golden_refine(a):
    func = a["func"]
    evals = 0

    def counted(t):
        nonlocal evals
        evals += 1
        return func(t)

    a["func"] = counted
    return lambda: ({"evals": evals}, None)


def _scan(a):
    qualifies = a["qualifies"]
    blocks = []

    def counted(lo, hi, table):
        blocks.append((qualifies.__code__, lo, hi))
        return qualifies(lo, hi, table)

    a["qualifies"] = counted
    return lambda: ({"blocks": len(blocks)}, blocks)


def _psi_q(a):
    return lambda: ({"ints": max(0, math.floor(a["X"]))}, None)


# Traced functions as (module, attribute, probe).  The class entry traces
# PrimeTable construction, the sieve build of set-up.
TARGETS = (
    ("progvar.sieve", "PrimeTable.__init__", None),
    ("progvar.sieve", "window_apply", _window_apply),
    ("progvar.sieve", "mobius_range", None),
    ("progvar.sieve", "big_omega_range", None),
    ("progvar.multfunc", "evaluate_range", _evaluate_range),
    ("progvar.variance", "_class_sums", None),
    ("progvar.variance", "deviation", None),
    ("progvar.variance", "parseval_check", None),
    ("progvar.variance", "hybrid_variance", None),
    ("progvar.variance", "resolve_chi1", None),
    ("progvar.pretentious", "select_main_character", _select_main_character),
    ("progvar.pretentious", "_golden_refine", _golden_refine),
    ("progvar.characters", "characters", None),
    ("progvar.characters", "unit_group", None),
    ("progvar.spectrum", "large_value_census", None),
    ("progvar.spectrum", "prime_char_sum", None),
    ("progvar.linnik", "_scan", _scan),
    ("progvar.smooth", "psi_q", _psi_q),
    ("progvar.smooth", "_smooth_mask", None),
    ("progvar.cli", "_emit", None),
    ("progvar.cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._undo: list[tuple[object, str, object]] = []

    def _record(self, name, orig, probe):
        sig = inspect.signature(orig) if probe else None

        def wrapper(*args, **kwargs):
            parent = _current.get()
            span = Span(next(self._ids), name, parent.id if parent else None,
                        parent.job if parent else None)
            done = None
            if probe:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                done = probe(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            token = _current.set(span)
            span.start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                _current.reset(token)
                self.spans.append(span)
            if done:
                span.counters, span.key = done()
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target at every progvar module that binds it."""
        for modname, _, _ in TARGETS:
            importlib.import_module(modname)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "progvar" or n.startswith("progvar.")) and m is not None]
        for modname, attr, probe in TARGETS:
            short = modname.split(".")[-1]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                owner = getattr(sys.modules[modname], cls_name)
                orig = owner.__dict__[meth]
                self._patch(owner, meth, self._record(f"{short}.{cls_name}", orig, probe))
                continue
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._record(f"{short}.{attr}", orig, probe)
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    self._patch(mod, attr, wrapper)
        for mod in modules:
            if mod.__dict__.get("ThreadPoolExecutor") is ThreadPoolExecutor:
                self._patch(mod, "ThreadPoolExecutor", _ContextExecutor)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def job(self, job_id: str):
        """Open the root span of one job; spans under it carry its id."""
        span = Span(next(self._ids), "job", None, job_id)
        token = _current.set(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            _current.reset(token)
            self.spans.append(span)

    def write(self, path: str):
        rows = [{"id": s.id, "name": s.name, "parent": s.parent, "job": s.job,
                 "start": s.start, "end": s.end, **s.counters} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans.

    Children may overlap (threads), so the covered part is the length of the
    union of the children's intervals clipped to the parent's.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans, names) -> dict[str, float]:
    """Values of per-layer metrics `<module>.<function>.<quantity>`.

    Quantities: calls, total_s, self_s, build_s (total time of a
    constructor), distinct_frac (distinct pieces of work over attempts),
    ints_per_s and cells_per_s (a counter over total_s), and any counter a
    probe records, summed over calls.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {}
    for metric in names:
        layer, _, qty = metric.rpartition(".")
        group = by_name.get(layer, [])
        total = sum(s.end - s.start for s in group)
        if qty == "calls":
            value = len(group)
        elif qty in ("total_s", "build_s"):
            value = total
        elif qty == "self_s":
            value = sum(selfs[s.id] for s in group)
        elif qty == "distinct_frac":
            keys = [k for s in group
                    for k in (s.key if isinstance(s.key, list) else [s.key])]
            value = len(set(keys)) / len(keys) if keys else 0.0
        elif qty.endswith("_per_s"):
            count = sum(s.counters.get(qty[:-len("_per_s")], 0) for s in group)
            value = count / total if total > 0 else 0.0
        else:
            value = sum(s.counters.get(qty, 0) for s in group)
        out[metric] = value
    return out
