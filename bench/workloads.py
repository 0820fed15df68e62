"""Seeded job lists for the benchmark workloads.

A workload run executes rounds of `progvar` CLI jobs.  Round r of seed s is
drawn from its own random stream, so every round asks for different moduli
and ranges: no job repeats inside a process, and a cache that only helps
repeated identical requests cannot hide inside the timing.  The shape of a
round (which subcommands, how many jobs, the sizes) is fixed per workload;
the seed only picks moduli, character indices, twists and small range
offsets, chosen so that the cost of a round barely depends on the seed.

This module only builds argument lists; it imports nothing from progvar.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("main-char", "class-sums", "sieve-scan")

# Per-workload sizes.  "tiny" keeps every code path and shrinks the ranges so
# the self-tests run in seconds.
SIZES = {
    "main-char": {
        "full": {"q": (9000, 10000), "strata": 6, "x_per_q": 100,
                 "spec_q": (970, 1030), "spec_P": 100_000},
        "tiny": {"q": (50, 200), "strata": 3, "x_per_q": 100,
                 "spec_q": (20, 40), "spec_P": 1_000},
    },
    "class-sums": {
        "full": {"q": (80, 130), "x": 8_000_000, "parseval_x": 5_000_000,
                 "hybrid_X": 2_000_000, "h": 1000, "jitter": 40_000},
        "tiny": {"q": (80, 130), "x": 80_000, "parseval_x": 50_000,
                 "hybrid_X": 20_000, "h": 100, "jitter": 400},
    },
    "sieve-scan": {
        "full": {"A": (100, 300), "span": 200, "B": (1000, 2000), "high_span": 20,
                 "smooth_X": 5_000_000, "Y": 1000, "jitter": 50_000},
        "tiny": {"A": (20, 40), "span": 10, "B": (100, 150), "high_span": 3,
                 "smooth_X": 50_000, "Y": 100, "jitter": 500},
    },
}

# Functions whose main character the main-char workload asks for; "planted"
# is a character mod q whose own index must come back from --chi1 auto.
MAIN_CHAR_FUNCS = ("mobius", "liouville", "planted")
SMOOTH_MODULI = (1, 2, 6, 10, 30)


@dataclass(frozen=True)
class Job:
    """One CLI call: `progvar <cmd> <opts> --format json`."""

    id: str
    cmd: str
    opts: tuple[tuple[str, str], ...]
    planted: int | None = None  # character index the job must recover

    @property
    def argv(self) -> list[str]:
        out = [self.cmd]
        for key, value in self.opts:
            out += [f"--{key}", value]
        return out + ["--format", "json"]

    def opt(self, key: str) -> str:
        return dict(self.opts)[key]


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _largest_factor(n: int) -> int:
    best, d = 1, 2
    while d * d <= n:
        while n % d == 0:
            best, n = d, n // d
        d += 1
    return max(best, n)


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo < p < hi."""
    return [p for p in range(lo + 1, hi) if _is_prime(p)]


def _rng(workload: str, seed: int, round_no) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_no}")


def _main_char(seed, round_no, size):
    s = SIZES["main-char"][size]
    # The cost of the character scan depends on phi(q) = q - 1 through the
    # FFT over the unit group, and prime q - 1 factors vary widely.  Sorting
    # the candidate moduli by the largest prime factor of q - 1 and drawing
    # one per stratum gives every round the same mix of easy and hard FFT
    # lengths, so the round cost hardly depends on the seed.
    pool = sorted(primes_between(*s["q"]), key=lambda p: (_largest_factor(p - 1), p))
    k = s["strata"]
    strata = [pool[i * len(pool) // k:(i + 1) * len(pool) // k] for i in range(k)]
    order = _rng("main-char", seed, "strata")
    for stratum in strata:
        order.shuffle(stratum)
    rng = _rng("main-char", seed, round_no)
    jobs = []
    for i, stratum in enumerate(strata):
        q = stratum[round_no % len(stratum)]
        kind = MAIN_CHAR_FUNCS[(i + round_no) % len(MAIN_CHAR_FUNCS)]
        planted = None
        f = kind
        if kind == "planted":
            planted = rng.randrange(1, q - 1)
            f = f"character:q={q},idx={planted}"
        jobs.append(Job(f"r{round_no}.j{i}", "variance",
                        (("f", f), ("q", str(q)), ("x", str(s["x_per_q"] * q)),
                         ("chi1", "auto")), planted))
    spec_q = rng.choice(primes_between(*s["spec_q"]))
    t1 = round(1 + rng.random(), 3)
    t2 = round(t1 + 1 + rng.random(), 3)
    jobs.append(Job(f"r{round_no}.j{len(jobs)}", "spectrum",
                    (("q", str(spec_q)), ("P", str(s["spec_P"])), ("delta", "1"),
                     ("eps", "0.5"), ("t-grid", f"0,{t1},{t2}"))))
    return jobs


def _class_sums(seed, round_no, size):
    s = SIZES["class-sums"][size]
    rng = _rng("class-sums", seed, round_no)
    moduli = sorted(rng.sample(primes_between(*s["q"]), 3))
    x = s["x"] - rng.randrange(s["jitter"])
    pq = rng.choice(primes_between(*s["q"]))
    xi = f"0,{rng.randrange(1, pq - 1)}"
    px = s["parseval_x"] - rng.randrange(s["jitter"])
    hX = s["hybrid_X"] - rng.randrange(s["jitter"])
    p = f"r{round_no}.j"
    return [
        Job(p + "0", "variance", (("f", "mobius"), ("q", ",".join(map(str, moduli))),
                                  ("x", str(x)), ("chi1", "principal"))),
        Job(p + "1", "parseval", (("f", "liouville"), ("q", str(pq)), ("x", str(px)),
                                  ("xi", xi))),
        Job(p + "2", "hybrid", (("f", "mobius"), ("q", "7"), ("X", str(hX)),
                                ("h", str(s["h"])), ("step", "4"), ("chi1", "principal"))),
    ]


def _sieve_scan(seed, round_no, size):
    s = SIZES["sieve-scan"][size]
    rng = _rng("sieve-scan", seed, round_no)
    a = rng.randrange(*s["A"])
    b = rng.randrange(*s["B"])
    qrange = f"{a}:{a + s['span'] - 1}"
    X = s["smooth_X"] - rng.randrange(s["jitter"])
    p = f"r{round_no}.j"
    return [
        Job(p + "0", "linnik", (("q-range", qrange), ("predicate", "e3"),
                                ("bound-exponent", "3"))),
        Job(p + "1", "linnik", (("q-range", qrange), ("predicate", "mobius-minus"),
                                ("bound-exponent", "3"))),
        Job(p + "2", "linnik", (("q-range", f"{b}:{b + s['high_span'] - 1}"),
                                ("predicate", "e3"), ("bound-exponent", "2.2"))),
        Job(p + "3", "smooth", (("mode", "ratio"), ("X", str(X)), ("Y", str(s["Y"])),
                                ("q", str(rng.choice(SMOOTH_MODULI))), ("delta", "0.1"))),
    ]


_ROUNDS = {"main-char": _main_char, "class-sums": _class_sums, "sieve-scan": _sieve_scan}


def jobs(workload: str, seed: int, round_no: int, size: str = "full") -> list[Job]:
    """The job list of one round."""
    return _ROUNDS[workload](seed, round_no, size)
