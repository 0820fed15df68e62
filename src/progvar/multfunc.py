"""1-bounded multiplicative functions defined by one vectorized prime-power rule.

Every value of f is read through that rule, so any window of values can be
materialized by the interval sieve without storing anything global, and no
value depends on the window it is computed in.  The Archimedean twist
n^{-it} used inside sums is a parameter of the summation operations, not
folded into the function.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .characters import DirichletCharacter
from .errors import DomainError
from .sieve import PrimeTable, _require_coverage, _require_table, factor, window_apply

BUILTIN_NAMES = ("one", "mobius", "mobius_squared", "liouville",
                 "smooth_indicator", "character", "nit_twist")


@dataclass
class MultiplicativeFunction:
    """f with f(1) = 1, |f(p^k)| <= 1, determined by its prime-power rule:
    rule(ps, k) returns f(p^k) for each prime p of the int64 array ps."""

    name: str
    rule: Callable[[np.ndarray, int], np.ndarray]
    real: bool = True

    def __call__(self, n: int, table: PrimeTable | None = None) -> complex:
        if n < 1:
            raise DomainError(f"multiplicative functions are defined on n >= 1, got {n}")
        out = 1 + 0j
        for p, k in factor(n, table).factors:
            out *= complex(self.at_primes([p], k)[0])
        return out

    def at_primes(self, primes, k: int = 1) -> np.ndarray:
        """f(p^k) at each prime of primes, as complex128."""
        primes = np.asarray(primes, dtype=np.int64)
        vals = np.asarray(self.rule(primes, k), dtype=np.complex128)
        if vals.shape != primes.shape:
            raise DomainError(f"rule of {self.name} gave shape {vals.shape}, not {primes.shape}")
        return vals


def builtin(name: str, *, y: float | None = None,
            chi: DirichletCharacter | None = None,
            t0: float | None = None) -> MultiplicativeFunction:
    """Named function library; parameters: smooth_indicator needs y >= 2,
    character needs chi, nit_twist needs t0."""
    if name == "one":
        return MultiplicativeFunction(name, lambda ps, k: np.ones(len(ps)))
    if name == "mobius":
        return MultiplicativeFunction(name,
                                      lambda ps, k: np.full(len(ps), -1.0 if k == 1 else 0.0))
    if name == "mobius_squared":
        return MultiplicativeFunction(name, lambda ps, k: np.full(len(ps), 1.0 if k == 1 else 0.0))
    if name == "liouville":
        return MultiplicativeFunction(name, lambda ps, k: np.full(len(ps), (-1.0) ** k))
    if name == "smooth_indicator":
        if y is None or y < 2:
            raise DomainError("smooth_indicator needs y >= 2")
        yv = float(y)
        return MultiplicativeFunction(f"smooth_indicator:{y:g}",
                                      lambda ps, k: (ps <= yv).astype(float))
    if name == "character":
        if chi is None:
            raise DomainError("character needs a DirichletCharacter")
        table = chi.table
        q = chi.q

        def rule(ps, k):
            r = pk = ps % q
            for _ in range(k - 1):
                pk = pk * r % q  # exact in int64: below q^2 < 2^63
            return table[pk]

        return MultiplicativeFunction(f"character:q={q},idx={chi.index}", rule,
                                      real=chi.is_real)
    if name == "nit_twist":
        if t0 is None:
            raise DomainError("nit_twist needs t0")
        tv = float(t0)
        return MultiplicativeFunction(f"nit_twist:{t0:g}",
                                      lambda ps, k: np.exp(1j * tv * k * np.log(ps.astype(float))),
                                      real=(tv == 0.0))
    raise DomainError(f"unknown multiplicative function {name!r}; "
                      f"expected one of {', '.join(BUILTIN_NAMES)}")


def parse_descriptor(text: str) -> MultiplicativeFunction:
    """CLI descriptors: "mobius", "smooth_indicator:1000", "character:q=5,idx=2",
    "nit_twist:0.5"."""
    from .characters import character

    head, _, arg = text.partition(":")
    if head in ("one", "mobius", "mobius_squared", "liouville"):
        if arg:
            raise DomainError(f"{head} takes no parameter")
        return builtin(head)
    if head == "smooth_indicator":
        return builtin(head, y=float(arg))
    if head == "nit_twist":
        return builtin(head, t0=float(arg))
    if head == "character":
        params = dict(kv.split("=", 1) for kv in arg.split(",") if kv)
        try:
            q = int(params["q"])
            idx = int(params["idx"])
        except KeyError as e:
            raise DomainError(f"character descriptor needs q= and idx=: {text!r}") from e
        return builtin("character", chi=character(q, idx))
    raise DomainError(f"unknown multiplicative function descriptor {text!r}")


def evaluate_range(f: MultiplicativeFunction, lo: int, hi: int,
                   table: PrimeTable | None = None) -> np.ndarray:
    """f(lo), ..., f(hi) by one interval-sieve pass per prime <= sqrt(hi);
    f.rule runs once per exponent k and once for the primes above sqrt(hi)."""
    table = _require_table(table)
    if lo < 1:
        raise DomainError(f"range must start at 1 or later, got {lo}")
    _require_coverage(hi, table)
    vals = np.ones(hi - lo + 1, dtype=np.complex128)
    primes = table.primes_in(2, math.isqrt(hi))
    primes = primes[-lo % primes <= hi - lo]  # those with a multiple in the window
    plist = primes.tolist()
    # rows[k - 1][i] = f(plist[i]^k) up to hi^(1/k) + 1: a margin adds primes, never drops one
    rows = [f.at_primes(primes[:np.searchsorted(primes, hi ** (1 / k) + 1, "right")], k).tolist()
            for k in range(1, int(hi).bit_length())]

    def visit(p, sl, e):
        i = bisect.bisect_left(plist, p)
        local = [1.0] + [row[i] for row in rows[:e.max()]]
        if any(v != 1 for v in local):
            vals[sl] *= np.array(local)[e]

    residual = window_apply(lo, hi, table, math.inf, visit)
    tail = residual > 1
    if tail.any():
        # at_primes runs before vals[tail] is gathered, so residual[tail] is
        # freed first; the product goes into the gathered copy, never into
        # the array at_primes returned.
        at_tail = f.at_primes(residual[tail])
        part = vals[tail]
        part *= at_tail
        vals[tail] = part
    return vals


def restrict_smooth(f: MultiplicativeFunction, y: float) -> MultiplicativeFunction:
    """g with g(p^k) = f(p^k) for p <= y and 0 above y."""
    if y < 2:
        raise DomainError(f"smooth restriction needs y >= 2, got {y}")
    yv = float(y)
    return MultiplicativeFunction(f"{f.name}|smooth:{y:g}",
                                  lambda ps, k: np.where(ps <= yv, f.at_primes(ps, k), 0.0),
                                  real=f.real)
