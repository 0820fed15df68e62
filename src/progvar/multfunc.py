"""1-bounded multiplicative functions defined by prime-power rules.

Functions carry a rule (p, k) -> complex rather than value tables, so any
window of values can be materialized by the interval sieve without storing
anything global.  The Archimedean twist n^{-it} used inside sums is a
parameter of the summation operations, not folded into the function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .characters import DirichletCharacter
from .errors import DomainError
from .sieve import PrimeTable, _require_table, factor, window_apply

BUILTIN_NAMES = ("one", "mobius", "mobius_squared", "liouville",
                 "smooth_indicator", "character", "nit_twist")


@dataclass
class MultiplicativeFunction:
    """f with f(1) = 1, |f(p^k)| <= 1, determined by its prime-power rule."""

    name: str
    prime_power: Callable[[int, int], complex]
    real: bool = True
    # Optional vectorized values at a numpy array of primes (exponent 1).
    prime_vec: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, n: int, table: PrimeTable | None = None) -> complex:
        if n < 1:
            raise DomainError(f"multiplicative functions are defined on n >= 1, got {n}")
        out = 1 + 0j
        for p, k in factor(n, table).factors:
            out *= self.prime_power(p, k)
        return out

    def at_primes(self, primes: np.ndarray) -> np.ndarray:
        if self.prime_vec is not None:
            return np.asarray(self.prime_vec(primes), dtype=np.complex128)
        return np.array([self.prime_power(int(p), 1) for p in primes], dtype=np.complex128)


def builtin(name: str, *, y: float | None = None,
            chi: DirichletCharacter | None = None,
            t0: float | None = None) -> MultiplicativeFunction:
    """Named function library; parameters: smooth_indicator needs y >= 2,
    character needs chi, nit_twist needs t0."""
    if name == "one":
        return MultiplicativeFunction("one", lambda p, k: 1.0,
                                      prime_vec=lambda ps: np.ones(len(ps)))
    if name == "mobius":
        return MultiplicativeFunction("mobius", lambda p, k: -1.0 if k == 1 else 0.0,
                                      prime_vec=lambda ps: -np.ones(len(ps)))
    if name == "mobius_squared":
        return MultiplicativeFunction("mobius_squared", lambda p, k: 1.0 if k == 1 else 0.0,
                                      prime_vec=lambda ps: np.ones(len(ps)))
    if name == "liouville":
        return MultiplicativeFunction("liouville", lambda p, k: (-1.0) ** k,
                                      prime_vec=lambda ps: -np.ones(len(ps)))
    if name == "smooth_indicator":
        if y is None or y < 2:
            raise DomainError("smooth_indicator needs y >= 2")
        yv = float(y)
        return MultiplicativeFunction(
            f"smooth_indicator:{y:g}",
            lambda p, k: 1.0 if p <= yv else 0.0,
            prime_vec=lambda ps: (np.asarray(ps) <= yv).astype(float),
        )
    if name == "character":
        if chi is None:
            raise DomainError("character needs a DirichletCharacter")
        table = chi.table
        q = chi.q
        return MultiplicativeFunction(
            f"character:q={q},idx={chi.index}",
            lambda p, k: complex(table[pow(p, k, q)]),
            real=chi.is_real,
            prime_vec=lambda ps: table[np.asarray(ps) % q],
        )
    if name == "nit_twist":
        if t0 is None:
            raise DomainError("nit_twist needs t0")
        tv = float(t0)
        return MultiplicativeFunction(
            f"nit_twist:{t0:g}",
            lambda p, k: complex(np.exp(1j * tv * k * math.log(p))),
            real=(tv == 0.0),
            prime_vec=lambda ps: np.exp(1j * tv * np.log(np.asarray(ps, dtype=float))),
        )
    raise DomainError(f"unknown multiplicative function {name!r}; "
                      f"expected one of {', '.join(BUILTIN_NAMES)}")


def parse_descriptor(text: str) -> MultiplicativeFunction:
    """CLI descriptors: "mobius", "smooth_indicator:1000", "character:q=5,idx=2",
    "nit_twist:0.5"."""
    from .characters import characters

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
        chis = characters(q)
        if not 0 <= idx < len(chis):
            raise DomainError(f"character index {idx} out of range for q={q}")
        return builtin("character", chi=chis[idx])
    raise DomainError(f"unknown multiplicative function descriptor {text!r}")


def evaluate_range(f: MultiplicativeFunction, lo: int, hi: int,
                   table: PrimeTable | None = None) -> np.ndarray:
    """f(lo), ..., f(hi) by one interval-sieve pass per prime <= sqrt(hi)."""
    table = _require_table(table)
    if lo < 1:
        raise DomainError(f"range must start at 1 or later, got {lo}")
    vals = np.ones(hi - lo + 1, dtype=np.complex128)

    def visit(p, sl, e):
        local = [1.0] + [complex(f.prime_power(p, k)) for k in range(1, int(e.max()) + 1)]
        if all(v == 1.0 for v in local):
            return
        vals[sl] *= np.array(local, dtype=np.complex128)[e]

    residual = window_apply(lo, hi, table, math.inf, visit)
    tail = residual > 1
    if tail.any():
        vals[tail] *= f.at_primes(residual[tail])
    return vals


def restrict_smooth(f: MultiplicativeFunction, y: float) -> MultiplicativeFunction:
    """g with g(p^k) = f(p^k) for p <= y and 0 above y."""
    if y < 2:
        raise DomainError(f"smooth restriction needs y >= 2, got {y}")
    yv = float(y)
    base_vec = f.prime_vec

    def vec(ps):
        ps = np.asarray(ps)
        out = f.at_primes(ps) if base_vec is None else np.asarray(base_vec(ps), dtype=np.complex128)
        return np.where(ps <= yv, out, 0.0)

    return MultiplicativeFunction(
        f"{f.name}|smooth:{y:g}",
        lambda p, k: f.prime_power(p, k) if p <= yv else 0.0,
        real=f.real,
        prime_vec=vec,
    )
