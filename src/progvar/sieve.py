"""Smallest-prime-factor sieve and interval factorization machinery.

A PrimeTable stores spf[n] for n up to a configurable limit (default 1e7,
overridable via the PROGVAR_SIEVE_LIMIT environment variable) plus the
ordered prime list.  Single integers up to limit**2 are factored by an spf
walk or trial division; intervals are processed by windowed passes over the
stored primes, which is the hot path for every scan in the package.

All tables are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError

DEFAULT_LIMIT = 10_000_000
_UINT64_MAX = 2**64 - 1

_default_table = None


@dataclass(frozen=True)
class PrimeFactorization:
    """n as an ordered tuple of (prime, exponent) pairs; empty for n = 1."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def reconstruct(self) -> int:
        out = 1
        for p, k in self.factors:
            out *= p**k
        return out

    @property
    def omega(self) -> int:
        return len(self.factors)

    @property
    def big_omega(self) -> int:
        return sum(k for _, k in self.factors)

    def divisors(self) -> list[int]:
        divs = [1]
        for p, k in self.factors:
            divs = [d * p**j for d in divs for j in range(k + 1)]
        return sorted(divs)


class PrimeTable:
    """Immutable smallest-prime-factor sieve on [2, limit]."""

    def __init__(self, limit: int = DEFAULT_LIMIT):
        if limit < 2:
            raise DomainError(f"sieve limit must be >= 2, got {limit}")
        if limit > 2**31 - 1:
            raise CapacityError(f"sieve limit {limit} exceeds uint32 spf storage")
        self.limit = int(limit)
        spf = np.zeros(self.limit + 1, dtype=np.uint32)
        for p in range(2, math.isqrt(self.limit) + 1):
            if spf[p] == 0:
                view = spf[p * p :: p]
                view[view == 0] = p
        unmarked = np.flatnonzero(spf == 0)
        spf[unmarked] = unmarked  # remaining zeros are primes (and 0, 1)
        spf[0] = 0
        spf[1] = 1
        self.spf = spf
        self.primes = np.flatnonzero(spf[2:] == np.arange(2, self.limit + 1)).astype(np.int64) + 2

    def is_prime(self, n: int) -> bool:
        if n < 2:
            return False
        if n <= self.limit:
            return int(self.spf[n]) == n
        return factor(n, self).factors == ((n, 1),)

    def primes_in(self, lo: float, hi: float) -> np.ndarray:
        """Primes p with lo <= p <= hi (inclusive both ends)."""
        if hi > self.limit:
            raise CapacityError(f"prime range up to {hi} exceeds table limit {self.limit}")
        i = np.searchsorted(self.primes, math.ceil(lo), side="left")
        j = np.searchsorted(self.primes, math.floor(hi), side="right")
        return self.primes[i:j]

    def prime_count(self, z: float) -> int:
        """pi(z) for z within coverage."""
        if z > self.limit:
            raise CapacityError(f"pi({z}) exceeds table limit {self.limit}")
        return int(np.searchsorted(self.primes, math.floor(z), side="right"))


def default_table() -> PrimeTable:
    """Shared lazily built table; PROGVAR_SIEVE_LIMIT overrides the bound."""
    global _default_table
    if _default_table is None:
        limit = int(os.environ.get("PROGVAR_SIEVE_LIMIT", DEFAULT_LIMIT))
        _default_table = PrimeTable(limit)
    return _default_table


def _require_table(table: PrimeTable | None) -> PrimeTable:
    return table if table is not None else default_table()


def factor(n: int, table: PrimeTable | None = None) -> PrimeFactorization:
    """Unique factorization of n; covered for 1 <= n <= table.limit**2."""
    table = _require_table(table)
    if n == 0:
        raise DomainError("factor(0) undefined")
    if n < 0:
        raise DomainError(f"factor of negative {n}")
    if n > _UINT64_MAX:
        raise CapacityError(f"{n} exceeds 64-bit capacity")
    if n > table.limit * table.limit:
        raise CapacityError(f"{n} beyond trial-division coverage (limit {table.limit})")
    factors = []
    if n <= table.limit:
        m = n
        spf = table.spf
        while m > 1:
            p = int(spf[m])
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            factors.append((p, k))
    else:
        m = n
        root = math.isqrt(n)
        for p in table.primes:
            p = int(p)
            if p > root:
                break
            if m % p == 0:
                k = 0
                while m % p == 0:
                    m //= p
                    k += 1
                factors.append((p, k))
                root = math.isqrt(m)
        if m > 1:
            factors.append((m, 1))  # cofactor is prime: no divisor <= sqrt(n) remains
    return PrimeFactorization(n, tuple(factors))


def mobius(n: int, table: PrimeTable | None = None) -> int:
    f = factor(n, table)
    if any(k >= 2 for _, k in f.factors):
        return 0
    return -1 if f.omega % 2 else 1


def euler_phi(n: int, table: PrimeTable | None = None) -> int:
    out = 1
    for p, k in factor(n, table).factors:
        out *= p ** (k - 1) * (p - 1)
    return out


def units_mod(q: int) -> np.ndarray:
    """Residues 0 <= a < q with gcd(a, q) = 1, ascending; [0] for q = 1."""
    return np.flatnonzero(np.gcd(np.arange(q), q) == 1)


def omega_in_range(n: int, P: float, Q: float, table: PrimeTable | None = None) -> int:
    """Number of distinct primes p | n with P <= p <= Q."""
    if not 1 <= P <= Q:
        raise DomainError(f"need 1 <= P <= Q, got P={P}, Q={Q}")
    return sum(1 for p, _ in factor(n, table).factors if P <= p <= Q)


def prime_bounds(n: int, table: PrimeTable | None = None):
    """(smallest, largest) prime factor of n, with (+inf, 1) for n = 1."""
    f = factor(n, table)
    if not f.factors:
        return (math.inf, 1)
    return (f.factors[0][0], f.factors[-1][0])


# ---------------------------------------------------------------------------
# Interval passes.  window_apply makes one strided pass per prime; each
# caller turns the exponents into mu, Omega, omega or f(n) with one array
# operation per prime, on slice views rather than gathered index arrays.


def window_apply(lo: int, hi: int, table: PrimeTable, pmax: float, on_prime_power) -> np.ndarray:
    """Sieve [lo, hi] by the primes p <= min(pmax, sqrt(hi)); return residuals.

    For each such p with a multiple in the window, on_prime_power(p, sl, e)
    is called exactly once: sl = slice(-lo % p, None, p) selects the
    multiples of p in any array indexed by n - lo, and e (int8) holds the
    exact exponent of p at each of them.  The returned int64 array holds n
    divided by its prime powers p^k with p <= min(pmax, sqrt(hi)); when
    pmax >= sqrt(hi) each residual > 1 is a single prime above sqrt(hi).

    The product of the removed prime powers divides n <= limit**2 < 2**62,
    so it stays exact in int64, and every exponent is below 63, so int8 holds
    it.  The name, the parameter names and the three positional callback
    arguments are a fixed contract: the benchmark tracer (bench/spans.py)
    binds on_prime_power by name and wraps it in a three-argument counter.
    """
    if lo < 1 or lo > hi:
        raise DomainError(f"bad window [{lo}, {hi}]")
    if hi > table.limit * table.limit:
        raise CapacityError(f"window up to {hi} beyond coverage (limit {table.limit})")
    root = math.isqrt(hi)
    if root > table.limit:
        raise CapacityError(f"window up to {hi} needs primes to {root} > limit {table.limit}")
    prod = np.ones(hi - lo + 1, dtype=np.int64)
    for p in table.primes_in(2, min(pmax, root)).tolist():
        j0 = -lo % p
        if lo + j0 > hi:
            continue
        sl = slice(j0, None, p)
        prod[sl] *= p
        e = np.ones((hi - lo - j0) // p + 1, dtype=np.int8)
        pk = p * p
        while pk <= hi:
            jk = -lo % pk
            if lo + jk > hi:
                break
            prod[jk::pk] *= p
            e[(jk - j0) // p :: pk // p] += 1
            pk *= p
        on_prime_power(p, sl, e)
    return np.floor_divide(np.arange(lo, hi + 1, dtype=np.int64), prod, out=prod)


def mobius_range(lo: int, hi: int, table: PrimeTable | None = None) -> np.ndarray:
    """mu(lo), ..., mu(hi) as an int8 array."""
    table = _require_table(table)
    mu = np.ones(hi - lo + 1, dtype=np.int8)

    def visit(p, sl, e):
        mu[sl] *= np.where(e == 1, np.int8(-1), np.int8(0))

    residual = window_apply(lo, hi, table, math.inf, visit)
    mu[residual > 1] *= -1
    return mu


def big_omega_range(lo: int, hi: int, table: PrimeTable | None = None) -> np.ndarray:
    """Omega (prime factors with multiplicity) over [lo, hi]."""
    table = _require_table(table)
    om = np.zeros(hi - lo + 1, dtype=np.int32)

    def visit(p, sl, e):
        om[sl] += e

    residual = window_apply(lo, hi, table, math.inf, visit)
    om[residual > 1] += 1
    return om


def omega_range(lo: int, hi: int, table: PrimeTable | None = None) -> np.ndarray:
    """omega (distinct prime factors) over [lo, hi]."""
    return omega_between_range(lo, hi, 1, math.inf, table)


def omega_between_range(lo: int, hi: int, P: float, Q: float,
                        table: PrimeTable | None = None) -> np.ndarray:
    """Distinct primes in [P, Q] dividing each n in [lo, hi]."""
    if not 1 <= P <= Q:
        raise DomainError(f"need 1 <= P <= Q, got P={P}, Q={Q}")
    table = _require_table(table)
    om = np.zeros(hi - lo + 1, dtype=np.int32)

    def visit(p, sl, e):
        if P <= p <= Q:
            om[sl] += 1

    residual = window_apply(lo, hi, table, math.inf, visit)
    om[(residual > 1) & (residual >= P) & (residual <= Q)] += 1
    return om
