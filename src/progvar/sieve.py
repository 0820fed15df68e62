"""Smallest-prime-factor sieve and interval factorization machinery.

A PrimeTable stores spf[n] for n up to a configurable limit (default 1e7,
overridable via the PROGVAR_SIEVE_LIMIT environment variable) plus the
ordered prime list.  Single integers up to limit**2 are factored by an spf
walk or trial division; intervals are processed by windowed passes over the
stored primes, which is the hot path for every scan in the package.

The table is built as a segmented sieve: [0, limit] is walked in cache-sized
segments, and in each one every prime p <= sqrt(segment end) writes p at its
multiples from p*p on, largest prime first, so that the smallest prime factor
is the value left standing.  The entries still zero are 0, 1 and the primes;
each is set to itself and the primes are collected in the same segment.

All tables are immutable after construction (their arrays are read-only)
and safe to share.
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError

DEFAULT_LIMIT = 10_000_000
_UINT64_MAX = 2**64 - 1

# Integers per block in every streamed pass over a range of n.  Peak memory
# is a few arrays of this length, whatever the range.
BLOCK = 1 << 20

# Entries per segment of the PrimeTable build: 2^18 uint32 is 1 MiB, which
# stays in cache while every sieving prime strikes it.
_SEGMENT = 1 << 18

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
        root = math.isqrt(self.limit)
        small = np.ones(root + 1, dtype=bool)
        small[:2] = False
        for p in range(2, math.isqrt(root) + 1):
            if small[p]:
                small[p * p :: p] = False
        sieving = np.flatnonzero(small).tolist()  # the primes up to sqrt(limit)
        spf = np.zeros(self.limit + 1, dtype=np.uint32)
        found = []
        for a, b in blocks(0, self.limit, _SEGMENT):
            seg = spf[a : b + 1]
            # largest prime first, so the smallest one dividing n is written last
            for p in reversed(sieving[: bisect.bisect_right(sieving, math.isqrt(b))]):
                seg[max(p * p, -(-a // p) * p) - a :: p] = p
            zeros = np.flatnonzero(seg == 0)  # 0, 1 and the primes
            found.append(zeros + a)
            seg[zeros] = found[-1]
        primes = np.concatenate(found)[2:].astype(np.int64, copy=False)
        spf.flags.writeable = primes.flags.writeable = False
        self.spf = spf
        self.primes = primes

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
        text = os.environ.get("PROGVAR_SIEVE_LIMIT", str(DEFAULT_LIMIT))
        try:
            limit = int(text)
        except ValueError:
            limit = 0
        if limit < 1:  # the rule of --sieve-limit
            raise DomainError(f"PROGVAR_SIEVE_LIMIT must be a positive integer, got {text!r}")
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
    if n > table.limit:
        return _trial_division(n, map(int, table.primes))
    factors, m = [], n
    spf = table.spf
    while m > 1:
        p = int(spf[m])
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        factors.append((p, k))
    return PrimeFactorization(n, tuple(factors))


def _trial_division(n: int, divisors) -> PrimeFactorization:
    """n >= 1 factored by dividing out each d of an ascending iterable that
    holds every prime up to sqrt(n), until d*d exceeds the cofactor; the
    cofactor left is then 1 or a prime."""
    factors, m = [], n
    for d in divisors:
        if d * d > m:
            break
        if m % d == 0:
            k = 0
            while m % d == 0:
                m //= d
                k += 1
            factors.append((d, k))
    if m > 1:
        factors.append((m, 1))
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


def blocks(lo: int, hi: int, size: int | None = None):
    """Inclusive (start, stop) pairs of at most size integers covering
    lo <= n <= hi in order, the last one partial; none when hi < lo.

    size defaults to BLOCK as read at the call, so patching sieve.BLOCK
    resizes every pass that takes the default."""
    size = BLOCK if size is None else size
    for start in range(lo, hi + 1, size):
        yield start, min(start + size - 1, hi)


def _require_coverage(hi: int, table: PrimeTable) -> None:
    """Raise CapacityError unless windows up to hi can be sieved, i.e. unless
    the primes to sqrt(hi) are in the table (hi <= limit**2).  Callers that
    allocate per-n arrays check this first, so an uncovered range fails
    before any allocation."""
    if hi > table.limit * table.limit:
        raise CapacityError(f"window up to {hi} beyond coverage (limit {table.limit})")


def window_apply(lo: int, hi: int, table: PrimeTable, pmax: float, on_prime_power) -> np.ndarray:
    """Sieve [lo, hi] by the primes p <= min(pmax, sqrt(hi)); return residuals.

    For each such p with a multiple in the window, on_prime_power(p, sl, e)
    is called exactly once: sl = slice(-lo % p, None, p) selects the
    multiples of p in any array indexed by n - lo, and e (int8) holds the
    exact exponent of p at each of them.  The returned int64 array holds n
    divided by its prime powers p^k with p <= min(pmax, sqrt(hi)); when
    pmax >= sqrt(hi) each residual > 1 is a single prime above sqrt(hi).
    The primes with no multiple in the window are dropped by one array
    comparison before the loop, so a narrow window far out costs one Python
    iteration per prime that divides some n in it, not one per prime.

    The product of the removed prime powers divides n <= limit**2 < 2**62,
    so it stays exact in int64, and every exponent is below 63, so int8 holds
    it.  The name, the parameter names and the three positional callback
    arguments are a fixed contract: the benchmark tracer (bench/spans.py)
    binds on_prime_power by name and wraps it in a three-argument counter.
    """
    if lo < 1 or lo > hi:
        raise DomainError(f"bad window [{lo}, {hi}]")
    _require_coverage(hi, table)
    root = math.isqrt(hi)
    prod = np.ones(hi - lo + 1, dtype=np.int64)
    primes = table.primes_in(2, min(pmax, root))
    for p in primes[-lo % primes <= hi - lo].tolist():  # those with a multiple in the window
        j0 = -lo % p
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
    _require_coverage(hi, table)
    mu = np.ones(hi - lo + 1, dtype=np.int8)

    def visit(p, sl, e):
        mu[sl] *= np.where(e == 1, np.int8(-1), np.int8(0))

    residual = window_apply(lo, hi, table, math.inf, visit)
    mu[residual > 1] *= -1
    return mu


def big_omega_range(lo: int, hi: int, table: PrimeTable | None = None) -> np.ndarray:
    """Omega (prime factors with multiplicity) over [lo, hi]."""
    table = _require_table(table)
    _require_coverage(hi, table)
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
    _require_coverage(hi, table)
    om = np.zeros(hi - lo + 1, dtype=np.int32)

    def visit(p, sl, e):
        if P <= p <= Q:
            om[sl] += 1

    residual = window_apply(lo, hi, table, math.inf, visit)
    om[(residual > 1) & (residual >= P) & (residual <= Q)] += 1
    return om
