"""Least-element scans in arithmetic progressions: products of exactly three
primes, prescribed Mobius sign, range-restricted triple products weighted by
1/n, ternary coverage by primes up to q, and the least quadratic nonresidue.

Scans step through blocks of the line (default 1e5) with the interval sieve
and record the first qualifying element of each coprime class, so memory
stays flat for large q.  Prime factors are counted with multiplicity for the
three-prime predicate (8 = 2^3 qualifies); pass distinct_primes=True for the
squarefree variant.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .sieve import (PrimeTable, _require_table, big_omega_range, mobius_range,
                    omega_range, units_mod)

BLOCK = 100_000


@dataclass
class LinnikScanResult:
    q: int
    predicate: str
    bound: int
    minima: dict[int, int | None]
    max_value: int | None  # None when some class has no witness below bound
    exponent: float | None  # log(max)/log(q); None for q = 1 or missing classes

    def to_json(self) -> str:
        return json.dumps({
            "q": self.q,
            "predicate": self.predicate,
            "bound": self.bound,
            "minima": {str(a): n for a, n in sorted(self.minima.items())},
            "max_value": self.max_value,
            "exponent": self.exponent,
        })

    @classmethod
    def from_json(cls, text: str) -> "LinnikScanResult":
        obj = json.loads(text)
        return cls(
            q=obj["q"], predicate=obj["predicate"], bound=obj["bound"],
            minima={int(a): n for a, n in obj["minima"].items()},
            max_value=obj["max_value"], exponent=obj["exponent"],
        )


def _qualifier(predicate: str, distinct_primes: bool = False):
    if predicate == "e3":
        if distinct_primes:
            return lambda lo, hi, table: (
                (big_omega_range(lo, hi, table) == 3)
                & (omega_range(lo, hi, table) == 3)
            )
        return lambda lo, hi, table: big_omega_range(lo, hi, table) == 3
    if predicate == "mobius-minus":
        return lambda lo, hi, table: mobius_range(lo, hi, table) == -1
    if predicate == "mobius-plus":
        return lambda lo, hi, table: mobius_range(lo, hi, table) == 1
    raise DomainError(f"unknown predicate {predicate!r}")


def _scan(q: int, bound: int, qualifies, wanted: set[int],
          table: PrimeTable) -> dict[int, int]:
    """First qualifying n per residue class in `wanted`, scanning blocks."""
    found: dict[int, int] = {}
    lo = 1
    while lo <= bound and wanted:
        hi = min(lo + BLOCK - 1, bound)
        mask = qualifies(lo, hi, table)
        ns = np.flatnonzero(mask) + lo
        if ns.size:
            classes, first = np.unique(ns % q, return_index=True)
            for r, i in zip(classes, first):
                r = int(r)
                if r in wanted:
                    found[r] = int(ns[i])
                    wanted.discard(r)
        lo = hi + 1
    return found


def e3_least(q: int, a: int, bound: int, distinct_primes: bool = False,
             table: PrimeTable | None = None) -> int | None:
    """Least n <= bound, n = a (mod q), with exactly three prime factors
    counted with multiplicity."""
    table = _require_table(table)
    if math.gcd(a, q) != 1:
        raise DomainError(f"class {a} not coprime to {q}")
    found = _scan(q, bound, _qualifier("e3", distinct_primes), {a % q}, table)
    return found.get(a % q)


def mobius_least(q: int, a: int, sign: int, bound: int,
                 table: PrimeTable | None = None) -> int | None:
    """Least n <= bound, n = a (mod q), with mu(n) = sign."""
    table = _require_table(table)
    if math.gcd(a, q) != 1:
        raise DomainError(f"class {a} not coprime to {q}")
    if sign not in (-1, 1):
        raise DomainError(f"sign must be +-1, got {sign}")
    pred = "mobius-minus" if sign == -1 else "mobius-plus"
    found = _scan(q, bound, _qualifier(pred), {a % q}, table)
    return found.get(a % q)


def _assemble(q, predicate, bound, minima) -> LinnikScanResult:
    complete = all(n is not None for n in minima.values())
    max_value = max(minima.values()) if complete and minima else None
    exponent = None
    if max_value is not None and q > 1:
        exponent = math.log(max_value) / math.log(q)
    return LinnikScanResult(q=q, predicate=predicate, bound=bound,
                            minima=minima, max_value=max_value, exponent=exponent)


def linnik_L3(q: int, bound: int, distinct_primes: bool = False,
              table: PrimeTable | None = None) -> LinnikScanResult:
    """Least three-prime-product per coprime class; max over classes."""
    table = _require_table(table)
    units = units_mod(q).tolist()
    found = _scan(q, bound, _qualifier("e3", distinct_primes), set(units), table)
    minima = {a: found.get(a) for a in units}
    name = "e3-distinct" if distinct_primes else "e3"
    return _assemble(q, name, bound, minima)


def linnik_mobius(q: int, sign: int, bound: int,
                  table: PrimeTable | None = None) -> LinnikScanResult:
    table = _require_table(table)
    if sign not in (-1, 1):
        raise DomainError(f"sign must be +-1, got {sign}")
    pred = "mobius-minus" if sign == -1 else "mobius-plus"
    units = units_mod(q).tolist()
    found = _scan(q, bound, _qualifier(pred), set(units), table)
    minima = {a: found.get(a) for a in units}
    return _assemble(q, pred, bound, minima)


def e3_star_logsum(q: int, a: int, P1: float, P2: float, P3: float, eps: float,
                   table: PrimeTable | None = None) -> float:
    """Sum of 1/n over the set of n = p1 p2 p3 with p_i in [P_i^(1-eps), P_i]
    and n = a (mod q); each n counted once."""
    table = _require_table(table)
    if math.gcd(a, q) != 1:
        raise DomainError(f"class {a} not coprime to {q}")
    if not 0 < eps < 1:
        raise DomainError(f"need 0 < eps < 1, got {eps}")
    ranges = []
    for P in (P1, P2, P3):
        if P < 2:
            raise DomainError(f"need P >= 2, got {P}")
        ranges.append([int(p) for p in table.primes_in(P ** (1 - eps), P)])
    hits: set[int] = set()
    for p1 in ranges[0]:
        for p2 in ranges[1]:
            p12 = p1 * p2
            for p3 in ranges[2]:
                n = p12 * p3
                if n % q == a % q:
                    hits.add(n)
    return math.fsum(1.0 / n for n in sorted(hits))


def ternary_coverage(q: int, table: PrimeTable | None = None):
    """For each coprime class a, search primes p1 <= p2 <= p3 <= q with
    p1 p2 p3 = a (mod q).  Returns (covered, witnesses, missing)."""
    table = _require_table(table)
    if q == 1:
        return (True, {}, [])  # trivial group: nothing to cover
    units = units_mod(q).tolist()
    primes = [int(p) for p in table.primes_in(2, q)]
    primes = [p for p in primes if q % p != 0]
    witnesses: dict[int, tuple[int, int, int]] = {}
    remaining = set(units)
    for tri in itertools.combinations_with_replacement(primes, 3):
        r = tri[0] * tri[1] * tri[2] % q
        if r in remaining:
            witnesses[r] = tri
            remaining.discard(r)
            if not remaining:
                break
    missing = sorted(remaining)
    return (not missing, witnesses, missing)


def least_qnr(q: int, table: PrimeTable | None = None) -> int:
    """Least n >= 2 that is not a square mod q, for odd prime q."""
    table = _require_table(table)
    if q < 3 or q % 2 == 0 or not table.is_prime(q):
        raise DomainError(f"least_qnr needs an odd prime, got {q}")
    squares = {pow(n, 2, q) for n in range(1, q)}
    for n in range(2, q):
        if n % q not in squares:
            return n
    raise AssertionError("unreachable: q >= 3 has a nonresidue below q")
