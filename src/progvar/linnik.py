"""Least-element scans in arithmetic progressions: products of exactly three
primes, prescribed Mobius sign, range-restricted triple products weighted by
1/n, ternary coverage by primes up to q, and the least quadratic nonresidue.

Scans step through blocks of the line (default 1e5) with the interval sieve
and record the first qualifying element of each coprime class, so memory
stays flat for large q.  One scan serves many moduli: each block is sieved
once, and its witnesses update every modulus that still has open classes
below its bound, so a q-range costs the blocks of its slowest modulus
rather than one pass per modulus.  Prime factors are counted with
multiplicity for the three-prime predicate (8 = 2^3 qualifies); pass
distinct_primes=True for the squarefree variant.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .sieve import (PrimeTable, _require_table, big_omega_range, blocks, mobius_range,
                    omega_range, units_mod)

# A scan stops after the block in which its last open class is found, for
# most moduli the first one, so its blocks are smaller than sieve.BLOCK:
# sieving [1, 2^20] takes about ten times as long as sieving [1, 1e5].
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


def _qualifier(predicate: str):
    if predicate == "e3":
        return lambda lo, hi, table: big_omega_range(lo, hi, table) == 3
    if predicate == "e3-distinct":
        return lambda lo, hi, table: (
            (big_omega_range(lo, hi, table) == 3)
            & (omega_range(lo, hi, table) == 3)
        )
    if predicate == "mobius-minus":
        return lambda lo, hi, table: mobius_range(lo, hi, table) == -1
    if predicate == "mobius-plus":
        return lambda lo, hi, table: mobius_range(lo, hi, table) == 1
    raise DomainError(f"unknown predicate {predicate!r}")


def _mobius_predicate(sign: int) -> str:
    if sign not in (-1, 1):
        raise DomainError(f"sign must be +-1, got {sign}")
    return "mobius-minus" if sign == -1 else "mobius-plus"


def _scan(qs: list[int], bounds: list[int], wanted: list[set[int]], qualifies,
          table: PrimeTable) -> list[dict[int, int]]:
    """First qualifying n <= bounds[i] in each class of wanted[i] mod qs[i].

    Blocks run from 1 up to the largest bound still open; each is sieved
    once and its witnesses serve every modulus that still has open classes
    and has not passed its bound.  The sets in `wanted` are emptied as
    classes are found.
    """
    if not all(isinstance(b, (int, np.integer)) and b >= 1 for b in bounds):
        raise DomainError(f"bounds must be integers >= 1, got {bounds}")
    found: list[dict[int, int]] = [{} for _ in qs]
    open_ = [i for i in range(len(qs)) if wanted[i]]
    for lo, hi in blocks(1, max(bounds, default=0), BLOCK):
        if not open_:
            break
        hi = min(hi, max(bounds[i] for i in open_))
        ns = np.flatnonzero(qualifies(lo, hi, table)) + lo
        for i in open_:
            q, todo = qs[i], wanted[i]
            hits = ns[:np.searchsorted(ns, bounds[i], side="right")]
            # least hit of each class in this block; hi + 1 where none
            first = np.full(q, hi + 1, dtype=ns.dtype)
            np.minimum.at(first, hits % q, hits)
            for a in [a for a in todo if first[a] <= hi]:
                found[i][a] = int(first[a])
                todo.discard(a)
        open_ = [i for i in open_ if wanted[i] and bounds[i] > hi]
    return found


def _least(q: int, a: int, bound: int, predicate: str,
           table: PrimeTable | None) -> int | None:
    table = _require_table(table)
    if q < 1:
        raise DomainError(f"modulus must be a positive integer, got {q}")
    if math.gcd(a, q) != 1:
        raise DomainError(f"class {a} not coprime to {q}")
    found = _scan([q], [bound], [{a % q}], _qualifier(predicate), table)
    return found[0].get(a % q)


def e3_least(q: int, a: int, bound: int, distinct_primes: bool = False,
             table: PrimeTable | None = None) -> int | None:
    """Least n <= bound, n = a (mod q), with exactly three prime factors
    counted with multiplicity."""
    return _least(q, a, bound, "e3-distinct" if distinct_primes else "e3", table)


def mobius_least(q: int, a: int, sign: int, bound: int,
                 table: PrimeTable | None = None) -> int | None:
    """Least n <= bound, n = a (mod q), with mu(n) = sign."""
    return _least(q, a, bound, _mobius_predicate(sign), table)


def _assemble(q, predicate, bound, minima) -> LinnikScanResult:
    complete = all(n is not None for n in minima.values())
    max_value = max(minima.values()) if complete and minima else None
    exponent = None
    if max_value is not None and q > 1:
        exponent = math.log(max_value) / math.log(q)
    return LinnikScanResult(q=q, predicate=predicate, bound=bound,
                            minima=minima, max_value=max_value, exponent=exponent)


def linnik_scan(qs, bounds, predicate: str,
                table: PrimeTable | None = None) -> list[LinnikScanResult]:
    """Least n <= bound satisfying `predicate` ("e3", "e3-distinct",
    "mobius-minus" or "mobius-plus") in every coprime class, for each
    modulus of `qs` with its bound from `bounds`; results in the order of
    `qs`.  One sieve pass per block serves every modulus still open."""
    table = _require_table(table)
    qs, bounds = list(qs), list(bounds)
    if len(qs) != len(bounds):
        raise DomainError(f"{len(qs)} moduli but {len(bounds)} bounds")
    if any(q < 1 for q in qs):
        raise DomainError(f"moduli must be positive integers, got {qs}")
    qualifies = _qualifier(predicate)
    units = [units_mod(q).tolist() for q in qs]
    found = _scan(qs, bounds, [set(u) for u in units], qualifies, table)
    return [_assemble(q, predicate, bound, {a: f.get(a) for a in u})
            for q, bound, u, f in zip(qs, bounds, units, found)]


def linnik_L3(q: int, bound: int, distinct_primes: bool = False,
              table: PrimeTable | None = None) -> LinnikScanResult:
    """Least three-prime-product per coprime class; max over classes."""
    name = "e3-distinct" if distinct_primes else "e3"
    return linnik_scan([q], [bound], name, table)[0]


def linnik_mobius(q: int, sign: int, bound: int,
                  table: PrimeTable | None = None) -> LinnikScanResult:
    return linnik_scan([q], [bound], _mobius_predicate(sign), table)[0]


def e3_star_logsum(q: int, a: int, P1: float, P2: float, P3: float, eps: float,
                   table: PrimeTable | None = None) -> float:
    """Sum of 1/n over the set of n = p1 p2 p3 with p_i in [P_i^(1-eps), P_i]
    and n = a (mod q); each n counted once."""
    table = _require_table(table)
    if q < 1:
        raise DomainError(f"modulus must be a positive integer, got {q}")
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
    if q < 1:
        raise DomainError(f"modulus must be a positive integer, got {q}")
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
