"""Deviation and variance of multiplicative functions over residue classes,
the exact Parseval identity linking them to character sums, the sampled
short-interval hybrid statistic, and typicality measures of a modulus.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import sieve
from .characters import character, character_sums, class_rows, range_class_sums
from .errors import DomainError
from .multfunc import MultiplicativeFunction, evaluate_range
from .sieve import (PrimeTable, _require_coverage, _require_table, blocks, euler_phi,
                    factor, units_mod)


@dataclass
class VarianceReport:
    q: int
    x: float
    f: str
    chi1_index: int
    variance: float
    normalized: float
    max_deviation: float
    chi1_mode: str = "explicit"
    deviations: dict[int, complex] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The JSON document of the report, deviations as [re, im] by class."""
        return {
            "q": self.q,
            "x": self.x,
            "f": self.f,
            "chi1_index": self.chi1_index,
            "variance": self.variance,
            "normalized": self.normalized,
            "max_deviation": self.max_deviation,
            "chi1_mode": self.chi1_mode,
            "deviations": {str(a): [z.real, z.imag] for a, z in sorted(self.deviations.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _class_sums(f, qs, lo, hi, table):
    """For each q in qs, B with B[r] = sum of f(n) over lo <= n <= hi, n = r (mod q).

    One evaluate_range call per block of sieve.blocks feeds every modulus,
    so memory is flat in hi - lo and f is evaluated once whatever len(qs).
    """
    sums = [np.zeros(q, dtype=np.complex128) for q in qs]
    if hi < lo or not sums:
        return sums
    _require_coverage(hi, table)
    for start, stop in blocks(lo, hi):
        vals = evaluate_range(f, start, stop, table)
        for q, acc in zip(qs, sums):
            acc += range_class_sums(vals, start, q)
        del vals  # free the block before the next one is allocated
    return sums


def _require_x(x):
    """Class sums run over 1 <= n <= x: x must be finite and at least 1."""
    if not 1 <= x < math.inf:
        raise DomainError(f"need finite x >= 1, got {x}")


def resolve_chi1(chi1, f: MultiplicativeFunction, q: int, x: float,
                 T: float | None = None, grid_dt: float | None = None,
                 table: PrimeTable | None = None) -> tuple[int, str]:
    """Map a chi1 argument (index, "principal", or "auto") to an index.

    "auto" takes the index of select_main_character, which the grid scan
    fixes before any refinement of the twist, so it skips the refinement."""
    if isinstance(chi1, str):
        if chi1 == "principal":
            return 0, "principal"
        if chi1 == "auto":
            from .pretentious import select_main_character

            sel = select_main_character(f, q, x, T=T, grid_dt=grid_dt,
                                        refine_tol=0, table=table)
            return sel.chi_index, "auto"
        raise DomainError(f"chi1 must be an index, 'principal' or 'auto', got {chi1!r}")
    idx = int(chi1)
    if not 0 <= idx < euler_phi(q, table):
        raise DomainError(f"chi1 index {idx} out of range for q={q}")
    return idx, "explicit"


def variance_scan(f: MultiplicativeFunction, qs, x: float, chi1,
                  T: float | None = None, grid_dt: float | None = None,
                  table: PrimeTable | None = None) -> list[VarianceReport]:
    """The variance report of every modulus in qs, in order, from one pass
    over [1, x] that sums the classes of all of them.

    Per coprime class a the deviation is sum_{n <= x, n = a (q)} f(n) minus
    the chi1 main term chi1(a)/phi(q) * sum_{n <= x} f(n) conj(chi1(n)); the
    variance is the sum of their squared moduli, normalized by
    phi(q) (x/q)^2.  T/grid_dt only matter for chi1 = "auto".
    """
    _require_x(x)
    table = _require_table(table)
    qs = [int(q) for q in qs]
    if any(q < 1 for q in qs):
        raise DomainError(f"moduli must be positive integers, got {qs}")
    chosen = [resolve_chi1(chi1, f, q, x, T=T, grid_dt=grid_dt, table=table)
              for q in qs]
    reports = []
    for q, (idx, mode), B in zip(qs, chosen, _class_sums(f, qs, 1, math.floor(x), table)):
        chi = character(q, idx)
        phi = euler_phi(q, table)
        twisted_total = complex(np.conj(chi.table) @ B)
        devs = {int(a): complex(B[a] - chi.table[a] / phi * twisted_total)
                for a in units_mod(q)}
        var = math.fsum(abs(z) ** 2 for z in devs.values())
        reports.append(VarianceReport(
            q=q, x=x, f=f.name, chi1_index=idx, variance=var,
            normalized=var / (phi * (x / q) ** 2),
            max_deviation=max((abs(z) for z in devs.values()), default=0.0),
            chi1_mode=mode, deviations=devs,
        ))
    return reports


def deviation(f: MultiplicativeFunction, q: int, x: float, chi1,
              table: PrimeTable | None = None):
    """Per coprime class a: sum_{n <= x, n = a (q)} f(n) minus the chi1 main
    term chi1(a)/phi(q) * sum_{n <= x} f(n) conj(chi1(n)).

    Returns (mapping a -> complex deviation, max modulus).
    """
    rep = variance_scan(f, [q], x, chi1, table=table)[0]
    return rep.deviations, rep.max_deviation


def variance(f: MultiplicativeFunction, q: int, x: float, chi1,
             T: float | None = None, grid_dt: float | None = None,
             table: PrimeTable | None = None) -> VarianceReport:
    """Sum of squared deviation moduli over coprime classes, normalized by
    phi(q) (x/q)^2.  T/grid_dt only matter for chi1 = "auto"."""
    return variance_scan(f, [q], x, chi1, T=T, grid_dt=grid_dt, table=table)[0]


def parseval_check(f: MultiplicativeFunction, q: int, x: float, xi_indices,
                   table: PrimeTable | None = None) -> tuple[float, float]:
    """Both sides of the exact identity

      (1/phi) sum_{chi not in Xi} |sum_{n<=x} f(n) conj(chi(n))|^2
        = sum*_a |sum_{n=a(q)} f(n) - sum_{chi in Xi} chi(a)/phi * S_chi|^2.
    """
    _require_x(x)
    table = _require_table(table)
    xi = set(int(i) for i in xi_indices)
    phi = euler_phi(q, table)
    if any(not 0 <= i < phi for i in xi):
        raise DomainError(f"character index set {sorted(xi)} out of range for q={q}")
    B = _class_sums(f, [q], 1, math.floor(x), table)[0]
    twisted = character_sums(q, B)
    lhs = math.fsum(abs(twisted[i]) ** 2 for i in range(phi) if i not in xi) / phi
    units = units_mod(q)
    main = sum(character(q, i).table[units] / phi * twisted[i] for i in xi)
    return lhs, math.fsum((np.abs(B[units] - main) ** 2).tolist())


def _sample_grid(X, step, per_chunk):
    """Sample points X, X + step, ... below 2X in chunks of at most per_chunk, with
    left-rule weights min(step, 2X - x).  cumsum adds in the order of a running
    x += step, carried across chunks, so the points equal that loop's exactly."""
    x = float(X)
    while x < 2 * X:
        steps = np.full(min(per_chunk, math.ceil((2 * X - x) / step) + 2), float(step))
        steps[0] = x
        xs = np.cumsum(steps)
        xs = xs[:np.searchsorted(xs, 2 * X)]
        yield xs, np.minimum(float(step), 2 * X - xs)
        x = xs[-1] + step


def hybrid_variance(f: MultiplicativeFunction, q: int, X: float, h: float,
                    chi1, sample_step: int = 1, T: float | None = None,
                    table: PrimeTable | None = None) -> float:
    """Sampled short-interval/progression variance for real-valued f:

      int_X^{2X} sum*_a | sum_{x < n <= x+h, n=a(q)} f(n)
                          - chi1(a)/phi * (h/X) sum_{X < n <= 2X} f conj(chi1) |^2 dx

    approximated at x = X, X + step, ... (left rule, truncated last cell) and
    normalized by phi(q) X (h/q)^2.

    Two streamed passes: the twisted total over (X, 2X], then the sample
    points in chunks of about sieve.BLOCK integers, each evaluating its
    points' windows once (chunks overlap by h) and adding its weighted sum
    into the integral.  Memory is O(sieve.BLOCK + h), whatever X.
    """
    table = _require_table(table)
    if not f.real:
        raise DomainError(f"hybrid statistic requires real-valued f, got {f.name}")
    if not 10 <= h <= X < math.inf:
        raise DomainError(f"need 10 <= h <= X and finite X, got h={h}, X={X}")
    if q > h / 10:
        raise DomainError(f"need q <= h/10, got q={q}, h={h}")
    if sample_step < 1:
        raise DomainError(f"sample_step must be >= 1, got {sample_step}")
    _require_coverage(math.floor(2 * X + h), table)
    idx, _ = resolve_chi1(chi1, f, q, X, T=T, table=table)
    chi = character(q, idx)
    phi = euler_phi(q, table)

    B = _class_sums(f, [q], math.floor(X) + 1, math.floor(2 * X), table)[0]
    twisted_total = complex(np.conj(chi.table) @ B)
    mains = [(a, complex(chi.table[a]) / phi * (h / X) * twisted_total)
             for a in units_mod(q).tolist()]

    integral = 0.0
    for xs, weights in _sample_grid(X, sample_step, max(1, sieve.BLOCK // sample_step)):
        lo_idx = np.floor(xs).astype(np.int64)
        hi_idx = np.floor(xs + h).astype(np.int64)
        base = int(lo_idx[0])
        # prefix[c, a]: the sum of the first c class rows' column a, from n = start
        rows = class_rows(evaluate_range(f, base + 1, int(hi_idx[-1]), table), base + 1, q)
        prefix = np.zeros((len(rows) + 1, q))
        np.cumsum(rows, axis=0, out=prefix[1:])
        del rows
        start = (base + 1) // q * q
        total = np.zeros(len(xs))
        for a, main in mains:
            wins = (prefix[(hi_idx - start - a) // q + 1, a]
                    - prefix[(lo_idx - start - a) // q + 1, a])
            total += (wins - main.real) ** 2 + main.imag**2
        integral += float((total * weights).sum())
        del prefix, total, wins  # free the chunk before the next one is allocated
    return integral / (phi * X * (h / q) ** 2)


def delta_typicality(q: int, Z: float, table: PrimeTable | None = None) -> float:
    """max over y >= Z of (primes of q in [y, 2y]) / (y / log y).

    The count is piecewise constant with breakpoints at p/2 and p for each
    prime p | q, and y -> log(y)/y has its only interior maximum at y = e,
    so evaluating at those points (clipped to [Z, inf)) is exact.
    """
    if Z < 2:
        raise DomainError(f"need Z >= 2, got {Z}")
    qp = [p for p, _ in factor(q, table).factors]
    if not qp:
        return 0.0
    candidates = {float(Z)}
    if math.e >= Z:
        candidates.add(math.e)
    for p in qp:
        for y in (p / 2, float(p)):
            candidates.add(max(float(Z), y))

    def density(y):
        count = sum(1 for p in qp if y <= p <= 2 * y)
        return count * math.log(y) / y

    return max(density(y) for y in candidates)


def is_y_typical(q: int, y: float, table: PrimeTable | None = None) -> bool:
    """True iff, for every z >= y, the primes of q up to z number at most
    pi(z)/100.  The left side only jumps at primes dividing q and the right
    side is nondecreasing, so checking z = y and z = p for p | q, p >= y
    suffices."""
    if y < 2:
        raise DomainError(f"need y >= 2, got {y}")
    table = _require_table(table)
    qp = [p for p, _ in factor(q, table).factors]
    checkpoints = [float(y)] + [float(p) for p in qp if p >= y]
    for z in checkpoints:
        count = sum(1 for p in qp if p <= z)
        if count > table.prime_count(z) / 100:
            return False
    return True
