"""Twisted character-sum analytics: prime sums, large-value censuses,
sup-norm scans, the combinatorial reweighting identity, bilinear
decomposition sums, and empirical mean-value ratios.

p^{-it} factors are computed as exp(-i t log p), the logarithms once per
scan.  Censuses and sup-norm scans bucket by residue class and take one
characters.character_sums transform per twist for all characters.
Reweighting checks run in exact rational arithmetic; bulk sums use doubles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import DirichletCharacter, character_sums, characters, unit_group
from .errors import DomainError
from .multfunc import MultiplicativeFunction, evaluate_range
from .sieve import (PrimeTable, _require_table, euler_phi, factor,
                    omega_between_range, omega_in_range, units_mod)

MONITOR_CONSTANT = 4.0  # artifact choice for the monitored mean-value bound


@dataclass(frozen=True)
class SpectrumPoint:
    chi_index: int
    t: float
    value: complex


@dataclass(frozen=True)
class RatioRecord:
    lhs: float
    rhs: float
    ratio: float
    identity: float | None = None  # exact orthogonality cross-check value


def _coeff_values(coeffs, primes: np.ndarray) -> np.ndarray:
    if isinstance(coeffs, MultiplicativeFunction):
        return coeffs.at_primes(primes)
    return np.array([coeffs(int(p)) for p in primes], dtype=np.complex128)


def _residue_totals(res: np.ndarray, w: np.ndarray, q: int) -> np.ndarray:
    """sum of w over each residue class mod q, res holding the residues."""
    return (np.bincount(res, weights=w.real, minlength=q)
            + 1j * np.bincount(res, weights=w.imag, minlength=q))


def _twisted(a: np.ndarray, ns: np.ndarray, chi: DirichletCharacter, t: float) -> np.ndarray:
    """a_n conj(chi(n)) n^{-it} for each n in ns."""
    vals = a * np.conj(chi.table[ns % chi.q])
    if t != 0.0:
        vals = vals * np.exp(-1j * t * np.log(ns.astype(float)))
    return vals


def _prime_window(P: float, delta: float, coeffs, table: PrimeTable | None):
    """The primes P <= p <= (1+delta)P and their coefficients a_p."""
    if P < 2 or delta <= 0:
        raise DomainError(f"need P >= 2 and delta > 0, got P={P}, delta={delta}")
    primes = _require_table(table).primes_in(P, (1 + delta) * P)
    return primes, _coeff_values(coeffs, primes)


def prime_char_sum(chi: DirichletCharacter, t: float, P: float, delta: float,
                   coeffs, table: PrimeTable | None = None) -> complex:
    """sum over primes P <= p <= (1+delta)P of a_p conj(chi(p)) p^{-it}."""
    primes, a = _prime_window(P, delta, coeffs, table)
    return complex(_twisted(a, primes, chi, t).sum())


def log_prime_char_sum(chi: DirichletCharacter, t: float, P: float, eps_exp: float,
                       table: PrimeTable | None = None) -> complex:
    """sum over primes P <= p <= P^(1+eps_exp) of chi(p) p^{-(1+it)}."""
    if P < 2 or eps_exp <= 0:
        raise DomainError(f"need P >= 2 and eps_exp > 0, got P={P}, eps={eps_exp}")
    table = _require_table(table)
    primes = table.primes_in(P, P ** (1 + eps_exp))
    if primes.size == 0:
        return 0j
    pf = primes.astype(float)
    vals = chi.table[primes % chi.q] / pf
    if t != 0.0:
        vals = vals * np.exp(-1j * t * np.log(pf))
    return complex(vals.sum())


def _check_well_spaced(t_grid) -> np.ndarray:
    ts = np.asarray(sorted(float(t) for t in t_grid))
    if ts.size == 0:
        raise DomainError("empty t grid")
    if ts.size > 1 and np.diff(ts).min() < 1.0 - 1e-12:
        raise DomainError("t grid is not well-spaced (pairwise gaps must be >= 1)")
    return ts


def large_value_census(q: int, t_grid, P: float, delta: float, coeffs,
                       eps: float, table: PrimeTable | None = None):
    """All pairs (chi, t) with |(log P)/(delta P) * prime_char_sum| >= eps.

    Each twist buckets a_p p^{-it} by residue class and takes one
    character_sums transform for all characters.  Returns (count, points)
    with points ordered by chi index, then by t in grid order.
    """
    ts = [float(t) for t in t_grid]
    if not (len(ts) == 1 and ts[0] == 0.0):
        _check_well_spaced(ts)
    unit_group(q)  # validates q before any % q
    primes, a = _prime_window(P, delta, coeffs, table)
    res = primes % q
    logp = np.log(primes.astype(float))
    sums = np.stack([
        character_sums(q, _residue_totals(
            res, a if t == 0.0 else a * np.exp(-1j * t * logp), q))
        for t in ts
    ], axis=1)  # sums[chi index, twist]
    scale = math.log(P) / (delta * P)
    points = [SpectrumPoint(int(i), ts[j], complex(sums[i, j]))
              for i, j in np.argwhere(scale * np.abs(sums) >= eps)]
    return len(points), points


def sup_norm_scan(f: MultiplicativeFunction, q: int, x: float, y_grid, t_grid,
                  exclude: int, table: PrimeTable | None = None) -> float:
    """max over chi != exclude, t in t_grid, y in y_grid of
    |(1/y) sum_{n <= y} f(n) conj(chi(n)) n^{-it}|."""
    table = _require_table(table)
    ys = sorted(int(math.floor(y)) for y in y_grid)
    if not ys or ys[-1] > x:
        raise DomainError("y grid must be nonempty and within x")
    others = np.arange(unit_group(q).phi) != exclude  # validates q before any % q
    if not others.any():
        return 0.0
    vals = evaluate_range(f, 1, ys[-1], table)
    ns = np.arange(1, ys[-1] + 1)
    res = ns % q
    logn = np.log(ns.astype(float))
    best = 0.0
    for t in t_grid:
        w = vals if t == 0.0 else vals * np.exp(-1j * float(t) * logn)
        for y in ys:
            sums = character_sums(q, _residue_totals(res[:y], w[:y], q))[others]
            best = max(best, float(np.abs(sums).max()) / y)
    return best


def ramare_weight(n: int, P: float, Q: float, table: PrimeTable | None = None) -> float:
    r"""1 / (1 + #\{distinct primes of n in [P, Q]\})."""
    return 1.0 / (1 + omega_in_range(n, P, Q, table))


def ramare_identity_check(n: int, P: float, Q: float,
                          table: PrimeTable | None = None):
    """Exact check of the reweighting identity: summing
    1/(1 + omega_[P,Q](n/p)) over primes p in [P, Q] dividing n gives 1
    whenever n has a [P,Q]-prime and no repeated [P,Q]-prime.

    Returns (sum, expected) as exact Fractions; when the squarefree
    hypothesis fails, expected is simply the computed sum.
    """
    if not 1 <= P <= Q:
        raise DomainError(f"need 1 <= P <= Q, got P={P}, Q={Q}")
    facs = factor(n, table).factors
    window = [(p, k) for p, k in facs if P <= p <= Q]
    total = Fraction(0)
    for p, _ in window:
        total += Fraction(1, 1 + omega_in_range(n // p, P, Q, table))
    squarefree_in_window = all(k == 1 for _, k in window)
    if window and squarefree_in_window:
        expected = Fraction(1)
    else:
        expected = total
    return total, expected


def decomposition_sums(f: MultiplicativeFunction, chi: DirichletCharacter,
                       t: float, X: float, P: float, Q: float, H: int, v: int,
                       table: PrimeTable | None = None) -> tuple[complex, complex]:
    """The short prime sum and its reweighted long companion:

    Qv = sum of f(p) conj(chi(p)) p^{-it} over primes p in [P, Q] with
         e^{v/H} <= p <= e^{(v+1)/H};
    Rv = sum of f(m) conj(chi(m)) m^{-it} / (1 + omega_[P,Q](m)) over
         X e^{-v/H} <= m <= 2X e^{-v/H}.
    """
    if H < 1:
        raise DomainError(f"need H >= 1, got {H}")
    table = _require_table(table)
    lo_p = max(P, math.exp(v / H))
    hi_p = min(Q, math.exp((v + 1) / H))
    qv = 0j
    if lo_p <= hi_p:
        primes = table.primes_in(lo_p, hi_p)
        if primes.size:
            qv = complex(_twisted(f.at_primes(primes), primes, chi, t).sum())

    m_lo = math.ceil(X * math.exp(-v / H))
    m_hi = math.floor(2 * X * math.exp(-v / H))
    rv = 0j
    if m_lo <= m_hi:
        ms = np.arange(m_lo, m_hi + 1)
        vals = _twisted(evaluate_range(f, m_lo, m_hi, table), ms, chi, t)
        weights = 1.0 / (1 + omega_between_range(m_lo, m_hi, P, Q, table))
        rv = complex((vals * weights).sum())
    return qv, rv


def mean_value_ratio(q: int, a_values, M: int = 0,
                     table: PrimeTable | None = None) -> RatioRecord:
    """lhs = sum over chi mod q of |sum_n a_n chi(n)|^2 for n in (M, M+N];
    rhs = (phi(q) + (phi(q)/q) N) * sum of |a_n|^2 over n coprime to q.
    The returned identity field carries phi(q) * sum over coprime classes of
    |class sums|^2, which equals lhs exactly by orthogonality.
    """
    a = np.asarray(a_values, dtype=np.complex128)
    N = len(a)
    if N < 1:
        raise DomainError("need at least one coefficient")
    ns = np.arange(M + 1, M + N + 1)
    res = ns % q
    coprime = np.gcd(ns, q) == 1
    phi = euler_phi(q, table)

    class_sums = _residue_totals(res, a, q)

    lhs = 0.0
    for chi in characters(q):
        s = np.conj(chi.table) @ class_sums
        lhs += abs(s) ** 2
    rhs = (phi + phi / q * N) * float((np.abs(a[coprime]) ** 2).sum())

    unit_mask = np.zeros(q, dtype=bool)
    unit_mask[units_mod(q)] = True
    identity = phi * float((np.abs(class_sums[unit_mask]) ** 2).sum())

    if rhs > 0 and lhs > MONITOR_CONSTANT * rhs:
        warnings.warn(
            f"monitored mean-value bound exceeded: lhs={lhs:.6g} > "
            f"{MONITOR_CONSTANT} * rhs={rhs:.6g} (q={q}, N={N})",
            stacklevel=2,
        )
    return RatioRecord(lhs=lhs, rhs=rhs, ratio=lhs / rhs if rhs > 0 else math.nan,
                       identity=identity)
