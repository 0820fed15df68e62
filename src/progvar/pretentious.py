"""Pretentious distances over primes and the minimizing (character, twist).

distance_sq(f, g; x, q) = sum over y < p <= x (y = 1 by default), p coprime
to q, of (1 - Re f(p) conj(g(p)))/p.  The selection problem minimizes, over all
characters chi mod q and |t| <= T, the distance from f to chi(n) n^{it}.

Grid strategy: the distance as a function of t is a sum of cos(t log p)/p
terms and oscillates on scale ~1/log x, so the grid spacing is
min(0.05, 1/log x); the best grid cell is then refined by golden-section
search (local unimodality assumed; acceptance checks against a dense-grid
oracle).  On the grid, all phi(q) characters are handled at once: prime
contributions are bucketed by residue class and transformed by one DFT over
the unit-group component lattice (characters.character_sums); halasz_M is
the single-character case.  The buckets come from characters.class_summer,
which adds every class in prime order from 0.0, bit for bit as two weighted
np.bincount sums would, so the chosen index does not depend on how the
classes are summed.  The bucketed rows go through the transform in batches
that fill a buffer of about 1 MiB (6 rows at q near 1e4), one
character_sums call per batch; every row's values equal a one-row call bit
for bit, so the batch size cannot move the chosen index either.
Reported minima are recomputed from scratch with compensated summation.
With refine_tol = 0 (variance's chi1 = "auto", which needs only the index)
the grid twist is reported unrefined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import character, character_sums, class_summer, unit_group
from .errors import DomainError
from .multfunc import MultiplicativeFunction
from .sieve import PrimeTable, _require_table

GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class MainCharacterSelection:
    chi_index: int
    t_star: float
    distance_sq: float


def _prime_data(f, x, q, y, table):
    """primes y < p <= x with p coprime to q, f(p), log p, 1/p and sum 1/p."""
    if x < 2:
        raise DomainError(f"need x >= 2, got {x}")
    if y > x:
        raise DomainError(f"need y <= x, got y={y}, x={x}")
    table = _require_table(table)
    primes = table.primes_in(math.floor(y) + 1, x)
    if q > 1:
        primes = primes[np.gcd(primes, q) == 1]
    fp = f.at_primes(primes)
    logp = np.log(primes.astype(float))
    inv = 1.0 / primes.astype(float)
    const = math.fsum(inv.tolist())
    return primes, fp, logp, inv, const


def _fsum_distance(prod, inv):
    """sum of (1 - Re prod_p)/p with compensated summation, clamped at 0."""
    return max(0.0, math.fsum(((1.0 - prod.real) * inv).tolist()))


def distance_sq(f: MultiplicativeFunction, g: MultiplicativeFunction,
                x: float, q: int = 1, *, y: float = 1, g_twist: float = 0.0,
                table: PrimeTable | None = None) -> float:
    """Squared pretentious distance between f and g(n) n^{i g_twist} over
    primes y < p <= x, omitting primes dividing q."""
    primes, fp, logp, inv, _ = _prime_data(f, x, q, y, table)
    gp = g.at_primes(primes)
    if g_twist != 0.0:
        gp = gp * np.exp(1j * g_twist * logp)
    return _fsum_distance(fp * np.conj(gp), inv)


def default_grid_dt(x: float) -> float:
    return min(0.05, 1.0 / math.log(x))


def _grid(T: float, dt: float) -> np.ndarray:
    k = int(math.floor(T / dt + 1e-12))
    return dt * np.arange(-k, k + 1)


def _twist_grid(x, T, grid_dt):
    """Checked grid spacing dt and the grid of twists j dt with |t| <= T."""
    if not 0 <= T < math.inf:
        raise DomainError(f"need finite T >= 0, got {T}")
    dt = grid_dt if grid_dt is not None else default_grid_dt(x)
    if not 0 < dt < math.inf:
        raise DomainError(f"need finite grid_dt > 0, got {grid_dt}")
    return dt, _grid(T, dt) if T > 0 else np.zeros(1)


def _phases(w, logp, ts, dt):
    """w_p p^{-it} at each grid point t in turn, by phase recurrence.  The
    yielded array is updated in place for the next point."""
    cur = w * np.exp(-1j * ts[0] * logp)
    step = np.exp(-1j * dt * logp)
    for _ in ts:
        yield cur
        cur *= step


def _twist_row(w, logp, ts, dt, const):
    """const - Re sum_p w_p p^{-it} at every grid point t."""
    return np.array([const - cur.real.sum() for cur in _phases(w, logp, ts, dt)])


def _grid_argmin(ts, *values):
    """Grid index with the smallest values, compared in the order given;
    ties go to the smaller |t|, then to negative t."""
    return int(np.lexsort((ts > 0, np.abs(ts)) + values[::-1])[0])


def _golden_refine(func, a, b, tol):
    """Golden-section minimum of func on [a, b] to width tol in t."""
    fa, fb = func(a), func(b)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = func(c), func(d)
    evals = [(a, fa), (b, fb), (c, fc), (d, fd)]
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = func(c)
            evals.append((c, fc))
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = func(d)
            evals.append((d, fd))
    return min(evals, key=lambda e: (e[1], abs(e[0]), e[0] > 0))


def _best_twist(w, logp, const, t, d, dt, T, refine_tol):
    """Refine the grid minimum d at t of const - Re sum_p w_p p^{-it} over the
    neighbouring cells within |t| <= T.  Returns the better twist."""
    lo = max(-T, t - dt)
    hi = min(T, t + dt)
    if not (hi > lo and refine_tol > 0):
        return t

    def dist_at(s):
        return const - (w * np.exp(-1j * s * logp)).real.sum()

    rt, rd = _golden_refine(dist_at, lo, hi, refine_tol)
    return float(rt) if rd < d else t


def halasz_M(f: MultiplicativeFunction, x: float, T: float, q: int = 1,
             grid_dt: float | None = None, refine_tol: float = 1e-4,
             table: PrimeTable | None = None) -> tuple[float, float]:
    """Approximate inf over |t| <= T of distance_sq(f, n^{it}; x, q), with the
    minimizing t.  Grid scan plus golden-section refinement of the best cell."""
    _, fp, logp, inv, const = _prime_data(f, x, q, 1, table)
    dt, ts = _twist_grid(x, T, grid_dt)
    w = fp * inv
    row = _twist_row(w, logp, ts, dt, const)
    i = _grid_argmin(ts, row)
    t = _best_twist(w, logp, const, float(ts[i]), row[i], dt, T, refine_tol)
    return _fsum_distance(fp * np.exp(-1j * t * logp), inv), t


def _batch_rows(q, points):
    """Grid rows per character_sums call: a buffer of about 1 MiB of class
    sums, capped at the number of grid points."""
    return max(1, min(points, 65536 // q))


def select_main_character(f: MultiplicativeFunction, q: int, x: float,
                          T: float | None = None, grid_dt: float | None = None,
                          refine_tol: float = 1e-4,
                          table: PrimeTable | None = None) -> MainCharacterSelection:
    """Minimize (chi, t) -> distance_sq(f, chi(n) n^{it}; x, q) over all
    characters mod q and |t| <= T (default log x).  Ties break toward the
    smaller character index, then smaller |t|, then negative t."""
    primes, fp, logp, inv, const = _prime_data(f, x, q, 1, table)
    if T is None:
        T = math.log(x)
    dt, ts = _twist_grid(x, T, grid_dt)
    unit_group(q)  # validates q before any % q
    w = fp * inv
    res = primes % q

    # Grid scan: bucket prime contributions by residue class, then one
    # character_sums transform yields sum_p f(p) conj(chi(p)) p^{-it}/p for
    # every character at once.
    order, class_sums = class_summer(res, q)
    # The rows are transformed in batches: one character_sums call per
    # batch, whose rows equal one-row calls bit for bit.
    rows = _batch_rows(q, len(ts))
    batch = np.empty((rows, q), dtype=np.complex128)
    mins = np.empty(len(ts))
    argmins = np.empty(len(ts), dtype=np.intp)
    for i, cur in enumerate(_phases(w[order], logp[order], ts, dt)):
        k = i % rows
        batch[k] = class_sums(cur)
        if k == rows - 1 or i == len(ts) - 1:
            dists = const - character_sums(q, batch[:k + 1]).real
            done = slice(i - k, i + 1)
            # first minimum = smallest character index
            argmins[done] = np.argmin(dists, axis=1)
            mins[done] = dists[np.arange(k + 1), argmins[done]]
    i = _grid_argmin(ts, mins, argmins)
    chi_index = int(argmins[i])
    chi_p = np.conj(character(q, chi_index).table[res])
    t_star = _best_twist(w * chi_p, logp, const, float(ts[i]), mins[i], dt, T, refine_tol)
    final = _fsum_distance(fp * chi_p * np.exp(-1j * t_star * logp), inv)
    return MainCharacterSelection(chi_index, t_star, final)
