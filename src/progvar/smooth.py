"""Smooth-number machinery: Dickman rho, coprime smooth counts, reciprocal
sums, the canonical two-part factorization, and the geometric threshold
ladder with its level membership test.

Counts and sums over n share one walk over the blocks of sieve.blocks that
covers only their own window: psi_q sieves [1, X], smooth_count and
smooth_recip_sum sieve (X1, X2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DomainError
from .sieve import PrimeTable, _require_table, blocks, factor, window_apply


@dataclass(frozen=True)
class DickmanTable:
    """rho sampled on a uniform grid 0, step, 2*step, ..., u_max."""

    step: float
    values: np.ndarray

    @property
    def u_max(self) -> float:
        return (len(self.values) - 1) * self.step


@lru_cache(maxsize=8)
def dickman_table(u_max: float = 20.0, step: float = 1e-3) -> DickmanTable:
    """Tabulate rho by the averaged integral form of the delay equation,
    u rho(u) = int_{u-1}^u rho(t) dt (equivalent to u rho'(u) = -rho(u-1)
    with rho = 1 on (0, 1]), discretized by the trapezoid rule.

    Every quadrature weight is nonnegative, so positivity survives down to
    rho(20) ~ 2.5e-29 where a forward difference of the raw equation would
    drown in rounding.  1/step must be an integer so the grid meets the
    kinks of rho at integer u.
    """
    n_per_unit = round(1.0 / step)
    if abs(n_per_unit * step - 1.0) > 1e-12:
        raise DomainError(f"step must divide 1 exactly, got {step}")
    n = int(round(u_max / step))
    vals = np.ones(n + 1)
    lag = n_per_unit
    for i in range(lag + 1, n + 1):
        u = i * step
        # trapezoid over [u-1, u] excluding the rho(u)-endpoint, which is
        # solved for: rho(u) (u - step/2) = step * (rho(u-1)/2 + inner sum)
        window = step * (0.5 * vals[i - lag] + vals[i - lag + 1 : i].sum())
        vals[i] = window / (u - 0.5 * step)
    return DickmanTable(step, vals)


def dickman(u: float, step: float = 1e-3, u_max: float = 20.0) -> float:
    """rho(u); linear interpolation between grid values."""
    if u < 0:
        raise DomainError(f"rho needs u >= 0, got {u}")
    if u <= 1:
        return 1.0
    if u > u_max:
        raise CapacityError(f"rho table covers u <= {u_max}, got {u}")
    t = dickman_table(u_max, step)
    pos = u / step
    i = int(pos)
    if i >= len(t.values) - 1:
        return float(t.values[-1])
    frac = pos - i
    return float((1 - frac) * t.values[i] + frac * t.values[i + 1])


def _smooth_mask(lo: int, hi: int, Y: float, q: int,
                 table: PrimeTable) -> np.ndarray:
    """Boolean mask over [lo, hi]: Y-smooth and coprime to q."""
    residual = window_apply(lo, hi, table, Y, lambda p, sl, e: None)
    mask = residual <= Y
    if q > 1:
        for p, _ in factor(q, table).factors:
            start = ((lo + p - 1) // p) * p
            if start <= hi:
                mask[start - lo :: p] = False
    return mask


def _smooth_blocks(X1: float, X2: float, Y: float, q: int, table: PrimeTable):
    """(lo, mask) for the blocks covering X1 < n <= X2, mask marking the
    Y-smooth n coprime to q: the one walk behind every count and sum of
    this module, so each sieves only its own window."""
    if q < 1:
        raise DomainError(f"modulus must be a positive integer, got {q}")
    for lo, hi in blocks(math.floor(X1) + 1, math.floor(X2)):
        yield lo, _smooth_mask(lo, hi, Y, q, table)


def psi_q(X: float, Y: float, q: int = 1, table: PrimeTable | None = None) -> int:
    r"""#\{n <= X : P+(n) <= Y, gcd(n, q) = 1\}, by interval sieve."""
    return smooth_count(0, max(X, 0), Y, q, table)


def smooth_count(X1: float, X2: float, Y: float, q: int = 1,
                 table: PrimeTable | None = None) -> int:
    r"""#\{X1 < n <= X2 : P+(n) <= Y, gcd(n, q) = 1\}, which equals
    psi_q(X2) - psi_q(X1) but sieves only the window."""
    table = _require_table(table)
    if not 0 <= X1 <= X2 < math.inf:
        raise DomainError(f"need 0 <= X1 <= X2 and finite X2, got {X1}, {X2}")
    if not Y >= 1:
        raise DomainError(f"need Y >= 1, got {Y}")
    return sum(int(mask.sum()) for _, mask in _smooth_blocks(X1, X2, Y, q, table))


def smooth_recip_sum(X1: float, X2: float, Y: float, q: int = 1,
                     table: PrimeTable | None = None) -> float:
    """Sum of 1/n over X1 < n <= X2 with P+(n) <= Y and gcd(n, q) = 1."""
    table = _require_table(table)
    if not 1 <= X1 <= X2 < math.inf:
        raise DomainError(f"need 1 <= X1 <= X2 and finite X2, got {X1}, {X2}")
    if not Y >= 1:
        raise DomainError(f"need Y >= 1, got {Y}")

    def terms():
        for lo, mask in _smooth_blocks(X1, X2, Y, q, table):
            yield from (1.0 / np.arange(lo, lo + len(mask), dtype=float)[mask]).tolist()

    # fsum rounds the exact sum once, whatever the order of its terms, so
    # they stream block by block and only one block's terms are held
    return math.fsum(terms())


def canonical_factorization(n: int, x: float,
                            table: PrimeTable | None = None) -> tuple[int, int]:
    """The unique split n = d*m with d in [sqrt(x)/P-(m), sqrt(x)) and
    P+(d) <= P-(m): multiply primes of n in ascending order until the
    product first reaches sqrt(x); d is everything strictly before that."""
    if x < 4:
        raise DomainError(f"need x >= 4, got {x}")
    if not n * n >= x or n > x:
        raise DomainError(f"n={n} outside [sqrt({x}), {x}]")
    primes = []
    for p, k in factor(n, table).factors:
        primes.extend([p] * k)
    d = 1
    for i, p in enumerate(primes):
        if d * p * (d * p) >= x:
            m = 1
            for pp in primes[i:]:
                m *= pp
            return d, m
        d *= p
    raise AssertionError("unreachable: n >= sqrt(x) guarantees the split exists")


@dataclass(frozen=True)
class ThetaLadder:
    """Geometrically decaying exponents theta_j = eta (1 - eps^2)^j for
    j = 0..J+1, with J = ceil(eps^-2 log log(1/eps)) and the short-interval
    splitting height H = floor(eps^-1.1)."""

    eta: float
    eps: float
    J: int
    thetas: tuple[float, ...]
    H: int


def theta_ladder(eta: float, eps: float) -> ThetaLadder:
    if not 0 < eta <= 0.1:
        raise DomainError(f"need 0 < eta <= 1/10, got {eta}")
    if not 0 < eps <= 0.2:
        raise DomainError(f"need 0 < eps <= 0.2 (formula degenerates above), got {eps}")
    J = math.ceil(eps**-2 * math.log(math.log(1.0 / eps)))
    thetas = tuple(eta * (1 - eps**2) ** j for j in range(J + 2))
    H = math.floor(eps**-1.1)
    return ThetaLadder(eta, eps, J, thetas, H)


def sj_membership(n: int, x: float, ladder: ThetaLadder,
                  table: PrimeTable | None = None) -> int | None:
    """Level j <= J such that the canonical split n = d*m has
    P-(m) in (x^theta_{j+1}, x^theta_j], P+(d) <= x^theta_{j+1} and
    d > x^(1/2 - theta_{j+1}); None when no level qualifies."""
    d, m = canonical_factorization(n, x, table)
    p_minus_m = factor(m, table).factors[0][0]
    for j in range(ladder.J + 1):
        if x ** ladder.thetas[j + 1] < p_minus_m <= x ** ladder.thetas[j]:
            th = ladder.thetas[j + 1]
            d_facs = factor(d, table).factors
            p_plus_d = d_facs[-1][0] if d_facs else 1
            if p_plus_d <= x**th and d > x ** (0.5 - th):
                return j
            return None
    return None
