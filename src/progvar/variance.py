"""Deviation and variance of multiplicative functions over residue classes,
the exact Parseval identity linking them to character sums, the sampled
short-interval hybrid statistic, and typicality measures of a modulus.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .characters import characters
from .errors import DomainError
from .multfunc import MultiplicativeFunction, evaluate_range
from .sieve import PrimeTable, _require_table, euler_phi, factor, units_mod


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

    def to_json(self) -> str:
        obj = {
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
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "VarianceReport":
        obj = json.loads(text)
        return cls(
            q=obj["q"], x=obj["x"], f=obj["f"], chi1_index=obj["chi1_index"],
            variance=obj["variance"], normalized=obj["normalized"],
            max_deviation=obj["max_deviation"], chi1_mode=obj["chi1_mode"],
            deviations={int(a): complex(re, im) for a, (re, im) in obj["deviations"].items()},
        )


def _class_sums(f, q, x, table):
    """B_r = sum of f(n) over n <= x, n = r (mod q), for every residue r."""
    n_max = math.floor(x)
    if n_max < 1:
        return np.zeros(q, dtype=np.complex128)
    vals = evaluate_range(f, 1, n_max, table)
    res = np.arange(1, n_max + 1) % q
    re = np.bincount(res, weights=vals.real, minlength=q)
    im = np.bincount(res, weights=vals.imag, minlength=q)
    return re + 1j * im


def resolve_chi1(chi1, f: MultiplicativeFunction, q: int, x: float,
                 T: float | None = None, grid_dt: float | None = None,
                 refine_tol: float = 1e-4,
                 table: PrimeTable | None = None) -> tuple[int, str]:
    """Map a chi1 argument (index, "principal", or "auto") to an index."""
    if isinstance(chi1, str):
        if chi1 == "principal":
            return 0, "principal"
        if chi1 == "auto":
            from .pretentious import select_main_character

            sel = select_main_character(f, q, x, T=T, grid_dt=grid_dt,
                                        refine_tol=refine_tol, table=table)
            return sel.chi_index, "auto"
        raise DomainError(f"chi1 must be an index, 'principal' or 'auto', got {chi1!r}")
    idx = int(chi1)
    if not 0 <= idx < euler_phi(q, table):
        raise DomainError(f"chi1 index {idx} out of range for q={q}")
    return idx, "explicit"


def deviation(f: MultiplicativeFunction, q: int, x: float, chi1,
              table: PrimeTable | None = None):
    """Per coprime class a: sum_{n <= x, n = a (q)} f(n) minus the chi1 main
    term chi1(a)/phi(q) * sum_{n <= x} f(n) conj(chi1(n)).

    Returns (mapping a -> complex deviation, max modulus).
    """
    table = _require_table(table)
    idx, _ = resolve_chi1(chi1, f, q, x, table=table)
    chi = characters(q)[idx]
    phi = euler_phi(q, table)
    B = _class_sums(f, q, x, table)
    twisted_total = complex(np.conj(chi.table) @ B)
    units = units_mod(q)
    devs = {}
    for a in units:
        devs[int(a)] = complex(B[a] - chi.table[a] / phi * twisted_total)
    max_dev = max((abs(z) for z in devs.values()), default=0.0)
    return devs, max_dev


def variance(f: MultiplicativeFunction, q: int, x: float, chi1,
             T: float | None = None, grid_dt: float | None = None,
             refine_tol: float = 1e-4,
             table: PrimeTable | None = None) -> VarianceReport:
    """Sum of squared deviation moduli over coprime classes, normalized by
    phi(q) (x/q)^2.  T/grid_dt/refine_tol only matter for chi1 = "auto"."""
    table = _require_table(table)
    idx, mode = resolve_chi1(chi1, f, q, x, T=T, grid_dt=grid_dt,
                             refine_tol=refine_tol, table=table)
    devs, max_dev = deviation(f, q, x, idx, table)
    var = math.fsum(abs(z) ** 2 for z in devs.values())
    phi = euler_phi(q, table)
    return VarianceReport(
        q=q, x=x, f=f.name, chi1_index=idx, variance=var,
        normalized=var / (phi * (x / q) ** 2), max_deviation=max_dev,
        chi1_mode=mode, deviations=devs,
    )


def parseval_check(f: MultiplicativeFunction, q: int, x: float, xi_indices,
                   table: PrimeTable | None = None) -> tuple[float, float]:
    """Both sides of the exact identity

      (1/phi) sum_{chi not in Xi} |sum_{n<=x} f(n) conj(chi(n))|^2
        = sum*_a |sum_{n=a(q)} f(n) - sum_{chi in Xi} chi(a)/phi * S_chi|^2.
    """
    table = _require_table(table)
    xi = set(int(i) for i in xi_indices)
    phi = euler_phi(q, table)
    chis = characters(q)
    if any(not 0 <= i < phi for i in xi):
        raise DomainError(f"character index set {sorted(xi)} out of range for q={q}")
    B = _class_sums(f, q, x, table)
    twisted = [complex(np.conj(c.table) @ B) for c in chis]
    lhs = math.fsum(abs(twisted[i]) ** 2 for i in range(phi) if i not in xi) / phi
    rhs_terms = []
    for a in units_mod(q):
        main = sum(chis[i].table[a] / phi * twisted[i] for i in xi)
        rhs_terms.append(abs(B[a] - main) ** 2)
    return lhs, math.fsum(rhs_terms)


def hybrid_variance(f: MultiplicativeFunction, q: int, X: float, h: float,
                    chi1, sample_step: int = 1, T: float | None = None,
                    table: PrimeTable | None = None) -> float:
    """Sampled short-interval/progression variance for real-valued f:

      int_X^{2X} sum*_a | sum_{x < n <= x+h, n=a(q)} f(n)
                          - chi1(a)/phi * (h/X) sum_{X < n <= 2X} f conj(chi1) |^2 dx

    approximated at x = X, X + step, ... (left rule, truncated last cell) and
    normalized by phi(q) X (h/q)^2.
    """
    table = _require_table(table)
    if not f.real:
        raise DomainError(f"hybrid statistic requires real-valued f, got {f.name}")
    if not 10 <= h <= X:
        raise DomainError(f"need 10 <= h <= X, got h={h}, X={X}")
    if q > h / 10:
        raise DomainError(f"need q <= h/10, got q={q}, h={h}")
    if sample_step < 1:
        raise DomainError(f"sample_step must be >= 1, got {sample_step}")
    idx, _ = resolve_chi1(chi1, f, q, X, T=T, table=table)
    chi = characters(q)[idx]
    phi = euler_phi(q, table)

    n_hi = math.floor(2 * X + h)
    vals = evaluate_range(f, 1, n_hi, table).real
    ns = np.arange(1, n_hi + 1)

    lo_sum = math.floor(X) + 1
    hi_sum = math.floor(2 * X)
    tw = vals[lo_sum - 1 : hi_sum] * np.conj(chi.table[ns[lo_sum - 1 : hi_sum] % q])
    twisted_total = complex(tw.sum())

    units = units_mod(q)
    # Per-class prefix sums: class a holds f at a, a+q, a+2q, ...
    prefixes = {}
    for a in units:
        start = a if a >= 1 else q
        seq = vals[start - 1 :: q]
        pref = np.zeros(len(seq) + 1)
        np.cumsum(seq, out=pref[1:])
        prefixes[int(a)] = pref

    def class_count(m, a):
        # number of n <= m with n = a (mod q), n >= 1
        aa = a if a >= 1 else q
        return np.maximum((m - aa) // q + 1, 0)

    xs = []
    weights = []
    x = float(X)
    while x < 2 * X:
        xs.append(x)
        weights.append(min(float(sample_step), 2 * X - x))
        x += sample_step
    xs = np.array(xs)
    weights = np.array(weights)
    lo_idx = np.floor(xs).astype(np.int64)
    hi_idx = np.floor(xs + h).astype(np.int64)

    total = np.zeros(len(xs))
    for a in units:
        a = int(a)
        pref = prefixes[a]
        wins = pref[class_count(hi_idx, a)] - pref[class_count(lo_idx, a)]
        main = complex(chi.table[a]) / phi * (h / X) * twisted_total
        total += (wins - main.real) ** 2 + main.imag**2
    integral = float((total * weights).sum())
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
