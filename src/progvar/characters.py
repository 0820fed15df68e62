"""Dirichlet characters mod q via the CRT decomposition of the unit group.

Representation: (Z/q)^x is split into cyclic components, one per odd prime
power q_i = p^e (generated by the smallest primitive root), with 2^e
contributing nothing (e <= 1), one order-2 component generated by -1
(e = 2), or components of orders 2 and 2^(e-2) generated by -1 and 3
(e >= 3).  Generators are lifted to residues mod q that are 1 modulo the
other factors.  A character is an integer exponent per component; its value
at a unit with discrete log (e_1, ..., e_m) is exp(2 pi i sum a_j e_j / d_j).

Values are carried as an exact integer s modulo L = lcm(d_j): patched to
+-1, +-i whenever 4s = 0 (mod L), so real characters evaluate exactly and
conductor / parity logic can run on integers.

Character indexing contract: a character is named by its index alone, and
its exponent vector is the index unravelled in C-order over the component
lattice, so index 0 is principal and the order is lexicographic by exponent
vector.  character(q, index) is the only constructor; characters(q) lists
character(q, i) for every i.

Class sums by residue mod q, the input of character_sums, are built here
too, in one of two layouts: class_rows for consecutive n and class_summer
for a fixed set of terms.  Both add every class in term order from 0.0, so
they equal weighted np.bincount sums bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DomainError
from .sieve import PrimeFactorization, _trial_division

GROUP_BUDGET = 1_000_000


@dataclass(frozen=True)
class GroupComponent:
    generator: int  # residue mod q, congruent to 1 modulo the other factors
    order: int


def _trial_factor(n: int) -> PrimeFactorization:
    """n >= 1 factored by trial division by 2 and the odd numbers.  A modulus
    and its group orders are small enough (GROUP_BUDGET bounds phi(q)) that
    this costs less than building a sieve to factor them."""
    return _trial_division(n, itertools.chain([2], itertools.count(3, 2)))


def _smallest_primitive_root(p: int, e: int) -> int:
    """Exhaustive order test against the prime factorization of phi(p^e)."""
    q = p**e
    phi = p ** (e - 1) * (p - 1)
    phi_primes = [r for r, _ in _trial_factor(phi).factors]
    g = 2
    while True:
        if math.gcd(g, q) == 1 and all(pow(g, phi // r, q) != 1 for r in phi_primes):
            return g
        g += 1


class UnitGroupStructure:
    """CRT generator decomposition of (Z/q)^x plus its discrete-log table."""

    def __init__(self, q: int):
        if q < 1:
            raise DomainError(f"modulus must be >= 1, got {q}")
        if q > 2 * GROUP_BUDGET**2:  # phi(q) >= sqrt(q / 2): over budget, not worth factoring
            raise CapacityError(f"phi({q}) exceeds enumeration budget {GROUP_BUDGET}")
        self.q = q
        components: list[GroupComponent] = []
        local = []  # (modulus piece, generator mod piece, order)
        for p, e in _trial_factor(q).factors:
            pe = p**e
            if p == 2:
                if e == 2:
                    local.append((pe, 3, 2))
                elif e >= 3:
                    local.append((pe, pe - 1, 2))
                    local.append((pe, 3, 2 ** (e - 2)))
            else:
                g = _smallest_primitive_root(p, e)
                local.append((pe, g, p ** (e - 1) * (p - 1)))
        phi = 1
        for _, _, order in local:
            phi *= order
        if phi > GROUP_BUDGET:
            raise CapacityError(f"phi({q}) = {phi} exceeds enumeration budget {GROUP_BUDGET}")
        for pe, g, order in local:
            rest = q // pe
            if rest == 1:
                lifted = g % q
            else:
                # x = g (mod pe), x = 1 (mod q/pe)
                inv = pow(pe, -1, rest)
                lifted = (g + pe * ((1 - g) * inv % rest)) % q
            components.append(GroupComponent(lifted, order))
        self.components = tuple(components)
        self.phi = phi
        self.orders = tuple(c.order for c in components)
        self.exponent = math.lcm(*self.orders) if components else 1

        # Enumerate the lattice in C-order; unit_residues[i] is the residue
        # whose exponent vector unravels from i.
        residues = np.empty(phi, dtype=np.int64)
        if components:
            vec = [1]
            for comp in components:
                powers, acc = [], 1
                for _ in range(comp.order):
                    powers.append(acc)
                    acc = acc * comp.generator % q
                vec = [v * w % q for v in vec for w in powers]
            residues[:] = vec
        else:
            residues[0] = 1 % q  # q in {1, 2}: the single unit (0 when q = 1)
        self.unit_residues = residues
        lattice = np.full(q, -1, dtype=np.int64)
        lattice[residues] = np.arange(phi)
        self.lattice_index = lattice
        self.lattice_shape = self.orders if components else (1,)
        self._kernels = None

    def dlog(self, n: int) -> tuple[int, ...]:
        """Exponent vector of a residue coprime to q."""
        i = int(self.lattice_index[n % self.q])
        if i < 0:
            raise DomainError(f"{n} is not a unit mod {self.q}")
        if not self.components:
            return ()
        return tuple(int(e) for e in np.unravel_index(i, self.lattice_shape))

    def kernels(self) -> list[tuple[int, np.ndarray]]:
        """(d, lattice positions of the units = 1 mod d) for each d | q in
        ascending order, built on first use."""
        if self._kernels is None:
            res = self.unit_residues
            self._kernels = [(d, np.flatnonzero(res % d == 1 % d))
                             for d in _trial_factor(self.q).divisors()]
        return self._kernels


@lru_cache(maxsize=64)
def unit_group(q: int) -> UnitGroupStructure:
    return UnitGroupStructure(q)


class DirichletCharacter:
    def __init__(self, group: UnitGroupStructure, index: int):
        if not 0 <= index < group.phi:
            raise DomainError(f"character index {index} out of range for q={group.q}")
        self.group = group
        self.q = group.q
        exps = np.unravel_index(index, group.lattice_shape) if group.components else ()
        self.exponents = tuple(int(a) for a in exps)
        self.index = index
        self._table = None
        self._phase = None
        self._conductor = None

    # -- value machinery ----------------------------------------------------

    def _phase_table(self) -> np.ndarray:
        """Integer s with chi = exp(2 pi i s / L) at each unit, -1 off units."""
        if self._phase is None:
            g = self.group
            L = g.exponent
            s = np.zeros(g.phi, dtype=np.int64)
            positions = np.unravel_index(np.arange(g.phi), g.lattice_shape)
            for e, a, d in zip(positions, self.exponents, g.orders):
                s += e * (a * (L // d))
            phase = np.full(self.q, -1, dtype=np.int64)
            phase[g.unit_residues] = s % L
            self._phase = phase
        return self._phase

    @property
    def table(self) -> np.ndarray:
        """Value cache: chi(r) for r = 0..q-1 (0 off the unit group)."""
        if self._table is None:
            L = self.group.exponent
            roots = np.exp(2j * np.pi * np.arange(L) / L)
            quarter = np.flatnonzero(4 * np.arange(L) % L == 0)
            exact = np.array([1, 1j, -1, -1j], dtype=np.complex128)
            roots[quarter] = exact[(4 * quarter // L) % 4]  # exact +-1, +-i
            phase = self._phase_table()
            values = np.zeros(self.q, dtype=np.complex128)
            on = phase >= 0
            values[on] = roots[phase[on]]
            self._table = values
        return self._table

    def __call__(self, n: int) -> complex:
        return complex(self.table[n % self.q])

    # -- structure ----------------------------------------------------------

    @property
    def is_principal(self) -> bool:
        return all(a == 0 for a in self.exponents)

    @property
    def is_real(self) -> bool:
        # chi^2 principal <=> every value in {-1, 0, 1}
        return all(2 * a % d == 0 for a, d in zip(self.exponents, self.group.orders))

    def conductor(self) -> int:
        """Least d | q with chi trivial on units that are 1 mod d."""
        if self._conductor is None:
            s = self._phase_table()[self.group.unit_residues]
            self._conductor = next(d for d, pos in self.group.kernels() if not s[pos].any())
        return self._conductor

    def descriptor(self) -> list:
        """Stable serialization: [q, [exponents...]]."""
        return [self.q, list(self.exponents)]

    def __repr__(self):
        return f"DirichletCharacter(q={self.q}, index={self.index}, exponents={self.exponents})"


def characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q in index order."""
    return [character(q, i) for i in range(unit_group(q).phi)]


def character(q: int, index: int) -> DirichletCharacter:
    """The character mod q of the given index: its exponents are the index
    unravelled in C-order over the component lattice."""
    return DirichletCharacter(unit_group(q), index)


def character_sums(q: int, sums) -> np.ndarray:
    """sum_a sums[..., a] conj(chi(a)) for every character chi mod q, in index
    order along the last axis.

    sums has shape (..., q), its last axis indexed by residue mod q.  One DFT
    over the trailing unit-group component lattice axes transforms every
    leading index at once: its C-order output is the lexicographic exponent
    order, which is the character index order.  Each leading index gets the
    same values, bit for bit, as a call on that row alone.
    """
    g = unit_group(q)
    units = np.asarray(sums)[..., g.unit_residues]
    lead = units.shape[:-1]
    lattice = units.reshape(lead + g.lattice_shape)
    axes = tuple(range(len(lead), lattice.ndim))
    return np.fft.fftn(lattice, axes=axes).reshape(lead + (g.phi,))


def _add_rows(block, out):
    """Add to out the column sums of block, each column summed in row order.

    Added to zeros, every column equals a sum of its rows started from 0.0,
    bit for bit: the column sum differs from that only in the sign of a zero.
    numpy reduces one column pairwise, and a block a few columns wide row by
    row at several times the cost per term, so up to 4 columns each column
    takes the last of its running sums."""
    if block.shape[1] > 4:
        out += block.sum(axis=0)
    elif len(block):
        for j, col in enumerate(block.T):
            out[j] += np.add.accumulate(col)[-1]


def class_rows(vals, lo: int, q: int) -> np.ndarray:
    """vals[i], the value at n = lo + i, laid out in a zero-padded (rows, q)
    array: row k, column r holds n = q*(lo // q + k) + r, so column r is the
    class of r mod q in order of n."""
    lead = lo % q
    rows = -(-(lead + len(vals)) // q)
    padded = np.zeros(rows * q, dtype=vals.dtype)
    padded[lead:lead + len(vals)] = vals
    return padded.reshape(rows, q)


def range_class_sums(vals, lo: int, q: int) -> np.ndarray:
    """S[r] = sum of vals[i] over lo + i = r (mod q), each class added in
    order of i from 0.0, by summing the rows of class_rows."""
    out = np.zeros(q, dtype=vals.dtype)
    _add_rows(class_rows(vals, lo, q), out)
    return out


def class_summer(res: np.ndarray, q: int):
    """Class sums mod q of many value rows over one set of terms, res
    holding the terms' residues.  Returns (order, sums): sums(vals[order])
    is the array of the q class sums of vals, each class added in term order
    from 0.0, so it equals np.bincount(res, weights=...) of the real and the
    imaginary part bit for bit.

    A term's rank is its position among the terms of its class.  order sorts
    the terms by rank, then by class, the classes that hold the most terms
    first (ties by residue).  The first head ranks are reached by every
    nonempty class, so they form one (head, classes) block; each later rank
    is one slice, added to a prefix of the classes.
    """
    counts = np.bincount(res, minlength=q)
    cls = np.argsort(-counts, kind="stable")
    pos = np.empty(q, dtype=np.intp)
    pos[cls] = np.arange(q)
    starts = np.cumsum(counts) - counts
    rank = np.empty(len(res), dtype=np.intp)
    rank[np.argsort(res, kind="stable")] = np.arange(len(res)) - np.repeat(starts, counts)
    order = np.lexsort((pos[res], rank))
    width = np.count_nonzero(counts)
    head = int(counts[cls[width - 1]]) if width else 0
    # slice bounds of the ranks after the head block
    bounds = [head * width, *np.cumsum(np.bincount(rank))[head:].tolist()]

    def sums(cur):
        acc = np.zeros(q, dtype=cur.dtype)
        _add_rows(cur[:head * width].reshape(head, width), acc[:width])
        for a, b in zip(bounds[:-1], bounds[1:]):
            acc[:b - a] += cur[a:b]
        return acc[pos]

    return order, sums


@dataclass(frozen=True)
class CharacterFlags:
    principal: bool
    real: bool
    primitive: bool
    parity: int  # chi(-1): +1 even, -1 odd


def classify(chi: DirichletCharacter) -> CharacterFlags:
    # chi(-1) = +-1, so its phase at q - 1 is 0 or L/2
    return CharacterFlags(
        principal=chi.is_principal,
        real=chi.is_real,
        primitive=chi.conductor() == chi.q,
        parity=1 if chi._phase_table()[-1 % chi.q] == 0 else -1,
    )
