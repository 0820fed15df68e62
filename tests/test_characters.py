import cmath
import importlib
import itertools
import json
import math

import numpy as np
import pytest

from progvar import (DomainError, character, character_sums, characters, classify,
                     euler_phi, unit_group)


def units_of(q):
    return [a for a in range(1, q + 1) if math.gcd(a, q) == 1] if q > 1 else [0]


def brute_dlog(group, n):
    """Independent discrete log: exhaustive search over generator powers."""
    q = group.q
    target = n % q
    for vec in itertools.product(*(range(c.order) for c in group.components)):
        acc = 1
        for e, comp in zip(vec, group.components):
            acc = acc * pow(comp.generator, e, q) % q
        if acc == target % q:
            return vec
    raise AssertionError(f"no dlog for {n} mod {q}")


def test_unit_group_examples():
    g5 = unit_group(5)
    assert [c.order for c in g5.components] == [4]
    g8 = unit_group(8)
    assert [c.order for c in g8.components] == [2, 2]
    g1 = unit_group(1)
    assert g1.components == () and g1.phi == 1


def test_unit_group_structure_small():
    for q in range(1, 121):
        g = unit_group(q)
        assert g.phi == euler_phi(q)
        for n in units_of(q):
            vec = g.dlog(n)
            acc = 1
            for e, comp in zip(vec, g.components):
                acc = acc * pow(comp.generator, e, q) % q
            assert acc % q == n % q


def test_character_counts():
    assert len(characters(3)) == 2
    assert len(characters(12)) == 4
    assert len(characters(1)) == 1


def test_principal_is_index_zero_and_order_lexicographic():
    chis = characters(45)
    assert chis[0].is_principal
    exps = [c.exponents for c in chis]
    assert exps == sorted(exps)


@pytest.mark.parametrize("q", [1, 2, 4, 8, 12, 24, 101, 9973])
def test_character_by_index_matches_list(q):
    # oracle: the exponent vectors in lexicographic order (one empty vector
    # when the group has no components)
    g = unit_group(q)
    lexicographic = list(itertools.product(*(range(d) for d in g.orders)))
    chis = characters(q)
    assert len(chis) == len(lexicographic) == g.phi
    assert [(c.index, c.exponents) for c in chis] == list(enumerate(lexicographic))
    indices = range(len(chis)) if q < 9973 else [0, 1, 2, 17, 4986, 6593, 9971]
    for i in indices:
        chi = character(q, i)
        assert chi.index == i
        assert chi.exponents == lexicographic[i]
        assert np.array_equal(chi.table, chis[i].table)
    for bad in (-1, len(chis)):
        with pytest.raises(DomainError):
            character(q, bad)


def test_legendre_character_mod_5():
    # squares mod 5 are {1, 4}; the order-2 character is the exponent-2 one
    chis = characters(5)
    leg = chis[2]
    squares = {pow(n, 2, 5) for n in range(1, 5)}
    for n in range(1, 5):
        expected = 1 if n in squares else -1
        assert leg(n) == expected
    assert leg(2) == -1


def test_eval_examples():
    principal6 = characters(6)[0]
    assert principal6(4) == 0  # gcd(4,6)=2
    chi3 = characters(3)[1]
    assert chi3(5) == -1  # 5 = 2 (mod 3), 2 generates
    for q in (1, 2, 3, 12, 35):
        for chi in characters(q):
            assert chi(1) == 1
            assert chi(1 + q) == chi(1)  # periodicity


def test_complete_multiplicativity_exhaustive():
    for q in (8, 9, 12, 15, 24, 40, 100):
        for chi in characters(q):
            for m in range(q):
                for n in range(q):
                    assert abs(chi(m * n) - chi(m) * chi(n)) < 1e-12


def test_value_modulus_and_principal_sum():
    for q in (7, 12, 16, 45):
        for chi in characters(q):
            tab = chi.table
            on = np.abs(tab) > 0
            assert np.allclose(np.abs(tab[on]), 1.0, atol=1e-12)
            total = tab.sum()
            if chi.is_principal:
                assert abs(total - euler_phi(q)) < 1e-9
            else:
                assert abs(total) < 1e-9


def test_conductor_examples():
    assert characters(12)[0].conductor() == 1
    # mod 8: the character determined by n mod 4 on odd n has conductor 4
    chis8 = characters(8)
    wanted = [c for c in chis8 if c(1) == 1 and c(5) == 1 and c(3) == -1 and c(7) == -1]
    assert len(wanted) == 1 and wanted[0].conductor() == 4
    assert characters(5)[2].conductor() == 5  # Legendre mod 5 is primitive


def per_unit_conductor(chi):
    """Least d | q with chi(r) = 1 at every unit r = 1 mod d, tested unit by
    unit on the values."""
    q = chi.q
    for d in range(1, q + 1):
        if q % d == 0 and all(abs(chi(r) - 1) < 1e-12 for r in units_of(q) if r % d == 1 % d):
            return d


def test_conductor_and_parity_match_per_unit_oracle_q_up_to_120():
    for q in range(1, 121):
        for chi in characters(q):
            assert chi.conductor() == per_unit_conductor(chi), (q, chi.index)
            flags = classify(chi)
            assert flags.primitive == (chi.conductor() == q)
            assert flags.parity == chi(-1).real and chi(-1).imag == 0, (q, chi.index)


def test_classify_examples():
    for q in (5, 12, 9):
        flags = classify(characters(q)[0])
        assert flags.principal and flags.real
    leg = classify(characters(5)[2])
    assert leg.real and leg.primitive and leg.parity == 1
    quartic = classify(characters(5)[1])
    assert not quartic.real


def test_orthogonality_identity_q_up_to_60():
    for q in range(1, 61):
        chis = characters(q)
        phi = len(chis)
        us = units_of(q)
        V = np.stack([c.table[us] for c in chis])  # phi x units
        gram = V.conj().T @ V / phi
        assert np.max(np.abs(gram - np.eye(len(us)))) < 1e-12


def test_character_sums_match_tables():
    # q = 1..64 covers the trivial groups, one and two 2-power components
    # (4, 8, 16, 32), odd prime powers and composites
    rng = np.random.default_rng(7)
    for q in range(1, 65):
        sums = rng.uniform(-1, 1, q) + 1j * rng.uniform(-1, 1, q)
        want = np.array([np.conj(chi.table) @ sums for chi in characters(q)])
        got = character_sums(q, sums)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), q


@pytest.mark.parametrize("lead", [(5,), (3, 4)])
def test_batched_character_sums_bit_identical_to_rows(lead):
    # 120, 240 and 1000 have lattices of three to four axes
    rng = np.random.default_rng(11)
    for q in list(range(1, 65)) + [120, 240, 1000]:
        sums = rng.uniform(-1, 1, lead + (q,)) + 1j * rng.uniform(-1, 1, lead + (q,))
        got = character_sums(q, sums)
        assert got.shape == lead + (unit_group(q).phi,)
        want = np.stack([character_sums(q, row) for row in sums.reshape(-1, q)])
        assert np.array_equal(np.ascontiguousarray(got).reshape(want.shape).view(np.uint64),
                              want.view(np.uint64)), q


def brute_induced(chi):
    """Find by brute force the character mod conductor(chi) agreeing with chi."""
    d = chi.conductor()
    q = chi.q
    for psi in characters(d):
        if all(abs(psi(n) - chi(n)) < 1e-9 for n in range(1, q + 1) if math.gcd(n, q) == 1):
            return psi
    raise AssertionError(f"no inducing character for {chi!r}")


def test_induction_consistency_q_up_to_60():
    for q in range(1, 61):
        for chi in characters(q):
            psi = brute_induced(chi)
            for n in range(1, q + 1):
                want = psi(n) if math.gcd(n, q) == 1 else 0
                assert abs(chi(n) - want) < 1e-12


def test_value_cache_matches_generator_powers_q_up_to_200():
    for q in range(1, 201):
        g = unit_group(q)
        L = g.exponent
        for chi in characters(q):
            for n in units_of(q):
                vec = g.dlog(n)
                s = sum(a * e * (L // d) for a, e, d in zip(chi.exponents, vec, g.orders)) % L
                direct = cmath.exp(2j * cmath.pi * s / L)
                assert abs(chi(n) - direct) < 1e-12
            if chi.is_real:
                vals = set(np.round(chi.table.real, 12)) | set(np.round(chi.table.imag, 12))
                assert vals <= {-1.0, 0.0, 1.0}  # exact patching


def test_descriptor_serialization_stable():
    chis = characters(40)
    descs = [json.dumps(c.descriptor()) for c in chis]
    assert len(set(descs)) == len(descs)
    again = [json.dumps(c.descriptor()) for c in characters(40)]
    assert descs == again


def test_budget_capacity_error(monkeypatch):
    from progvar import CapacityError
    from progvar.characters import UnitGroupStructure

    monkeypatch.setattr(importlib.import_module("progvar.characters"), "GROUP_BUDGET", 100)
    with pytest.raises(CapacityError):
        UnitGroupStructure(9973)
