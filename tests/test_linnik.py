import json
import math

import numpy as np
import pytest

from progvar import (DomainError, builtin, characters, distance_sq, e3_least,
                     e3_star_logsum, factor, halasz_M, least_qnr, linnik_L3,
                     linnik_mobius, linnik_scan, mobius, mobius_least, psi_q,
                     smooth_count, smooth_recip_sum, ternary_coverage)
from progvar import linnik, sieve


def trial_big_omega(n):
    c, m, p = 0, n, 2
    while p * p <= m:
        while m % p == 0:
            m //= p
            c += 1
        p += 1
    return c + (1 if m > 1 else 0)


def trial_factors(n):
    """Prime factors of n with multiplicity, by trial division."""
    out, m, p = [], n, 2
    while p * p <= m:
        while m % p == 0:
            m //= p
            out.append(p)
        p += 1
    return out + ([m] if m > 1 else [])


def trial_mobius(n):
    ps = trial_factors(n)
    return 0 if len(set(ps)) < len(ps) else (-1) ** len(ps)


ORACLE_PREDICATES = {
    "e3": lambda n: trial_big_omega(n) == 3,
    "e3-distinct": lambda n: len(set(trial_factors(n))) == len(trial_factors(n)) == 3,
    "mobius-minus": lambda n: trial_mobius(n) == -1,
    "mobius-plus": lambda n: trial_mobius(n) == 1,
}


def oracle_least(q, a, pred, bound):
    n = a if a >= 1 else q
    while n <= bound:
        if pred(n):
            return n
        n += q
    return None


def test_e3_least_examples(table):
    is_e3 = lambda n: trial_big_omega(n) == 3
    assert e3_least(5, 1, 1000, table=table) == oracle_least(5, 1, is_e3, 1000) == 66
    assert e3_least(5, 3, 1000, table=table) == 8  # 8 = 2^3
    assert e3_least(4, 1, 1000, table=table) == 45  # 45 = 3^2 * 5
    with pytest.raises(DomainError):
        e3_least(4, 2, 1000, table=table)


def test_e3_distinct_flag(table):
    # first three-distinct-prime product congruent 3 mod 5 is not 8
    got = e3_least(5, 3, 1000, distinct_primes=True, table=table)
    is_e3d = lambda n: trial_big_omega(n) == 3 and len(factor(n, table).factors) == 3
    assert got == oracle_least(5, 3, is_e3d, 1000)
    assert got != 8


def test_linnik_L3_examples(table):
    res = linnik_L3(5, 1000, table=table)
    assert res.minima == {1: 66, 2: 12, 3: 8, 4: 44}
    assert res.max_value == 66
    assert abs(res.exponent - math.log(66) / math.log(5)) < 1e-12
    assert linnik_L3(1, 1000, table=table).max_value == 8
    res2 = linnik_L3(2, 1000, table=table)
    assert res2.minima == {1: 27} and res2.max_value == 27


def test_linnik_scan_witnesses_reverify(table):
    res = linnik_L3(12, 100_000, table=table)
    for a, n in res.minima.items():
        assert n is not None
        assert n % 12 == a
        assert factor(n, table).big_omega == 3


@pytest.mark.parametrize("predicate", sorted(ORACLE_PREDICATES))
def test_linnik_scan_matches_oracle(table, monkeypatch, predicate):
    # A small prime block puts bounds and witnesses on and across block edges.
    monkeypatch.setattr(linnik, "BLOCK", 97)
    # the last entry repeats q = 38 with bound 195 = 2 * 97 + 1, where
    # 195 = 3 * 5 * 13 is the least three-prime product = 5 (mod 38)
    qs = list(range(1, 41)) + [38]
    bounds = ([97, 194, 96, 98, 291, 1, 8] + [13 * q + 97 * (q % 7) for q in range(8, 41)]
              + [195])
    pred = ORACLE_PREDICATES[predicate]
    results = linnik_scan(qs, bounds, predicate, table=table)
    assert [res.q for res in results] == qs
    complete = 0
    for q, bound, res in zip(qs, bounds, results):
        want = {a: oracle_least(q, a, pred, bound)
                for a in range(q) if math.gcd(a, q) == 1}
        assert res.minima == want, (q, bound)
        assert (res.predicate, res.bound) == (predicate, bound)
        if None in want.values():
            assert res.max_value is None and res.exponent is None
        else:
            complete += 1
            assert res.max_value == max(want.values())
    assert 0 < complete < len(qs)  # both complete and short-bound moduli occur
    assert linnik_scan([], [], predicate, table=table) == []


BLOCK_QUALIFIERS = {
    "e3": lambda lo, hi, t: sieve.big_omega_range(lo, hi, t) == 3,
    "mobius-minus": lambda lo, hi, t: sieve.mobius_range(lo, hi, t) == -1,
}


@pytest.mark.parametrize("predicate", sorted(BLOCK_QUALIFIERS))
def test_linnik_scan_reads_hits_in_growing_prefixes(table, predicate):
    # At the real block size the first block holds thousands of hits per
    # modulus, so the scan reads its hits in prefixes of 4q, 8q, 16q, ...
    qs = list(range(300, 310))
    results = linnik_scan(qs, [q**3 for q in qs], predicate, table=table)
    hits = np.flatnonzero(BLOCK_QUALIFIERS[predicate](1, linnik.BLOCK, table)) + 1
    deepest = 0
    for q, res in zip(qs, results):
        # least hit of every class over the whole first block at once
        least = np.full(q, linnik.BLOCK + 1)
        np.minimum.at(least, hits % q, hits)
        want = {a: int(least[a]) for a in range(q) if math.gcd(a, q) == 1}
        assert max(want.values()) <= linnik.BLOCK  # all found in the first block
        assert res.minima == want, q
        deepest = max(deepest, int(np.searchsorted(hits, max(want.values()))) / q)
    # some class's least hit lies beyond the first prefix of 4q hits
    assert deepest >= 4


@pytest.mark.parametrize("q", [0, -3])
@pytest.mark.parametrize("call", [
    lambda q, t: e3_star_logsum(q, 1, 10, 10, 10, 0.5, table=t),
    lambda q, t: ternary_coverage(q, table=t),
    lambda q, t: distance_sq(builtin("mobius"), builtin("one"), 100, q=q, table=t),
    lambda q, t: halasz_M(builtin("mobius"), 100, 1.0, q=q, table=t),
    lambda q, t: smooth_count(0, 100, 10, q=q, table=t),
    lambda q, t: psi_q(100, 10, q=q, table=t),
    lambda q, t: smooth_recip_sum(1, 100, 10, q=q, table=t),
], ids=["e3_star_logsum", "ternary_coverage", "distance_sq", "halasz_M",
        "smooth_count", "psi_q", "smooth_recip_sum"])
def test_moduli_below_one_are_rejected(table, call, q):
    with pytest.raises(DomainError):
        call(q, table)


def test_linnik_scan_rejects_bad_arguments(table):
    with pytest.raises(DomainError):
        linnik_scan([5, 6], [100], "e3", table=table)
    with pytest.raises(DomainError):
        linnik_scan([5], [100], "e4", table=table)
    for q in (0, -3):
        with pytest.raises(DomainError):
            linnik_scan([q], [10], "e3", table=table)
    for q in (0, -5):
        with pytest.raises(DomainError):
            e3_least(q, 1, 100, table=table)
        with pytest.raises(DomainError):
            mobius_least(q, 1, -1, 100, table=table)
    for bound in (float("nan"), 0, -5, 2.5, 100.0, True, np.float64(100)):
        with pytest.raises(DomainError):
            linnik_scan([5], [bound], "e3", table=table)
        with pytest.raises(DomainError):
            e3_least(5, 1, bound, table=table)
        with pytest.raises(DomainError):
            mobius_least(5, 1, -1, bound, table=table)
    for q in (7.0, True, np.float64(7)):
        with pytest.raises(DomainError):
            linnik_scan([q], [100], "e3", table=table)
        with pytest.raises(DomainError):
            e3_least(q, 1, 100, table=table)
    # numpy integers are integers
    res = linnik_scan([np.int64(5)], [np.int32(1000)], "e3", table=table)[0]
    assert res.minima == {1: 66, 2: 12, 3: 8, 4: 44}


def test_linnik_result_json_roundtrip(table):
    res = linnik_L3(5, 1000, table=table)
    obj = json.loads(res.to_json())
    assert (obj["q"], obj["predicate"], obj["bound"], obj["max_value"], obj["exponent"]) \
        == (res.q, res.predicate, res.bound, res.max_value, res.exponent)
    assert {int(a): n for a, n in obj["minima"].items()} == res.minima
    assert list(obj["minima"]) == [str(a) for a in sorted(res.minima)]


def test_monotone_in_bound(table):
    small = linnik_L3(7, 500, table=table)
    large = linnik_L3(7, 50_000, table=table)
    for a, n in small.minima.items():
        if n is not None:
            assert large.minima[a] == n


def test_missing_class_sentinel(table):
    res = linnik_L3(97, 100, table=table)  # bound too small to cover all classes
    assert any(n is None for n in res.minima.values())
    assert res.max_value is None and res.exponent is None


def test_mobius_least_examples(table):
    is_minus = lambda n: mobius(n, table) == -1
    assert mobius_least(5, 1, -1, 1000, table=table) == oracle_least(5, 1, is_minus, 1000) == 11
    assert mobius_least(5, 4, -1, 1000, table=table) == 19
    assert mobius_least(2, 1, -1, 1000, table=table) == 3
    res = linnik_mobius(5, 1, 1000, table=table)
    assert res.minima[1] == 1  # mu(1) = +1


def test_e3_star_logsum(table):
    eps = 1 - math.log(1.99) / math.log(10)  # prime window [2, 10] for P = 10
    got = e3_star_logsum(5, 2, 10, 10, 10, eps, table)
    want = 1 / 12 + 1 / 27 + 1 / 42 + 1 / 147
    assert abs(got - want) < 1e-12
    assert e3_star_logsum(5, 1, 10, 10, 10, eps, table) == 0.0
    with pytest.raises(DomainError):
        e3_star_logsum(10, 5, 10, 10, 10, eps, table)


def test_e3_star_brute_triples(table):
    # independent enumeration with unordered triples from distinct windows
    eps = 0.3
    q, a = 7, 3
    ranges = [(20.0, eps), (30.0, eps), (50.0, eps)]
    prim = [[int(p) for p in table.primes_in(P ** (1 - eps), P)] for P, eps in ranges]
    hits = set()
    for p1 in prim[0]:
        for p2 in prim[1]:
            for p3 in prim[2]:
                n = p1 * p2 * p3
                if n % q == a:
                    hits.add(n)
    want = math.fsum(1 / n for n in hits)
    got = e3_star_logsum(q, a, 20.0, 30.0, 50.0, eps, table)
    assert abs(got - want) < 1e-12


def test_ternary_coverage(table):
    covered, witnesses, missing = ternary_coverage(7, table)
    assert covered and not missing
    for a, (p1, p2, p3) in witnesses.items():
        assert p1 <= p2 <= p3 <= 7
        assert (p1 * p2 * p3) % 7 == a
    covered2, _, missing2 = ternary_coverage(2, table)
    assert not covered2 and missing2 == [1]
    assert ternary_coverage(1, table)[0] is True


def test_least_qnr_examples(table):
    assert least_qnr(3, table) == 2
    assert least_qnr(7, table) == 3
    assert least_qnr(23, table) == 5
    with pytest.raises(DomainError):
        least_qnr(15, table)
    with pytest.raises(DomainError):
        least_qnr(2, table)


def test_least_qnr_matches_legendre_character(table):
    for q in (3, 5, 7, 11, 13, 23, 31, 47):
        legendre = [c for c in characters(q) if c.is_real and not c.is_principal]
        assert len(legendre) == 1
        chi = legendre[0]
        want = next(n for n in range(2, q) if chi(n).real < 0)
        assert least_qnr(q, table) == want
