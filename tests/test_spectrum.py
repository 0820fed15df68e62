import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from progvar import (DomainError, builtin, characters, decomposition_sums,
                     euler_phi, factor, large_value_census, log_prime_char_sum,
                     mean_value_ratio, omega_in_range, parseval_check, prime_char_sum,
                     ramare_identity_check, ramare_weight, sieve, sup_norm_scan, unit_group)

NAN, INF = float("nan"), float("inf")

ONE = builtin("one")


def primes_upto(n, table):
    return [int(p) for p in table.primes_in(2, n)]


def test_prime_char_sum_examples(table):
    triv = characters(1)[0]
    assert prime_char_sum(triv, 0.0, 10, 1.0, ONE, table) == 4  # 11, 13, 17, 19
    assert prime_char_sum(triv, 0.0, 2, 1.0, ONE, table) == 2  # 2, 3
    chi4 = characters(4)[1]
    s = prime_char_sum(chi4, 0.0, 2, 9.0, ONE, table)  # primes in [2, 20]
    assert abs(s - (-1)) < 1e-12  # {5,13,17} minus {3,7,11,19}


def test_prime_char_sum_twisted_matches_direct(table):
    chi = characters(7)[2]
    t = 1.7
    got = prime_char_sum(chi, t, 10, 2.0, builtin("mobius"), table)
    want = sum(-1 * complex(chi(p)).conjugate() * cmath.exp(-1j * t * math.log(p))
               for p in primes_upto(30, table) if p >= 10)
    assert abs(got - want) < 1e-12


def test_log_prime_char_sum_examples(table):
    triv = characters(1)[0]
    e = math.log(10) / math.log(2) - 1
    s = log_prime_char_sum(triv, 0.0, 2, e, table)
    assert abs(s - (1 / 2 + 1 / 3 + 1 / 5 + 1 / 7)) < 1e-12
    chi4 = characters(4)[1]
    s2 = log_prime_char_sum(chi4, 0.0, 2, e, table)
    assert abs(s2 - (-1 / 3 + 1 / 5 - 1 / 7)) < 1e-12
    assert log_prime_char_sum(triv, 0.0, 24, 0.01, table) == 0  # no prime in [24, 24.3]


@pytest.mark.parametrize("P,eps", [(1, 0.5), (10, 0.0), (NAN, 0.5), (INF, 0.5),
                                   (10, NAN), (10, INF)])
def test_log_prime_char_sum_rejects_bad_window(table, P, eps):
    with pytest.raises(DomainError):
        log_prime_char_sum(characters(1)[0], 0.0, P, eps, table)


def test_census_examples(table):
    count, pts = large_value_census(5, [0.0], 10, 1.0, ONE, 0.5, table)
    assert count == 1 and pts[0].chi_index == 0
    count0, pts0 = large_value_census(5, [0.0, 5.0], 10, 1.0, ONE, 0.0, table)
    assert count0 == euler_phi(5) * 2
    huge = math.log(10) / (1.0 * 10) * 10  # above the max possible normalized value
    count2, _ = large_value_census(5, [0.0], 10, 1.0, ONE, huge + 1.0, table)
    assert count2 == 0


def test_census_well_spacing(table):
    with pytest.raises(DomainError):
        large_value_census(5, [0.0, 0.5], 10, 1.0, ONE, 0.1, table)
    large_value_census(5, [-3.0, -1.5, 0.0, 1.0], 10, 1.0, ONE, 0.1, table)


@pytest.mark.parametrize("P,delta", [(0, 1.0), (1, 1.0), (10, 0.0), (10, -1.0),
                                     (NAN, 1.0), (INF, 1.0), (10, NAN), (10, INF)])
def test_census_rejects_bad_window(table, P, delta):
    with pytest.raises(DomainError):
        large_value_census(5, [0.0], P, delta, ONE, 0.1, table)
    with pytest.raises(DomainError):
        prime_char_sum(characters(5)[1], 0.0, P, delta, ONE, table)


def test_census_matches_brute_force_and_monotone(table):
    def plain(p):  # a coefficient that is a plain callable, not a builtin
        return complex(math.cos(p), math.sin(p / 3))

    grid = [-2.0, 0.0, 3.5]
    scale = math.log(20) / (1.5 * 20)
    for q, coeffs in ((1, ONE), (2, ONE), (3, ONE), (8, ONE), (15, ONE), (30, ONE),
                      (1, plain), (12, plain), (15, plain)):
        a = (lambda p: 1.0) if coeffs is ONE else coeffs
        brute = {(chi.index, t): sum(a(p) * complex(chi(p)).conjugate()
                                     * cmath.exp(-1j * t * math.log(p))
                                     for p in primes_upto(50, table) if p >= 20)
                 for chi in characters(q) for t in grid}
        counts = []
        for eps in (0.0, 0.2, 0.5, 1.0):
            count, pts = large_value_census(q, grid, 20, 1.5, coeffs, eps, table)
            want = [key for key, s in brute.items() if scale * abs(s) >= eps]
            assert count == len(pts) == len(want)
            assert [(pt.chi_index, pt.t) for pt in pts] == want
            for pt in pts:
                assert type(pt.chi_index) is int
                assert abs(pt.value - brute[pt.chi_index, pt.t]) < 1e-12
            counts.append(count)
        assert counts == sorted(counts, reverse=True)


def test_sup_norm_examples(table):
    # planted principal with principal excluded: partial-period orthogonality
    q = 7
    f = builtin("character", chi=characters(q)[0])
    y = 700
    got = sup_norm_scan(f, q, 1000, [y], [0.0], exclude=0, table=table)
    assert got <= (q - 1) / y + 1e-12
    assert sup_norm_scan(ONE, 1, 1000, [100], [0.0], exclude=5, table=table) == 1.0


@pytest.mark.parametrize("ys", [[0, 50], [0.5], [-3, 10], [float("nan")], [10, float("inf")]])
def test_sup_norm_rejects_y_below_1(table, ys):
    with pytest.raises(DomainError):
        sup_norm_scan(builtin("mobius"), 5, 100, ys, [0.0], exclude=0, table=table)


def test_sup_norm_matches_direct(table, monkeypatch):
    q = 5
    f = builtin("mobius")
    ys = [50, 97, 194, 200]  # with blocks of 97: inside a block and on its edges
    ts = [0.0, 2.0]
    best = 0.0
    for chi in characters(q)[1:]:
        for t in ts:
            for y in ys:
                s = sum(complex(f(n, table)) * complex(chi(n)).conjugate()
                        * cmath.exp(-1j * t * math.log(n)) for n in range(1, y + 1))
                best = max(best, abs(s) / y)
    for block in (sieve.BLOCK, 97):
        monkeypatch.setattr(sieve, "BLOCK", block)
        got = sup_norm_scan(f, q, 500, ys, ts, exclude=0, table=table)
        assert abs(got - best) < 1e-9, block


def test_sup_norm_memory_is_flat_in_y(table, monkeypatch):
    # the whole-range path held about 60 bytes per n, 180 MiB more at
    # y = 4e6 than at y = 1e6; blocks of 2^16 are full in both runs, and a
    # first small call keeps tables built once per process out of the peaks
    monkeypatch.setattr(sieve, "BLOCK", 1 << 16)
    mob = builtin("mobius")
    sup_norm_scan(mob, 7, 1e4, [1e4], [0.0, 1.5], exclude=0, table=table)
    peaks = []
    for y_max in (1e6, 4e6):
        ys = [y_max / 4, y_max / 2, 3 * y_max / 4, y_max]
        tracemalloc.start()
        try:
            sup_norm_scan(mob, 7, y_max, ys, [0.0, 1.5, 3.0], exclude=0, table=table)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 8 * 2**20, [p / 2**20 for p in peaks]


def test_all_character_sums_keep_no_tables(table):
    # q = 2003: phi(q) character tables of q complex values would take 61 MiB
    q = 2003
    unit_group(q)  # cached: built outside the measured runs
    mob = builtin("mobius")
    for run in (lambda: parseval_check(mob, q, 50_000, [0, 5], table=table),
                lambda: large_value_census(q, [0.0, 1.5], 10_000, 1.0, mob, 0.1, table)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak / 2**20


def test_ramare_weight_examples(table):
    assert ramare_weight(7, 2, 3, table) == 1.0
    assert ramare_weight(6, 2, 3, table) == pytest.approx(1 / 3)
    assert ramare_weight(30, 2, 5, table) == pytest.approx(1 / 4)


def test_ramare_identity_examples(table):
    s, e = ramare_identity_check(30, 2, 5, table)
    assert s == e == Fraction(1)
    s, e = ramare_identity_check(4, 2, 3, table)
    assert s == e == Fraction(1, 2)
    s, e = ramare_identity_check(7, 2, 3, table)
    assert s == e == Fraction(0)


def test_ramare_identity_exact_on_window_squarefree(table):
    P, Q = 7, 97
    for n in range(2, 2000):
        f = factor(n, table)
        window = [(p, k) for p, k in f.factors if P <= p <= Q]
        if window and all(k == 1 for _, k in window):
            s, e = ramare_identity_check(n, P, Q, table)
            assert s == Fraction(1) and e == Fraction(1)


def test_decomposition_sums(table):
    triv = characters(1)[0]
    H = 2
    # window [e^{10/2}, e^{11/2}] = [148.4, 244.7]
    qv, rv = decomposition_sums(ONE, triv, 0.0, 5000.0, 2, 300, H, 10, table)
    want_qv = len([p for p in primes_upto(244, table) if p >= 149])
    assert qv == want_qv
    # window with no prime: [e^{3/1}, e^{4/1}] cut to [21, 21.5]
    qv2, _ = decomposition_sums(ONE, triv, 0.0, 100.0, 21, 21.5, 1, 3, table)
    assert qv2 == 0


def test_decomposition_rv_direct_loop(table, monkeypatch):
    chi = characters(5)[1]
    f = builtin("mobius")
    H, v, X, P, Q = 3, 6, 400.0, 2, 50
    t = 0.9
    lo = math.ceil(X * math.exp(-v / H))
    hi = math.floor(2 * X * math.exp(-v / H))
    want = 0j
    for m in range(lo, hi + 1):
        w = 1.0 / (1 + omega_in_range(m, P, Q, table))
        want += complex(f(m, table)) * complex(chi(m)).conjugate() \
            * cmath.exp(-1j * t * math.log(m)) * w
    for block in (sieve.BLOCK, 7):  # one block, then 8 blocks of 7
        monkeypatch.setattr(sieve, "BLOCK", block)
        _, rv = decomposition_sums(f, chi, t, X, P, Q, H, v, table)
        assert abs(rv - want) < 1e-9, block


def test_mean_value_ratio_examples(table):
    rec = mean_value_ratio(5, [1, 0, 0, 0, 0])
    assert rec.lhs == pytest.approx(4.0)
    assert rec.rhs == pytest.approx(8.0)
    assert rec.ratio == pytest.approx(0.5)
    rec0 = mean_value_ratio(7, [0, 0, 0])
    assert rec0.lhs == 0.0
    assert rec0.identity == 0.0


def test_mean_value_identity_randomized(table):
    rng = random.Random(13)
    for _ in range(60):
        q = rng.randrange(1, 51)
        N = rng.randrange(1, 2000)
        M = rng.choice([0, 1, 17, 1000])
        a = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(N)]
        rec = mean_value_ratio(q, a, M)
        assert abs(rec.lhs - rec.identity) <= 1e-9 * max(1.0, rec.lhs)


def test_mean_value_monitored_bound(table):
    # monitored, not fatal: collect the observed ratio over a randomized suite
    rng = random.Random(14)
    worst = 0.0
    for _ in range(50):
        q = rng.randrange(2, 40)
        N = rng.randrange(10, 3000)
        a = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(N)]
        rec = mean_value_ratio(q, a, 0)
        if rec.rhs > 0:
            worst = max(worst, rec.ratio)
    print(f"observed mean-value ratio max: {worst:.4f} (monitored bound 4)")
    assert worst > 0  # the monitor ran; violations warn rather than fail
