import math
import random
import tracemalloc

import pytest

from progvar import (CapacityError, DomainError, canonical_factorization, dickman,
                     dickman_table, factor, mobius, prime_bounds, psi_q, sieve,
                     sj_membership, smooth_count, smooth_recip_sum, theta_ladder)

NAN, INF = float("nan"), float("inf")


def brute_smooth_coprime(X, Y, q):
    out = []
    for n in range(1, int(X) + 1):
        if math.gcd(n, q) != 1:
            continue
        m, p, ok = n, 2, True
        while p * p <= m:
            while m % p == 0:
                if p > Y:
                    ok = False
                m //= p
            p += 1
        if m > 1 and m > Y:
            ok = False
        if ok:
            out.append(n)
    return out


def test_dickman_values():
    assert dickman(0.5) == 1.0
    assert dickman(0.0) == 1.0
    assert abs(dickman(2.0) - (1 - math.log(2))) < 1e-6
    assert abs(dickman(3.0) - 0.048608) < 1e-4


def test_dickman_halfstep_agreement():
    assert abs(dickman(3.0, step=1e-3) - dickman(3.0, step=5e-4)) < 1e-4


def test_dickman_monotone_positive():
    t = dickman_table(20.0, 1e-3)
    vals = t.values
    assert (vals > 0).all()
    assert (vals[1:] <= vals[:-1] + 1e-15).all()
    assert vals.max() <= 1.0


def test_dickman_capacity():
    with pytest.raises(CapacityError):
        dickman(25.0)
    with pytest.raises(DomainError):
        dickman(-1.0)


def test_psi_examples(table):
    assert psi_q(10, 2, 1, table) == 4  # {1, 2, 4, 8}
    assert psi_q(10, 3, 3, table) == 4  # {1, 2, 4, 8}
    X = 500
    coprime_count = sum(1 for n in range(1, X + 1) if math.gcd(n, 42) == 1)
    assert psi_q(X, X, 42, table) == coprime_count


def test_psi_matches_brute(table):
    rng = random.Random(9)
    for _ in range(15):
        X = rng.randrange(50, 4000)
        Y = rng.choice([2, 3, 10, 50, 400])
        q = rng.choice([1, 2, 6, 30, 77])
        assert psi_q(X, Y, q, table) == len(brute_smooth_coprime(X, Y, q))


def test_psi_monotonicity(table):
    assert psi_q(2000, 10, 1, table) <= psi_q(3000, 10, 1, table)
    assert psi_q(2000, 10, 1, table) <= psi_q(2000, 20, 1, table)
    assert psi_q(2000, 10, 6, table) <= psi_q(2000, 10, 2, table)
    assert psi_q(2000, 10, 30, table) <= psi_q(2000, 10, 6, table)


def psi_by_divisors(X, Y, q, table):
    """sum_{d|q} mu(d) Psi(X/d, Y): Psi_q(X, Y) when every prime of q is <= Y."""
    return sum(mobius(d, table) * psi_q(X // d, Y, 1, table)
               for d in factor(q, table).divisors())


def test_psi_divisor_identity_small(table):
    for q in (6, 30, 42):
        for X in (1, 97, 500, 2310):
            for Y in (7, 10, 50):
                assert prime_bounds(q, table)[1] <= Y
                want = len(brute_smooth_coprime(X, Y, q))
                assert psi_q(X, Y, q, table) == want
                assert psi_by_divisors(X, Y, q, table) == want


def test_psi_divisor_identity_at_window_ends(table):
    # the endpoints of the smooth short-interval acceptance window
    Y = 1000
    for q in (6, 30, 42):
        assert prime_bounds(q, table)[1] <= Y
        for X in (1_000_000, 1_100_000):
            assert psi_q(X, Y, q, table) == psi_by_divisors(X, Y, q, table)


def test_recip_sum_examples(table):
    assert abs(smooth_recip_sum(1, 10, 2, 1, table) - 0.875) < 1e-15
    assert smooth_recip_sum(1, 10, 2, 2, table) == 0.0
    assert smooth_recip_sum(5, 5, 100, 1, table) == 0.0
    ns = brute_smooth_coprime(300, 7, 5)
    want = math.fsum(1 / n for n in ns if 20 < n <= 300)
    assert abs(smooth_recip_sum(20, 300, 7, 5, table) - want) < 1e-12
    for X1, X2, Y in ((5, 4, 10), (0.5, 4, 10), (1, 4, 0.5), (1, INF, 10), (1, NAN, 10),
                      (NAN, 4, 10), (1, 4, NAN)):
        with pytest.raises(DomainError):
            smooth_recip_sum(X1, X2, Y, 1, table)


def test_recip_sum_memory_is_flat(table, monkeypatch):
    # holding every term before the sum took about 26 bytes per smooth n,
    # 20 MiB more at x2 = 4e6 than at 1e6; blocks of 2^16 are full in both runs
    monkeypatch.setattr(sieve, "BLOCK", 1 << 16)
    peaks = []
    for x2 in (1e6, 4e6):
        tracemalloc.start()
        try:
            smooth_recip_sum(1, x2, 1000, 1, table)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2 * 2**20, [p / 2**20 for p in peaks]


def test_smooth_sums_in_blocks_match_one_block(table, monkeypatch):
    # windows across and on the edges of blocks of 97, against one block
    cases = ((1, 3000, 50, 1), (96.5, 2910.7, 7, 12), (97, 194, 10, 6), (0, 96, 5, 1))
    one = [(smooth_count(X1, X2, Y, q, table), smooth_recip_sum(max(X1, 1), X2, Y, q, table))
           for X1, X2, Y, q in cases]
    monkeypatch.setattr(sieve, "BLOCK", 97)
    for (X1, X2, Y, q), want in zip(cases, one):
        got = (smooth_count(X1, X2, Y, q, table), smooth_recip_sum(max(X1, 1), X2, Y, q, table))
        assert got == want, (X1, X2)


def test_smooth_count_is_the_psi_difference(table):
    # non-integer ends, a window across the 2^20 block boundary, empty windows
    cases = ((1_000_000.5, 1_100_000.25, 50, 12), (97.5, 2310.7, 7, 12),
             (0, 500, 10, 1), (10.5, 10.9, 10, 1), (2**20, 2**20, 3, 6))
    for X1, X2, Y, q in cases:
        want = psi_q(X2, Y, q, table) - psi_q(X1, Y, q, table)
        assert smooth_count(X1, X2, Y, q, table) == want, (X1, X2)
    for X1, X2, Y in ((5, 4, 10), (-1, 4, 10), (1, 4, 0.5), (0, INF, 10), (0, NAN, 10),
                      (NAN, 4, 10), (0, 4, NAN)):
        with pytest.raises(DomainError):
            smooth_count(X1, X2, Y, 1, table)
    for X, Y in ((INF, 10), (NAN, 10), (100, NAN)):
        with pytest.raises(DomainError):
            psi_q(X, Y, 1, table)


def brute_canonical(n, x, table):
    """All admissible splits by exhaustive divisor enumeration."""
    root = math.sqrt(x)
    hits = []
    for d in factor(n, table).divisors():
        m = n // d
        pminus_m = prime_bounds(m, table)[0]
        pplus_d = prime_bounds(d, table)[1]
        if d < root and d * pminus_m >= root and pplus_d <= pminus_m:
            hits.append((d, m))
    return hits


def test_canonical_examples(table):
    assert canonical_factorization(12, 16, table) == (2, 6)
    assert canonical_factorization(4, 16, table) == (2, 2)
    assert canonical_factorization(13, 16, table) == (1, 13)
    with pytest.raises(DomainError):
        canonical_factorization(3, 16, table)
    with pytest.raises(DomainError):
        canonical_factorization(17, 16, table)


def test_canonical_uniqueness_small(table):
    x = 400
    for n in range(20, 401):
        hits = brute_canonical(n, x, table)
        assert len(hits) == 1, (n, hits)
        assert hits[0] == canonical_factorization(n, x, table)


def test_canonical_guarantees(table):
    rng = random.Random(10)
    x = 10_000.0
    for _ in range(300):
        n = rng.randrange(100, 10_001)
        d, m = canonical_factorization(n, x, table)
        assert d * m == n
        root = math.sqrt(x)
        assert d < root
        assert d * prime_bounds(m, table)[0] >= root
        assert prime_bounds(d, table)[1] <= prime_bounds(m, table)[0]


def test_theta_ladder_examples():
    lad = theta_ladder(0.1, 0.1)
    assert lad.thetas[0] == 0.1
    assert abs(lad.thetas[1] - 0.099) < 1e-15
    assert lad.J == 84  # ceil(100 * log log 10)
    assert len(lad.thetas) == lad.J + 2
    assert theta_ladder(0.05, 0.1).H == 12  # floor(10**1.1)
    assert all(a > b for a, b in zip(lad.thetas, lad.thetas[1:]))


def test_theta_ladder_domain():
    with pytest.raises(DomainError):
        theta_ladder(0.1, 0.25)
    with pytest.raises(DomainError):
        theta_ladder(0.2, 0.1)
    with pytest.raises(DomainError):
        theta_ladder(0.0, 0.1)


def brute_membership(n, x, ladder, table):
    d, m = canonical_factorization(n, x, table)
    pm = prime_bounds(m, table)[0]
    pd = prime_bounds(d, table)[1]
    for j in range(ladder.J + 1):
        lo = x ** ladder.thetas[j + 1]
        hi = x ** ladder.thetas[j]
        if lo < pm <= hi:
            if pd <= lo and d > x ** (0.5 - ladder.thetas[j + 1]):
                return j
            return None
    return None


def test_sj_membership_edges(table):
    lad = theta_ladder(0.09, 0.15)
    x = 1_000_000.0
    assert sj_membership(999_983, x, lad, table) is None  # prime forces d = 1
    # P-(m) above x^theta_0: take n a product of two large primes
    n = 991 * 1009
    assert prime_bounds(n, table)[0] > x ** lad.thetas[0]
    assert sj_membership(n, x, lad, table) is None


def test_sj_membership_matches_condition_oracle(table):
    lad = theta_ladder(0.09, 0.15)
    x = 1_000_000.0
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randrange(1000, 1_000_001)
        got = sj_membership(n, x, lad, table)
        want = brute_membership(n, x, lad, table)
        assert got == want, (n, got, want)


def test_sj_membership_positive_case(table):
    # windows above sqrt-complement: at x = 1e6 the only admissible rough
    # parts start at 3 with d a power of two in (x^0.42, x^0.5), i.e. d = 512
    lad = theta_ladder(0.09, 0.15)
    x = 1_000_000.0
    n = 512 * 3 * 5 * 7 * 11
    got = sj_membership(n, x, lad, table)
    assert got is not None
    assert got == brute_membership(n, x, lad, table)
    assert canonical_factorization(n, x, table) == (512, 1155)
