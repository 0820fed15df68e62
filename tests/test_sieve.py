import math
import random

import numpy as np
import pytest

from progvar import CapacityError, DomainError, PrimeTable, euler_phi, factor, mobius, omega_in_range, prime_bounds
from progvar import sieve
from progvar.sieve import (big_omega_range, blocks, mobius_range, omega_between_range,
                           omega_range)
from progvar.smooth import _smooth_mask

# Windows for the interval kernel: single points, deep prime powers
# (2^20, 3^13, 2^33) and the top of the 1e5 table's coverage (1e10).
EDGE_WINDOWS = [(1, 1), (2, 2), (4, 4),
                (2**20 - 40, 2**20 + 40), (3**13 - 40, 3**13 + 40),
                (10**9 - 40, 10**9 + 40), (2**33 - 20, 2**33 + 20),
                (10**10 - 60, 10**10)]


def trial_factor(n):
    """Independent oracle: plain trial division."""
    out = []
    m, p = n, 2
    while p * p <= m:
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        if k:
            out.append((p, k))
        p += 1
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def test_factor_examples(table):
    assert factor(12, table).factors == ((2, 2), (3, 1))
    assert factor(1, table).factors == ()
    assert factor(97, table).factors == trial_factor(97) == ((97, 1),)


def test_factor_reconstruction_all_small(table):
    for n in range(1, 100_001):
        f = factor(n, table)
        assert f.reconstruct() == n
        primes = [p for p, _ in f.factors]
        assert primes == sorted(primes)


def test_factor_beyond_limit_uses_trial_division():
    small = PrimeTable(50)
    assert factor(97, small).factors == ((97, 1),)
    assert factor(2047, small).factors == trial_factor(2047)  # 23 * 89
    with pytest.raises(CapacityError):
        factor(50 * 50 + 1, small)


@pytest.mark.parametrize("kernel", [mobius_range, big_omega_range, omega_range])
def test_range_kernels_beyond_coverage_fail_before_allocating(table, kernel):
    # [1, 1e15] would need petabytes; coverage is checked before any array exists
    with pytest.raises(CapacityError):
        kernel(1, 10**15, table)


def test_factor_domain_errors(table):
    with pytest.raises(DomainError):
        factor(0, table)
    with pytest.raises(DomainError):
        factor(-6, table)


def test_mobius_examples(table):
    assert mobius(1, table) == 1
    assert mobius(12, table) == 0
    assert mobius(30, table) == -1


def test_mobius_multiplicative_on_coprime_pairs(table):
    rng = random.Random(1)
    for _ in range(500):
        m = rng.randrange(1, 10_000)
        n = rng.randrange(1, 10_000)
        if math.gcd(m, n) == 1:
            assert mobius(m * n, table) == mobius(m, table) * mobius(n, table)


def test_mobius_divisor_sum_identity(table):
    for n in range(1, 10_001):
        s = sum(mobius(d, table) for d in factor(n, table).divisors())
        assert s == (1 if n == 1 else 0)


def test_euler_phi_examples_and_multiplicativity(table):
    assert euler_phi(1, table) == 1
    assert euler_phi(12, table) == 4
    assert euler_phi(97, table) == 96
    rng = random.Random(2)
    for _ in range(500):
        m = rng.randrange(1, 10_000)
        n = rng.randrange(1, 10_000)
        if math.gcd(m, n) == 1:
            assert euler_phi(m * n, table) == euler_phi(m, table) * euler_phi(n, table)


def test_omega_in_range(table):
    assert omega_in_range(60, 2, 3, table) == 2
    assert omega_in_range(60, 7, 100, table) == 0
    assert omega_in_range(30, 3, 5, table) == 2
    with pytest.raises(DomainError):
        omega_in_range(60, 5, 3, table)
    for n in range(1, 10_001):
        assert omega_in_range(n, 2, n if n > 1 else 2, table) == factor(n, table).omega


def test_prime_bounds(table):
    assert prime_bounds(12, table) == (2, 3)
    assert prime_bounds(1, table) == (math.inf, 1)
    assert prime_bounds(13, table) == (13, 13)


def test_interval_arrays_match_scalar(table):
    lo, hi = 1, 5000
    mu = mobius_range(lo, hi, table)
    om = big_omega_range(lo, hi, table)
    om_d = omega_range(lo, hi, table)
    for n in range(lo, hi + 1):
        f = factor(n, table)
        assert mu[n - lo] == mobius(n, table)
        assert om[n - lo] == f.big_omega
        assert om_d[n - lo] == f.omega


def test_interval_arrays_offset_window(table):
    lo, hi = 99_900, 100_100  # spans the sieve limit boundary
    mu = mobius_range(lo, hi, table)
    for n in (99_901, 99_990, 100_003, 100_100):
        assert mu[n - lo] == mobius(n, table)


@pytest.mark.parametrize("lo,hi", EDGE_WINDOWS)
def test_interval_arrays_edge_windows(table, lo, hi):
    mu = mobius_range(lo, hi, table)
    om = big_omega_range(lo, hi, table)
    om_d = omega_range(lo, hi, table)
    between = {(P, Q): omega_between_range(lo, hi, P, Q, table)
               for P, Q in ((2, 2), (3, 100), (50, 1e12))}
    for n in range(lo, hi + 1):
        f = factor(n, table)
        assert mu[n - lo] == mobius(n, table), n
        assert om[n - lo] == f.big_omega, n
        assert om_d[n - lo] == f.omega, n
        for (P, Q), arr in between.items():
            assert arr[n - lo] == omega_in_range(n, P, Q, table), (n, P, Q)


@pytest.mark.parametrize("lo,hi,Y", [(2**20 - 300, 2**20 + 300, 100),
                                     (10**9 - 300, 10**9 + 300, 1000),
                                     (10**10 - 300, 10**10, 10**4)])
def test_smooth_mask_below_sqrt_matches_brute(table, lo, hi, Y):
    assert Y < math.isqrt(hi)  # the pass stops short of sqrt(hi)
    for q in (1, 6, 35):
        mask = _smooth_mask(lo, hi, Y, q, table)
        brute = [n for n in range(lo, hi + 1)
                 if prime_bounds(n, table)[1] <= Y and math.gcd(n, q) == 1]
        assert int(mask.sum()) == len(brute) > 0, (lo, Y, q)
        assert (mask.nonzero()[0] + lo).tolist() == brute


def test_prime_table_lookup(table):
    assert table.is_prime(2) and table.is_prime(99991)
    assert not table.is_prime(1) and not table.is_prime(99999)
    ps = table.primes_in(10, 20)
    assert ps.tolist() == [11, 13, 17, 19]
    assert table.prime_count(541) == 100


@pytest.mark.parametrize("n", [2, 3, 4, 30, 1000])
def test_prime_table_primes_match_trial_division(n):
    t = PrimeTable(n)
    assert t.primes.tolist() == [m for m in range(2, n + 1) if trial_factor(m) == ((m, 1),)]
    assert t.primes.dtype.name == "int64"
    assert (t.spf[0], t.spf[1]) == (0, 1)


def masked_spf_table(limit):
    """Oracle: one full-length masked pass per prime, then one scan for zeros."""
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            view = spf[p * p :: p]
            view[view == 0] = p
    unmarked = np.flatnonzero(spf == 0)
    spf[unmarked] = unmarked
    return spf, unmarked[2:].astype(np.int64)


def assert_matches_masked_oracle(limit):
    t = PrimeTable(limit)
    spf, primes = masked_spf_table(limit)
    assert t.spf.dtype == spf.dtype and t.primes.dtype == primes.dtype
    assert np.array_equal(t.spf, spf)
    assert np.array_equal(t.primes, primes)


# These limits end the table on a segment edge (63, 4095 with segments of 64;
# 96 with 97) or one or two entries past one (64, 65, 4096, 4097 with 64;
# 97, 98 with 97), so that a segment starts on a prime (97) and on a power of
# 2 (64, 4096), and the last segment holds a single entry.
@pytest.mark.parametrize("segment", [64, 97])
@pytest.mark.parametrize("limit", [2, 3, 4, 5, 63, 64, 65, 96, 97, 98,
                                   4095, 4096, 4097, 10**5])
def test_segmented_build_matches_masked_oracle(monkeypatch, segment, limit):
    monkeypatch.setattr(sieve, "_SEGMENT", segment)
    assert_matches_masked_oracle(limit)


def test_segmented_build_matches_masked_oracle_default_segment():
    assert_matches_masked_oracle(10**6 + 3)


def test_prime_table_arrays_are_read_only(monkeypatch):
    monkeypatch.setenv("PROGVAR_SIEVE_LIMIT", "1000")
    monkeypatch.setattr(sieve, "_default_table", None)
    t = sieve.default_table()
    with pytest.raises(ValueError):
        t.spf[5] = 7
    with pytest.raises(ValueError):
        t.primes[0] = 3
    assert factor(15, t).factors == ((3, 1), (5, 1))


@pytest.mark.parametrize("text", ["1e6", "abc", "", "0", "-5"])
def test_sieve_limit_variable_must_be_a_positive_integer(monkeypatch, text):
    monkeypatch.setenv("PROGVAR_SIEVE_LIMIT", text)
    monkeypatch.setattr(sieve, "_default_table", None)
    with pytest.raises(DomainError, match=f"PROGVAR_SIEVE_LIMIT .*{text!r}"):
        sieve.default_table()
    assert sieve._default_table is None


@pytest.mark.parametrize("lo,hi,size,want", [
    (1, 30, 10, [(1, 10), (11, 20), (21, 30)]),  # exact cover
    (5, 27, 10, [(5, 14), (15, 24), (25, 27)]),  # partial last block
    (7, 7, 10, [(7, 7)]),
    (8, 7, 10, []),  # hi < lo
    (1, 0, 1, []),
    (3, 6, 1, [(3, 3), (4, 4), (5, 5), (6, 6)]),
])
def test_blocks_cover_the_range(lo, hi, size, want):
    assert list(blocks(lo, hi, size)) == want


def test_blocks_default_size_is_read_at_the_call(monkeypatch):
    assert list(blocks(1, sieve.BLOCK + 1)) == [(1, sieve.BLOCK), (sieve.BLOCK + 1,) * 2]
    monkeypatch.setattr(sieve, "BLOCK", 97)
    assert list(blocks(1, 200)) == [(1, 97), (98, 194), (195, 200)]
