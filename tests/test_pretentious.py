import math
import random
import tracemalloc

import numpy as np
import pytest

import progvar.pretentious as pret
from progvar import (DomainError, PrimeTable, builtin, character_sums, characters,
                     distance_sq, halasz_M, parse_descriptor, select_main_character)
from progvar.characters import class_summer
from progvar.pretentious import default_grid_dt
from progvar.variance import resolve_chi1


def dense_distance(f, chi, t, x, q, table):
    """Independent scalar oracle: direct loop over the prime list."""
    total = 0.0
    for p in table.primes_in(2, x):
        p = int(p)
        if math.gcd(p, q) != 1:
            continue
        fp = complex(f.prime_power(p, 1))
        gp = complex(chi(p)) * complex(math.cos(t * math.log(p)), math.sin(t * math.log(p)))
        total += (1 - (fp * gp.conjugate()).real) / p
    return total


def test_distance_examples(table):
    mob, one = builtin("mobius"), builtin("one")
    assert distance_sq(mob, mob, 100, 1, table=table) == 0.0
    d = distance_sq(mob, one, 10, 1, table=table)
    assert abs(d - 2 * (1 / 2 + 1 / 3 + 1 / 5 + 1 / 7)) < 1e-12
    assert distance_sq(one, one, 10, 6, table=table) == 0.0


def test_distance_range_examples(table):
    mob, one = builtin("mobius"), builtin("one")
    assert distance_sq(one, one, 10, y=2, table=table) == 0.0
    assert abs(distance_sq(mob, one, 10, y=5, table=table) - 2 / 7) < 1e-12
    assert distance_sq(mob, one, 50, y=50, table=table) == 0.0
    with pytest.raises(DomainError):
        distance_sq(mob, one, 5, y=10, table=table)


def test_triangle_inequality_random_triples(table):
    chis = characters(7)
    fs = [builtin("one"), builtin("mobius"), builtin("liouville"),
          builtin("nit_twist", t0=0.3), builtin("character", chi=chis[1]),
          builtin("mobius_squared"), builtin("smooth_indicator", y=50)]
    rng = random.Random(5)
    for _ in range(60):
        f, g, h = (rng.choice(fs) for _ in range(3))
        x = rng.choice([100, 1000, 10_000])
        q = rng.choice([1, 4, 7, 12])
        dfh = math.sqrt(distance_sq(f, h, x, q, table=table))
        dfg = math.sqrt(distance_sq(f, g, x, q, table=table))
        dgh = math.sqrt(distance_sq(g, h, x, q, table=table))
        assert dfh <= dfg + dgh + 1e-9


def test_monotone_in_x_for_unimodular(table):
    fs = [builtin("one"), builtin("mobius"), builtin("liouville"),
          builtin("nit_twist", t0=1.3)]
    for f in fs:
        for g in fs:
            prev = 0.0
            for x in (10, 100, 1000, 10_000):
                d = distance_sq(f, g, x, 1, table=table)
                assert d >= prev - 1e-12
                prev = d


def test_halasz_trivial_cases(table):
    one = builtin("one")
    M, t = halasz_M(one, 1000, 5.0, 1, table=table)
    assert M == 0.0 and t == 0.0
    tw = builtin("nit_twist", t0=0.5)
    M, t = halasz_M(tw, 1000, 1.0, 1, table=table)
    assert M < 1e-9
    assert abs(t - 0.5) < 1e-3


def test_halasz_matches_dense_grid_oracle(table):
    mob = builtin("mobius")
    x, T = 10_000, 1.0
    M, t_min = halasz_M(mob, x, T, 1, table=table)
    dt = default_grid_dt(x) / 10
    one_fn = builtin("one")
    grid = np.arange(-T, T + dt / 2, dt)
    dense = min(dense_distance(mob, lambda n: 1.0, t, x, 1, table) for t in grid)
    assert M <= dense + 1e-9
    assert abs(M - dense) < 1e-3


@pytest.mark.parametrize("x, T, grid_dt", [
    (1000, 1.0, 0.0), (1000, 1.0, -0.1), (1000, 1.0, math.nan), (1000, 1.0, math.inf),
    (1000, -1.0, None), (1000, math.nan, None), (1000, math.inf, None),
    (1, 1.0, None), (1.5, 1.0, None),
])
def test_invalid_twist_grid_raises(table, x, T, grid_dt):
    mob = builtin("mobius")
    with pytest.raises(DomainError):
        halasz_M(mob, x, T, 1, grid_dt=grid_dt, table=table)
    with pytest.raises(DomainError):
        select_main_character(mob, 5, x, T, grid_dt=grid_dt, table=table)


@pytest.mark.parametrize("name", ["mobius", "liouville", "nit_twist:0.5"])
def test_halasz_is_selection_at_q1(table, name):
    f = parse_descriptor(name)
    x = 10_000
    T = math.log(x)
    M, t = halasz_M(f, x, T, 1, table=table)
    sel = select_main_character(f, 1, x, T, table=table)
    assert sel.chi_index == 0
    assert sel.t_star == t
    assert abs(sel.distance_sq - M) < 1e-12


def test_select_planted_character_all_q_upto_50(table):
    for q in range(1, 51):
        for chi in characters(q):
            f = builtin("character", chi=chi)
            sel = select_main_character(f, q, 2000, table=table)
            assert sel.chi_index == chi.index, (q, chi.index, sel.chi_index)
            assert sel.distance_sq < 1e-9
            assert abs(sel.t_star) < 1e-9


def test_select_constant_function(table):
    sel = select_main_character(builtin("one"), 5, 1000, table=table)
    assert sel.chi_index == 0
    assert sel.t_star == 0.0
    assert sel.distance_sq < 1e-12


def test_select_mobius_matches_dense_oracle(table):
    q, x = 3, 10_000
    mob = builtin("mobius")
    sel = select_main_character(mob, q, x, table=table)
    # dense oracle: 10x finer grid, direct summation, every character
    T = math.log(x)
    dt = default_grid_dt(x) / 10
    best = (math.inf, None, None)
    for chi in characters(q):
        for t in np.arange(-T, T + dt / 2, dt):
            d = dense_distance(mob, chi, float(t), x, q, table)
            if d < best[0]:
                best = (d, chi.index, float(t))
    assert sel.chi_index == best[1]
    assert sel.distance_sq <= best[0] + 1e-9
    assert abs(sel.distance_sq - best[0]) < 1e-3


def test_selection_trace_invariants(table):
    mob = builtin("mobius")
    q, x = 5, 5000
    sel = select_main_character(mob, q, x, table=table)
    winner = characters(q)[sel.chi_index]
    d_re = dense_distance(mob, winner, sel.t_star, x, q, table)
    assert abs(sel.distance_sq - d_re) < 1e-9  # recompute from scratch
    _, ts = pret._twist_grid(x, math.log(x), None)
    g = builtin("character", chi=winner)
    assert all(sel.distance_sq <= distance_sq(mob, g, x, q, g_twist=float(t), table=table) + 1e-9
               for t in ts)
    assert 0.0 in ts  # grid covers t = 0


def test_selection_peak_memory_is_below_grid_matrix(big_table):
    # a phi x grid matrix of distances would need phi * len(grid) * 8 bytes
    q, x = 9973, 997_300
    _, ts = pret._twist_grid(x, math.log(x), None)
    matrix_bytes = (q - 1) * len(ts) * 8
    tracemalloc.start()
    try:
        select_main_character(builtin("mobius"), q, x, table=big_table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < matrix_bytes / 2, (peak, matrix_bytes)


@pytest.fixture(scope="module")
def big_table():
    return PrimeTable(10_000_000)


def bincount_sums(res, cur, q):
    """The reference buckets: one weighted bincount per part."""
    return (np.bincount(res, weights=cur.real, minlength=q),
            np.bincount(res, weights=cur.imag, minlength=q))


@pytest.mark.parametrize("q", [1, 2, 3, 12, 101, 9973])
@pytest.mark.parametrize("x", ["empty", "sparse", "1000q"])
def test_rank_sums_bit_identical_to_bincount(big_table, q, x):
    primes = big_table.primes_in(2, {"empty": 1, "sparse": 3 * q + 50, "1000q": 1000 * q}[x])
    primes = primes[np.gcd(primes, q) == 1]
    res = primes % q
    order, class_sums = class_summer(res, q)
    assert sorted(order.tolist()) == list(range(len(primes)))
    rng = np.random.default_rng(q)
    w = rng.choice([-1.0, 0.0, 1.0], len(primes)) / primes
    for t in (0.0, -1.3, 7.25):
        cur = w * np.exp(-1j * t * np.log(primes.astype(float)))
        got = class_sums(cur[order])
        re, im = bincount_sums(res, cur, q)
        assert np.array_equal(got.real.view(np.uint64), re.view(np.uint64))
        assert np.array_equal(got.imag.view(np.uint64), im.view(np.uint64))


def bincount_selection(f, q, x, table):
    """(chi_index, t_star, distance_sq) of select_main_character with the grid
    rows bucketed by two weighted bincounts over the primes in their natural
    order."""
    primes, fp, logp, inv, const = pret._prime_data(f, x, q, 1, table)
    T = math.log(x)
    dt, ts = pret._twist_grid(x, T, None)
    w = fp * inv
    res = primes % q
    rows = []
    for cur in pret._phases(w, logp, ts, dt):
        re, im = bincount_sums(res, cur, q)
        rows.append(const - character_sums(q, re + 1j * im).real)
    rows = np.array(rows)
    argmins = rows.argmin(axis=1)
    mins = rows[np.arange(len(ts)), argmins]
    i = pret._grid_argmin(ts, mins, argmins)
    chi_index = int(argmins[i])
    chi_p = np.conj(characters(q)[chi_index].table[res])
    t_star = pret._best_twist(w * chi_p, logp, const, float(ts[i]), mins[i], dt, T, 1e-4)
    final = pret._fsum_distance(fp * chi_p * np.exp(-1j * t_star * logp), inv)
    return chi_index, t_star, final


@pytest.mark.parametrize("name", ["mobius", "liouville", "nit_twist:0.7"])
def test_selection_equals_bincount_buckets(big_table, name):
    f, table = parse_descriptor(name), big_table
    cases = [(q, 100 * q + 1000) for q in (1, 2, 3, 4, 8, 12, 16, 24, 101, 997, 1000, 9973)]
    if name == "mobius":
        cases.append((9973, 9.973e6))
    for q, x in cases:
        sel = select_main_character(f, q, x, table=table)
        assert (sel.chi_index, sel.t_star, sel.distance_sq) == \
            bincount_selection(f, q, x, table), (q, x)
        assert resolve_chi1("auto", f, q, x, table=table) == (sel.chi_index, "auto")


@pytest.mark.parametrize("rows", [1, 3, "over"])
def test_selection_independent_of_batch_rows(big_table, monkeypatch, rows):
    # q = 12 sums its classes in one block, q = 997 and 9973 mostly by rank
    # slices; T = 0 is a one-point grid
    cases = [(name, q, 100 * q + 1000, T) for name in ("mobius", "nit_twist:0.7")
             for q in (12, 997, 9973) for T in (None, 0.0)]
    want = {}
    for name, q, x, T in cases:
        sel = select_main_character(parse_descriptor(name), q, x, T, table=big_table)
        want[name, q, x, T] = (sel.chi_index, sel.t_star, sel.distance_sq)
    patched = []

    def batch_rows(q, points):
        patched.append(points)
        return points + 2 if rows == "over" else rows

    monkeypatch.setattr(pret, "_batch_rows", batch_rows)
    for name, q, x, T in cases:
        sel = select_main_character(parse_descriptor(name), q, x, T, table=big_table)
        assert (sel.chi_index, sel.t_star, sel.distance_sq) == want[name, q, x, T], \
            (name, q, x, T)
    assert len(patched) == len(cases)
