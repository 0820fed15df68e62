import math
import random

import numpy as np
import pytest

from progvar import (DomainError, builtin, characters, distance_sq, halasz_M,
                     parse_descriptor, select_main_character)
from progvar.pretentious import default_grid_dt


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
    sel = select_main_character(mob, 5, 5000, table=table)
    d_re = dense_distance(mob, characters(5)[sel.chi_index], sel.t_star, 5000, 5, table)
    assert abs(sel.distance_sq - d_re) < 1e-9  # recompute from scratch
    assert all(sel.distance_sq <= d + 1e-9 for _, d in sel.trace)
    ts = [t for t, _ in sel.trace]
    assert any(abs(t) < 1e-12 for t in ts)  # grid covers t = 0


def test_selection_two_pass_fallback_matches(table, monkeypatch):
    # force the second-pass trace and check it agrees with the kept scan rows
    import progvar.pretentious as pret

    mob = builtin("mobius")
    cached = select_main_character(mob, 12, 4000, table=table)
    monkeypatch.setattr(pret, "KEEP_ALL_LIMIT", 0)
    twopass = select_main_character(mob, 12, 4000, table=table)
    assert twopass.chi_index == cached.chi_index
    assert abs(twopass.t_star - cached.t_star) < 1e-12
    assert abs(twopass.distance_sq - cached.distance_sq) < 1e-12
    assert len(twopass.trace) == len(cached.trace)
    for (t1, d1), (t2, d2) in zip(twopass.trace, cached.trace):
        assert t1 == t2 and abs(d1 - d2) < 1e-9
