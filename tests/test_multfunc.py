import math
import random

import numpy as np
import pytest

from progvar import (DomainError, builtin, characters, evaluate_range,
                     parse_descriptor, restrict_smooth)


def pool(table_limit_hint=None):
    chis5 = characters(5)
    return [
        builtin("one"),
        builtin("mobius"),
        builtin("mobius_squared"),
        builtin("liouville"),
        builtin("smooth_indicator", y=30),
        builtin("character", chi=chis5[2]),
        builtin("character", chi=chis5[1]),
        builtin("nit_twist", t0=0.7),
    ]


def test_builtin_examples(table):
    assert builtin("mobius")(30, table) == -1
    assert builtin("smooth_indicator", y=3)(10, table) == 0  # P+(10) = 5
    chi = characters(5)[1]
    f = builtin("character", chi=chi)
    assert f(7, table) == chi(2)  # periodicity
    assert builtin("one")(1, table) == 1


def test_builtin_unknown_name():
    with pytest.raises(DomainError):
        builtin("zeta")
    with pytest.raises(DomainError):
        builtin("smooth_indicator", y=1)


def test_evaluate_range_examples(table):
    mu = evaluate_range(builtin("mobius"), 1, 10, table)
    assert np.allclose(mu.real, [1, -1, -1, 0, -1, 1, -1, 0, 0, 1])
    ones = evaluate_range(builtin("one"), 5, 7, table)
    assert np.allclose(ones, [1, 1, 1])
    s2 = evaluate_range(builtin("smooth_indicator", y=2), 1, 8, table)
    assert np.allclose(s2.real, [1, 1, 0, 1, 0, 0, 0, 1])


def test_evaluate_range_matches_pointwise_all_builtins(table):
    import numpy as np

    for f in pool():
        vals = evaluate_range(f, 1, 10_000, table)
        pointwise = np.array([f(n, table) for n in range(1, 10_001)])
        assert np.abs(vals - pointwise).max() < 1e-12, f.name


@pytest.mark.parametrize("lo,hi", [(1, 1), (2, 2), (4, 4),
                                   (2**20 - 40, 2**20 + 40), (3**13 - 40, 3**13 + 40),
                                   (10**9 - 40, 10**9 + 40), (2**33 - 20, 2**33 + 20),
                                   (10**10 - 60, 10**10)])
def test_evaluate_range_edge_windows(table, lo, hi):
    for f in pool():
        vals = evaluate_range(f, lo, hi, table)
        pointwise = np.array([f(n, table) for n in range(lo, hi + 1)])
        assert np.abs(vals - pointwise).max() < 1e-12, (f.name, lo)


def test_boundedness_over_large_range(table):
    for f in pool():
        vals = evaluate_range(f, 1, 100_000, table)
        assert np.abs(vals).max() <= 1 + 1e-12, f.name


def test_multiplicativity_random_coprime_pairs(table):
    rng = random.Random(4)
    fs = pool()
    checked = 0
    while checked < 1000:
        m = rng.randrange(1, 10_000)
        n = rng.randrange(1, 10_000)
        if math.gcd(m, n) != 1:
            continue
        f = fs[checked % len(fs)]
        assert abs(f(m * n, table) - f(m, table) * f(n, table)) < 1e-12
        checked += 1


def test_restrict_smooth(table):
    r = restrict_smooth(builtin("one"), 3)
    assert r(9, table) == 1
    assert r(10, table) == 0
    rm = restrict_smooth(builtin("mobius"), 5)
    assert rm(30, table) == -1
    with pytest.raises(DomainError):
        restrict_smooth(builtin("one"), 1)
    vals = evaluate_range(r, 1, 500, table)
    for n in (1, 3, 8, 12, 25, 486):
        assert abs(vals[n - 1] - r(n, table)) < 1e-12


def test_parse_descriptor(table):
    assert parse_descriptor("mobius")(30, table) == -1
    f = parse_descriptor("smooth_indicator:1000")
    assert f(999, table) == 1
    g = parse_descriptor("character:q=5,idx=2")
    assert g(2, table) == characters(5)[2](2)
    tw = parse_descriptor("nit_twist:0.5")
    assert abs(abs(tw(7, table)) - 1) < 1e-12
    for bad in ("nope", "character:q=5", "mobius:3"):
        with pytest.raises(DomainError):
            parse_descriptor(bad)
