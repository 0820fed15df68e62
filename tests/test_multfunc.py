import math
import random

import numpy as np
import pytest

from progvar import (CapacityError, DomainError, MultiplicativeFunction, builtin, characters,
                     evaluate_range, parse_descriptor, restrict_smooth)


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


def test_evaluate_range_leaves_prime_values_alone(table):
    # mobius from prime values a caller keeps: a read-only broadcast and a
    # view of a stored buffer, which evaluate_range must not write into
    store = np.full(5000, -1, dtype=np.complex128)
    def mu_ro(ps, k):
        return np.broadcast_to(np.complex128(-1 if k == 1 else 0), ps.shape)

    def mu_view(ps, k):
        return store[:len(ps)] if k == 1 else np.zeros(len(ps))

    fs = [MultiplicativeFunction("mu_ro", mu_ro), MultiplicativeFunction("mu_view", mu_view)]
    mu = evaluate_range(builtin("mobius"), 1, 5000, table)
    for f in fs:
        assert np.array_equal(evaluate_range(f, 1, 5000, table), mu), f.name
    assert np.all(store == -1)


def test_evaluate_range_beyond_coverage_fails_before_allocating(table):
    # [1, 1e15] would need 14 PiB; coverage is checked before any array exists
    with pytest.raises(CapacityError):
        evaluate_range(builtin("mobius"), 1, 10**15, table)


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


def frac_twist():
    """No builtin: one rule, f(p^k) = e(k {p sqrt 2})."""
    return MultiplicativeFunction(
        "frac_twist", lambda ps, k: np.exp(2j * np.pi * k * np.modf(ps * math.sqrt(2))[0]),
        real=False)


@pytest.mark.parametrize("lo,hi", [(1, 10_000), (10**9, 10**9 + 10_000)])
def test_user_rule_evaluate_range_matches_pointwise(table, lo, hi):
    f = frac_twist()
    vals = evaluate_range(f, lo, hi, table)
    pointwise = np.array([f(n, table) for n in range(lo, hi + 1)])
    assert np.abs(vals - pointwise).max() < 1e-12


def test_user_rule_at_primes_matches_pointwise(table):
    f = frac_twist()
    primes = table.primes_in(2, 10_000)
    assert f.at_primes(primes).tolist() == [f(int(p), table) for p in primes]


def test_value_does_not_depend_on_window(table):
    # 97 is above sqrt(100) and below sqrt(10^4): a tail prime in the first
    # window and a sieving prime in the second
    for f in pool() + [frac_twist()]:
        small = evaluate_range(f, 1, 100, table)[96]
        large = evaluate_range(f, 1, 10**4, table)[96]
        assert small == large, f.name


def test_rule_of_wrong_shape_raises(table):
    for rule in (lambda ps, k: 1.0, lambda ps, k: np.ones(len(ps) + 1),
                 lambda ps, k: np.ones((len(ps), 2))):
        f = MultiplicativeFunction("bad", rule)
        with pytest.raises(DomainError):
            f.at_primes(table.primes_in(2, 100))
        with pytest.raises(DomainError):
            evaluate_range(f, 1, 1000, table)
        with pytest.raises(DomainError):
            f(30, table)
