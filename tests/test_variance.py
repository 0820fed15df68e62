import importlib
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from progvar import (DomainError, builtin, characters, classify, delta_typicality,
                     deviation, euler_phi, evaluate_range, hybrid_variance,
                     is_y_typical, parse_descriptor, parseval_check, sieve, variance)

# the package exports a function named variance, so fetch the module itself
variance_mod = importlib.import_module("progvar.variance")


def brute_deviation(f, q, x, chi, table):
    """Exhaustive per-class oracle with plain loops."""
    phi = euler_phi(q, table)
    twisted = sum(complex(f(n, table)) * complex(chi(n)).conjugate()
                  for n in range(1, int(x) + 1))
    out = {}
    classes = [a for a in range(1, q + 1) if math.gcd(a, q) == 1] if q > 1 else [0]
    for a in classes:
        s = sum(complex(f(n, table)) for n in range(1, int(x) + 1) if n % q == a % q)
        out[a % q] = s - complex(chi(a)) / phi * twisted
    return out


def test_deviation_planted_character(table):
    chi = characters(3)[1]
    f = builtin("character", chi=chi)
    devs, mx = deviation(f, 3, 10, 1, table=table)
    assert abs(abs(devs[1]) - 0.5) < 1e-12
    assert abs(abs(devs[2]) - 0.5) < 1e-12
    assert abs(mx - 0.5) < 1e-12


def test_deviation_constant_balances(table):
    devs, mx = deviation(builtin("one"), 3, 6, 0, table=table)
    assert mx < 1e-12


def test_deviation_mobius_example(table):
    devs, mx = deviation(builtin("mobius"), 3, 10, 0, table=table)
    assert abs(mx - 1.5) < 1e-12
    oracle = brute_deviation(builtin("mobius"), 3, 10, characters(3)[0], table)
    for a, z in devs.items():
        assert abs(z - oracle[a]) < 1e-12


def test_variance_examples(table):
    mob = builtin("mobius")
    rep = variance(mob, 3, 10, 0, table=table)
    assert abs(rep.variance - 4.5) < 1e-12
    rep2 = variance(mob, 3, 10, 1, table=table)
    assert abs(rep2.variance - 0.5) < 1e-12
    zero = builtin("smooth_indicator", y=2)  # vanishes off powers of 2

    # fully zero function: restrict to nothing
    from progvar import restrict_smooth

    rep3 = variance(restrict_smooth(mob, 2), 5, 2, 0, table=table)
    assert rep3.variance >= 0


def test_variance_report_consistency(table):
    rep = variance(builtin("mobius"), 7, 5000, 0, table=table)
    assert len(rep.deviations) == euler_phi(7)
    recomputed = math.fsum(abs(z) ** 2 for z in rep.deviations.values())
    assert abs(rep.variance - recomputed) <= 1e-9 * max(1.0, rep.variance)
    assert abs(rep.normalized - rep.variance / (6 * (5000 / 7) ** 2)) < 1e-15


def test_variance_json_roundtrip(table):
    rep = variance(builtin("mobius"), 5, 100, 1, table=table)
    obj = json.loads(rep.to_json())
    assert {k: obj[k] for k in ("q", "x", "f", "chi1_index", "variance", "normalized",
                                "max_deviation", "chi1_mode")} == {
        "q": rep.q, "x": rep.x, "f": rep.f, "chi1_index": rep.chi1_index,
        "variance": rep.variance, "normalized": rep.normalized,
        "max_deviation": rep.max_deviation, "chi1_mode": rep.chi1_mode}
    assert {int(a): complex(re, im) for a, (re, im) in obj["deviations"].items()} \
        == rep.deviations
    assert list(obj["deviations"]) == [str(a) for a in sorted(rep.deviations)]


def test_parseval_examples(table):
    one, mob = builtin("one"), builtin("mobius")
    lhs, rhs = parseval_check(one, 3, 5, [0], table=table)
    assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12
    lhs, rhs = parseval_check(mob, 3, 10, [1], table=table)
    assert abs(lhs - 0.5) < 1e-12 and abs(rhs - 0.5) < 1e-12
    # all characters removed: lhs empty sum, rhs the full main-term residual
    lhs, rhs = parseval_check(mob, 5, 50, [0, 1, 2, 3], table=table)
    assert lhs == 0.0
    assert abs(rhs) < 1e-18


def test_parseval_randomized(table):
    rng = random.Random(6)
    chis7 = characters(7)
    fs = [builtin("one"), builtin("mobius"), builtin("liouville"),
          builtin("mobius_squared"), builtin("smooth_indicator", y=20),
          builtin("character", chi=chis7[3]), builtin("nit_twist", t0=0.4)]
    for _ in range(40):
        f = rng.choice(fs)
        q = rng.randrange(1, 51)
        x = rng.randrange(10, 10_001)
        phi = euler_phi(q, table)
        xi = set(rng.sample(range(phi), rng.randrange(0, min(phi, 4) + 1)))
        lhs, rhs = parseval_check(f, q, x, xi, table=table)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs)


@pytest.mark.parametrize("desc", ["mobius", "liouville", "character:q=101,idx=7",
                                  "nit_twist:0.7"])
@pytest.mark.parametrize("q", [1, 2, 12, 101])
@pytest.mark.parametrize("x", [1000, 5000.5])
def test_variance_is_parseval_rhs_bit_for_bit(table, desc, q, x):
    # both take the main term from the same projection of the class sums
    f = parse_descriptor(desc)
    for idx in {0, euler_phi(q) - 1}:
        rep = variance(f, q, x, idx, table=table)
        assert rep.variance == parseval_check(f, q, x, [idx], table=table)[1], idx


def test_main_term_optimality_via_parseval(table):
    # dropping the largest |twisted sum| minimizes the single-character variance
    mob = builtin("mobius")
    for q in range(1, 31):
        phi = euler_phi(q, table)
        singles = []
        for idx in range(phi):
            lhs, _ = parseval_check(mob, q, 3000, [idx], table=table)
            singles.append(lhs)
        best_idx = int(np.argmin(singles))
        rep_best = variance(mob, q, 3000, best_idx, table=table)
        for idx in range(phi):
            rep = variance(mob, q, 3000, idx, table=table)
            assert rep_best.variance <= rep.variance + 1e-9


def test_hybrid_window_counts(table):
    v = hybrid_variance(builtin("one"), 1, 100, 10, 0, sample_step=1, table=table)
    assert v <= 0.05


def test_hybrid_vanishing_function(table):
    # rule 0 at every prime power: only f(1) = 1 survives, and windows
    # beyond X never contain 1, so the statistic is exactly 0
    from progvar import MultiplicativeFunction

    zero = MultiplicativeFunction("vanishing", lambda ps, k: np.zeros(len(ps)))
    assert hybrid_variance(zero, 1, 200, 20, 0, sample_step=1, table=table) == 0.0


def test_hybrid_matches_step1_oracle(table):
    mob = builtin("mobius")
    X, h = 10_000, 100
    exact = hybrid_variance(mob, 1, X, h, 0, sample_step=1, table=table)
    for step in (2, 8, 16):
        coarse = hybrid_variance(mob, 1, X, h, 0, sample_step=step, table=table)
        assert abs(coarse - exact) <= 0.02 * exact


def test_hybrid_oracle_double_loop(table):
    # literal double loop with trial-division mu, q = 1
    def mu(n):
        out, m, p = 1, n, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        if m > 1:
            out = -out
        return out

    X, h = 300, 30
    mu_vals = {n: mu(n) for n in range(1, 2 * X + h + 1)}
    mean = sum(mu_vals[n] for n in range(X + 1, 2 * X + 1)) * h / X
    total = 0.0
    for x in range(X, 2 * X):
        w = sum(mu_vals[n] for n in range(x + 1, x + h + 1))
        total += (w - mean) ** 2
    oracle = total / (1 * X * h**2)
    got = hybrid_variance(builtin("mobius"), 1, X, h, 0, sample_step=1, table=table)
    assert abs(got - oracle) < 1e-12


def whole_range_class_sums(f, q, lo, hi, table):
    """Oracle: all of [lo, hi] evaluated at once, one bincount per part."""
    vals = evaluate_range(f, lo, hi, table)
    res = np.arange(lo, hi + 1) % q
    return (np.bincount(res, weights=vals.real, minlength=q)
            + 1j * np.bincount(res, weights=vals.imag, minlength=q))


@pytest.mark.parametrize("lo", [1, 1000])
def test_class_sums_in_blocks_match_whole_range(table, monkeypatch, lo):
    monkeypatch.setattr(sieve, "BLOCK", 97)
    qs = [1, 2, 12, 97, 101, 250]  # 250 is wider than a block
    hi = lo + 3000  # 31 blocks, the last one partial
    cases = ((builtin("mobius"), 0.0), (parse_descriptor("character:q=101,idx=7"), 1e-12))
    for f, tol in cases:
        got = variance_mod._class_sums(f, qs, lo, hi, table)
        for q, B in zip(qs, got):
            oracle = whole_range_class_sums(f, q, lo, hi, table)
            assert B.shape == (q,)
            assert np.abs(B - oracle).max() <= tol, (f.name, q, lo)


def test_class_sums_memory_is_flat(table):
    # the whole-range path holds about 53 bytes per n here, over 150 MB
    tracemalloc.start()
    try:
        variance_mod._class_sums(builtin("mobius"), [101, 103], 1, 4_000_000, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak / 2**20


def hybrid_oracle(f, q, X, h, chi, step, table):
    """The sampled statistic by its definition, point by point and class by class."""
    phi = euler_phi(q, table)
    vals = [0.0] + [complex(f(n, table)).real for n in range(1, math.floor(2 * X + h) + 1)]
    twisted = sum(vals[n] * complex(chi(n)).conjugate()
                  for n in range(math.floor(X) + 1, math.floor(2 * X) + 1))
    classes = [a for a in range(q) if math.gcd(a, q) == 1]
    total, x = 0.0, float(X)
    while x < 2 * X:
        for a in classes:
            window = sum(vals[n] for n in range(math.floor(x) + 1, math.floor(x + h) + 1)
                         if n % q == a)
            main = complex(chi(a)) / phi * (h / X) * twisted
            total += min(step, 2 * X - x) * abs(window - main) ** 2
        x += step
    return total / (phi * X * (h / q) ** 2)


@pytest.mark.parametrize("block", [97, 1 << 20])
@pytest.mark.parametrize("q,X,h,step", [(1, 400, 30, 1), (5, 400.5, 50, 3),
                                        (7, 350, 70, 2), (1, 1234.567, 30, 3),
                                        (3, 2047.7, 40, 1)])  # crosses the 2048 binade
def test_hybrid_in_chunks_matches_oracle(table, monkeypatch, block, q, X, h, step):
    monkeypatch.setattr(sieve, "BLOCK", block)
    mob = builtin("mobius")
    # a real non-principal chi1 where there is one
    idx = next((c.index for c in characters(q)
                if classify(c).real and not classify(c).principal), 0)
    got = hybrid_variance(mob, q, X, h, idx, sample_step=step, table=table)
    oracle = hybrid_oracle(mob, q, X, h, characters(q)[idx], step, table)
    assert abs(got - oracle) <= 1e-12 * oracle, (got, oracle)


def test_hybrid_memory_is_flat_in_X(table):
    # a float per sample point would add about 26 bytes per point, 75 MiB
    # more at X = 4e6 than at X = 1e6; a first small call keeps tables built
    # once per process out of the peaks
    hybrid_variance(builtin("mobius"), 7, 1e4, 1000, "principal", table=table)
    peaks = []
    for X in (1e6, 4e6):
        tracemalloc.start()
        try:
            hybrid_variance(builtin("mobius"), 7, X, 1000, "principal", table=table)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 8 * 2**20, [p / 2**20 for p in peaks]


def test_hybrid_preconditions(table):
    mob = builtin("mobius")
    with pytest.raises(DomainError):
        hybrid_variance(mob, 1, 100, 5, 0, table=table)  # h < 10
    with pytest.raises(DomainError):
        hybrid_variance(mob, 9, 200, 40, 0, table=table)  # q > h/10
    chi = characters(5)[1]
    with pytest.raises(DomainError):
        hybrid_variance(builtin("character", chi=chi), 1, 100, 20, 0, table=table)
    for step in (1.5, 0, float("nan")):
        with pytest.raises(DomainError):
            hybrid_variance(mob, 1, 1000, 100, 0, sample_step=step, table=table)


def test_delta_typicality(table):
    assert abs(delta_typicality(6, 2, table) - math.log(2)) < 1e-12
    assert delta_typicality(1, 5, table) == 0.0
    assert delta_typicality(30, 11, table) == 0.0  # Z above the largest prime factor


def brute_delta(q, Z, table):
    qp = [p for p, _ in __import__("progvar").factor(q, table).factors]
    best = 0.0
    y = Z
    while y <= 2 * max(qp, default=2) + 1:
        c = sum(1 for p in qp if y <= p <= 2 * y)
        best = max(best, c * math.log(y) / y)
        y += 0.001
    return best


def test_delta_matches_fine_scan(table):
    for q in (6, 30, 77, 210, 2310):
        exact = delta_typicality(q, 2, table)
        scan = brute_delta(q, 2, table)
        assert exact >= scan - 1e-6
        assert exact - scan < 0.05  # scan resolution misses peaks only slightly


def test_is_y_typical(table):
    assert is_y_typical(1, 2, table)
    assert not is_y_typical(2, 2, table)
    assert is_y_typical(2, 542, table)  # pi(541) = 100


def test_dyadic_density_small_beyond_200_log_q(table):
    # the window density drops below 1/100 once Z >= 200 log q
    rng = random.Random(7)
    qs = [2 * 3 * 5 * 7, 9973] + rng.sample(range(2, 10_000), 200)
    for q in qs:
        Z = max(2.0, 200 * math.log(q))
        assert delta_typicality(q, Z, table) < 0.01


def brute_typical(q, y, table):
    """Oracle: scan every integer z from y up past the largest prime of q."""
    from progvar import factor

    qp = [p for p, _ in factor(q, table).factors]
    top = max(qp, default=2)
    z = int(math.floor(y))
    if z < y:
        z += 1
    checks = [y] + list(range(z, max(z, top) + 2))
    return all(
        sum(1 for p in qp if p <= zz) <= table.prime_count(zz) / 100 for zz in checks
    )


def test_typicality_matches_brute_scan(table):
    rng = random.Random(8)
    cases = [(2, 2), (2, 542), (210, 1069), (210, 2741), (210, 2740), (9973, 542)]
    cases += [(rng.randrange(2, 10_001), rng.choice([2, 300, 542, 1069, 3000]))
              for _ in range(60)]
    for q, y in cases:
        assert is_y_typical(q, y, table) == brute_typical(q, y, table), (q, y)


def test_typicality_threshold_for_many_small_factors(table):
    # 210 = 2*3*5*7 has four prime factors, so typicality needs pi(z) >= 400,
    # i.e. z at least the 400th prime (2741); a prime modulus of similar size
    # only needs pi(z) >= 100 (z >= 541)
    assert not is_y_typical(210, 2740, table)
    assert is_y_typical(210, 2741, table)
    assert is_y_typical(211, 542, table)
    assert not is_y_typical(211, 100, table)
