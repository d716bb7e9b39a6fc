import itertools
import random
from fractions import Fraction as F
from math import comb

import pytest

from shiftgeo.configs import BINARY
from shiftgeo import measures, shifts
from shiftgeo.errors import CapError, EmptyShiftError, PreconditionError
from shiftgeo.measures import (bernoulli_prefix, binomial_growth_threshold,
                               cylinder, cylinder_decay_bound,
                               hamming_ball_count, parry_measure,
                               verify_binomial_bound)
from shiftgeo.shifts import (ShiftPresentation, full_shift, golden_mean,
                             even_shift, language)
from oracle_utils import binomial_growth_threshold_oracle

PHI = (1 + 5 ** 0.5) / 2


def test_parry_full_shift():
    mu = parry_measure(full_shift(BINARY))
    assert abs(mu.eigenvalue - 2.0) < 1e-9
    assert all(abs(p - 0.5) < 1e-12 for p in mu.edge_prob.values())
    assert abs(cylinder(mu, "010") - 0.125) < 1e-12


def test_parry_golden():
    mu = parry_measure(golden_mean())
    assert abs(mu.eigenvalue - PHI) < 1e-9
    assert abs(cylinder(mu, "0") + cylinder(mu, "1") - 1.0) < 1e-12
    assert max(abs(v - 1.0) for v in mu.row_sums().values()) <= 1e-12
    assert mu.stationarity_residual() <= 1e-12
    # independent matrix-vector recheck of stationarity
    acc = {s: 0.0 for s in mu.cover.states}
    for (src, dst, _a), prob in mu.edge_prob.items():
        acc[dst] += mu.stationary[src] * prob
    assert max(abs(acc[s] - mu.stationary[s])
               for s in mu.cover.states) <= 1e-12


def test_parry_single_cycle():
    orbit = ShiftPresentation(BINARY, ["a", "b"],
                              [("a", "b", "0"), ("b", "a", "1")])
    mu = parry_measure(orbit)
    assert abs(mu.eigenvalue - 1.0) < 1e-9
    assert all(abs(p - 1.0) < 1e-12 for p in mu.edge_prob.values())


def test_parry_reducible_rejected():
    reducible = ShiftPresentation(
        BINARY, ["a", "b"],
        [("a", "a", "0"), ("a", "b", "1"), ("b", "b", "1")])
    with pytest.raises(PreconditionError):
        parry_measure(reducible)


def test_parry_builds_cover_once(monkeypatch):
    calls = []
    real = shifts.shannon_cover
    for module in (shifts, measures):
        monkeypatch.setattr(module, "shannon_cover",
                            lambda X: calls.append(X) or real(X))
    parry_measure(golden_mean())
    assert len(calls) == 1
    empty = ShiftPresentation(BINARY, ["a"], [])
    with pytest.raises(PreconditionError,
                       match="presentation is reducible") as info:
        parry_measure(empty)
    assert not isinstance(info.value, EmptyShiftError)
    assert len(calls) == 1


def test_cylinder_additivity():
    rng = random.Random(31)
    for X in (full_shift(BINARY), golden_mean(), even_shift()):
        mu = parry_measure(X)
        assert abs(cylinder(mu, "") - 1.0) < 1e-12
        words = language(X, 6)
        for w in rng.sample(words, min(20, len(words))):
            total = sum(cylinder(mu, w + a) for a in "01")
            assert abs(total - cylinder(mu, w)) < 1e-12
        assert cylinder(mu, "11" * 3) in (0.0,) if X is golden_mean() \
            else True


def test_decay_certificates():
    mu = parry_measure(full_shift(BINARY))
    cert = cylinder_decay_bound(mu, 12)
    assert (cert.gamma, cert.t) == (F(1, 2), 1)
    mug = parry_measure(golden_mean())
    certg = cylinder_decay_bound(mug, 12)
    assert certg.t == 2
    assert abs(float(certg.gamma) - 1 / PHI) < 1e-9
    # independent exhaustive re-verification
    g = float(certg.gamma)
    for n in (1, 2, 3):
        for w in language(golden_mean(), certg.t * n):
            assert cylinder(mug, w) <= g ** n * (1 + 1e-9)


def test_decay_degenerate():
    orbit = ShiftPresentation(BINARY, ["a", "b"],
                              [("a", "b", "0"), ("b", "a", "1")])
    with pytest.raises(PreconditionError):
        cylinder_decay_bound(parry_measure(orbit), 8)


@pytest.mark.parametrize("L", [0, -1])
def test_decay_rejects_non_positive_length(L):
    with pytest.raises(PreconditionError,
                       match="length bound must be positive"):
        cylinder_decay_bound(parry_measure(golden_mean()), L)


def test_binomial_bound_examples():
    assert verify_binomial_bound(1, 2, 1)
    assert verify_binomial_bound(5, 3, 1)
    with pytest.raises(ValueError):
        verify_binomial_bound(1, 2, 2)
    with pytest.raises(ValueError):
        verify_binomial_bound(0, 2, 1)


def test_binomial_bound_spot_grid():
    for n in (1, 3, 7, 12):
        for m in (2, 4, 6):
            for p in range(1, m):
                assert verify_binomial_bound(n, m, p)


def test_growth_threshold():
    m, n0 = binomial_growth_threshold(2, 1)
    assert m <= 8
    # exact verification on the stated range
    for n in range(n0, 8 * n0 + 1):
        if n % m == 0:
            assert comb(n, n // m) <= 2 ** n
    m2, _ = binomial_growth_threshold(2, 2)
    assert m2 <= m
    grid = [F(1, 2), F(1), F(3, 2), F(2)]
    ms = [binomial_growth_threshold(2, a)[0] for a in grid]
    assert ms == sorted(ms, reverse=True)
    with pytest.raises(ValueError):
        binomial_growth_threshold(1, 1)


@pytest.mark.parametrize("k, a, want", [
    (2, 1, (7, 7)), (2, 2, (3, 3)), (2, F(1, 10), (127, 127)),
    (2, F(1, 40), (647, 647)), (2, F(3, 40), (179, 179))])
def test_growth_threshold_pins(k, a, want):
    assert binomial_growth_threshold(k, a) == want


def test_growth_threshold_prescreen_keeps_the_exact_least_block_count():
    """Every block count the float prescreen skips fails the exact test:
    the least m agrees with the exact test of every m <= 256."""
    for k, a in itertools.product((2, 3, F(3, 2), 5),
                                  (F(n, d) for d in range(1, 13)
                                   for n in range(1, 2 * d + 1))):
        m = binomial_growth_threshold_oracle(k, a)
        if m is not None:
            assert binomial_growth_threshold(k, a)[0] == m, (k, a)


def test_growth_threshold_beyond_the_float_range():
    """k^(2a/3) past the largest float screens out no block count, and a
    k past it is read through its logarithm: no OverflowError."""
    assert binomial_growth_threshold(2, 2000) == (2, 2)
    assert binomial_growth_threshold(10 ** 400, 1) == (2, 2)
    assert binomial_growth_threshold(10 ** 400, F(1, 1000)) == (5, 5)


def test_growth_threshold_caps_the_exact_powers(monkeypatch):
    """Denominators of a that need exact powers over GROWTH_BITS_CAP bits
    stop at once, and say which block counts were ruled out."""
    with pytest.raises(CapError, match="no block count m < 23990 meets"):
        binomial_growth_threshold(2, F(1, 1000))
    with pytest.raises(CapError, match="no block count m < 1844 meets"):
        binomial_growth_threshold(2, F(1, 100))
    assert binomial_growth_threshold(2, F(1, 80)) == (1432, 1432)
    # the second stage: the exact test of m = 7 raises powers of about 72
    # bits and passes; then 2^56 is estimated at 112 bits
    monkeypatch.setattr(measures, "GROWTH_BITS_CAP", 100)
    with pytest.raises(CapError, match="m = 7, no start n0 < 7 verified, "
                       "and the bound holds at the multiples of m from 7 "
                       "below 56"):
        binomial_growth_threshold(2, 1)


def test_bernoulli_prefix():
    w1 = bernoulli_prefix(BINARY, 123, 500)
    assert w1 == bernoulli_prefix(BINARY, 123, 500)
    assert w1 != bernoulli_prefix(BINARY, 124, 500)
    N = 100_000
    w = bernoulli_prefix(BINARY, 0, N)
    for length in (1, 2, 3):
        counts = {"".join(t): 0
                  for t in itertools.product("01", repeat=length)}
        for i in range(N - length + 1):
            counts[w[i:i + length]] += 1
        total = N - length + 1
        assert sum(counts.values()) == total
        for v in counts.values():
            assert abs(v / total - 2 ** -length) < 0.02


def test_hamming_ball_count_examples():
    count, bound, ok = hamming_ball_count("0", 4, 0)
    assert (count, ok) == (1, True)
    count, bound, ok = hamming_ball_count("0", 4, 1)
    assert count == 16 and ok
    count, bound, ok = hamming_ball_count("01", 8, F(1, 4))
    assert ok
    # independent enumeration
    centers = {"01010101", "10101010"}
    brute = sum(
        1 for t in itertools.product("01", repeat=8)
        if any(sum(a != b for a, b in zip(t, c)) <= 2 for c in centers))
    assert count == brute
    with pytest.raises(CapError):
        hamming_ball_count("0", 30, F(1, 2))
    with pytest.raises(PreconditionError):
        hamming_ball_count("", 3, F(1, 4))
    # ternary alphabet takes the generic enumeration path
    count, bound, ok = hamming_ball_count("012", 3, F(1, 3))
    brute = sum(
        1 for t in itertools.product("012", repeat=3)
        if any(sum(a != b for a, b in zip(t, c)) <= 1
               for c in ("012", "120", "201")))
    assert count == brute and ok


@pytest.mark.parametrize("w, pad", [("2", "0"), ("22", "0"), ("a", "0"),
                                    ("0", "1"), ("11", "0")])
def test_hamming_ball_count_pads_a_one_symbol_word(w, pad):
    """A word of one symbol is counted over that symbol and the least of
    0, 1 that it lacks; words over 0/1 keep their counts."""
    for n, eps in ((3, F(1, 4)), (4, F(1, 2)), (5, F(1)), (0, F(0))):
        count, bound, ok = hamming_ball_count(w, n, eps)
        radius = int(n * eps)
        brute = sum(1 for t in itertools.product(w[0] + pad, repeat=n)
                    if t.count(pad) <= radius)
        assert count == brute
