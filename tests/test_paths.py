import random
from fractions import Fraction as F

import pytest

from shiftgeo.metrics import density_estimate
from shiftgeo.paths import (PathSource, block_bounds, block_path_prefix,
                            block_path_source, block_path_window,
                            dyadic_digits, embed_point, intersperse,
                            intersperse_path_prefix, intersperse_path_source,
                            intersperse_path_window, sample_block_path,
                            squash)


def test_dyadic_digits():
    assert dyadic_digits(F(1, 2), 6) == "100000"   # terminating expansion
    assert dyadic_digits(F(1, 3), 6) == "010101"
    assert dyadic_digits(F(0), 4) == "0000"
    with pytest.raises(ValueError):
        dyadic_digits(F(1), 3)


def test_intersperse():
    assert intersperse("****", "0*0*") == "0*0*"
    assert intersperse("0*0*0*0*", "*1*1") == "0*010*01"
    assert intersperse("01", "") == "01"
    with pytest.raises(ValueError):
        intersperse("***", "01")


def test_intersperse_path_endpoints():
    assert intersperse_path_prefix(F(0), 6) == "000000"
    assert intersperse_path_prefix(F(1), 4) == "1111"
    # brute iteration gives the alternating word at one half
    assert intersperse_path_prefix(F(1, 2), 8) == "01010101"


def test_intersperse_path_prefix_stability():
    rng = random.Random(1)
    for _ in range(20):
        r = F(rng.randint(0, 64), 64)
        a = intersperse_path_prefix(r, 20)
        b = intersperse_path_prefix(r, 50)
        assert b.startswith(a)


def test_block_bounds():
    assert [block_bounds(i) for i in (0, 1, 2, 3, 6, 7)] == \
        [(0, 1), (1, 3), (1, 3), (3, 7), (3, 7), (7, 15)]


def test_block_path_examples():
    assert block_path_prefix(F(1), 6) == "000000"
    assert block_path_prefix(F(0), 6) == "111111"
    # the block [3, 7) has length 4 and gets floor(4/2) zeros then ones
    assert block_path_prefix(F(1, 2), 7)[3:7] == "0011"
    assert block_path_window(F(1), 3) == "0000000"
    assert block_path_window(F(0), 3) == "1111111"


def test_block_path_block_exactness():
    rng = random.Random(2)
    for _ in range(20):
        r = F(rng.randint(0, 31), 31)
        n = 64
        u = block_path_prefix(r, n)
        i = 0
        while True:
            a, b = block_bounds(i)
            if b > n:
                break
            z = int(r * (b - a))
            assert u[a:b] == "0" * z + "1" * (b - a - z)
            i = b


def test_near_isometry_spot():
    for r, s in ((F(1, 3), F(2, 3)), (F(1, 5), F(4, 7)), (F(0), F(1))):
        est = density_estimate(block_path_source(r), block_path_source(s),
                               2 ** 12)
        assert abs(est - abs(r - s)) <= F(1, 50)


def test_intersperse_modulus_spot():
    # parameters sharing k leading digits stay 2^-k close in density
    for r, s, k in ((F(5, 16), F(6, 16), 2), (F(9, 32), F(10, 32), 3)):
        assert dyadic_digits(r, k) == dyadic_digits(s, k)
        est = density_estimate(intersperse_path_source(r),
                               intersperse_path_source(s), 2 ** 12)
        assert est <= F(1, 2 ** k) + F(64, 2 ** 12)


def test_path_window_reflection():
    w = intersperse_path_window(F(1, 2), 4)
    assert len(w) == 9
    u = intersperse_path_prefix(F(1, 2), 5)
    assert w == u[0:4][::-1] + u  # T_{-1-i} = U_i


def test_squash():
    assert squash(F(0)) == F(1, 2)
    assert 0 < squash(F(-100)) < squash(F(0)) < squash(F(100)) < 1


def test_embed_point():
    w = embed_point([F(0)], 16)
    assert embed_point([F(0)], 8) == w[:8]   # prefix stability
    assert w[0] == "0"
    # odd positions carry the coordinate fill, doubled evens are reserved
    assert all(w[i] == "0" for i in (2, 4, 6, 8) if i < len(w))
    with pytest.warns(UserWarning):
        embed_point([F(1), F(2), F(3), F(4), F(5), F(6)], 16)


def test_embed_point_injectivity():
    rng = random.Random(8)
    N = 2 ** 14
    for _ in range(20):
        d = rng.randint(1, 3)
        v1 = [F(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(d)]
        v2 = list(v1)
        v2[rng.randrange(d)] += F(1, rng.randint(1, 5))
        a = embed_point(v1, N)
        b = embed_point(v2, N)
        assert sum(x != y for x, y in zip(a, b)) > 0


def test_sample_block_path():
    assert sample_block_path(7, 8) == sample_block_path(7, 8)
    assert sample_block_path(7, 8) != sample_block_path(8, 8)
    n = 2 ** 8
    dens = [sample_block_path(seed, n).count("0") / (2 * n + 1)
            for seed in range(200)]
    assert abs(sum(dens) / len(dens) - 0.5) < 0.05


def test_path_source_window():
    src = PathSource(lambda n: "01" * ((n + 1) // 2))
    assert src.window(-3, 3) == "0100101"[:7]
    assert src.window(0, 3) == "0101"
    assert src.window(-2, -1) == "10"


@pytest.mark.parametrize("prefix", [
    lambda n: block_path_prefix(F(1, 3), n),
    lambda n: intersperse_path_prefix(F(1, 3), n),
    lambda n: embed_point([F(1, 2)], n)])
def test_prefixes_reject_negative_length(prefix):
    assert prefix(0) == ""
    for n in (-1, -5):
        with pytest.raises(ValueError,
                           match=f"prefix length must be non-negative, "
                                 f"got {n}"):
            prefix(n)
