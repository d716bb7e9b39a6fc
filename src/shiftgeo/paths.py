"""Explicit path constructions between configurations of the binary full
shift, and the finite-dimensional Euclidean embedding built from them.

Two one-parameter families are provided, each mapping a rational r in [0, 1]
to a one-sided binary sequence (returned as finite prefixes, or reflected
into two-sided windows):

* the interspersing construction: starting from an all-star sequence, the
  binary digits of r choose at each round one of the two half-fills
  (0*)^inf or (*1)^inf, whose values land on the remaining starred cells;
  continuous in the uniform (all window positions) density sense;

* the block construction: the naturals are split into the dyadic intervals
  [2^(j-1)-1, 2^j-1), and each block of length L is filled with
  0^floor(r*L) followed by ones; continuous in the centered density sense
  and nearly isometric: window densities between parameters r and s
  approach |r - s|.

Everything is pure and deterministic; randomness is behind explicit seeds.
"""

from __future__ import annotations

import random
import warnings
from fractions import Fraction

STAR = "*"


def dyadic_digits(r: Fraction, k: int) -> str:
    """First k binary digits of r in [0, 1), terminating expansion.

    The expansion produced never ends in an all-ones tail: dyadic rationals
    get their finite expansion padded with zeros.
    """
    r = Fraction(r)
    if not 0 <= r < 1:
        raise ValueError("need 0 <= r < 1")
    out = []
    for i in range(k):
        r *= 2
        bit = int(r)
        out.append("01"[bit])
        r -= bit
    return "".join(out)


def intersperse(x: str, y: str) -> str:
    """Fill the stars of x, in order, with the symbols of y.

    The j-th star of x receives y[j]; other cells of x are kept.  Raises if
    y runs out before the last star of x.
    """
    out = []
    j = 0
    for c in x:
        if c == STAR:
            if j >= len(y):
                raise ValueError("fill sequence exhausted before the last star")
            out.append(y[j])
            j += 1
        else:
            out.append(c)
    return "".join(out)


def _half_fill(bit: str, k: int) -> str:
    """Prefix of (0*)^inf or (*1)^inf of length k."""
    if bit == "0":
        return "".join("0" if j % 2 == 0 else STAR for j in range(k))
    return "".join(STAR if j % 2 == 0 else "1" for j in range(k))


def intersperse_path_prefix(r: Fraction, n: int) -> str:
    """First n cells of the interspersing path at parameter r.

    Digits are consumed until the window is star-free.  Each round halves
    the star count except that a lone final star survives 1-digits, so the
    round count is bounded by log2(n) plus the gap to the next 0-digit,
    which the non-terminating-in-ones expansion keeps below the denominator.
    """
    r = Fraction(r)
    if not 0 <= r <= 1:
        raise ValueError("need 0 <= r <= 1")
    if n < 0:
        raise ValueError(f"prefix length must be non-negative, got {n}")
    if n == 0:
        return ""
    if r == 1:
        return "1" * n
    cap = n.bit_length() + r.denominator + 8
    x = STAR * n
    rest = r
    for _ in range(cap):
        if STAR not in x:
            return x
        rest *= 2
        bit = int(rest)
        rest -= bit
        x = intersperse(x, _half_fill("01"[bit], x.count(STAR)))
    raise AssertionError("interspersing did not converge within the cap")


def block_bounds(i: int) -> tuple[int, int]:
    """The dyadic block [2^(j-1)-1, 2^j-1) containing position i >= 0."""
    j = (i + 1).bit_length()
    return (1 << (j - 1)) - 1, (1 << j) - 1


def block_path_prefix(r: Fraction, n: int) -> str:
    """First n cells of the block-fill path at parameter r.

    Each dyadic block of length L holds floor(r*L) zeros then ones, so the
    zero density of long prefixes tends to r.
    """
    r = Fraction(r)
    if not 0 <= r <= 1:
        raise ValueError("need 0 <= r <= 1")
    if n < 0:
        raise ValueError(f"prefix length must be non-negative, got {n}")
    out = []
    i = 0
    while i < n:
        a, b = block_bounds(i)
        zeros = int(r * (b - a))
        block = "0" * zeros + "1" * (b - a - zeros)
        take = min(b, n) - i
        out.append(block[i - a:i - a + take])
        i += take
    return "".join(out)


class PathSource:
    """Two-sided window source built from a one-sided prefix function by the
    reflection t(i) = u(i) for i >= 0 and t(-1-i) = u(i)."""

    def __init__(self, prefix_fn):
        self._fn = prefix_fn

    def window(self, a: int, b: int) -> str:
        if a > b:
            raise ValueError(f"empty window [{a}, {b}]")
        need = max(b + 1, -a)
        u = self._fn(max(need, 0))
        return (u[max(-1 - b, 0):max(-a, 0)][::-1]
                + u[max(a, 0):max(b + 1, 0)])


def intersperse_path_source(r: Fraction) -> PathSource:
    return PathSource(lambda n: intersperse_path_prefix(r, n))


def block_path_source(r: Fraction) -> PathSource:
    return PathSource(lambda n: block_path_prefix(r, n))


def intersperse_path_window(r: Fraction, n: int) -> str:
    """Window [-n, n] of the reflected interspersing path."""
    return intersperse_path_source(r).window(-n, n)


def block_path_window(r: Fraction, n: int) -> str:
    """Window [-n, n] of the reflected block-fill path."""
    return block_path_source(r).window(-n, n)


# ---------------------------------------------------------------------------
# Euclidean embedding


def squash(t: Fraction) -> Fraction:
    """Order-preserving injection of the rationals into (0, 1)."""
    t = Fraction(t)
    return (1 + t / (1 + abs(t))) / 2


def embed_point(v, n: int) -> str:
    """First n cells of the embedding of the rational vector v.

    Coordinate k of v is squashed into (0, 1) and written along the
    positions whose binary index has exactly k trailing zeros (coordinate 0
    on the odd positions, coordinate 1 on positions 2 mod 4, and so on).
    Position 0 and the classes beyond the dimension are fixed to '0'.
    """
    v = [Fraction(t) for t in v]
    if not v:
        raise ValueError("need at least one coordinate")
    if n < 0:
        raise ValueError(f"prefix length must be non-negative, got {n}")
    d = len(v)
    if n > 0 and (1 << (d - 1)) > n:
        warnings.warn(f"window of length {n} contains no positions of "
                      f"coordinate {d - 1}", stacklevel=2)
    fills = []
    for k in range(d):
        need = (n >> (k + 1)) + 1
        fills.append(intersperse_path_prefix(squash(v[k]), need))
    out = []
    for i in range(n):
        if i == 0:
            out.append("0")
            continue
        k = (i & -i).bit_length() - 1  # trailing zeros
        if k >= d:
            out.append("0")
        else:
            out.append(fills[k][(i >> k) >> 1])
    return "".join(out)


# ---------------------------------------------------------------------------
# measure transport sampler


def sample_block_path(seed: int, n: int) -> str:
    """Window [-n, n] of the block-fill path at a seeded uniform parameter.

    The parameter is the 53-bit dyadic rational produced by the Mersenne
    Twister seeded with ``seed``, so output is reproducible bit for bit.
    """
    r = Fraction(random.Random(seed).random())
    return block_path_window(r, n)
