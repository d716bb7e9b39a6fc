"""Independent brute-force cross-checks of benchmark outputs.

Densities are recounted over explicitly unfolded words, cellular automata
act on explicitly repeated words, and orbit lists are recounted with the
necklace formula. ``make_pins.py`` runs every check once when the pins are
written; ``run.py`` runs them again, outside the timed passes, for any seed
other than the default.

Each check returns a list of failure messages (empty when it holds).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def cyclic_density(u: str, v: str) -> Fraction:
    n = lcm(len(u), len(v))
    mism = sum(u[i % len(u)] != v[i % len(v)] for i in range(n))
    return Fraction(mism, n)


def _unfold(finite: str, period: str, start: int, n: int) -> str:
    """Cells start .. start+n-1 of the one-sided word finite.period^inf."""
    total = start + n
    reps = max(0, total - len(finite)) // len(period) + 1
    return (finite + period * reps)[start:total]


def arm_densities(x, y) -> tuple[Fraction, Fraction]:
    """(left, right) asymptotic mismatch densities of two eventually
    periodic configurations, counted over one unfolded lcm block."""
    out = []
    for side in ("left", "right"):
        if side == "right":
            fx, px = x.right_finite, x.right_period
            fy, py = y.right_finite, y.right_period
        else:  # read leftwards from coordinate -1
            fx, px = x.left_finite[::-1], x.left_period[::-1]
            fy, py = y.left_finite[::-1], y.left_period[::-1]
        start = max(len(fx), len(fy))
        block = lcm(len(px), len(py))
        a = _unfold(fx, px, start, block)
        b = _unfold(fy, py, start, block)
        out.append(Fraction(sum(c != d for c, d in zip(a, b)), block))
    return out[0], out[1]


def apply_cyclic(table: dict, lo: int, hi: int, w: str) -> str:
    p = len(w)
    return "".join(table["".join(w[(i + o) % p] for o in range(lo, hi + 1))]
                   for i in range(p))


def moebius(n: int) -> int:
    result, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            result = -result
        k += 1
    return -result if n > 1 else result


def necklace_count(k: int, n: int) -> int:
    """Primitive necklaces (aperiodic orbits) of length n over k symbols."""
    return sum(moebius(n // d) * k ** d for d in range(1, n + 1)
               if n % d == 0) // n


# ---------------------------------------------------------------------------
# per-operation checks


def _witness(f, x, y, d_in, d_out, what) -> list[str]:
    errs = []
    if not (x.is_periodic and y.is_periodic):
        return [f"{what}: witness is not a periodic pair"]
    if cyclic_density(x.right_period, y.right_period) != d_in:
        errs.append(f"{what}: d_in differs from the unfolded count")
    fx = apply_cyclic(f.table, f.left, f.right, x.right_period)
    fy = apply_cyclic(f.table, f.left, f.right, y.right_period)
    if cyclic_density(fx, fy) != d_out:
        errs.append(f"{what}: d_out differs from the unfolded count")
    return errs


def check_subshift(f, res) -> list[str]:
    errs = []
    for prop, ok in (("contracting", lambda i, o: o > i),
                     ("isometric", lambda i, o: o != i),
                     ("expanding", lambda i, o: o < i)):
        w = getattr(res, prop)
        if w is None:
            continue
        errs += _witness(f, w.x, w.y, w.d_in, w.d_out, prop)
        if not ok(w.d_in, w.d_out):
            errs.append(f"{prop}: witness does not violate the property")
    return errs


def check_classification(f, res) -> list[str]:
    errs = []
    if res.witness is not None:
        x, y, d_in, d_out = res.witness
        errs += _witness(f, x, y, d_in, d_out, "classify")
        if d_out <= d_in:
            errs.append("classify: witness does not expand")
    if res.decomposition is not None:
        off, gmap = res.decomposition
        if any(gmap[pat[off - f.left]] != out
               for pat, out in f.table.items()):
            errs.append("classify: decomposition disagrees with the table")
    return errs


def check_orbit_list(symbols: str, P: int, orbits) -> list[str]:
    errs = []
    for n in range(1, P + 1):
        got = [w for w in orbits if len(w) == n]
        if len(got) != necklace_count(len(symbols), n):
            errs.append(f"period {n}: {len(got)} orbits, necklace formula "
                        f"gives {necklace_count(len(symbols), n)}")
        for w in got:
            rots = [w[i:] + w[:i] for i in range(n)]
            if min(rots) != w or rots.count(w) != 1:
                errs.append(f"{w} is not a Lyndon word")
                break
    if list(orbits) != sorted(orbits, key=lambda w: (len(w), w)):
        errs.append("orbit list is not in (length, lex) order")
    return errs


def check_minimizers(yw: str, distance, minimizers) -> list[str]:
    return [f"minimizer {m!r} is not at the reported distance"
            for m in minimizers
            if cyclic_density(yw, m.right_period) != distance]


def rotation_min(xw: str, orbit_words) -> Fraction:
    return min(cyclic_density(xw, w[i:] + w[:i])
               for w in orbit_words for i in range(len(w)))


def check_uap(X, res) -> list[str]:
    if not res.violation:
        return []
    from shiftgeo import metrics, shifts
    yw = res.witness.right_period
    errs = check_minimizers(yw, res.distance, res.minimizers)
    detail = metrics.distance_to_shift_detail(res.witness, X)
    if detail.right_cycle_len <= 10 and \
            rotation_min(yw, shifts.periodic_orbits(X, 10)) != res.distance:
        errs.append("uap distance differs from the rotation minimum")
    return errs


def check_distance(x, Y, res) -> list[str]:
    from shiftgeo import shifts
    errs = []
    if res.distance != (res.left_mean + res.right_mean) / 2:
        errs.append("distance is not the mean of the arm means")
    word = res.right_cycle_word
    if len(word) != res.right_cycle_len or \
            len(word) % len(x.right_period):
        errs.append("right cycle word has the wrong length")
    elif cyclic_density(x.right_period, word) != res.right_mean:
        errs.append("right mean differs from the unfolded count")
    if x.is_periodic and res.right_cycle_len <= 10 and \
            rotation_min(x.right_period,
                         shifts.periodic_orbits(Y, 10)) != res.distance:
        errs.append("distance differs from the rotation minimum")
    return errs


def check_pair(fn: str, x, y, res) -> list[str]:
    if fn == "d_cantor":
        return [] if res == _cantor(x, y) else ["d_cantor differs"]
    left, right = arm_densities(x, y)
    want = (left + right) / 2 if fn == "d_besicovitch" else max(left, right)
    return [] if res == want else [f"{fn} differs from the unfolded count"]


def _cantor(x, y) -> Fraction:
    span = (max(len(x.left_finite), len(y.left_finite),
                len(x.right_finite), len(y.right_finite))
            + lcm(len(x.left_period), len(y.left_period))
            + lcm(len(x.right_period), len(y.right_period)))
    right_x = _unfold(x.right_finite, x.right_period, 0, span + 1)
    right_y = _unfold(y.right_finite, y.right_period, 0, span + 1)
    left_x = _unfold(x.left_finite[::-1], x.left_period[::-1], 0, span)
    left_y = _unfold(y.left_finite[::-1], y.left_period[::-1], 0, span)
    for d in range(span + 1):
        if right_x[d] != right_y[d] or \
                (d > 0 and left_x[d - 1] != left_y[d - 1]):
            return Fraction(1, 2 ** d)
    return Fraction(0)


def check_cli_dist(x_lit: str, y_lit: str, result) -> list[str]:
    from shiftgeo.configs import BINARY, parse_config
    x, y = parse_config(x_lit, BINARY), parse_config(y_lit, BINARY)
    left, right = arm_densities(x, y)
    want = (left + right) / 2
    got = result["db"]
    if (got["num"], got["den"]) != (want.numerator, want.denominator):
        return ["dist --db differs from the unfolded count"]
    return []

