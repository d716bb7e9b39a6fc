"""Exact pseudometrics on eventually periodic configurations.

The upper-density pseudometric over centered windows (Besicovitch) and its
uniform-over-positions variant (Weyl) have closed forms for eventually
periodic points: with rho_L and rho_R the asymptotic mismatch densities of
the left and right arms, the centered-window limit is (rho_L + rho_R)/2 and
the uniform one is max(rho_L, rho_R).  Both are exact rationals; the test
suite checks the closed forms against large-window estimates.

Mismatches between two periodic words u and v are counted by residue class.
With g = gcd(|u|, |v|), index a of u meets index b of v exactly once per
lcm(|u|, |v|) block when a = b (mod g), and never otherwise (CRT).  So the
block holds lcm - sum_r sum_s A_r[s] B_r[s] mismatches, where A_r[s] and
B_r[s] count the symbol s at the indices = r (mod g) of u and of v: O(|u| +
|v|) work instead of O(lcm).  A block of at most 16 cells per class and
shared symbol is compared cell by cell instead, which is cheaper there.  An
arm beyond the finite parts is a rotation of its period word (reversed for
the left arm), so arm densities use the same count.

Rotating v by k shifts its residue classes by k, so the scans over all
rotations of v need the match count for each class k < g, and these form
one cyclic correlation of the two flattened profiles (Fischer and Paterson
1974).  With N = g |A| counts per profile, u's profile is packed into an
integer with D-bit digits (count j at digit j) and v's profile, doubled and
reversed, into another (count j of the doubled list at digit 2N - 1 - j).
Digit 2N - 1 - k |A| of their product is then the match count of inf(u)
against inf(v[k:] + v[:k]) over one lcm block, for every k < g at once
(Kronecker substitution; Harvey 2009); the other digits are never read.
Every digit of the product is at most |u| |v| / g = lcm, so 2^D > lcm rules
out carries and the digits are exact.

Distance from a configuration to a sofic shift is computed exactly by a
product construction: each arm's cyclic position graph is crossed with the
presentation, mismatches give 0/1 edge costs, Karp's minimum mean cycle is
run per strongly connected component, and the best co-reachable (left cycle,
right cycle) pair wins.  Every edge inside an arm's component goes from
position phase j to phase j + 1 mod p, so the product is phase-layered: the
nodes a walk of k edges can reach share one phase, at most |Q| of them, and
Karp's frontier rows stay that small (time and memory linear in p).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul, ne

from . import _graph
from .configs import Configuration, lcm, periodic_config
from .errors import EmptyShiftError, PreconditionError
from .shifts import (ShiftPresentation, full_shift, lyndon_words,
                     periodic_orbits)


def _check_alphabets(x: Configuration, y: Configuration):
    if x.alphabet != y.alphabet:
        raise ValueError("alphabet mismatch")


# ---------------------------------------------------------------------------
# residue-class mismatch counting


def _residue_profile(w: str, g: int, symbols) -> tuple:
    """counts[r * |symbols| + i]: how often the i-th symbol, in the
    iteration order of `symbols`, occurs at the indices = r (mod g) of w.
    g must divide |w|."""
    return tuple(w[r::g].count(s) for r in range(g) for s in symbols)


def _mismatches(u: str, v: str) -> tuple[int, int]:
    """(mismatches, lcm) over one block of the aligned inf(u) and inf(v)."""
    m, n = len(u), len(v)
    g = gcd(m, n)
    block = m // g * n
    shared = set(u) & set(v)
    if block <= 16 * g * len(shared):
        # Profiling takes one str.count per class and symbol, and one costs
        # about as much as comparing 16 to 30 cells; a block this short
        # (one length dividing the other, say) is cheaper to compare.
        return sum(map(ne, u * (block // m), v * (block // n))), block
    return block - sum(map(mul, _residue_profile(u, g, shared),
                            _residue_profile(v, g, shared))), block


def _packed_profile(symbols: tuple, D: int, w: str, g: int) -> tuple:
    """(A, B): the residue profile of w mod g packed into D-bit digits as
    is (count j at digit j), and doubled and reversed (count j of the
    doubled list at digit 2N - 1 - j)."""
    counts = _residue_profile(w, g, symbols)
    a = b = 0
    for c in reversed(counts):
        a = a << D | c
    for c in counts * 2:
        b = b << D | c
    return a, b


def _class_offsets(D: int, S: int, g: int) -> range:
    """Bit offsets of the digits 2N - 1 - k S (N = g S) that hold the
    classes k = 0, 1, ..., g - 1 of a product A(u, g) * B(v, g)."""
    top, step = D * (2 * g * S - 1), D * S
    return range(top, top - g * step, -step)


def _class_mask(D: int, S: int, g: int) -> int:
    return sum(((1 << D) - 1) << o for o in _class_offsets(D, S, g))


class _Correlator:
    """Packed correlations of words of length <= P over a fixed symbol
    order, for one search.

    ``pack(w, g)`` is w's packed (A, B), cached per (word, g), and
    ``mask(g)`` covers the class digits of a g-class product.  The digit
    width is D = (P * P).bit_length(): every lcm of two lengths <= P is at
    most P^2 < 2^D.
    """

    def __init__(self, symbols, P: int):
        self.D = D = (P * P).bit_length()
        self.S = S = len(symbols)
        # caches on partials, not on bound methods: no reference cycle
        # keeps them alive once the search returns
        self.pack = functools.cache(
            functools.partial(_packed_profile, tuple(symbols), D))
        self.mask = functools.cache(functools.partial(_class_mask, D, S))

    def digits(self, product: int, g: int) -> list[int]:
        """The class match counts, k = 0, ..., g - 1, in a product."""
        low = (1 << self.D) - 1
        return [product >> o & low
                for o in _class_offsets(self.D, self.S, g)]

    def class_matches(self, u: str, v: str) -> tuple[int, int, list[int]]:
        """(g, lcm, counts): counts[k] matches of inf(u) against
        inf(v[k:] + v[:k]) over one lcm block, for each k < g."""
        g = gcd(len(u), len(v))
        product = self.pack(u, g)[0] * self.pack(v, g)[1]
        return g, len(u) // g * len(v), self.digits(product, g)


# ---------------------------------------------------------------------------
# the three pseudometrics


def d_cantor(x: Configuration, y: Configuration) -> Fraction:
    """2^(-delta) with delta the least |i| where x and y differ; 0 if equal."""
    _check_alphabets(x, y)
    if x == y:
        return Fraction(0)
    bound_r = (max(len(x.right_finite), len(y.right_finite))
               + lcm(len(x.right_period), len(y.right_period)))
    bound_l = (max(len(x.left_finite), len(y.left_finite))
               + lcm(len(x.left_period), len(y.left_period)))
    for d in range(max(bound_r, bound_l) + 1):
        if d <= bound_r and x.symbol_at(d) != y.symbol_at(d):
            return Fraction(1, 2 ** d)
        if 0 < d <= bound_l and x.symbol_at(-d) != y.symbol_at(-d):
            return Fraction(1, 2 ** d)
    raise AssertionError("distinct canonical configurations must differ")


def _arm_density(x: Configuration, y: Configuration, side: str) -> Fraction:
    """Asymptotic mismatch density of the left ("L") or right ("R") arms."""
    if side == "R":
        arms = [(c.right_finite, c.right_period) for c in (x, y)]
    else:  # read leftwards from coordinate -1
        arms = [(c.left_finite, c.left_period[::-1]) for c in (x, y)]
    start = max(len(fin) for fin, _p in arms)
    words = []
    for fin, p in arms:  # each arm from `start` on is a rotation of p
        k = (start - len(fin)) % len(p)
        words.append(p[k:] + p[:k])
    return Fraction(*_mismatches(*words))


def d_besicovitch(x: Configuration, y: Configuration) -> Fraction:
    """Asymptotic mismatch density over centered windows, exact."""
    _check_alphabets(x, y)
    return (_arm_density(x, y, "L") + _arm_density(x, y, "R")) / 2


def d_weyl(x: Configuration, y: Configuration) -> Fraction:
    """Asymptotic mismatch density, uniform over window positions, exact."""
    _check_alphabets(x, y)
    return max(_arm_density(x, y, "L"), _arm_density(x, y, "R"))


def estimator_error_bound(x: Configuration, y: Configuration) -> int:
    """C such that |density_estimate(x,y,N) - d_besicovitch(x,y)| <= C/(2N+1)."""
    fin = (len(x.left_finite) + len(y.left_finite)
           + len(x.right_finite) + len(y.right_finite))
    all_lcm = 1
    for p in (x.left_period, y.left_period, x.right_period, y.right_period):
        all_lcm = lcm(all_lcm, len(p))
    return fin + 2 * all_lcm


# ---------------------------------------------------------------------------
# finite-window estimators

# A window source is anything with .window(a, b) -> str for a <= b,
# inclusive on both ends; Configuration qualifies, as do the path sources.


def density_estimate(xw, yw, N: int) -> Fraction:
    """Mismatch density of the centered windows [-N, N], exact rational."""
    a = xw.window(-N, N)
    b = yw.window(-N, N)
    mism = sum(c != d for c, d in zip(a, b))
    return Fraction(mism, 2 * N + 1)


def weyl_estimate(xw, yw, n: int, M: int) -> Fraction:
    """max over m in [-M, M] of the density of windows [m-n, m+n]."""
    a = xw.window(-M - n, M + n)
    b = yw.window(-M - n, M + n)
    width = 2 * n + 1
    count = sum(a[i] != b[i] for i in range(width))
    best = count
    for lead in range(width, len(a)):
        count += (a[lead] != b[lead]) - (a[lead - width] != b[lead - width])
        if count > best:
            best = count
    return Fraction(best, width)


# ---------------------------------------------------------------------------
# exact distance to a sofic shift


def _arm_position_nodes(x: Configuration):
    """Position graph of x: left cycle, finite middle, right cycle.

    Nodes are ("L", j), ("M", i), ("R", k); each carries the symbol of x at
    that (class of) position(s).  The last left-cycle node has two
    successors: continue around the cycle, or exit into the finite part
    (the exit happens exactly once on any bi-infinite traversal).
    """
    lf, rf = x.left_finite, x.right_finite
    lp, rp = x.left_period, x.right_period
    nodes = []
    sym = {}
    succ = {}
    for j in range(len(lp)):
        nodes.append(("L", j))
        sym[("L", j)] = lp[j]
    mids = list(range(-len(lf), len(rf)))
    for i in mids:
        nodes.append(("M", i))
        sym[("M", i)] = x.symbol_at(i)
    for k in range(len(rp)):
        nodes.append(("R", k))
        sym[("R", k)] = rp[k]
    first_after_left = ("M", mids[0]) if mids else ("R", 0)
    for j in range(len(lp)):
        nxt = [("L", (j + 1) % len(lp))]
        if j == len(lp) - 1:
            nxt.append(first_after_left)
        succ[("L", j)] = tuple(nxt)
    for pos, i in enumerate(mids):
        succ[("M", i)] = (("M", mids[pos + 1]),) if pos + 1 < len(mids) \
            else (("R", 0),)
    for k in range(len(rp)):
        succ[("R", k)] = (("R", (k + 1) % len(rp)),)
    return nodes, sym, succ


@dataclass
class ShiftDistanceDetail:
    distance: Fraction
    left_mean: Fraction
    right_mean: Fraction
    left_cycle_len: int
    right_cycle_len: int
    right_cycle_word: str


def distance_to_shift_detail(x: Configuration,
                             Y: ShiftPresentation) -> ShiftDistanceDetail:
    if Y.is_empty:
        raise EmptyShiftError("distance to the empty shift is undefined")
    pnodes, psym, psucc = _arm_position_nodes(x)
    nodes = [(q, p) for q in Y.states for p in pnodes]
    index = {v: i for i, v in enumerate(nodes)}
    succ = [[] for _ in nodes]
    wsucc = [[] for _ in nodes]
    labels = {}
    for (s, t, a) in Y.edges:
        for p in pnodes:
            for pn in psucc[p]:
                u = index[(s, p)]
                v = index[(t, pn)]
                succ[u].append(v)
                cost = int(a != psym[p])
                wsucc[u].append((v, cost, a))
    comps = _graph.strongly_connected_components(len(nodes), succ)
    comp_of, reach = _graph.condensation_reach(len(nodes), succ, comps)

    # minimum cycle mean inside each SCC that has internal edges, split by arm
    mean_of: dict[int, tuple[Fraction, list[int]]] = {}
    side_of: dict[int, str] = {}
    for ci, comp in enumerate(comps):
        members = set(comp)
        internal = {v: [(t, w) for (t, w, _a) in wsucc[v] if t in members]
                    for v in comp}
        if not any(internal.values()):
            continue
        sides = {nodes[v][1][0] for v in comp}
        if not (sides <= {"L"} or sides <= {"R"}):
            raise AssertionError("cycle mixes position arms")
        mean, cyc = _graph.karp_min_mean(comp, internal)
        mean_of[ci] = (mean, cyc)
        side_of[ci] = "L" if sides == {"L"} else "R"

    # best right-arm value reachable from each component
    k = len(comps)
    best_right: list[tuple[Fraction, int] | None] = [None] * k
    for ci in range(k):  # reverse topological order (Tarjan emission order)
        cand = []
        if ci in mean_of and side_of[ci] == "R":
            cand.append((mean_of[ci][0], ci))
        for cj in reach[ci]:
            if cj != ci and best_right[cj] is not None:
                cand.append(best_right[cj])
        best_right[ci] = min(cand) if cand else None

    best = None
    for ci in range(k):
        if ci not in mean_of or side_of[ci] != "L":
            continue
        rb = best_right[ci]
        if rb is None:
            continue
        lm = mean_of[ci][0]
        rm, rci = rb[0], rb[1]
        total = (lm + rm) / 2
        if best is None or total < best[0]:
            best = (total, lm, rm, ci, rci)
    if best is None:
        raise AssertionError("no bi-infinite path pairs the arms")
    total, lm, rm, lci, rci = best
    lcyc = mean_of[lci][1]
    rcyc = mean_of[rci][1]
    # labels along the right cycle, anchored at its smallest R-phase
    word = _cycle_word(nodes, wsucc, rcyc)
    return ShiftDistanceDetail(total, lm, rm, len(lcyc), len(rcyc), word)


def _cycle_word(nodes, wsucc, cyc) -> str:
    """Label word along a product cycle, rotated so that it starts at the
    node whose position phase is 0 (for alignment with the configuration)."""
    start = min(range(len(cyc)), key=lambda i: (nodes[cyc[i]][1][1], i))
    order = cyc[start:] + cyc[:start]
    out = []
    for i, v in enumerate(order):
        t = order[(i + 1) % len(order)]
        lab = min(a for (tt, _w, a) in wsucc[v] if tt == t)
        out.append(lab)
    return "".join(out)


def distance_to_shift(x: Configuration, Y: ShiftPresentation) -> Fraction:
    """inf over y in Y of the centered-window density distance, exact."""
    return distance_to_shift_detail(x, Y).distance


# ---------------------------------------------------------------------------
# periodic approximation and the unique approximation property


def cyclic_mismatch_density(u: str, v: str) -> Fraction:
    """Mismatch density of the aligned periodic points given by u and v."""
    return Fraction(*_mismatches(u, v))


@dataclass
class MinimizerSet:
    distance: Fraction
    minimizers: list[Configuration]  # one representative per orbit
    period_bound: int


def _least_rotation_in(w: str, g: int, classes) -> str:
    """The lexicographically least rotation w[i:] + w[:i] with i mod g in
    `classes`."""
    return min(w[i:] + w[:i] for i in range(len(w)) if i % g in classes)


def nearest_periodic(X: ShiftPresentation, y: Configuration,
                     P: int) -> MinimizerSet:
    """Orbit representatives among the periodic points of X with least
    period <= P that achieve the minimum exact distance to y.

    Each representative is the lexicographically least point of its orbit
    among those achieving the minimum.  The distance from y to a rotation
    w[i:] + w[:i] of an orbit word depends on i only through its class
    i mod g, g = gcd(|y|, |w|), so one packed correlation per orbit gives
    every class's distance: the classes of greatest match count are the
    argmin, and the reported point is the least rotation i with i mod g
    among them.
    """
    if P <= 0:
        raise PreconditionError("period bound must be positive")
    if not y.is_periodic:
        raise PreconditionError("y must be periodic")
    if y.period > P:
        raise PreconditionError("period of y exceeds the bound")
    if X.is_empty:
        raise EmptyShiftError("empty shift")
    yw = y.right_period
    corr = _Correlator(X.alphabet.symbols, P)
    best: Fraction | None = None
    points: list[str] = []  # one per orbit achieving `best`
    for w in periodic_orbits(X, P):
        g, block, counts = corr.class_matches(yw, w)
        top = max(counts)
        orbit_best = Fraction(block - top, block)
        if best is None or orbit_best < best:
            best = orbit_best
            points = []
        if orbit_best == best:
            points.append(_least_rotation_in(
                w, g, {k for k, c in enumerate(counts) if c == top}))
    if best is None:
        raise PreconditionError(
            f"shift has no periodic points with period <= {P}")
    return MinimizerSet(best, [periodic_config(pt, X.alphabet)
                               for pt in sorted(points)], P)


@dataclass
class UapVerdict:
    violation: bool
    period_bound: int
    witness: Configuration | None = None
    distance: Fraction | None = None
    minimizers: list[Configuration] | None = None

    def __str__(self) -> str:
        if not self.violation:
            return f"no violation up to period {self.period_bound}"
        return (f"witness {self.witness!r} at distance {self.distance} "
                f"with {len(self.minimizers)} minimizer orbits")


def unique_approximation_search(X: ShiftPresentation, P: int) -> UapVerdict:
    """Search for a periodic point of the full shift whose nearest points in
    X (exact distance, periodic approximants of period <= P) fall into at
    least two distinct shift-orbit classes.

    Orbit classes, not raw points, are compared: distinct periodic points at
    distance zero coincide, so the orbit quotient is the meaningful one.
    The search is sound: the exact distance to X is computed first and only
    periodic points achieving exactly that distance count as minimizers.
    """
    if P <= 0:
        raise PreconditionError("period bound must be positive")
    if X.is_empty:
        raise EmptyShiftError("empty shift")
    x_orbits = periodic_orbits(X, P)
    in_x = set(x_orbits)
    corr = _Correlator(X.alphabet.symbols, P)
    for w in lyndon_words(full_shift(X.alphabet), P):
        if w in in_x:  # inf(w) is in X: its distance is 0
            continue
        y = periodic_config(w, X.alphabet)
        d_true = distance_to_shift(y, X)
        points: list[str] = []
        for ow in x_orbits:
            g, block, counts = corr.class_matches(w, ow)
            mism = d_true * block  # a count only if block allows d_true
            hit = {k for k, c in enumerate(counts) if block - c == mism}
            if hit:
                points.append(_least_rotation_in(ow, g, hit))
        if len(points) >= 2:
            return UapVerdict(
                True, P, witness=y, distance=d_true,
                minimizers=[periodic_config(pt, X.alphabet)
                            for pt in sorted(points)])
    return UapVerdict(False, P)
