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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul, ne

from . import _graph
from .configs import Configuration, lcm, periodic_config
from .errors import EmptyShiftError, PreconditionError
from .shifts import (ShiftPresentation, contains_config, full_shift,
                     lyndon_words, periodic_orbits)


def _check_alphabets(x: Configuration, y: Configuration):
    if x.alphabet != y.alphabet:
        raise ValueError("alphabet mismatch")


# ---------------------------------------------------------------------------
# residue-class mismatch counting


def _residue_profile(w: str, g: int, symbols) -> tuple:
    """(|w|, g, counts): counts[r * |symbols| + i] is how often the i-th
    symbol, in the iteration order of `symbols`, occurs at the indices
    = r (mod g) of w.  g must divide |w|."""
    return len(w), g, tuple(w[r::g].count(s)
                            for r in range(g) for s in symbols)


def _profile_mismatches(pu, pv, k: int = 0) -> tuple[int, int]:
    """(mismatches, lcm) over one block of inf(u) against inf(v[k:] + v[:k]),
    from residue profiles of u and v over the same g and symbols.

    Rotating v by k shifts its residue classes by k, so k matters only
    mod g.
    """
    (m, g, a), (n, _g, b) = pu, pv
    block = m // g * n
    s = k * len(b) // g
    return block - sum(map(mul, a, b[s:] + b[:s])), block


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
    return _profile_mismatches(_residue_profile(u, g, shared),
                               _residue_profile(v, g, shared))


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


def nearest_periodic(X: ShiftPresentation, y: Configuration,
                     P: int) -> MinimizerSet:
    """Orbit representatives among the periodic points of X with least
    period <= P that achieve the minimum exact distance to y.

    Each representative is the lexicographically least point of its orbit
    among those achieving the minimum.
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
    best: Fraction | None = None
    achievers: list[tuple[str, str]] = []  # (orbit representative, point)
    for w in periodic_orbits(X, P):
        rots = sorted(w[i:] + w[:i] for i in range(len(w)))
        orbit_best = None
        orbit_point = None
        for r in rots:
            d = cyclic_mismatch_density(yw, r)
            if orbit_best is None or d < orbit_best:
                orbit_best, orbit_point = d, r
        if best is None or orbit_best < best:
            best = orbit_best
            achievers = [(w, orbit_point)]
        elif orbit_best == best:
            achievers.append((w, orbit_point))
    if best is None:
        raise PreconditionError(
            f"shift has no periodic points with period <= {P}")
    mins = [periodic_config(pt, X.alphabet)
            for _w, pt in sorted(achievers, key=lambda t: t[1])]
    return MinimizerSet(best, mins, P)


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
    for w in lyndon_words(full_shift(X.alphabet), P):
        y = periodic_config(w, X.alphabet)
        if contains_config(X, y):
            continue
        d_true = distance_to_shift(y, X)
        orbit_hits: list[str] = []
        points: list[str] = []
        for ow in x_orbits:
            rots = sorted(ow[i:] + ow[:i] for i in range(len(ow)))
            hit = [r for r in rots
                   if cyclic_mismatch_density(w, r) == d_true]
            if hit:
                orbit_hits.append(ow)
                points.append(hit[0])
        if len(orbit_hits) >= 2:
            return UapVerdict(
                True, P, witness=y, distance=d_true,
                minimizers=[periodic_config(pt, X.alphabet)
                            for pt in sorted(points)])
    return UapVerdict(False, P)
