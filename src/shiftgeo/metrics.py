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
out carries and the digits are exact.  ``nearest_periodic`` and
``unique_approximation_search`` share one such scan over the orbits of X,
``_nearest_orbits``; the search runs the exact distance below only to
certify a tie of two or more nearest orbits.

Those two and ``automata``'s ``check_on_subshift`` and
``isometric_ca_precondition`` read X's orbits from one plan kept on X,
``_OrbitPlan``, which serves every period bound up to its own.  This module
alone knows the packed layout: digit width, class mask, and the slot
stride and guard bits of a length group packed into one integer.

Distance from a configuration to a sofic shift is computed exactly by a
product construction: each arm's cyclic position graph is crossed with the
presentation, mismatches give 0/1 edge costs, Karp's minimum mean cycle is
run per strongly connected component, and the best co-reachable (left cycle,
right cycle) pair wins.  The n positions are numbered left cycle, finite
middle, right cycle, and product node (q, i) is Y._index[q] * n + i, so
i = v mod n tells a node's arm.  The product is one list of (target, cost)
pairs per node, read in place by Tarjan and Karp; edges carry no label.
Every edge inside an arm's component goes from position phase j to phase
j + 1 mod p, so Karp's cyclic classes refine the phases and its rows hold
at most |Q| entries (time and memory linear in p).
The best right cycle each component reaches is folded along the condensation
DAG, so a long finite part (a chain of one-node components) is linear too.

What is built depends on the arm shape.  A periodic point inf(w) builds one
copy, Y x (the p-cycle of w's positions) on |Q| p nodes, and no
condensation.  In the two-copy graph every left component reaches its own
right twin, and any other right component of least mean that it reaches is
the twin of a left one that Tarjan emits earlier; so the first component of
least mean in the one copy serves both arms (the lemma in full is in
``distance_to_shift_detail``).  Every other point builds both arms and the
finite middle; when its two periods are equal strings (a finite defect
inf(w)u.v inf(w)), Karp runs once per pair of twin components.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul, ne

from . import _graph
from .configs import Configuration, periodic_config
from .errors import EmptyShiftError, PreconditionError
from .shifts import ShiftPresentation, full_shift, periodic_orbits


def _check_alphabets(x, y):  # configurations or presentations
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
    order, for one orbit plan.

    ``packs(g)(w)`` is w's packed (A, B) mod g, cached per g and word, and
    ``mask(g)`` covers the class digits of a g-class product.  The digit
    width is D = (P * P).bit_length(): every lcm of two lengths <= P is at
    most P^2 < 2^D.
    """

    def __init__(self, symbols, P: int):
        self.D = D = (P * P).bit_length()
        self.symbols = symbols = tuple(symbols)
        self.S = S = len(symbols)

        def packs(g: int):
            return functools.cache(
                lambda w: _packed_profile(symbols, D, w, g))

        # caches on closures and partials, not on bound methods: no
        # reference cycle keeps them alive once the search returns; one
        # cache per g is keyed by the word alone, with no (word, g) tuple
        # per entry
        self.packs = functools.cache(packs)
        self.mask = functools.cache(functools.partial(_class_mask, D, S))

    def digits(self, product: int, g: int) -> list[int]:
        """The class match counts, k = 0, ..., g - 1, in a product."""
        low = (1 << self.D) - 1
        return [product >> o & low
                for o in _class_offsets(self.D, self.S, g)]

    def class_matches(self, a: int, g: int, v: str) -> list[int]:
        """counts[k]: matches of inf(u) against inf(v[k:] + v[:k]) over one
        lcm block, for each k < g = gcd(|u|, |v|), given u's packed A mod
        g.  u may be a word outside the plan's caches."""
        return self.digits(a * self.packs(g)(v)[1], g)


class _OrbitPlan:
    """What every periodic-orbit query on X up to a period bound P shares:
    the orbits ``periodic_orbits(X, P)``, their length groups, one
    ``_Correlator`` and per (group, g) the group's packed B(w) with its
    class mask and guard bits.  The orbits of least period <= P' <= P are a
    prefix of the list, sorted by length, and the digits of width D(P)
    cannot carry for shorter words, so ``of`` keeps one plan per
    presentation and rebuilds it only for a larger P.  Its caches hold
    words of X only (orbits, and images under rules preserving X), the set
    ``preserved`` of rules that ``automata.check_on_subshift`` found to map
    X into X, and no reference to X, so keeping it on X makes no cycle."""

    __slots__ = ("P", "orbits", "groups", "corr", "_batches", "preserved")

    def __init__(self, X: ShiftPresentation, P: int):
        self.P = P
        self.orbits = tuple(periodic_orbits(X, P))
        self.groups = tuple(tuple(ws) for _q, ws in
                            itertools.groupby(self.orbits, len))
        self.corr = _Correlator(X.alphabet.symbols, P)
        self._batches = {}
        self.preserved = set()

    @staticmethod
    def of(X: ShiftPresentation, P: int) -> "_OrbitPlan":
        """X's plan, built on the first query and rebuilt only when P
        exceeds its bound."""
        plan = X._orbit_plan
        if plan is None or plan.P < P:
            plan = X._orbit_plan = _OrbitPlan(X, P)
        return plan

    def upto(self, P: int) -> tuple[tuple, tuple]:
        """(orbits, groups) of the points of least period <= P.  A query
        at a lower bound than the plan's runs at the plan's digit width
        D(self.P): its packed integers are wider than a plan built for P
        alone would make them, and its counts are the same."""
        groups = self.groups[:bisect.bisect_right(
            self.groups, P, key=lambda ws: len(ws[0]))]
        return self.orbits[:sum(map(len, groups))], groups

    def pack_group(self, words, g: int) -> tuple[int, int]:
        """(stride, B): the B(w) of `words` mod g in one integer, the first
        lowest, in slots of 3 N digits (N = g |A|): a product A(u) B holds
        each A(u) B(w) in its own slot."""
        corr = self.corr
        stride, pack, b = 3 * g * corr.S * corr.D, corr.packs(g), 0
        for w in reversed(words):
            b = b << stride | pack(w)[1]
        return stride, b

    def batch(self, i: int, g: int) -> tuple:
        """(stride, B of group i, class mask, guards), built once.  The
        guard bit sits at the lowest bit of the digit above each class
        digit."""
        out = self._batches.get((i, g))
        if out is None:
            group, D = self.groups[i], self.corr.D
            stride, b = self.pack_group(group, g)
            rep = ((1 << len(group) * stride) - 1) // ((1 << stride) - 1)
            mask = self.corr.mask(g) * rep
            out = self._batches[i, g] = (
                stride, b, mask, mask // ((1 << D) - 1) << D)
        return out


# ---------------------------------------------------------------------------
# the three pseudometrics


def _first_difference(u: str, v: str, offset: int) -> int | None:
    """offset + the first index where u and v differ; None if u == v."""
    if u == v:
        return None
    return offset + next(i for i, (s, t) in enumerate(zip(u, v)) if s != t)


def d_cantor(x: Configuration, y: Configuration) -> Fraction:
    """2^(-delta) with delta the least |i| where x and y differ; 0 if equal.

    The cells are compared in doubling blocks of |i|, 0..1, 2..3, 4..7, ...,
    one window of each point per side and block; the first block holding a
    difference on either side holds delta.  Beyond its finite parts and one
    lcm block of the periods, a side agrees everywhere if it agreed so far,
    so each side stops there."""
    _check_alphabets(x, y)
    if x == y:
        return Fraction(0)
    bound_r = (max(len(x.right_finite), len(y.right_finite))
               + lcm(len(x.right_period), len(y.right_period)))
    bound_l = (max(len(x.left_finite), len(y.left_finite))
               + lcm(len(x.left_period), len(y.left_period)))
    lo = 0
    while lo <= max(bound_r, bound_l):
        hi = max(2 * lo - 1, 1)
        found = []
        b = min(hi, bound_r)
        if lo <= b:
            found.append(_first_difference(x.window(lo, b), y.window(lo, b),
                                           lo))
        a, b = max(lo, 1), min(hi, bound_l)
        if a <= b:  # cells -a, -a - 1, ..., -b, read leftwards
            found.append(_first_difference(x.window(-b, -a)[::-1],
                                           y.window(-b, -a)[::-1], a))
        found = [d for d in found if d is not None]
        if found:
            return Fraction(1, 2 ** min(found))
        lo = hi + 1
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
    if N < 0:
        raise ValueError(f"window radius must be non-negative, got {N}")
    a = xw.window(-N, N)
    b = yw.window(-N, N)
    mism = sum(c != d for c, d in zip(a, b))
    return Fraction(mism, 2 * N + 1)


def weyl_estimate(xw, yw, n: int, M: int) -> Fraction:
    """max over m in [-M, M] of the density of windows [m-n, m+n]."""
    if min(n, M) < 0:
        raise ValueError(f"{'n' if n < 0 else 'M'} must be non-negative")
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


def _position_graph(x: Configuration):
    """(word, succ, nl, r0): position i carries word[i], with word = left
    period + finite parts + right period, so the left cycle is [0, nl) and
    the right cycle [r0, n); succ[i] lists i's successors.  The last left
    position also exits into the finite part, which happens exactly once on
    any bi-infinite traversal.  For a periodic x = inf(w) both arms are the
    one cycle of w's positions (nl = n, r0 = 0), with no exit."""
    lp, rp = x.left_period, x.right_period
    word = rp if x.is_periodic else lp + x.left_finite + x.right_finite + rp
    nl, r0 = len(lp), len(word) - len(rp)
    succ = [(i + 1,) for i in range(len(word))]
    succ[nl - 1] = (0,) if x.is_periodic else (0, nl)
    succ[-1] = (r0,)
    return word, succ, nl, r0


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
    """Exact distance from x to Y, with the arm cycles that attain it.

    A bi-infinite path circles a left-arm cycle, crosses the finite part and
    circles a right-arm cycle, so the distance is the least (left mean +
    right mean) / 2 over each left SCC and the right SCCs it reaches.  Ties
    go to the least left component index (Tarjan's emission order), then to
    the least right (mean, component index).  With equal periods and a finite
    defect, v -> v + r0 maps the left arm onto the right, so Karp runs once
    per twin pair.

    A periodic x = inf(w) builds one copy only, Y x (the p-cycle of w's
    positions), and its answer is the first component in Tarjan's emission
    order whose minimum cycle mean m* is least, that cycle serving both
    arms.  This is the two-copy answer, field for field:

    - Left order.  In the two-copy graph no right node reaches a left one,
      so a DFS excursion into the right copy emits all its components
      before control returns to a left node, and a visited right node never
      lowers a left low-link.  The left components thus come out in the one
      copy's Tarjan order, with the same member lists and edge order, and
      Karp returns the same cycles.
    - Least total.  (lm + rm) / 2 = m* only when lm = rm = m*, and every
      left component reaches its own twin: its cycle passes phase p - 1,
      whose exit edge enters the twin.  So the left choice is the first
      m*-component of the one copy.
    - Right choice.  Any other m*-component that it reaches is the twin of
      a left m*-component it reaches, which Tarjan emits earlier, against
      that choice.  So the right choice is its twin: the same cycle, and
      the same word anchored at the same phase.

    Other points keep both copies: their right tie-break follows the order
    in which the global DFS enters the right copy, which one copy cannot
    reproduce without a second Tarjan.

    The product is built once, as the (target, cost) pairs ``wsucc[v]``.
    Tarjan's successors are projected from it, and Karp gets ``wsucc``
    itself for each cyclic component (more than one node, or a self-loop).
    """
    _check_alphabets(x, Y)
    if Y.is_empty:
        raise EmptyShiftError("distance to the empty shift is undefined")
    word, psucc, nl, r0 = _position_graph(x)
    n = len(word)
    size = len(Y.states) * n
    wsucc = [[] for _ in range(size)]
    for (s, t, a) in Y.edges:
        s0, t0 = Y._index[s] * n, Y._index[t] * n
        for i, c in enumerate(word):
            for j in psucc[i]:
                wsucc[s0 + i].append((t0 + j, int(a != c)))
    succ = [[t for (t, _w) in row] for row in wsucc]
    comps = _graph.strongly_connected_components(size, succ)
    cyclic = [(ci, comp) for ci, comp in enumerate(comps)
              if len(comp) > 1 or comp[0] in succ[comp[0]]]
    if x.is_periodic:
        # the first (least mean, cycle) in emission order
        m, cyc = min((_graph.karp_min_mean(comp, wsucc)
                      for _ci, comp in cyclic), key=lambda res: res[0])
        return ShiftDistanceDetail(m, m, m, len(cyc), len(cyc),
                                   _cycle_word(word, Y, cyc))
    dag = _graph.condensation_reach(size, succ, comps)[1]

    # (minimum cycle mean, cycle) inside each cyclic SCC, by arm and
    # component index
    left: dict[int, tuple[Fraction, list[int]]] = {}
    right: dict[int, tuple[Fraction, list[int]]] = {}
    # Karp results by least node in left-arm coordinates: with equal periods
    # (twin = r0) whichever twin Tarjan emits first serves the other
    twin = r0 if x.left_period == x.right_period else 0
    done: dict[int, tuple[int, Fraction, list[int]]] = {}
    for ci, comp in cyclic:
        off = twin if comp[0] % n >= r0 else 0
        if (hit := done.get(comp[0] - off)) is not None:
            d = off - hit[0]
            (right if off else left)[ci] = hit[1], [v + d for v in hit[2]]
            continue
        sides = {"L" if v % n < nl else "R" if v % n >= r0 else "M"
                 for v in comp}
        if sides != {"L"} and sides != {"R"}:
            raise AssertionError("cycle mixes position arms")
        arm = left if sides == {"L"} else right
        arm[ci] = res = _graph.karp_min_mean(comp, wsucc)
        done[comp[0] - off] = off, *res

    # least right-arm (mean, index) reachable from each component, folded
    # along the condensation DAG in Tarjan's (reverse topological) order
    best_right: list[tuple[Fraction, int] | None] = []
    for ci, out in enumerate(dag):
        cand = [b for cj in out if (b := best_right[cj]) is not None]
        if ci in right:
            cand.append((right[ci][0], ci))
        best_right.append(min(cand) if cand else None)

    best = None
    for ci, (lm, _cyc) in left.items():  # ascending ci
        if best_right[ci] is None:
            continue
        rm, rci = best_right[ci]
        total = (lm + rm) / 2
        if best is None or total < best[0]:
            best = (total, lm, rm, ci, rci)
    if best is None:
        raise AssertionError("no bi-infinite path pairs the arms")
    total, lm, rm, lci, rci = best
    rcyc = right[rci][1]
    return ShiftDistanceDetail(total, lm, rm, len(left[lci][1]), len(rcyc),
                               _cycle_word(word, Y, rcyc))


def _cycle_word(word: str, Y: ShiftPresentation, cyc) -> str:
    """Label word along a cycle of Y x (positions of ``word``), rotated so
    that it starts at the node of least position (phase 0 on an arm cycle,
    for alignment with the configuration).  Between two nodes, the label is
    read off Y's edges between their states: the cheapest (the position's
    symbol), then the least by the alphabet's key."""
    n, rank = len(word), Y.alphabet.key
    labels: dict = {}
    for (s, t, a) in Y.edges:
        labels.setdefault((s, t), []).append(a)
    start = min(range(len(cyc)), key=lambda i: (cyc[i] % n, i))
    order = cyc[start:] + cyc[:start]
    return "".join(
        min(labels[Y.states[v // n], Y.states[u // n]],
            key=lambda a: (a != word[v % n], rank(a)))
        for v, u in zip(order, order[1:] + order[:1]))


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


def _nearest_orbits(groups, yw: str, corr: _Correlator, key):
    """(distance, points): the least mismatch density of inf(yw) against the
    points in the orbits of the length groups `groups` (None without
    orbits), and for each orbit that reaches it the least such rotation by
    `key`, in the order of the groups.  The density against w[i:] + w[:i]
    depends on i only through i mod g, g = gcd(|yw|, |w|), so one packed
    correlation per orbit gives every rotation's.  yw, which need not be a
    word of X, is packed for this query alone.  Densities are compared as
    integer mismatch counts, cross-multiplied."""
    best, points = None, []  # best: (mismatches, block)
    a = functools.cache(
        lambda g: _packed_profile(corr.symbols, corr.D, yw, g)[0])
    for group in groups:
        g = gcd(len(yw), len(group[0]))
        block = len(yw) // g * len(group[0])
        for w in group:
            counts = corr.class_matches(a(g), g, w)
            top = max(counts)
            m = block - top
            if best is None or m * best[1] < best[0] * block:
                best, points = (m, block), []
            if m * best[1] == best[0] * block:
                points.append(min((w[i:] + w[:i] for i in range(len(w))
                                   if counts[i % g] == top), key=key))
    return (Fraction(*best) if best else None), points


def nearest_periodic(X: ShiftPresentation, y: Configuration,
                     P: int) -> MinimizerSet:
    """Orbit representatives among the periodic points of X with least
    period <= P that achieve the minimum exact distance to y.

    Each representative is the least point of its orbit, lexicographically
    in the alphabet's order, among those achieving the minimum, and they are
    listed in that order.
    """
    if y.alphabet != X.alphabet:
        raise ValueError("alphabet mismatch")
    if P <= 0:
        raise PreconditionError("period bound must be positive")
    if not y.is_periodic:
        raise PreconditionError("y must be periodic")
    if y.period > P:
        raise PreconditionError("period of y exceeds the bound")
    if X.is_empty:
        raise EmptyShiftError("empty shift")
    key, plan = X.alphabet.key, _OrbitPlan.of(X, P)
    best, points = _nearest_orbits(plan.upto(P)[1], y.right_period,
                                   plan.corr, key)
    if best is None:
        raise PreconditionError(
            f"shift has no periodic points with period <= {P}")
    return MinimizerSet(best, [periodic_config(pt, X.alphabet)
                               for pt in sorted(points, key=key)], P)


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
    The search is sound: the scanned orbits lie in X, so a tie of two or
    more nearest orbits counts only when the exact distance to X, computed
    for such candidates alone, reaches their distance.
    """
    if P <= 0:
        raise PreconditionError("period bound must be positive")
    if X.is_empty:
        raise EmptyShiftError("empty shift")
    plan = _OrbitPlan.of(X, P)
    x_orbits, groups = plan.upto(P)
    in_x = set(x_orbits)
    for w in periodic_orbits(full_shift(X.alphabet), P):
        if w in in_x:  # inf(w) is in X: its distance is 0
            continue
        best, points = _nearest_orbits(groups, w, plan.corr, X.alphabet.key)
        if len(points) < 2:
            continue
        y = periodic_config(w, X.alphabet)
        d_true = distance_to_shift(y, X)
        if best == d_true:
            return UapVerdict(
                True, P, witness=y, distance=d_true,
                minimizers=[periodic_config(pt, X.alphabet)
                            for pt in sorted(points, key=X.alphabet.key)])
    return UapVerdict(False, P)
