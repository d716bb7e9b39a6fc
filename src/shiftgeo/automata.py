"""Cellular automata on subshifts: rule tables, the global map, minimal
neighborhoods, and classification of the global map as contracting,
isometric, or expanding for the density pseudometrics.

On the full shift the classification is exact and structural: a map never
increasing distances must depend on at most one cell, a distance-preserving
map is a shift composed with a symbol permutation, and a map never
decreasing distances is already an isometry.  Non-contracting rules carry an
explicit periodic witness pair with exact distances.  On general subshifts a
bounded exhaustive check over periodic orbit pairs is provided, and a
bounded check of the rigidity precondition, which tests its periodic points
by their block cycles on the presentation (see ``shifts``).

On the full shift a rule is read through its flat table ``vals``, the
outputs in pattern-index order: a pattern read as base-n digits (n = |A|,
alphabet order, leftmost offset most significant, as ``itertools.product``
lists them), so offset j has stride n^(right - j).  j is essential iff some
block of n * stride entries has two unequal stride-long chunks.  The table
on [lo, hi] (r cells) is ``vals[::n^(right - hi)][:n^r]``, the pads being
digit 0; for one essential offset it is the symbol map.  Its rows of n
entries are the contexts u + s, its columns (step n^(r - 1)) the s + v."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .configs import Alphabet, Configuration, cyclic_slice, json_field, \
    periodic_config
from .errors import PreconditionError
from .metrics import _OrbitPlan, cyclic_mismatch_density
from .shifts import (ShiftPresentation, shannon_cover, language,
                     _mask_subset, _RelationMonoid)

MAX_WIDTH = 12


@dataclass(frozen=True)
class CellularAutomaton:
    """Local rule with offsets [left, right] and a total lookup table."""

    alphabet: Alphabet
    left: int
    right: int
    table: dict

    def __post_init__(self):
        if self.left > self.right:
            raise ValueError("need left <= right")
        if self.width > MAX_WIDTH:
            raise ValueError(f"neighborhood width {self.width} exceeds "
                             f"{MAX_WIDTH}")
        expected = len(self.alphabet) ** self.width
        if len(self.table) != expected:
            raise ValueError(f"table has {len(self.table)} entries, "
                             f"needs {expected}")
        for pat, out in self.table.items():
            if len(pat) != self.width:
                raise ValueError(f"pattern {pat!r} has wrong length")
            self.alphabet.check_word(pat)
            if out not in self.alphabet:
                raise ValueError(f"output {out!r} not in alphabet")

    @property
    def width(self) -> int:
        return self.right - self.left + 1

    def __hash__(self):
        return hash((self.alphabet, self.left, self.right,
                     tuple(sorted(self.table.items()))))

    def to_dict(self) -> dict:
        return {"alphabet": "".join(self.alphabet.symbols),
                "offsets": [self.left, self.right],
                "table": dict(sorted(self.table.items()))}

    @staticmethod
    def from_dict(d: dict) -> "CellularAutomaton":
        ab = Alphabet(json_field(d, "alphabet", (str, list)))
        offsets = json_field(d, "offsets", list, int)
        if len(offsets) != 2:
            raise ValueError("field 'offsets' must hold two offsets [lo, hi]")
        lo, hi = offsets
        return CellularAutomaton(ab, lo, hi,
                                 dict(json_field(d, "table", dict, str)))


def elementary_ca(rule: int) -> CellularAutomaton:
    """Elementary rule by Wolfram number, offsets [-1, 1] over {0, 1}."""
    if not 0 <= rule <= 255:
        raise ValueError("elementary rule number must be in [0, 255]")
    from .configs import BINARY
    table = {}
    for bits in itertools.product("01", repeat=3):
        idx = (int(bits[0]) << 2) | (int(bits[1]) << 1) | int(bits[2])
        table["".join(bits)] = "01"[(rule >> idx) & 1]
    return CellularAutomaton(BINARY, -1, 1, table)


def _slide(f: CellularAutomaton, w: str) -> str:
    """f.table read through a window of f.width cells sliding across w: the
    images of the cells whose neighborhoods lie in w."""
    k = f.width
    return "".join(f.table[w[i:i + k]] for i in range(len(w) - k + 1))


def apply_ca(f: CellularAutomaton, x: Configuration) -> Configuration:
    """The image configuration f(x); eventually periodic structure is kept.

    One window of x, over the image span and the rule's offsets, is read
    with the rule sliding across it; the image is cut into its left period,
    left and right finite parts and right period, which ``Configuration``
    canonicalizes.
    """
    if f.alphabet != x.alphabet:
        raise ValueError("alphabet mismatch")
    lp, rp = len(x.left_period), len(x.right_period)
    ml = len(x.left_finite) + max(0, f.right) + lp + 1
    mr = len(x.right_finite) + max(0, -f.left) + rp + 1
    img = _slide(f, x.window(-ml - lp + f.left, mr + rp - 1 + f.right))
    return Configuration(x.alphabet, img[:lp], img[lp:lp + ml],
                         img[lp + ml:lp + ml + mr], img[lp + ml + mr:])


def apply_cyclic(f: CellularAutomaton, w: str) -> str:
    """Image period word: f applied to the periodic point with window w."""
    return _slide(f, cyclic_slice(w, f.left, len(w) + f.right)) if w else ""


# ---------------------------------------------------------------------------
# neighborhood analysis


@dataclass(frozen=True)
class NeighborhoodInfo:
    essential: tuple          # offsets the table really depends on
    span: tuple | None        # (lo, hi) interval hull, None for constants
    mask: tuple               # dependency flags across the span

    @property
    def size(self) -> int:
        return len(self.essential)


def _neighborhood(f: CellularAutomaton) -> tuple:
    """(vals, minimal neighborhood): each table entry is read once."""
    n, k = len(f.alphabet), f.width
    vals = [f.table[p] for p in map(
        "".join, itertools.product(f.alphabet.symbols, repeat=k))]
    essential = []
    for p in range(k):
        stride, step = n ** (k - 1 - p), n ** (k - p)
        for b in range(0, len(vals), step):
            if vals[b:b + stride] * n != vals[b:b + step]:
                essential.append(f.left + p)
                break
    if not essential:
        return vals, NeighborhoodInfo((), None, ())
    lo, hi = essential[0], essential[-1]
    mask = tuple(o in essential for o in range(lo, hi + 1))
    return vals, NeighborhoodInfo(tuple(essential), (lo, hi), mask)


def minimal_neighborhood(f: CellularAutomaton) -> NeighborhoodInfo:
    """Exhaustive per-coordinate dependency analysis of the rule table."""
    return _neighborhood(f)[1]


def minimal_neighborhood_on(f: CellularAutomaton,
                            X: ShiftPresentation) -> tuple:
    """Smallest set of offsets the rule factors through on the factors of X.

    Unlike :func:`minimal_neighborhood`, only patterns legal in X are
    compared, so a rule can act with a strictly smaller neighborhood on a
    subshift than on the full shift.  Returns the lexicographically first
    minimal offset tuple.
    """
    if f.alphabet != X.alphabet:
        raise ValueError("alphabet mismatch")
    legal = language(X, f.width)
    offsets = list(range(f.left, f.right + 1))
    for size in range(0, f.width + 1):
        for S in itertools.combinations(range(f.width), size):
            groups: dict = {}
            ok = True
            for pat in legal:
                key = tuple(pat[i] for i in S)
                out = f.table[pat]
                if groups.setdefault(key, out) != out:
                    ok = False
                    break
            if ok:
                return tuple(offsets[i] for i in S)
    raise AssertionError("the full offset set always factors")


# ---------------------------------------------------------------------------
# classification on the full shift


@dataclass
class ClassificationReport:
    neighborhood: NeighborhoodInfo
    contracting: bool
    isometric: bool
    expanding: bool
    decomposition: tuple | None = None      # (shift amount, symbol map)
    witness: tuple | None = None            # (x, y, d_in, d_out)


def classify_full_shift(f: CellularAutomaton) -> ClassificationReport:
    """Classify the global map of f on the full shift, with certificates.

    Contracting holds iff the table depends on at most one cell; otherwise a
    periodic witness pair (x, y) with exact distances d_in = 1/(2r-1) and
    d_out >= 2/(2r-1) is constructed from the minimal connected
    neighborhood of size r.  Isometric (equivalently expanding) holds iff
    the single dependent cell acts by a symbol permutation.
    """
    (vals, info), n = _neighborhood(f), len(f.alphabet)
    if info.size <= 1:
        iso, decomp = False, None
        if info.size == 1:
            off = info.essential[0]
            gmap = dict(zip(f.alphabet.symbols, vals[::n ** (f.right - off)]))
            if sorted(gmap.values()) == sorted(f.alphabet.symbols):
                iso, decomp = True, (off, gmap)
        return ClassificationReport(info, True, iso, iso, decomp, None)
    witness = _non_contracting_witness(f, vals, info)
    return ClassificationReport(info, False, False, False, None, witness)


def _separating(lines):
    """(i, b): line i is the first not constant, b its first entry unequal
    to entry 0, so (0, b) is its first separated pair of symbols; or None."""
    for i, line in enumerate(lines):
        for b, out in enumerate(line):
            if out != line[0]:
                return i, b
    return None


def _word(i: int, length: int, syms) -> str:
    """The word of the given length whose pattern index is i."""
    return "".join(syms[i // len(syms) ** e % len(syms)]
                   for e in range(length - 1, -1, -1))


def _non_contracting_witness(f: CellularAutomaton, vals: list,
                             info: NeighborhoodInfo):
    """Periodic pair from the matrix construction over the minimal connected
    neighborhood: one mismatch per period in, at least two out."""
    lo, hi = info.span
    r, syms, n = hi - lo + 1, f.alphabet.symbols, len(f.alphabet)
    table = vals[:n ** (f.right - lo + 1):n ** (f.right - hi)]
    m = n ** (r - 1)
    left_ctx = _separating(table[i:i + n] for i in range(0, n * m, n))
    right_ctx = _separating(table[j::m] for j in range(m))
    if not (left_ctx and right_ctx):
        raise AssertionError("reduced table must depend on both ends")
    (u, b), (v, d) = left_ctx, right_ctx
    row, col = table[u * n:u * n + n], table[v::m]
    for alpha, gamma in ((0, d), (b, 0), (b, d)):
        if alpha != gamma and row[alpha] != row[gamma] \
                and col[alpha] != col[gamma]:
            break
    else:
        raise AssertionError("no separated symbol pair exists")
    u, v = _word(u, r - 1, syms), _word(v, r - 1, syms)
    xw, yw = u + syms[alpha] + v, u + syms[gamma] + v
    # equal-length period words: the distance of their points, and of the
    # images, is the mismatch density of the words
    d_in = cyclic_mismatch_density(xw, yw)
    d_out = cyclic_mismatch_density(apply_cyclic(f, xw), apply_cyclic(f, yw))
    if d_in != Fraction(1, 2 * r - 1):
        raise AssertionError(f"witness distance {d_in} is not 1/{2 * r - 1}")
    return (periodic_config(xw, f.alphabet), periodic_config(yw, f.alphabet),
            d_in, d_out)


def isometry_decomposition(f: CellularAutomaton):
    """The pair (shift amount, symbol permutation) with f = shift o map,
    verified against the whole rule table."""
    rep = classify_full_shift(f)
    if not rep.isometric:
        raise PreconditionError("rule is not an isometry of the full shift")
    off, gmap = rep.decomposition
    for pat, out in f.table.items():
        if gmap[pat[off - f.left]] != out:
            raise AssertionError("decomposition fails on the table")
    return off, gmap


# ---------------------------------------------------------------------------
# bounded checks on subshifts


def preserves_shift(f: CellularAutomaton, X: ShiftPresentation) -> bool:
    """Exact test that f maps X into X: on the Shannon cover C, (q, u) with
    |u| = width - 1 readable from q steps by a to (q.(u+a)[0], (u+a)[1:]),
    labeled f(u + a), and f(X) lies in X iff every word of this image graph
    is a word of C.  The image states are numbered 0..n-1 in the order the
    words are built: q in the cover's order, u in the alphabet's.

    The image graph is essential: C is, so q.u has an out-edge (labeled a,
    say) and (q, u) steps by a; and q has an in-edge p -> q (labeled b), so
    (p, (b + u)[:-1]) steps to (q, u).  So it needs no trim, and its edges
    go straight into mask rows for the subset BFS ``shifts._mask_subset``
    against C's rows ``C._fwd``.  C is deterministic, so each row entry has
    at most one bit, read into the table ``nxt[a][i]`` (-1 for none); each
    (q, u) carries the state q.u, so extending u is one lookup."""
    if f.alphabet != X.alphabet:
        raise ValueError("alphabet mismatch")
    C = shannon_cover(X)
    if not C.is_deterministic():
        raise RuntimeError("Shannon cover is not deterministic")
    syms = C.alphabet.symbols
    nxt = {a: [m.bit_length() - 1 for m in row] for a, row in C._fwd.items()}
    paths = [(q, "", q) for q in range(len(C.states))]
    for _ in range(f.width - 1):
        paths = [(q, u + a, t) for (q, u, s) in paths for a in syms
                 if (t := nxt[a][s]) >= 0]
    ids = {(q, u): i for i, (q, u, _s) in enumerate(paths)}
    image = {b: [0] * len(paths) for b in syms}
    for i, (q, u, s) in enumerate(paths):
        for a in syms:
            if nxt[a][s] >= 0:
                w = u + a
                image[f.table[w]][i] |= 1 << ids[nxt[w[0]][q], w[1:]]
    return _mask_subset(list(image.values()), list(C._fwd.values()))


@dataclass
class PropertyWitness:
    x: Configuration
    y: Configuration
    d_in: Fraction
    d_out: Fraction


@dataclass
class SubshiftCheck:
    period_bound: int
    contracting: PropertyWitness | None    # first violation, if any
    isometric: PropertyWitness | None
    expanding: PropertyWitness | None

    def verdict(self, prop: str) -> str:
        w = getattr(self, prop)
        if w is None:
            return f"{prop}: no violation up to period {self.period_bound}"
        return (f"{prop}: violated by ({w.x!r}, {w.y!r}): "
                f"{w.d_in} -> {w.d_out}")


def check_on_subshift(f: CellularAutomaton, X: ShiftPresentation,
                      P: int) -> SubshiftCheck:
    """Exhaustive exact check of the three properties over all pairs of
    periodic points of X with least period <= P (first point an orbit
    representative, second ranging over whole orbits; for periodic pairs the
    centered and uniform densities agree, so one scan covers both metrics).

    Only the rotations k < g = gcd(|w1|, |w2|) of the second point are
    scanned.  Rotating w2 by k shifts the residue classes mod g of its
    indices by k, and f(rot_k w2) = rot_k f(w2) because f commutes with the
    shift; so both densities depend on k only through k mod g, every
    rotation k >= g repeats the verdicts of k mod g < k, and the first
    witness of each property is the one a scan of every rotation finds.

    A pair's match counts come from two packed correlations (see
    ``metrics``): A(w1) B(w2) and A(f w1) B(f w2), whose digit
    2N - 1 - k |A| (N = g |A|) is the match count at class k before and
    after the rule.  Every digit is at most lcm(|w1|, |w2|) <= P^2 < 2^D
    with D = (P' * P').bit_length(), P' >= P the plan's bound (below), so
    no digit carries.  The orbits are listed by length, and every w2 of one
    length q shares g with w1, so the B(w2) of the group are packed into
    one integer at a stride of 3 N D-bit digits (one product has fewer), as
    are the B(f w2): one product before the rule and one after hold every
    pair (w1, w2) of the group, each in its own slot.  With I and O their
    class digits, the group is tested for the properties still open:

    - while ``isometric`` is open, a pair is unsettled iff its class digits
      differ, I ^ O;
    - once it has a witness, so has ``contracting`` or ``expanding`` (the
      same pair fired it), and |A| >= 2 (one symbol gives one point).  So
      the digit above each class digit is a non-class digit, and a guard
      bit G at its lowest bit takes the borrow of the class below:
      G & ~((O | G) - I) marks the classes with O < I, where the rule
      raises the distance (``contracting`` fires), and the same with I and
      O swapped marks ``expanding``.

    The lowest marked bit names the first unsettled w2 of the group; its
    digits are read from its slot, in ascending k, as a per-pair scan would
    read them, and the test runs again from the next slot.  A skipped pair
    could fire only properties that already have a witness, so every first
    witness is the one a per-pair scan finds.

    Everything before the rule depends on X and P only and comes from X's
    one orbit plan (``metrics._OrbitPlan``, kept on X beside its cover),
    which every periodic-orbit query on X shares and which is rebuilt only
    for a larger P: the orbit list and its length groups, the packed
    profiles (one cache, which the image words of a rule hit too, since
    they are words of X) and the B(w2) batches with their masks and guard
    bits.  A survey of many rules on one shift lists and packs its orbits
    once.  Per rule stay the images f(w), their B(f w2) batches and the
    scan itself.  The plan also keeps the rules found to map X into X, so a
    rule checked again on X runs ``preserves_shift`` only once.
    """
    if P <= 0:
        raise PreconditionError("period bound must be positive")
    plan = X._orbit_plan
    if not (plan and f in plan.preserved or preserves_shift(f, X)):
        raise PreconditionError("rule does not map the shift into itself")
    plan = _OrbitPlan.of(X, P)
    plan.preserved.add(f)
    orbits, groups = plan.upto(P)
    S, packs, digits = plan.corr.S, plan.corr.packs, plan.corr.digits
    images = {w: apply_cyclic(f, w) for w in orbits}

    # the B(f w2) of group i mod g, shared by the lengths of w1 with that g
    b_outs = functools.cache(
        lambda i, g: plan.pack_group([images[w] for w in groups[i]], g)[1])

    first = {"contracting": None, "isometric": None, "expanding": None}
    q1 = 0
    for w1 in orbits:
        if len(w1) != q1:    # each w2 group's g, packs(g) and batches
            q1 = len(w1)
            gs = [gcd(q1, len(group[0])) for group in groups]
            setup = [(groups[i], g, packs(g), *plan.batch(i, g),
                      b_outs(i, g)) for i, g in enumerate(gs)]
        for group, g, pack, stride, b_in, M, G, b_out in setup:
            cin = pack(w1)[0] * b_in
            cout = pack(images[w1])[0] * b_out
            I, O = cin & M, cout & M
            start = 0
            while True:
                if first["isometric"] is None:
                    marks = I ^ O
                elif S < 2:
                    raise RuntimeError("isometry violated on one symbol")
                elif first["contracting"] is None:
                    marks = G & ~((O | G) - I)
                elif first["expanding"] is None:
                    marks = G & ~((I | G) - O)
                else:
                    return SubshiftCheck(P, first["contracting"],
                                         first["isometric"],
                                         first["expanding"])
                marks >>= start
                if not marks:
                    break
                slot = (start + (marks & -marks).bit_length() - 1) // stride
                start = (slot + 1) * stride
                w2 = group[slot]
                # d_in and d_out share the denominator lcm(|w1|, |w2|)
                block = len(w1) // g * len(w2)
                shift = slot * stride
                for k, (a, b) in enumerate(zip(digits(cin >> shift, g),
                                               digits(cout >> shift, g))):
                    if a == b:
                        continue
                    m_in, m_out = block - a, block - b
                    for prop in ("isometric", "contracting" if m_out > m_in
                                 else "expanding"):
                        if first[prop] is None:
                            first[prop] = PropertyWitness(
                                periodic_config(w1, f.alphabet),
                                periodic_config(w2[k:] + w2[:k], f.alphabet),
                                Fraction(m_in, block), Fraction(m_out, block))
    return SubshiftCheck(P, first["contracting"], first["isometric"],
                         first["expanding"])


@dataclass
class RigidityReport:
    passed: bool
    failing: tuple | None        # (word, symbol) with no admissible period
    periods_used: dict           # (word, symbol) -> p

    def __bool__(self):
        return self.passed


def isometric_ca_precondition(X: ShiftPresentation, zero: str, L: int,
                              P: int) -> RigidityReport:
    """Bounded check of the periodic-richness condition under which every
    distance-preserving cellular automaton on X has neighborhood size one.

    Requires the all-`zero` point in X and, for every factor w of length at
    most L and every symbol s occurring in w, one shared period p <= P with
    a p-periodic point of X containing w and the point (s zero^(p-1))^inf
    in X.

    The zero point and the |A| P markers are tested by the cycle flags of
    their elements of the transition monoid of X (see ``shifts``): the
    marker of period p + 1 is the one of period p stepped once by `zero`,
    and bit p of ``marked[s]`` says the marker of period p is in X.  The
    p-periodic points of X are the orbits u with |u| dividing p, and the
    factors of inf(u) of length n are the n-windows of u^(L // |u| + 2)
    that start in its first copy of u.  The orbits of one length q share
    their periods (the multiples of q), so each length group of the orbit
    plan collects its factors into one set and each distinct factor w is
    indexed once per group: bit p of ``periods[w]`` says that some
    p-periodic point of X contains w.  The least shared period is then the
    lowest set bit of ``periods[w] & marked[s]``.
    """
    if zero not in X.alphabet:
        raise ValueError(f"symbol {zero!r} not in alphabet")
    if L <= 0:
        raise PreconditionError("factor length bound must be positive")
    if P <= 0:
        raise PreconditionError("period bound must be positive")
    M = _RelationMonoid(X)
    if not M.cycles(M.step(M.identity, zero)):
        return RigidityReport(False, None, {})
    marked = {}
    for s in X.alphabet:
        e, marked[s] = M.step(M.identity, s), 0
        for p in range(1, P + 1):
            if M.cycles(e):
                marked[s] |= 1 << p
            e = M.step(e, zero)
    periods: dict = {}
    for group in _OrbitPlan.of(X, P).upto(P)[1]:
        q = len(group[0])
        multiples = sum(1 << p for p in range(q, P + 1, q))
        reps = L // q + 2
        for w in {text[i:j] for u in group for text in [u * reps]
                  for i in range(q) for j in range(i + 1, i + L + 1)}:
            periods[w] = periods.get(w, 0) | multiples
    used = {}
    for n in range(1, L + 1):
        for w in language(X, n):
            for s in (a for a in X.alphabet if a in w):
                shared = periods.get(w, 0) & marked[s]
                if not shared:
                    return RigidityReport(False, (w, s), used)
                used[(w, s)] = (shared & -shared).bit_length() - 1
    return RigidityReport(True, None, used)


def ca_pseudometric(f: CellularAutomaton, g: CellularAutomaton, w: str,
                    zero: str, origin: int = 0) -> int:
    """0 iff f and g agree at coordinate 0 on the point zero^inf w zero^inf
    (cell `origin` of w sits at coordinate 0), else 1."""
    if f.alphabet != g.alphabet:
        raise ValueError("alphabet mismatch")
    if zero not in f.alphabet:
        raise ValueError(f"symbol {zero!r} not in alphabet")
    if not 0 <= origin <= len(w):
        raise ValueError("origin outside the word")
    x = Configuration(f.alphabet, zero, w[:origin], w[origin:], zero)
    lo = min(f.left, g.left)
    hi = max(f.right, g.right)
    window = x.window(lo, hi)
    fv = f.table[window[f.left - lo:f.right - lo + 1]]
    gv = g.table[window[g.left - lo:g.right - lo + 1]]
    return int(fv != gv)
