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
"""

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


def minimal_neighborhood(f: CellularAutomaton) -> NeighborhoodInfo:
    """Exhaustive per-coordinate dependency analysis of the rule table."""
    essential = []
    syms = f.alphabet.symbols
    for pos, off in enumerate(range(f.left, f.right + 1)):
        depends = False
        for pat in itertools.product(syms, repeat=f.width - 1):
            outs = {f.table["".join(pat[:pos]) + s + "".join(pat[pos:])]
                    for s in syms}
            if len(outs) > 1:
                depends = True
                break
        if depends:
            essential.append(off)
    if not essential:
        return NeighborhoodInfo((), None, ())
    lo, hi = essential[0], essential[-1]
    mask = tuple(o in essential for o in range(lo, hi + 1))
    return NeighborhoodInfo(tuple(essential), (lo, hi), mask)


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


def _restrict_table(f: CellularAutomaton, lo: int, hi: int) -> dict:
    """Rule table over the window [lo, hi] (must contain all dependencies)."""
    syms = f.alphabet.symbols
    pad_l = lo - f.left
    pad_r = f.right - hi
    out = {}
    for pat in itertools.product(syms, repeat=hi - lo + 1):
        full = syms[0] * pad_l + "".join(pat) + syms[0] * pad_r
        out["".join(pat)] = f.table[full]
    return out


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
    info = minimal_neighborhood(f)
    if info.size <= 1:
        iso = False
        decomp = None
        if info.size == 1:
            off = info.essential[0]
            gmap = _restrict_table(f, off, off)
            if sorted(gmap.values()) == sorted(f.alphabet.symbols):
                iso = True
                decomp = (off, gmap)
        return ClassificationReport(info, True, iso, iso, decomp, None)
    witness = _non_contracting_witness(f, info)
    return ClassificationReport(info, False, False, False, None, witness)


def _separating_context(table: dict, syms, r: int, place):
    """The first (u, a, b), u of length r - 1 in the alphabet's order and
    a before b, with table[place(u, a)] != table[place(u, b)]; or None."""
    for u in ("".join(t) for t in itertools.product(syms, repeat=r - 1)):
        for a, b in itertools.combinations(syms, 2):
            if table[place(u, a)] != table[place(u, b)]:
                return u, a, b
    return None


def _non_contracting_witness(f: CellularAutomaton, info: NeighborhoodInfo):
    """Periodic pair from the matrix construction over the minimal connected
    neighborhood: one mismatch per period in, at least two out."""
    lo, hi = info.span
    r = hi - lo + 1
    table = _restrict_table(f, lo, hi)
    syms = f.alphabet.symbols
    left_ctx = _separating_context(table, syms, r, lambda u, s: u + s)
    right_ctx = _separating_context(table, syms, r, lambda v, s: s + v)
    if not (left_ctx and right_ctx):
        raise AssertionError("reduced table must depend on both ends")
    u, a, b = left_ctx
    v, c, d = right_ctx
    row = {s: table[u + s] for s in syms}
    col = {s: table[s + v] for s in syms}
    pair = None
    for alpha, gamma in ((a, c), (a, d), (b, c), (b, d)):
        if alpha != gamma and row[alpha] != row[gamma] \
                and col[alpha] != col[gamma]:
            pair = (alpha, gamma)
            break
    if pair is None:
        raise AssertionError("no separated symbol pair exists")
    alpha, gamma = pair
    # equal-length period words: the distance of their points, and of the
    # images, is the mismatch density of the words
    xw, yw = u + alpha + v, u + gamma + v
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

    @functools.cache
    def batch(i: int, g: int) -> tuple:
        """(stride, B of group i, B of its images, class mask, guards)."""
        stride, b_in, mask, guards = plan.batch(i, g)
        b_out = plan.pack_group([images[w] for w in groups[i]], g)[1]
        return stride, b_in, b_out, mask, guards

    first = {"contracting": None, "isometric": None, "expanding": None}
    for w1 in orbits:
        for i, group in enumerate(groups):
            g = gcd(len(w1), len(group[0]))
            stride, b_in, b_out, M, G = batch(i, g)
            pack = packs(g)
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
