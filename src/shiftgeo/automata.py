"""Cellular automata on subshifts: rule tables, the global map, minimal
neighborhoods, and classification of the global map as contracting,
isometric, or expanding for the density pseudometrics.

On the full shift the classification is exact and structural: a map never
increasing distances must depend on at most one cell, a distance-preserving
map is a shift composed with a symbol permutation, and a map never
decreasing distances is already an isometry.  Non-contracting rules carry an
explicit periodic witness pair with exact distances.  On general subshifts a
bounded exhaustive check over periodic orbit pairs is provided.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .configs import Alphabet, Configuration, periodic_config
from .errors import PreconditionError
from .metrics import _Correlator, d_besicovitch
from .shifts import (ShiftPresentation, language_subset, periodic_orbits,
                     shannon_cover, contains_config, language)

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
        ab = Alphabet(d["alphabet"])
        lo, hi = d["offsets"]
        return CellularAutomaton(ab, lo, hi, dict(d["table"]))


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


def apply_ca(f: CellularAutomaton, x: Configuration) -> Configuration:
    """The image configuration f(x); eventually periodic structure is kept."""
    if f.alphabet != x.alphabet:
        raise ValueError("alphabet mismatch")
    lp, rp = len(x.left_period), len(x.right_period)
    ml = len(x.left_finite) + max(0, f.right) + lp + 1
    mr = len(x.right_finite) + max(0, -f.left) + rp + 1
    img = lambda i: f.table[x.window(i + f.left, i + f.right)]
    return Configuration(
        x.alphabet,
        "".join(img(i) for i in range(-ml - lp, -ml)),
        "".join(img(i) for i in range(-ml, 0)),
        "".join(img(i) for i in range(0, mr)),
        "".join(img(i) for i in range(mr, mr + rp)))


def apply_cyclic(f: CellularAutomaton, w: str) -> str:
    """Image period word: f applied to the periodic point with window w."""
    p = len(w)
    return "".join(
        f.table["".join(w[(i + o) % p] for o in range(f.left, f.right + 1))]
        for i in range(p))


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
            gmap = {s: f.table[_pattern_with(f, off, s)]
                    for s in f.alphabet.symbols}
            if sorted(gmap.values()) == sorted(f.alphabet.symbols):
                iso = True
                decomp = (off, gmap)
        return ClassificationReport(info, True, iso, iso, decomp, None)
    witness = _non_contracting_witness(f, info)
    return ClassificationReport(info, False, False, False, None, witness)


def _pattern_with(f: CellularAutomaton, off: int, s: str) -> str:
    fill = f.alphabet.symbols[0]
    return "".join(s if o == off else fill
                   for o in range(f.left, f.right + 1))


def _non_contracting_witness(f: CellularAutomaton, info: NeighborhoodInfo):
    """Periodic pair from the matrix construction over the minimal connected
    neighborhood: one mismatch per period in, at least two out."""
    lo, hi = info.span
    r = hi - lo + 1
    table = _restrict_table(f, lo, hi)
    syms = f.alphabet.symbols
    left_ctx = None
    for u in ("".join(t) for t in itertools.product(syms, repeat=r - 1)):
        for a, b in itertools.combinations(syms, 2):
            if table[u + a] != table[u + b]:
                left_ctx = (u, a, b)
                break
        if left_ctx:
            break
    right_ctx = None
    for v in ("".join(t) for t in itertools.product(syms, repeat=r - 1)):
        for c, d in itertools.combinations(syms, 2):
            if table[c + v] != table[d + v]:
                right_ctx = (v, c, d)
                break
        if right_ctx:
            break
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
    x = periodic_config(u + alpha + v, f.alphabet)
    y = periodic_config(u + gamma + v, f.alphabet)
    d_in = d_besicovitch(x, y)
    d_out = d_besicovitch(apply_ca(f, x), apply_ca(f, y))
    if d_in != Fraction(1, 2 * r - 1):
        raise AssertionError(f"witness distance {d_in} is not 1/{2 * r - 1}")
    return (x, y, d_in, d_out)


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
    """Exact test that f maps X into X, via an image presentation."""
    C = shannon_cover(X)
    w = f.width
    if w == 1:
        states = list(C.states)
        edges = [(s, t, f.table[a]) for (s, t, a) in C.edges]
    else:
        states = []
        edges = []
        for q in C.states:
            frontier = [("", q)]
            for _ in range(w - 1):
                frontier = [(u + a, t)
                            for (u, qq) in frontier
                            for a in C.alphabet
                            for t in C.successors(qq, a)]
            states += [(q, u) for (u, _t) in frontier]
        states = sorted(set(states), key=lambda s: (str(s[0]), s[1]))
        state_set = set(states)
        for (q, u) in states:
            for mid in C.read({q}, u[:1]):
                for a in C.alphabet:
                    if not C.read({mid}, u[1:] + a):
                        continue
                    nxt = (mid, u[1:] + a)
                    if nxt in state_set:
                        edges.append(((q, u), nxt, f.table[u + a]))
    image = ShiftPresentation(C.alphabet, states, edges)
    return language_subset(image, C)


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

    Each pair costs two packed correlations (see ``metrics``): cin =
    A(w1) B(w2) and cout = A(f w1) B(f w2), whose digit 2N - 1 - k |A|
    (N = g |A|) is the match count at class k before and after the rule.
    Every digit is at most lcm(|w1|, |w2|) <= P^2 < 2^D with D =
    (P * P).bit_length(), so no digit carries, and when the class digits of
    cin and cout agree, so do d_in and d_out at every k: one comparison
    settles the pair.  Otherwise the classes are read in ascending k, as a
    per-k scan would, so each property keeps the same first witness.
    """
    if P <= 0:
        raise PreconditionError("period bound must be positive")
    if not preserves_shift(f, X):
        raise PreconditionError("rule does not map the shift into itself")
    orbits = periodic_orbits(X, P)
    images = {w: apply_cyclic(f, w) for w in orbits}
    corr = _Correlator(f.alphabet.symbols, P)
    pack, mask, digits = corr.pack, corr.mask, corr.digits

    first = {"contracting": None, "isometric": None, "expanding": None}
    for w1 in orbits:
        for w2 in orbits:
            g = gcd(len(w1), len(w2))
            cin = pack(w1, g)[0] * pack(w2, g)[1]
            cout = pack(images[w1], g)[0] * pack(images[w2], g)[1]
            if (cin ^ cout) & mask(g):
                # d_in and d_out share the denominator lcm(|w1|, |w2|)
                block = len(w1) // g * len(w2)
                for k, (a, b) in enumerate(zip(digits(cin, g),
                                               digits(cout, g))):
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
            if all(first.values()):
                break
        if all(first.values()):
            break
    return SubshiftCheck(P, first["contracting"], first["isometric"],
                         first["expanding"])


@dataclass
class RigidityReport:
    passed: bool
    failing: tuple | None        # (word, symbol) with no admissible period
    periods_used: dict           # (word, symbol) -> p

    def __bool__(self):
        return self.passed


def _periodic_words(X: ShiftPresentation, P: int) -> dict[int, set[str]]:
    """For p = 1..P, the set of words w of length p with inf(w) in X: every
    rotation of an orbit word whose length divides p, repeated p/|u|
    times."""
    words: dict[int, set[str]] = {p: set() for p in range(1, P + 1)}
    for u in periodic_orbits(X, P):
        n = len(u)
        rots = [u[i:] + u[:i] for i in range(n)]
        for p in range(n, P + 1, n):
            words[p].update(r * (p // n) for r in rots)
    return words


def isometric_ca_precondition(X: ShiftPresentation, zero: str, L: int,
                              P: int) -> RigidityReport:
    """Bounded check of the periodic-richness condition under which every
    distance-preserving cellular automaton on X has neighborhood size one.

    Requires the all-`zero` point in X and, for every factor w of length at
    most L and every symbol s occurring in w, one shared period p <= P with
    a p-periodic point of X containing w and the point (s zero^(p-1))^inf
    in X.
    """
    if zero not in X.alphabet:
        raise ValueError(f"symbol {zero!r} not in alphabet")
    if L <= 0:
        raise PreconditionError("factor length bound must be positive")
    if P <= 0:
        raise PreconditionError("period bound must be positive")
    if not contains_config(X, periodic_config(zero, X.alphabet)):
        return RigidityReport(False, None, {})
    periodic_words = _periodic_words(X, P)
    used = {}
    for n in range(1, L + 1):
        for w in language(X, n):
            for s in sorted(set(w)):
                found = None
                for p in range(1, P + 1):
                    if s + zero * (p - 1) not in periodic_words[p]:
                        continue
                    horizon = len(w) + p
                    if any(w in (c * (horizon // p + 2))
                           for c in periodic_words[p]):
                        found = p
                        break
                if found is None:
                    return RigidityReport(False, (w, s), used)
                used[(w, s)] = found
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
