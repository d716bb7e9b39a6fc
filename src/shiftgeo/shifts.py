"""Sofic shift presentations and SFT specifications.

A :class:`ShiftPresentation` is a finite labeled directed graph; the subshift
it presents is the set of bi-infinite label sequences along bi-infinite
paths.  SFTs given by forbidden-word lists compile to presentations via the
standard higher-block construction.  On top of this the module provides
language queries, minimal deterministic presentations (Shannon covers),
transitive components, mixing distances (the cover's period comes from
``_graph.bfs_period``, as Karp's cyclic classes do), synchronizing/unbordered
word search, an exact entropy-positivity test, intersections, membership of
eventually periodic configurations, and periodic orbits.

``periodic_orbits`` is the one enumerator of periodic points: a walk of the
Lyndon words whose periodic points lie in X.  A periodic point inf(w) lies
in X exactly when a cycle of X reads a power of w (Lind and Marcus): an
infinite run of w-blocks revisits a state.  So the one test of periodic
points is the cycle flag of w's element of the transition monoid
``_RelationMonoid``, interned once per distinct relation and carried along
the Lyndon walk.  The same greatest fixpoint,
``_RelationMonoid.stable``, decides both arms of an eventually periodic
point in ``contains_config``.

Every walk on sets of named states reads words through its one forward
step ``step`` (and ``read``, a fold of it) or its one backward step
``step_back``; a symbol outside the alphabet steps to the empty set, as
in the mask rows ``_symbol_rows``.  Each search has one private
implementation that its callers share: the factor walk ``_factors``, the
subset construction ``_subset_graph``, the inclusion BFS on state masks
``_mask_subset``, the index adjacency ``_indexed``, the SCCs
``_components`` (each as its state names and its internal edges), and
the marker search ``_marker_search`` (a synchronizing w with pads u,
w u w a factor) whose first hit both ``mixing_sft_inside`` and
``homotopy.embed_complex`` take.

All operations are pure; presentations are immutable after construction.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from operator import or_

from . import _graph
from .configs import Alphabet, Configuration, is_unbordered, json_field
from .errors import CapError, EmptyShiftError, PreconditionError


def _state_key(s):
    """Deterministic sort key for heterogeneous state names."""
    if isinstance(s, frozenset):
        return (2, tuple(sorted(_state_key(x) for x in s)))
    if isinstance(s, tuple):
        return (1, tuple(_state_key(x) for x in s))
    return (0, str(s))


def _edge_key(alphabet: Alphabet, e) -> tuple:
    """(source, label rank, target): the canonical order of edges."""
    return (_state_key(e[0]), alphabet.index(e[2]), _state_key(e[1]))


class ShiftPresentation:
    """Labeled directed graph presenting a sofic shift.

    ``states`` is a sequence of hashable names and ``edges`` a sequence of
    ``(src, dst, label)`` triples.  The graph is trimmed to its essential
    part (every state on a bi-infinite path) on construction; the empty
    presentation (no states) is valid and presents the empty shift.
    """

    __slots__ = ("alphabet", "states", "edges", "_out", "_in", "_cover",
                 "_orbit_plan")

    def __init__(self, alphabet: Alphabet, states, edges):
        self.alphabet = alphabet
        states = list(states)
        seen = set()
        for s in states:
            if s in seen:
                raise ValueError(f"duplicate state {s!r}")
            seen.add(s)
        edges = [(s, t, a) for (s, t, a) in edges]
        for (s, t, a) in edges:
            if s not in seen or t not in seen:
                raise ValueError(f"edge {s!r}->{t!r} uses unknown state")
            if a not in alphabet:
                raise ValueError(f"edge label {a!r} not in alphabet")
        if len(set(edges)) != len(edges):
            edges = list(dict.fromkeys(edges))
        states, edges = _trim_essential(states, edges)
        self.states = tuple(sorted(states, key=_state_key))
        self.edges = tuple(sorted(edges,
                                  key=lambda e: _edge_key(alphabet, e)))
        out: dict = {s: {} for s in self.states}
        inc: dict = {s: {} for s in self.states}
        for (s, t, a) in self.edges:
            out[s].setdefault(a, set()).add(t)
            inc[t].setdefault(a, set()).add(s)
        self._out = out
        self._in = inc
        self._cover = None   # filled by the first shannon_cover(self)
        # the orbit plan (metrics._OrbitPlan) that every periodic-orbit
        # query on self up to its bound shares; filled by the first query
        # and replaced only by a query with a larger bound
        self._orbit_plan = None

    # -- basic queries -------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.states

    def is_deterministic(self) -> bool:
        return all(len(ts) == 1 for m in self._out.values()
                   for ts in m.values())

    def step(self, state_set, symbol) -> frozenset:
        out = set()
        for s in state_set:
            out |= self._out[s].get(symbol, set())
        return frozenset(out)

    def step_back(self, state_set, symbol) -> frozenset:
        out = set()
        for s in state_set:
            out |= self._in[s].get(symbol, set())
        return frozenset(out)

    def read(self, state_set, word: str) -> frozenset:
        cur = frozenset(state_set)
        for a in word:
            if not cur:
                break
            cur = self.step(cur, a)
        return cur

    def accepts_word(self, word: str) -> bool:
        """True iff word is a factor of the presented shift."""
        return bool(self.read(self.states, word))

    def renamed(self) -> "ShiftPresentation":
        """Relabel states to q0..qn in canonical order."""
        name = {s: f"q{i}" for i, s in enumerate(self.states)}
        return ShiftPresentation(
            self.alphabet, [name[s] for s in self.states],
            [(name[s], name[t], a) for (s, t, a) in self.edges])

    def to_dict(self) -> dict:
        return {"alphabet": "".join(self.alphabet.symbols),
                "states": [str(s) for s in self.states],
                "edges": [{"from": str(s), "to": str(t), "label": a}
                          for (s, t, a) in self.edges]}

    @staticmethod
    def from_dict(d: dict) -> "ShiftPresentation":
        ab = Alphabet(json_field(d, "alphabet", (str, list)))
        # states are named by strings, as to_dict writes them: 0 and "0" are
        # one name, so a file naming both has a duplicate state
        name = (str, int, float)
        end = lambda e, key: str(json_field(e, key, name))
        edges = [(end(e, "from"), end(e, "to"), json_field(e, "label", name))
                 for e in json_field(d, "edges", list, dict)]
        return ShiftPresentation(
            ab, map(str, json_field(d, "states", list, name)), edges)

    def __repr__(self) -> str:
        return (f"ShiftPresentation(|Q|={len(self.states)}, "
                f"|E|={len(self.edges)})")


def _trim_essential(states, edges):
    """Drop states not lying on a bi-infinite path."""
    states = set(states)
    while True:
        kept = [(s, t, a) for (s, t, a) in edges
                if s in states and t in states]
        live = {s for (s, _t, _a) in kept} & {t for (_s, t, _a) in kept}
        bad = states - live
        if not bad:
            return states, kept
        states -= bad


# ---------------------------------------------------------------------------
# constructors


@dataclass(frozen=True)
class SftSpec:
    """SFT given by an alphabet and a list of forbidden words."""

    alphabet: Alphabet
    forbidden: tuple = ()

    def __post_init__(self):
        words = []
        for w in self.forbidden:
            if not w:
                raise ValueError("forbidden words must be nonempty")
            self.alphabet.check_word(w)
            if w not in words:
                words.append(w)
        object.__setattr__(self, "forbidden", tuple(sorted(words)))


def compile_sft(spec: SftSpec) -> ShiftPresentation:
    """Deterministic essential presentation of an SFT (higher-block graph)."""
    ab = spec.alphabet
    m = max((len(w) for w in spec.forbidden), default=1)
    clean = lambda w: not any(f in w for f in spec.forbidden)
    words = ["".join(u) for u in itertools.product(ab.symbols, repeat=m - 1)
             if clean("".join(u))]
    # states named by their words' keys: renamed() numbers them in order
    edges = [(ab.key(u), ab.key((u + a)[1:]), a) for u in words for a in ab
             if clean(u + a)]
    pres = ShiftPresentation(ab, map(ab.key, words), edges)
    if pres.is_empty:
        raise EmptyShiftError("the forbidden words rule out every point")
    return pres.renamed()


def full_shift(alphabet: Alphabet) -> ShiftPresentation:
    return ShiftPresentation(alphabet, ["q0"],
                             [("q0", "q0", a) for a in alphabet])


def golden_mean() -> ShiftPresentation:
    """Binary shift forbidding the word 11."""
    from .configs import BINARY
    return compile_sft(SftSpec(BINARY, ("11",)))


def even_shift() -> ShiftPresentation:
    """Binary shift in which maximal 0-runs between 1s have even length."""
    from .configs import BINARY
    return ShiftPresentation(
        BINARY, ["e", "o"],
        [("e", "e", "1"), ("e", "o", "0"), ("o", "e", "0")])


def disjoint_union(*parts: ShiftPresentation) -> ShiftPresentation:
    """Presentation of the union, over the common alphabet of the parts."""
    syms = []
    for p in parts:
        for a in p.alphabet:
            if a not in syms:
                syms.append(a)
    ab = Alphabet(syms)
    states, edges = [], []
    for i, p in enumerate(parts):
        states += [(i, s) for s in p.states]
        edges += [((i, s), (i, t), a) for (s, t, a) in p.edges]
    return ShiftPresentation(ab, states, edges)


# ---------------------------------------------------------------------------
# language queries


def _factors(X: ShiftPresentation, n: int):
    """Yield the length-n factors of X in the alphabet's lexicographic
    order, by a depth-first walk on the state sets of their prefixes."""
    if n < 0:
        raise ValueError(f"factor length must be non-negative, got {n}")
    if X.is_empty:
        return
    backwards = X.alphabet.symbols[::-1]
    stack = [("", frozenset(X.states))]
    while stack:
        w, S = stack.pop()
        if len(w) == n:
            yield w
            continue
        for a in backwards:
            T = X.step(S, a)
            if T:
                stack.append((w + a, T))


def language(X: ShiftPresentation, n: int) -> list[str]:
    """All length-n factors of X, in the alphabet's lexicographic order.
    Raises ValueError for n < 0."""
    return list(_factors(X, n))


def _symbol_rows(X: ShiftPresentation, symbols) -> list[list[int]]:
    """Per symbol a of ``symbols``, the masks of the a-successors of X's
    states (bit j for X.states[j]); all zero for a symbol X lacks."""
    idx = {s: i for i, s in enumerate(X.states)}
    rows = {a: [0] * len(idx) for a in symbols}
    for (s, t, a) in X.edges:
        if a in rows:
            rows[a][idx[s]] |= 1 << idx[t]
    return list(rows.values())


def _mask_subset(rows_a, rows_b) -> bool:
    """The subset BFS: True iff every word the A rows read from all of A's
    states, the B rows (of the same symbols, see ``_symbol_rows``) read
    from all of B's.  A pair of state sets is one mask, A's n states in its
    low bits, so one step ORs the joint row entries of its set bits."""
    n = len(rows_a[0])
    rows = [ra + [m << n for m in rb] for ra, rb in zip(rows_a, rows_b)]
    start = (1 << (n + len(rows_b[0]))) - 1
    seen = {start}
    queue = [start]
    for S in queue:
        for row in rows:
            T, R = 0, S
            while R:
                low = R & -R
                T |= row[low.bit_length() - 1]
                R ^= low
            if not T & ((1 << n) - 1):
                continue
            if not T >> n:
                return False
            if T not in seen:
                seen.add(T)
                queue.append(T)
    return True


def language_subset(A: ShiftPresentation, B: ShiftPresentation) -> bool:
    """Exact: every factor of A is a factor of B.  Symbols are matched by
    name: a symbol of A that B lacks steps B to the empty set.  The BFS
    walks the R <= 2^(|Q_A| + |Q_B|) reachable pairs of state sets in
    O(R |A| (|Q_A| + |Q_B|)) bit operations after O(|E_A| + |E_B|) set-up."""
    symbols = A.alphabet.symbols
    return _mask_subset(_symbol_rows(A, symbols), _symbol_rows(B, symbols))


def language_equal(A: ShiftPresentation, B: ShiftPresentation) -> bool:
    return language_subset(A, B) and language_subset(B, A)


# ---------------------------------------------------------------------------
# Shannon cover


def _subset_graph(X: ShiftPresentation, step):
    """The state sets reachable from X.states under ``step`` (``X.step`` or
    ``X.step_back``), in breadth-first order, and the labeled edges
    (S, step(S, a), a) between them."""
    start = frozenset(X.states)
    sets = [start]
    seen = {start}
    edges = []
    for S in sets:
        for a in X.alphabet:
            T = step(S, a)
            if not T:
                continue
            edges.append((S, T, a))
            if T not in seen:
                seen.add(T)
                sets.append(T)
    return sets, edges


def _merge_equivalent(X: ShiftPresentation) -> ShiftPresentation:
    """Merge states of a deterministic presentation with equal follower sets
    (Moore partition refinement on the partial transition function)."""
    out = X._out
    part = {s: frozenset(out[s]) for s in X.states}
    count = len(set(part.values()))
    while True:
        # signatures are numbered as they come: the numbers need to agree
        # within a round only, as merged states are named by their member
        # sets; each round refines the last, so an equal count is a fixpoint
        ids: dict = {}
        part = {s: ids.setdefault((part[s], tuple(
            part[next(iter(out[s][a]))] if a in out[s] else -1
            for a in X.alphabet)), len(ids)) for s in X.states}
        if len(ids) == count:
            break
        count = len(ids)
    reps: dict[int, list] = {}
    for s in X.states:
        reps.setdefault(part[s], []).append(s)
    name = {c: frozenset(grp) for c, grp in reps.items()}
    edges = {(name[part[s]], name[part[t]], a) for (s, t, a) in X.edges}
    return ShiftPresentation(X.alphabet, list(name.values()), edges)


def shannon_cover(X: ShiftPresentation) -> ShiftPresentation:
    """Minimal deterministic presentation of the shift presented by X.

    Determinize from the full state set, merge follower-equivalent states,
    then greedily delete states whose removal leaves the language unchanged
    (this strips subset-construction artifacts whose factors are covered
    elsewhere).  The result is language-equal to X and is a fixed point of
    the procedure.

    A presentation is immutable, so its cover is built once, on the first
    call, and kept in its ``_cover`` slot: later calls on the same object
    return that object.  A cover's own slot starts empty, so the cover of a
    cover is built from it.
    """
    if X._cover is not None:
        return X._cover
    if X.is_empty:
        raise EmptyShiftError("empty shift has no cover")
    M = _merge_equivalent(ShiftPresentation(X.alphabet,
                                            *_subset_graph(X, X.step)))
    changed = True
    while changed:
        changed = False
        for s in M.states:
            if len(M.states) == 1:
                break
            rest = [t for t in M.states if t != s]
            Y = ShiftPresentation(
                M.alphabet, rest,
                [e for e in M.edges if e[0] != s and e[1] != s])
            # Y is a subgraph of M, so L(Y) is always inside L(M)
            if not Y.is_empty and language_subset(M, Y):
                M = _merge_equivalent(Y)
                changed = True
                break
    X._cover = M.renamed()
    return X._cover


def _indexed(C: ShiftPresentation):
    """(idx, succ): the index of each state in C.states, and the successor
    index list of each state, one entry per edge."""
    idx = {s: i for i, s in enumerate(C.states)}
    succ = [[] for _ in C.states]
    for (s, t, _a) in C.edges:
        succ[idx[s]].append(idx[t])
    return idx, succ


def _components(C: ShiftPresentation) -> list:
    """Strongly connected components of C, each as (the set of its state
    names, the edges of C inside it in C's edge order)."""
    comps = _graph.strongly_connected_components(len(C.states), _indexed(C)[1])
    return [(names, [e for e in C.edges if e[0] in names and e[1] in names])
            for names in ({C.states[i] for i in comp} for comp in comps)]


# ---------------------------------------------------------------------------
# transitive components


@dataclass
class ComponentDecomposition:
    components: list  # maximal irreducible subshifts, canonical order
    dropped: list = field(default_factory=list)  # (presentation, kept_index)


def transitive_components(X: ShiftPresentation) -> ComponentDecomposition:
    """Maximal irreducible subshifts of X.

    Computed from the SCCs of the Shannon cover, dropping SCC subshifts whose
    language is contained in another's.
    """
    if X.is_empty:
        return ComponentDecomposition([])
    C = shannon_cover(X)
    cands = []
    for names, edges in _components(C):
        if not edges:
            continue
        cands.append(ShiftPresentation(C.alphabet, names, edges).renamed())
    edges_key = lambda p: [_edge_key(p.alphabet, e) for e in p.edges]
    cands.sort(key=lambda p: (len(p.states), edges_key(p)))
    keep: list = []
    dropped = []
    for p in cands:
        inside = next((i for i, q in enumerate(keep)
                       if language_subset(p, q)), None)
        if inside is None:
            keep = [q for q in keep if not language_subset(q, p)]
            keep.append(p)
        else:
            dropped.append((p, inside))
    keep.sort(key=lambda p: (len(p.states),
                             p.alphabet.key("".join(language(p, 1))),
                             edges_key(p)))
    return ComponentDecomposition(keep, dropped)


# ---------------------------------------------------------------------------
# mixing distance


def _minimal_sets(family: list[frozenset]) -> list[frozenset]:
    return [S for S in family
            if not any(T < S for T in family)]


def mixing_distance(X: ShiftPresentation) -> int:
    """Least m such that every gap length n >= m is realizable between any
    two factors of X.  Raises for non-mixing input (with the period)."""
    if X.is_empty:
        raise EmptyShiftError("empty shift")
    C = shannon_cover(X)
    idx, succ = _indexed(C)
    if len(_graph.strongly_connected_components(len(succ), succ)) != 1:
        raise PreconditionError("shift is not irreducible")
    g = _graph.bfs_period([[(w, 1) for w in row] for row in succ])[1]
    if g > 1:
        raise PreconditionError(f"shift is not mixing (period {g})")
    # rows[i]: bitmask of the states that paths of exactly k edges from
    # state i reach, for k = 0, 1, ...; joins[k]: every end-of-word state
    # set reaches every start-of-word state set in exactly k steps.  Rows
    # are joined by OR, so parallel edges (repeats in succ) count once.
    mask = lambda S: sum(1 << idx[s] for s in S)
    ends = [mask(S) for S in _minimal_sets(_subset_graph(C, C.step)[0])]
    starts = [mask(S)
              for S in _minimal_sets(_subset_graph(C, C.step_back)[0])]
    n = len(C.states)
    rows = [1 << i for i in range(n)]
    joins = []
    for _ in range((n - 1) ** 2 + n + 2):
        reach = [functools.reduce(or_, (r for i, r in enumerate(rows)
                                        if E >> i & 1)) for E in ends]
        joins.append(all(r & S for r in reach for S in starts))
        rows = [functools.reduce(or_, (rows[j] for j in row))
                for row in succ]
        if all(r == (1 << n) - 1 for r in rows):
            break
    else:
        raise PreconditionError("shift is not mixing (no positive power)")
    m = len(joins)
    while m > 0 and joins[m - 1]:
        m -= 1
    return m


# ---------------------------------------------------------------------------
# synchronizing words, entropy, the SFT-inside construction


def _synchronizing_words(C: ShiftPresentation, cap: int):
    """Yield the unbordered words of length <= cap that synchronize the
    deterministic presentation C (reading one leads to a single state), by
    length and then in the alphabet's lexicographic order."""
    for length in range(1, cap + 1):
        for w in _factors(C, length):
            if len(C.read(C.states, w)) == 1 and is_unbordered(w):
                yield w


def _pads(C: ShiftPresentation, w: str, k: int) -> list[str]:
    """The words u of length k that avoid w and have w u w a factor of C, in
    the alphabet's lexicographic order."""
    return [u for u in _factors(C, k)
            if w not in u and C.accepts_word(w + u + w)]


def find_unbordered_synchronizing(X: ShiftPresentation,
                                  cap: int = 16) -> str:
    """Lexicographically least among the shortest words that synchronize the
    Shannon cover and are unbordered, of length at most cap > 0."""
    if cap <= 0:
        raise PreconditionError("word length cap must be positive")
    w = next(_synchronizing_words(shannon_cover(X), cap), None)
    if w is None:
        raise CapError(f"no unbordered synchronizing word of length <= {cap}")
    return w


def positive_entropy(X: ShiftPresentation) -> bool:
    """True iff the shift has positive entropy.

    On a deterministic cover this holds iff some strongly connected
    component carries more internal edges than states, i.e. some state lies
    on two distinct first-return cycles.
    """
    if X.is_empty:
        return False
    C = shannon_cover(X)
    return any(len(edges) > len(names) for names, edges in _components(C))


def concatenation_closure(alphabet: Alphabet, words) -> ShiftPresentation:
    """Presentation of the closure of all bi-infinite concatenations of the
    given nonempty words (a flower of cycles through one hub state)."""
    words = set(words)
    if not words or any(not w for w in words):
        raise ValueError("need nonempty words")
    states: list = ["hub"]
    edges = []
    for w in words:
        prev = "hub"
        for i, a in enumerate(w[:-1]):
            s = (alphabet.key(w), i)
            states.append(s)
            edges.append((prev, s, a))
            prev = s
        edges.append((prev, "hub", w[-1]))
    return ShiftPresentation(alphabet, states, edges).renamed()


@dataclass
class SftInside:
    shift: ShiftPresentation
    w: str
    u: str
    v: str


def _marker_search(X: ShiftPresentation, n: int, word_cap: int,
                   pad_cap: int):
    """(C, w, us, v): the Shannon cover C of X, its first marker w with some
    k <= pad_cap that has at least n pads us of length k and a least pad v of
    length k + 1; None when the caps run out.  Raises unless X is mixing with
    positive entropy.  Every hit is good: w synchronizes C, so each w u and
    w v is a cycle at w's state, and two of coprime lengths close up into a
    mixing positive-entropy subshift of X (Lind and Marcus)."""
    if not positive_entropy(X):
        raise PreconditionError("shift does not have positive entropy")
    mixing_distance(X)  # raises unless X is mixing
    C = shannon_cover(X)
    for w in _synchronizing_words(C, word_cap):
        vs = _pads(C, w, 0)
        for k in range(pad_cap + 1):
            us, vs = vs, _pads(C, w, k + 1)
            if len(us) >= n and vs:
                return C, w, us, vs[0]
    return None


def mixing_sft_inside(X: ShiftPresentation, word_cap: int = 16,
                      pad_cap: int = 8) -> SftInside:
    """A mixing positive-entropy SFT inside X, presented as the closure of
    concatenations of w*u and w*v with w unbordered synchronizing, u and v
    avoiding w, w u w and w v w factors of X, and |v| = |u| + 1."""
    found = _marker_search(X, 1, word_cap, pad_cap)
    if found is None:
        raise CapError("no (w, u, v) triple found within the search caps")
    C, w, us, v = found
    Y = concatenation_closure(C.alphabet, [w + us[0], w + v])
    if not (language_subset(Y, C) and positive_entropy(Y) and _is_mixing(Y)):
        raise AssertionError(f"bad closure of {w + us[0]} and {w + v}")
    return SftInside(Y, w, us[0], v)


def _is_mixing(X: ShiftPresentation) -> bool:
    try:
        mixing_distance(X)
        return True
    except PreconditionError:
        return False


# ---------------------------------------------------------------------------
# intersection and membership


def intersect(X: ShiftPresentation, Y: ShiftPresentation) -> ShiftPresentation:
    """Product-automaton presentation of the intersection (may be empty)."""
    if X.alphabet != Y.alphabet:
        raise ValueError("alphabet mismatch")
    states = [(s, t) for s in X.states for t in Y.states]
    edges = [((s1, s2), (t1, t2), a) for (s1, t1, a) in X.edges
             for s2 in Y.states for t2 in Y.step({s2}, a)]
    return ShiftPresentation(X.alphabet, states, edges).renamed()


def contains_config(X: ShiftPresentation, x: Configuration) -> bool:
    """Exact membership of an eventually periodic configuration: a state
    with an infinite run of left-period blocks into it reads the finite
    middle to a state with an infinite run of right-period blocks out of
    it."""
    if X.is_empty:
        return False
    M = _RelationMonoid(X)
    left, mid, right = (functools.reduce(M.step, w, M.identity) for w in
                        (x.left_period, x.left_finite + x.right_finite,
                         x.right_period))
    into, out = M.stable(left, False), M.stable(right, True)
    return mid >= 0 and any(into >> s & 1 and r & out
                            for s, r in enumerate(M.relations[mid]))


class _RelationMonoid:
    """The transition monoid of X, interned as the walks reach it.

    The relation R_w of a word w (s to t when a path from s to t reads w)
    is one bitmask row per source state, in X's state order.  Each distinct
    nonempty R_w is an element id with ``succ``, its images under the
    symbols stepped so far (-1: the empty relation, also for symbols
    outside the alphabet), and ``flags``, its cycle flag: ``stable`` is
    nonempty exactly when a cycle of X reads a power of w, so when inf(w)
    lies in X (Lind and Marcus).  An image costs O(|Q|^2) once; a later
    step is one lookup.
    """

    __slots__ = ("rows", "ids", "relations", "succ", "flags", "identity")

    def __init__(self, X: ShiftPresentation):
        idx = {s: i for i, s in enumerate(X.states)}
        self.rows = {a: [0] * len(idx) for a in X.alphabet}
        for (s, t, a) in X.edges:
            self.rows[a][idx[s]] |= 1 << idx[t]
        self.ids, self.relations, self.succ, self.flags = {}, [], [], []
        self.identity = self._element(tuple(1 << i for i in range(len(idx))))

    def _element(self, rel: tuple) -> int:
        if not any(rel):
            return -1
        e = self.ids.get(rel)
        if e is None:
            e = self.ids[rel] = len(self.relations)
            self.relations.append(rel)
            self.succ.append({})
            self.flags.append(bool(self.stable(e, True)))
        return e

    def stable(self, e: int, outgoing: bool) -> int:
        """Bitmask of the states carrying an infinite run of w-blocks, where
        e is the element of w: leaving the state when ``outgoing``, arriving
        into it otherwise.  The greatest fixpoint of S -> {s : R_w[s] meets
        S}, or of S -> R_w(S), iterated down from every state; either is
        nonempty exactly when inf(w) lies in X."""
        if e < 0:
            return 0
        rel = self.relations[e]
        live = (1 << len(rel)) - 1
        while True:
            if outgoing:
                nxt = sum(1 << s for s, r in enumerate(rel) if r & live)
            else:
                nxt = functools.reduce(
                    or_, (r for s, r in enumerate(rel) if live >> s & 1), 0)
            if nxt == live:
                return live
            live = nxt

    def image(self, e: int, b) -> int:
        """Compute and record the step of element e >= 0 by b."""
        row = self.rows.get(b)
        self.succ[e][b] = f = self._element(tuple(
            functools.reduce(or_, (row[j] for j in range(len(row))
                                   if r >> j & 1), 0)
            for r in self.relations[e]) if row else ())
        return f

    def step(self, e: int, b) -> int:
        """The element of w b, where e is the element of w (-1 stays)."""
        if e < 0:
            return -1
        f = self.succ[e].get(b)
        return self.image(e, b) if f is None else f

    def cycles(self, e: int) -> bool:
        """True iff inf(w) lies in X, where e is the element of w."""
        return e >= 0 and self.flags[e]


def periodic_orbits(X: ShiftPresentation, max_period: int) -> list[str]:
    """Primitive representatives of the periodic orbits of X with least
    period <= max_period, each the least rotation of its orbit in the
    alphabet's order, ordered by length and then lexicographically in that
    order.

    These are the Lyndon words w of length <= max_period (primitive and
    strictly least among their rotations in the alphabet's order) with
    inf(w) in X.  The words are read off the Fredricksen-Kessler-Maiorana
    prenecklace tree, which works for any total order on the symbols
    (Ruskey, Savage and Wang 1992): a prefix a[0:t] of least period p
    extends by a[t - p], keeping p, or by any larger symbol, taking period
    t + 1, and it is a Lyndon word exactly when p == t.  Every prefix of a
    Lyndon word is a prenecklace, so the walk carries each prefix's element
    of the transition monoid of X, drops a subtree as soon as that element
    is empty (the prefix is not a factor), and keeps a Lyndon word exactly
    when its element has the cycle flag set.

    The surviving children of a node depend only on its element e and
    its kept symbol a[t - p], so each (e, kept symbol) pair steps every
    symbol once and caches the children (symbol, element) it keeps; a
    visited prenecklace costs one lookup in that cache and one new prefix
    string per child.  The last level is emitted by its parent, not pushed:
    a leaf is a Lyndon word exactly when it took a symbol larger than the
    kept one and its element has the cycle flag.  So the cost is O(|A|)
    steps per visited prenecklace of length < max_period (on the full shift
    O(|A|^P / P) of them), each copying at most max_period characters,
    plus O(|Q|^2) per element of the monoid the walk reaches (one on a full
    shift, never more than the nodes); the words are collected per length,
    so no sort follows.  The walk keeps an explicit stack of
    (prefix, length, least period, element) with each prefix as a string:
    it holds at most (|A| - 1) P + 1 prefixes, so O(|A| P^2) characters
    beyond the words and elements, and a one-symbol alphabet (a path of
    depth max_period) needs no recursion.
    """
    if max_period <= 0 or X.is_empty:
        return []
    M = _RelationMonoid(X)
    flags = M.flags
    order = X.alphabet.symbols
    # the symbols > b, largest first: pushed before b itself, the prefixes
    # pop in lexicographic order
    above = {b: order[i + 1:][::-1] for i, b in enumerate(order)}
    kids: dict = {}

    def children(e: int, keep: str) -> tuple:
        """(element of w keep, the (b, element of w b) for b > keep with
        w b a factor, largest first, those b with inf(w b) in X, smallest
        first), where e is the element of w."""
        bigger = tuple((b, f) for b in above[keep] if (f := M.step(e, b)) >= 0)
        out = kids[e, keep] = (M.step(e, keep), bigger,
                               tuple(b for b, f in bigger[::-1] if flags[f]))
        return out

    f, bigger, _ = children(M.identity, order[0])
    # (prefix a, its length t, its least period p, element of a)
    stack = [(b, 1, 1, g) for b, g in bigger]
    if f >= 0:
        stack.append((order[0], 1, 1, f))
    if max_period == 1:
        return [a for a, _t, _p, e in reversed(stack) if flags[e]]
    words: list[list[str]] = [[] for _ in range(max_period + 1)]
    last = max_period - 1
    pop, push = stack.pop, stack.append
    while stack:
        a, t, p, e = pop()
        if p == t and flags[e]:
            words[t].append(a)
        keep = a[t - p]
        f, bigger, lyndon = kids.get((e, keep)) or children(e, keep)
        if t == last:
            words[max_period].extend([a + b for b in lyndon])
            continue
        t += 1
        for b, g in bigger:
            push((a + b, t, t, g))
        if f >= 0:
            push((a + keep, t, p, f))
    return list(itertools.chain.from_iterable(words))
