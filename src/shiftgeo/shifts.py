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

A presentation holds one adjacency: ``_index`` numbers its states, and
``_fwd[a][i]`` and ``_back[a][i]`` are the masks of the a-successors and
a-predecessors of state i (bit j for states[j]).  Every walk on sets of
states steps masks through the one image step ``_image``; a symbol
outside the alphabet has no row and steps to the empty set.  The public
``step``, ``step_back`` and ``read`` convert frozensets of state names.
Each search has one private implementation that its callers share: the
factor walk ``_factors``, the subset construction ``_subset_graph``, the
inclusion BFS ``_mask_subset``, the SCCs ``_components`` (each as its
state names and its internal edges), and the marker search
``_marker_search`` (a synchronizing w with pads u, w u w a factor) whose
first hit both ``mixing_sft_inside`` and ``homotopy.embed_complex`` take.

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


def _image(row, mask: int) -> int:
    """The union of row[j] over the set bits j of mask: one step of a set
    of states through the mask rows of one symbol."""
    out = 0
    while mask:
        low = mask & -mask
        out |= row[low.bit_length() - 1]
        mask ^= low
    return out


def _walk(rows: dict, mask: int, word) -> int:
    """The mask of the states where paths from the states of mask that
    read word through ``rows`` (``_fwd``, or ``_back`` backwards) end."""
    for a in word:
        if not mask or a not in rows:
            return 0
        mask = _image(rows[a], mask)
    return mask


class ShiftPresentation:
    """Labeled directed graph presenting a sofic shift.

    ``states`` is a sequence of hashable names and ``edges`` a sequence of
    ``(src, dst, label)`` triples.  The graph is trimmed to its essential
    part (every state on a bi-infinite path) on construction; the empty
    presentation (no states) is valid and presents the empty shift.
    """

    __slots__ = ("alphabet", "states", "edges", "_index", "_fwd", "_back",
                 "_cover", "_orbit_plan")

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
        self._index = index = {s: i for i, s in enumerate(self.states)}
        self._fwd = {a: [0] * len(index) for a in alphabet}
        self._back = {a: [0] * len(index) for a in alphabet}
        for (s, t, a) in self.edges:
            self._fwd[a][index[s]] |= 1 << index[t]
            self._back[a][index[t]] |= 1 << index[s]
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
        return not any(m & (m - 1) for row in self._fwd.values()
                       for m in row)

    def _names(self, mask: int) -> frozenset:
        return frozenset(s for i, s in enumerate(self.states)
                         if mask >> i & 1)

    def _walk_names(self, rows: dict, state_set, word) -> frozenset:
        mask = sum(1 << self._index[s] for s in set(state_set))
        return self._names(_walk(rows, mask, word))

    def step(self, state_set, symbol) -> frozenset:
        return self._walk_names(self._fwd, state_set, (symbol,))

    def step_back(self, state_set, symbol) -> frozenset:
        return self._walk_names(self._back, state_set, (symbol,))

    def read(self, state_set, word: str) -> frozenset:
        return self._walk_names(self._fwd, state_set, word)

    def accepts_word(self, word: str) -> bool:
        """True iff word is a factor of the presented shift."""
        return bool(_walk(self._fwd, (1 << len(self.states)) - 1, word))

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
    """Yield the length-n factors w of X in the alphabet's lexicographic
    order, each with the mask of the states where reading w ends, by a
    depth-first walk on the masks of their prefixes."""
    if n < 0:
        raise ValueError(f"factor length must be non-negative, got {n}")
    if X.is_empty:
        return
    backwards = [(a, X._fwd[a]) for a in X.alphabet.symbols[::-1]]
    stack = [("", (1 << len(X.states)) - 1)]
    while stack:
        w, S = stack.pop()
        if len(w) == n:
            yield w, S
            continue
        for a, row in backwards:
            T = _image(row, S)
            if T:
                stack.append((w + a, T))


def language(X: ShiftPresentation, n: int) -> list[str]:
    """All length-n factors of X, in the alphabet's lexicographic order.
    Raises ValueError for n < 0."""
    return [w for w, _S in _factors(X, n)]


def _mask_subset(rows_a, rows_b) -> bool:
    """The subset BFS: True iff every word the A rows read from all of A's
    states, the B rows (of the same symbols, in the same order) read from
    all of B's.  A pair of state sets is one mask, A's n states in its low
    bits, so one ``_image`` step through the joint rows moves both."""
    n = len(rows_a[0])
    rows = [ra + [m << n for m in rb] for ra, rb in zip(rows_a, rows_b)]
    start = (1 << (n + len(rows_b[0]))) - 1
    seen = {start}
    queue = [start]
    for S in queue:
        for row in rows:
            T = _image(row, S)
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
    O(R |A| (|Q_A| + |Q_B|)) bit operations on the presentations' rows."""
    return _mask_subset(list(A._fwd.values()), [
        B._fwd.get(a, [0] * len(B.states)) for a in A._fwd])


def language_equal(A: ShiftPresentation, B: ShiftPresentation) -> bool:
    return language_subset(A, B) and language_subset(B, A)


# ---------------------------------------------------------------------------
# Shannon cover


def _subset_graph(X: ShiftPresentation, rows: dict):
    """The masks of the state sets reachable from all of X's states under
    ``rows`` (``X._fwd`` or ``X._back``), in breadth-first order, and the
    labeled edges (S, T, a) between them, T the image of S under rows[a]."""
    start = (1 << len(X.states)) - 1
    sets = [start]
    seen = {start}
    edges = []
    for S in sets:
        for a, row in rows.items():
            T = _image(row, S)
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
    nxt = [tuple(m.bit_length() - 1 for m in col)
           for col in zip(*X._fwd.values())]
    part = [tuple(t >= 0 for t in row) for row in nxt]
    count = len(set(part))
    while True:
        # signatures are numbered as they come: the numbers need to agree
        # within a round only, as merged states are named by their member
        # sets; each round refines the last, so an equal count is a fixpoint
        ids: dict = {}
        part = [ids.setdefault((part[i], tuple(
            part[t] if t >= 0 else -1 for t in row)), len(ids))
            for i, row in enumerate(nxt)]
        if len(ids) == count:
            break
        count = len(ids)
    reps: dict[int, list] = {}
    for i, s in enumerate(X.states):
        reps.setdefault(part[i], []).append(s)
    name = {c: frozenset(grp) for c, grp in reps.items()}
    edges = {(name[part[X._index[s]]], name[part[X._index[t]]], a)
             for (s, t, a) in X.edges}
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
    sets, edges = _subset_graph(X, X._fwd)
    name = {S: X._names(S) for S in sets}  # named by sets of X's names
    M = _merge_equivalent(ShiftPresentation(X.alphabet, name.values(), [
        (name[S], name[T], a) for (S, T, a) in edges]))
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


def _successors(C: ShiftPresentation) -> list[list[int]]:
    """The successor index list of each state of C, one entry per edge."""
    succ = [[] for _ in C.states]
    for (s, t, _a) in C.edges:
        succ[C._index[s]].append(C._index[t])
    return succ


def _components(C: ShiftPresentation) -> list:
    """Strongly connected components of C, each as (the set of its state
    names, the edges of C inside it in C's edge order)."""
    comps = _graph.strongly_connected_components(len(C.states), _successors(C))
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


def _minimal_sets(family: list[int]) -> list[int]:
    return [S for S in family
            if not any(T != S and T | S == S for T in family)]


def mixing_distance(X: ShiftPresentation) -> int:
    """Least m such that every gap length n >= m is realizable between any
    two factors of X.  Raises for non-mixing input (with the period)."""
    if X.is_empty:
        raise EmptyShiftError("empty shift")
    C = shannon_cover(X)
    succ = _successors(C)
    if len(_graph.strongly_connected_components(len(succ), succ)) != 1:
        raise PreconditionError("shift is not irreducible")
    g = _graph.bfs_period([[(w, 1) for w in row] for row in succ])[1]
    if g > 1:
        raise PreconditionError(f"shift is not mixing (period {g})")
    # rows[i]: bitmask of the states that paths of exactly k edges from
    # state i reach, for k = 0, 1, ...; joins[k]: every end-of-word state
    # set reaches every start-of-word state set in exactly k steps; adj[i]:
    # the mask of the successors of state i.
    ends = _minimal_sets(_subset_graph(C, C._fwd)[0])
    starts = _minimal_sets(_subset_graph(C, C._back)[0])
    adj = [functools.reduce(or_, col) for col in zip(*C._fwd.values())]
    n = len(C.states)
    rows = [1 << i for i in range(n)]
    joins = []
    for _ in range((n - 1) ** 2 + n + 2):
        reach = [_image(rows, E) for E in ends]
        joins.append(all(r & S for r in reach for S in starts))
        rows = [_image(rows, m) for m in adj]
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
        for w, S in _factors(C, length):
            if not S & (S - 1) and is_unbordered(w):
                yield w


def _pads(C: ShiftPresentation, w: str, k: int) -> list[str]:
    """The words u of length k that avoid w and have w u w a factor of C, in
    the alphabet's lexicographic order."""
    return [u for u, _S in _factors(C, k)
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
             for s2, m in zip(Y.states, Y._fwd[a]) for t2 in Y._names(m)]
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
    return mid >= 0 and bool(_image(M.relations[mid], into) & out)


class _RelationMonoid:
    """The transition monoid of X, interned as the walks reach it.

    The relation R_w of a word w (s to t when a path from s to t reads w)
    is one bitmask row per source state, in X's state order, so R_a is X's
    own row ``X._fwd[a]`` and R_wb is R_w stepped through R_b row by row.
    Each distinct nonempty R_w is an element id with ``succ``, its images
    under the symbols stepped so far (-1: the empty relation, also for
    symbols outside the alphabet), and ``flags``, its cycle flag:
    ``stable`` is nonempty exactly when a cycle of X reads a power of w, so
    when inf(w) lies in X (Lind and Marcus).  An image costs O(|Q|^2)
    once; a later step is one lookup.
    """

    __slots__ = ("rows", "ids", "relations", "succ", "flags", "identity")

    def __init__(self, X: ShiftPresentation):
        self.rows = X._fwd
        self.ids, self.relations, self.succ, self.flags = {}, [], [], []
        self.identity = self._element(tuple(1 << i for i in X._index.values()))

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
                nxt = _image(rel, live)
            if nxt == live:
                return live
            live = nxt

    def image(self, e: int, b) -> int:
        """Compute and record the step of element e >= 0 by b."""
        row = self.rows.get(b)
        self.succ[e][b] = f = self._element(tuple(
            _image(row, r) for r in self.relations[e]) if row else ())
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
