"""Averaging paths inside a mixing sofic shift, projections onto subshifts,
and the two translations between sofic shifts and abstract simplicial
complexes (complex-to-sofic embedding and sofic-to-complex extraction with
barycentric coordinates).

Where a construction leaves cells undefined ("fill using mixing"), the fill
is always the lexicographically least completion legal in the target shift,
computed by a viability sweep over the presentation, so all outputs are
deterministic.  The embedding is the first hit of ``shifts._marker_search``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .configs import Configuration, json_field
from .errors import CapError, PreconditionError
from .metrics import distance_to_shift
from .paths import block_bounds
from .shifts import (ShiftPresentation, concatenation_closure,
                     contains_config, intersect, language_equal,
                     language_subset, mixing_distance, transitive_components,
                     _marker_search, _walk)

# ---------------------------------------------------------------------------
# abstract complexes and barycentric points


@dataclass(frozen=True)
class AbstractComplex:
    """Vertex set plus a downward-closed family of nonempty faces."""

    vertices: tuple
    faces: frozenset  # of frozensets of vertex names

    @staticmethod
    def make(vertices, faces) -> "AbstractComplex":
        vs = tuple(vertices)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertices")
        try:
            sorted(vs)
        except TypeError as e:  # faces are listed in sorted order
            raise ValueError("vertex names of mixed types") from e
        vset = set(vs)
        closed = set()
        for f in faces:
            f = frozenset(f)
            if not f <= vset:
                raise ValueError(f"face {sorted(f)} uses unknown vertices")
            for k in range(1, len(f) + 1):
                for sub in itertools.combinations(sorted(f), k):
                    closed.add(frozenset(sub))
        for v in vs:
            closed.add(frozenset({v}))
        return AbstractComplex(vs, frozenset(closed))

    def dimension(self) -> int:
        return max((len(f) for f in self.faces), default=0) - 1

    def faces_of_size(self, k: int) -> list[frozenset]:
        return sorted((f for f in self.faces if len(f) == k),
                      key=lambda f: sorted(f))

    def to_dict(self) -> dict:
        maximal = [f for f in self.faces
                   if not any(f < g for g in self.faces)]
        return {"vertices": [str(v) for v in self.vertices],
                "faces": [sorted(map(str, f)) for f in
                          sorted(maximal, key=lambda f: (len(f), sorted(f)))]}

    @staticmethod
    def from_dict(d: dict) -> "AbstractComplex":
        name = (str, int, float)  # the JSON values that can name a vertex
        vertices = json_field(d, "vertices", list, name)
        faces = json_field(d, "faces", list, list)
        if not all(isinstance(v, name) for f in faces for v in f):
            raise ValueError("field 'faces' has the wrong type")
        return AbstractComplex.make(vertices, faces)


@dataclass(frozen=True)
class BarycentricPoint:
    """Convex weights over the vertices of one face of a complex."""

    weights: tuple  # of (vertex, Fraction) pairs, sorted by vertex

    @staticmethod
    def make(weights: dict) -> "BarycentricPoint":
        items = tuple(sorted((v, Fraction(w)) for v, w in weights.items()
                             if w != 0))
        if any(w < 0 for _v, w in items):
            raise ValueError("negative barycentric weight")
        if sum(w for _v, w in items) != 1:
            raise ValueError("barycentric weights must sum to 1")
        return BarycentricPoint(items)

    @property
    def support(self) -> frozenset:
        return frozenset(v for v, _w in self.weights)

    def weight(self, v) -> Fraction:
        return dict(self.weights).get(v, Fraction(0))


def inverse_weighted_average(points, weights):
    """Average of the points with weights proportional to the reciprocals of
    the given positive weights, exact.

    Accepts a list of equal-length rational tuples or a list of
    BarycentricPoint values; returns the same kind.
    """
    if not points or len(points) != len(weights):
        raise ValueError("need equally many points and weights, at least one")
    weights = [Fraction(w) for w in weights]
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    inv = [1 / w for w in weights]
    total = sum(inv)
    if isinstance(points[0], BarycentricPoint):
        acc: dict = {}
        for p, c in zip(points, inv):
            for v, w in p.weights:
                acc[v] = acc.get(v, Fraction(0)) + c * w
        return BarycentricPoint.make({v: w / total for v, w in acc.items()})
    dim = len(points[0])
    if any(len(p) != dim for p in points):
        raise ValueError("points must have equal dimension")
    return tuple(sum(c * Fraction(p[i]) for p, c in zip(points, inv)) / total
                 for i in range(dim))


# ---------------------------------------------------------------------------
# deterministic gap filling


def lex_least_completion(X: ShiftPresentation, constraints) -> str:
    """Lexicographically least word of X's language matching the constraint
    list (each cell a symbol or None); viable[pos] masks the states from
    which the cells from pos on can be read."""
    n = len(constraints)
    viable = [0] * (n + 1)
    viable[n] = (1 << len(X.states)) - 1
    for pos in range(n - 1, -1, -1):
        allowed = ([constraints[pos]] if constraints[pos] is not None
                   else list(X.alphabet))
        for a in allowed:
            viable[pos] |= _walk(X._back, viable[pos + 1], (a,))
        if not viable[pos]:
            raise PreconditionError(
                f"constraints are not completable in the shift (cell {pos})")
    out = []
    cur = viable[0]
    for pos in range(n):
        allowed = ([constraints[pos]] if constraints[pos] is not None
                   else list(X.alphabet))
        for a in allowed:
            nxt = _walk(X._fwd, cur, (a,)) & viable[pos + 1]
            if nxt:
                out.append(a)
                cur = nxt
                break
        else:
            raise AssertionError("viability sweep is inconsistent")
    return "".join(out)


# ---------------------------------------------------------------------------
# averaging construction


def average(X: ShiftPresentation, m: int, r: Fraction, x: Configuration,
            y: Configuration, N: int) -> str:
    """Window [-N, N] of the averaging point between x and y in X.

    The parameter r selects, block by block (dyadic blocks, mirrored across
    the origin), cells copied from x or from y, leaving safety margins of
    max(m, 1) cells; the zero-density remainder is filled with the least
    legal completion.  Requires x, y in X and m at least the mixing
    distance of X.
    """
    r = Fraction(r)
    if not 0 <= r <= 1:
        raise PreconditionError("need 0 <= r <= 1")
    if mixing_distance(X) > m:
        raise PreconditionError("m is below the mixing distance of X")
    if not contains_config(X, x):
        raise PreconditionError("x is not a point of X")
    if not contains_config(X, y):
        raise PreconditionError("y is not a point of X")
    constraints = []
    if N >= 0:
        # cell i of the window [-N, N] is xs[i + N] and ys[i + N]
        xs, ys = x.window(-N, N), y.window(-N, N)
        for i in range(-N, N + 1):
            side = average_selects(m, r, i)
            constraints.append(None if side is None
                               else (xs if side == "x" else ys)[i + N])
    return lex_least_completion(X, constraints)


def average_selects(m: int, r: Fraction, i: int) -> str | None:
    """Which input ('x' or 'y', None when neither) the averaging construction
    copies at position i, for the given margin parameter."""
    r = Fraction(r)
    mm = max(m, 1)
    j = i if i >= 0 else -1 - i
    a, b = block_bounds(j)
    zeros = int(r * (b - a))
    if a + mm <= j < b - mm:
        if j + mm <= a + zeros:
            return "x"
        if j >= a + zeros + mm - 1:
            return "y"
    return None


# ---------------------------------------------------------------------------
# projection onto a subshift


def project(S: ShiftPresentation, T: ShiftPresentation, anchor: Configuration,
            m: int, x: Configuration, N: int) -> str:
    """Window [-N, N] of the projection of x from S onto its subshift T.

    Cells near positions where x locally looks like T keep x; cells far from
    all such positions take the anchor; the remaining cells are filled with
    the least legal completion in T.
    """
    if not language_subset(T, S):
        raise PreconditionError("T is not a subshift of S")
    if not contains_config(T, anchor):
        raise PreconditionError("anchor is not a point of T")
    if mixing_distance(T) > m:
        raise PreconditionError("m is below the mixing distance of T")
    if not contains_config(S, x):
        raise PreconditionError("x is not a point of S")
    constraints: list = []
    if N >= 0:
        # good[k]: x looks like T around cell k - N - 2m; cell i of the
        # window [-N, N] is xs[t + 4m] and anchor[t] with t = i + N
        xs = x.window(-N - 4 * m, N + 4 * m)
        near = anchor.window(-N, N)
        good = [T.accepts_word(xs[k:k + 4 * m + 1])
                for k in range(2 * N + 4 * m + 1)]
        for t in range(2 * N + 1):
            if any(good[t + m:t + 3 * m + 1]):
                constraints.append(xs[t + 4 * m])
            elif not any(good[t:t + 4 * m + 1]):
                constraints.append(near[t])
            else:
                constraints.append(None)
    return lex_least_completion(T, constraints)


# ---------------------------------------------------------------------------
# complex -> sofic embedding


@dataclass
class ComplexEmbedding:
    marker: str                      # unbordered synchronizing word w
    filler: str                      # the common word v, length k+1
    vertex_words: dict               # vertex -> u of length k
    face_shifts: dict                # face (frozenset) -> ShiftPresentation


def embed_complex(K: AbstractComplex, X: ShiftPresentation,
                  word_cap: int = 16, pad_cap: int = 8) -> ComplexEmbedding:
    """Sofic subshifts of X realizing the face lattice of K.

    Finds an unbordered synchronizing word w and, for some k, distinct words
    v (length k+1) and one u per vertex (length k), all avoiding w and
    extendable as w.u.w inside X; the shift of a face is the closure of
    concatenations of w+v and the w+u of its vertices.
    """
    found = _marker_search(X, len(K.vertices), word_cap, pad_cap)
    if not K.vertices:
        raise PreconditionError("complex has no vertices")
    if found is None:
        raise CapError("no embedding data found within the search caps")
    C, w, us, v = found
    vertex_words = dict(zip(sorted(K.vertices, key=str), us))
    face_shifts = {
        face: concatenation_closure(
            C.alphabet, [w + v] + [w + vertex_words[t] for t in face])
        for face in sorted(K.faces, key=lambda f: (len(f), sorted(f)))}
    if not all(language_subset(Y, C) for Y in face_shifts.values()):
        raise AssertionError("a face shift is not a subshift of X")
    return ComplexEmbedding(w, v, vertex_words, face_shifts)


# ---------------------------------------------------------------------------
# sofic -> complex extraction


@dataclass
class PosetElement:
    index: int
    name: str
    component_set: frozenset     # indices of intersected components
    shift: ShiftPresentation


@dataclass
class ComponentPoset:
    components: list             # the transitive components, canonical order
    elements: list               # PosetElement, deduplicated by language
    leq: list = field(default_factory=list)   # leq[i][j]: elem i <= elem j
    minimal: list = field(default_factory=list)

    def upper_bounds(self, idxs) -> list[int]:
        return [e.index for e in self.elements
                if all(self.leq[i][e.index] for i in idxs)]

    def supremum(self, idxs):
        ub = self.upper_bounds(idxs)
        for u in ub:
            if all(self.leq[u][v] for v in ub):
                return u
        return None


@dataclass
class ComplexExtraction:
    complex: AbstractComplex
    poset: ComponentPoset
    face_labels: dict            # face (frozenset of names) -> element index
    vertex_elements: dict        # vertex name -> element index


def extract_complex(X: ShiftPresentation,
                    component_cap: int = 20) -> ComplexExtraction:
    """The simplicial complex of intersection patterns of the transitive
    components of X: vertices are the minimal nonempty intersections, and a
    set of vertices spans a face iff it has a least upper bound among the
    nonempty intersections."""
    comps = transitive_components(X).components
    t = len(comps)
    if t == 0:
        raise PreconditionError("empty shift has no components")
    if t > component_cap:
        raise CapError(f"{t} transitive components exceed the cap "
                       f"{component_cap}")
    raw: list[tuple[frozenset, ShiftPresentation]] = []
    for size in range(1, t + 1):
        for R in itertools.combinations(range(t), size):
            Y = comps[R[0]]
            for i in R[1:]:
                Y = intersect(Y, comps[i])
            if not Y.is_empty:
                raw.append((frozenset(R), Y))
    elements: list[PosetElement] = []
    for R, Y in raw:
        match = next((e for e in elements if language_equal(e.shift, Y)),
                     None)
        if match is None:
            elements.append(PosetElement(len(elements), "", R, Y))
        else:
            match.component_set = match.component_set | R
    for e in elements:
        e.name = "C" + "&".join(str(i) for i in sorted(e.component_set))
    k = len(elements)
    leq = [[language_subset(elements[i].shift, elements[j].shift)
            for j in range(k)] for i in range(k)]
    minimal = [i for i in range(k)
               if not any(leq[j][i] and not leq[i][j] for j in range(k))]
    poset = ComponentPoset(comps, elements, leq, minimal)
    vertex_names = {i: elements[i].name for i in minimal}
    faces = set()
    labels = {}
    for size in range(1, len(minimal) + 1):
        for J in itertools.combinations(minimal, size):
            sup = poset.supremum(J)
            if sup is not None:
                face = frozenset(vertex_names[i] for i in J)
                faces.add(face)
                labels[face] = sup
    complex_ = AbstractComplex.make(
        [vertex_names[i] for i in minimal], faces)
    vertex_elements = {vertex_names[i]: i for i in minimal}
    return ComplexExtraction(complex_, poset, labels, vertex_elements)


def complex_coordinates(x: Configuration,
                        extraction: ComplexExtraction) -> BarycentricPoint:
    """Barycentric coordinates of x in the extracted complex.

    Descends the intersection poset: at a minimal element the corresponding
    vertex is returned; otherwise, if x is at distance zero from a smaller
    element the descent continues there, and if not the sub-results are
    combined by the inverse distance-weighted average.

    Distances are taken to the intersection shifts themselves rather than to
    their closures under density-zero perturbation (the two are nonempty
    together, and the former is computable exactly for eventually periodic
    points).
    """
    poset = extraction.poset
    k = len(poset.elements)
    leq = poset.leq
    dist = {i: distance_to_shift(x, poset.elements[i].shift)
            for i in range(k)}
    zeros = [i for i in range(k) if dist[i] == 0]
    if not zeros:
        raise PreconditionError(
            "x is not density-asymptotic to any intersection component "
            "(points straddling two components are unsupported)")
    name = {i: poset.elements[i].name for i in range(k)}
    minimal = set(poset.minimal)

    def maximal_of(cands):
        best = [i for i in cands
                if not any(leq[i][j] and not leq[j][i] for j in cands)]
        return best[0]

    memo: dict[int, BarycentricPoint] = {}

    def g(i: int) -> BarycentricPoint:
        if i in memo:
            return memo[i]
        if i in minimal:
            res = BarycentricPoint.make({name[i]: Fraction(1)})
        else:
            below = [j for j in range(k)
                     if leq[j][i] and not leq[i][j]]
            zero_below = [j for j in below if dist[j] == 0]
            if zero_below:
                res = g(maximal_of(zero_below))
            else:
                res = inverse_weighted_average([g(j) for j in below],
                                               [dist[j] for j in below])
        memo[i] = res
        return res

    return g(maximal_of(zeros))
