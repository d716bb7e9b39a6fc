"""Independent brute-force oracles used to pin expected values in the tests.

These deliberately avoid the library's own machinery where they serve as a
cross check: densities are counted over explicit unfolded windows, languages
are enumerated from forbidden words, and CA act on explicitly repeated
words.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb, gcd
from operator import mul

from shiftgeo.configs import Alphabet, Configuration, is_primitive, \
    least_rotation


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def cyclic_density_oracle(u: str, v: str) -> Fraction:
    n = lcm(len(u), len(v))
    mism = sum(u[i % len(u)] != v[i % len(v)] for i in range(n))
    return Fraction(mism, n)


# -- the per-class residue sum that the packed correlation in
# shiftgeo.metrics._Correlator replaced --------------------------------------


def residue_profile_oracle(w: str, g: int, symbols) -> tuple:
    """(|w|, g, counts): counts[r * |symbols| + i] is how often the i-th
    symbol, in the iteration order of `symbols`, occurs at the indices
    = r (mod g) of w.  g must divide |w|."""
    return len(w), g, tuple(w[r::g].count(s)
                            for r in range(g) for s in symbols)


def profile_mismatches_oracle(pu, pv, k: int = 0) -> tuple[int, int]:
    """(mismatches, lcm) over one block of inf(u) against inf(v[k:] + v[:k]),
    from residue profiles of u and v over the same g and symbols.

    Rotating v by k shifts its residue classes by k, so k matters only
    mod g.
    """
    (m, g, a), (n, _g, b) = pu, pv
    block = m // g * n
    s = k * len(b) // g
    return block - sum(map(mul, a, b[s:] + b[:s])), block


def ranks(alphabet, w: str) -> list[int]:
    """The ranks of w's symbols in the alphabet: comparing these lists
    compares words lexicographically in the alphabet's order."""
    return [alphabet.index(c) for c in w]


def is_lyndon(alphabet, w: str) -> bool:
    """True iff w is nonempty and strictly less than each of its proper
    rotations in the alphabet's order (so primitive and the least
    rotation)."""
    r = ranks(alphabet, w)
    return bool(w) and all(r < r[i:] + r[:i] for i in range(1, len(w)))


def nearest_periodic_oracle(X, y, P: int):
    """``metrics.nearest_periodic`` as a loop over every rotation of every
    orbit word, in the alphabet's order, one ``cyclic_mismatch_density``
    call each."""
    from shiftgeo.configs import periodic_config
    from shiftgeo.errors import EmptyShiftError, PreconditionError
    from shiftgeo.metrics import MinimizerSet, cyclic_mismatch_density
    from shiftgeo.shifts import periodic_orbits
    if P <= 0:
        raise PreconditionError("period bound must be positive")
    if not y.is_periodic:
        raise PreconditionError("y must be periodic")
    if y.period > P:
        raise PreconditionError("period of y exceeds the bound")
    if X.is_empty:
        raise EmptyShiftError("empty shift")
    yw = y.right_period
    rank = functools.partial(ranks, X.alphabet)
    best = None
    achievers = []  # (orbit representative, point)
    for w in periodic_orbits(X, P):
        rots = sorted((w[i:] + w[:i] for i in range(len(w))), key=rank)
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
            for _w, pt in sorted(achievers, key=lambda t: rank(t[1]))]
    return MinimizerSet(best, mins, P)


def necklaces(symbols: str, p: int) -> list[str]:
    """Primitive lex-least rotation representatives of length p."""
    return [
        "".join(t) for t in itertools.product(symbols, repeat=p)
        if is_primitive("".join(t)) and least_rotation("".join(t)) == "".join(t)
    ]


def block_shift():
    """The parity shift as a presentation: a two-state cover whose state s0
    forces the next symbol to 0."""
    from shiftgeo.configs import BINARY
    from shiftgeo.shifts import ShiftPresentation
    return ShiftPresentation(BINARY, ["s0", "s1"],
                             [("s0", "s1", "0"), ("s1", "s0", "0"),
                              ("s1", "s0", "1")])


def sft14():
    """The 14-state SFT with forbidden words 1111, 0000 and 10101."""
    from shiftgeo.configs import BINARY
    from shiftgeo.shifts import SftSpec, compile_sft
    return compile_sft(SftSpec(BINARY, ("1111", "0000", "10101")))


def in_parity_shift(w: str) -> bool:
    """True iff inf(w) lies in the parity shift: the shift-closure of the
    binary points whose even coordinates are 0, i.e. the points with one
    coordinate parity class entirely 0."""
    p = len(w)
    return any(all(w[i % p] == "0" for i in range(c, 2 * p, 2))
               for c in (0, 1))


def parity_shift_distance(w: str) -> Fraction:
    """d(inf(w), X) for the parity shift X.  The all-0 class of any point of
    X mismatches at least the 1s of w on that class, and copying w on the
    other class attains the bound."""
    n = lcm(len(w), 2)
    return min(Fraction(sum(w[i % len(w)] == "1" for i in range(c, n, 2)), n)
               for c in (0, 1))


def parity_shift_orbits(P: int) -> list[str]:
    """Necklaces of the periodic orbits of the parity shift, period <= P."""
    return [n for q in range(1, P + 1) for n in necklaces("01", q)
            if in_parity_shift(n)]


def parity_shift_uap_oracle(P: int):
    """First primitive word w, in (period, lex) order with period <= P and
    inf(w) outside the parity shift X, whose nearest points among the
    periodic points of X of period <= P lie in at least two orbits.

    Returns (w, d(inf(w), X), the minimizer orbits as necklaces), or None
    when there is no such tie up to P.
    """
    orbits = parity_shift_orbits(P)
    for p in range(1, P + 1):
        for w in necklaces("01", p):
            if in_parity_shift(w):
                continue
            d = parity_shift_distance(w)
            hits = [n for n in orbits
                    if any(cyclic_density_oracle(w, n[i:] + n[:i]) == d
                           for i in range(len(n)))]
            if len(hits) >= 2:
                return w, d, hits
    return None


def avoiding_words(symbols: str, n: int, forbidden) -> list[str]:
    return ["".join(t) for t in itertools.product(symbols, repeat=n)
            if not any(f in "".join(t) for f in forbidden)]


def factor_oracle(symbols: str, w: str, forbidden, pad: int = 8) -> bool:
    """Brute extendability oracle: w is a factor of the SFT iff it has legal
    neighborhoods `pad` cells deep on both sides."""
    if any(f in w for f in forbidden):
        return False
    for u in itertools.product(symbols, repeat=pad):
        for v in itertools.product(symbols, repeat=pad):
            if not any(f in "".join(u) + w + "".join(v) for f in forbidden):
                return True
    return False


def cyclic_avoids(w: str, forbidden) -> bool:
    """True iff the periodic point with period w avoids every forbidden word."""
    horizon = w * (max(len(f) for f in forbidden) // len(w) + 2) \
        if forbidden else w
    return not any(f in horizon for f in forbidden)


def eca_table(rule: int) -> dict:
    table = {}
    for bits in itertools.product("01", repeat=3):
        idx = (int(bits[0]) << 2) | (int(bits[1]) << 1) | int(bits[2])
        table["".join(bits)] = "01"[(rule >> idx) & 1]
    return table


def apply_cyclic_oracle(table: dict, lo: int, hi: int, w: str) -> str:
    p = len(w)
    return "".join(
        table["".join(w[(i + o) % p] for o in range(lo, hi + 1))]
        for i in range(p))


def check_on_subshift_oracle(table: dict, lo: int, hi: int,
                             orbits) -> dict:
    """Full-rotation periodic-pair scan of a CA with rule `table` over the
    offsets [lo, hi]: w1 runs over the orbit words, w2 over every rotation
    of every orbit word, in order, and each property maps to its first
    violation (w1, rotated w2, d_in, d_out), or to None.  Densities are
    counted over unfolded lcm blocks."""
    images = {w: apply_cyclic_oracle(table, lo, hi, w) for w in orbits}
    first = {"contracting": None, "isometric": None, "expanding": None}
    for w1 in orbits:
        for w2 in orbits:
            for k in range(len(w2)):
                rot = w2[k:] + w2[:k]
                frot = images[w2][k:] + images[w2][:k]
                din = cyclic_density_oracle(w1, rot)
                dout = cyclic_density_oracle(images[w1], frot)
                for prop, bad in (("contracting", dout > din),
                                  ("isometric", dout != din),
                                  ("expanding", dout < din)):
                    if bad and first[prop] is None:
                        first[prop] = (w1, rot, din, dout)
            if all(first.values()):
                return first
    return first


def check_on_subshift_pairwise_oracle(f, X, P: int):
    """``automata.check_on_subshift`` as a per-pair loop: two packed
    correlations for each (w1, w2), settled when their class digits agree
    under the class mask, and the classes of an unsettled pair read in
    ascending k.  Returns the same ``SubshiftCheck``."""
    from shiftgeo.automata import PropertyWitness, SubshiftCheck, \
        apply_cyclic, preserves_shift
    from shiftgeo.configs import periodic_config
    from shiftgeo.errors import PreconditionError
    from shiftgeo.metrics import _Correlator
    from shiftgeo.shifts import periodic_orbits
    if P <= 0:
        raise PreconditionError("period bound must be positive")
    if not preserves_shift(f, X):
        raise PreconditionError("rule does not map the shift into itself")
    orbits = periodic_orbits(X, P)
    images = {w: apply_cyclic(f, w) for w in orbits}
    corr = _Correlator(f.alphabet.symbols, P)
    packs, mask, digits = corr.packs, corr.mask, corr.digits

    first = {"contracting": None, "isometric": None, "expanding": None}
    for w1 in orbits:
        for w2 in orbits:
            g = gcd(len(w1), len(w2))
            pack = packs(g)
            cin = pack(w1)[0] * pack(w2)[1]
            cout = pack(images[w1])[0] * pack(images[w2])[1]
            if (cin ^ cout) & mask(g):
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


def unfolded_arm_densities(x: Configuration,
                           y: Configuration) -> tuple[Fraction, Fraction]:
    """(left, right) mismatch densities of the arms of x and y, counted
    cell by cell over one lcm block beyond both finite parts."""
    start = (len(x.left_finite) + len(y.left_finite)
             + len(x.right_finite) + len(y.right_finite))
    out = []
    for sign, px, py in ((-1, x.left_period, y.left_period),
                         (1, x.right_period, y.right_period)):
        n = lcm(len(px), len(py))
        mism = sum(symbol_at_oracle(x, sign * i)
                   != symbol_at_oracle(y, sign * i)
                   for i in range(start + 1, start + 1 + n))
        out.append(Fraction(mism, n))
    return out[0], out[1]


def rand_config(rng, alphabet: Alphabet, max_period: int = 4,
                max_finite: int = 3) -> Configuration:
    syms = alphabet.symbols

    def word(lo, hi):
        return "".join(rng.choice(syms)
                       for _ in range(rng.randint(lo, hi)))

    return Configuration(alphabet, word(1, max_period),
                         word(0, max_finite), word(0, max_finite),
                         word(1, max_period))


def unfolded_density(x: Configuration, y: Configuration,
                     N: int) -> Fraction:
    mism = sum(symbol_at_oracle(x, i) != symbol_at_oracle(y, i)
               for i in range(-N, N + 1))
    return Fraction(mism, 2 * N + 1)


def karp_min_mean_oracle(nodes: list[int], edges) -> tuple[Fraction, list[int]]:
    """Minimum mean cycle of a strongly connected weighted graph, by the
    dense Karp tables and the full (length, start) scan of the optimal walk
    that ``shiftgeo._graph.karp_min_mean`` replaced.

    ``nodes`` are the node ids of one SCC; ``edges[v]`` lists (target, weight)
    pairs with both endpoints inside the SCC.  Returns the exact minimum mean
    and one cycle (as a node list) achieving it.
    """
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    s = 0
    INF = None
    # dist[k][v] = min weight of a walk with exactly k edges from s to v
    dist = [[INF] * n for _ in range(n + 1)]
    parent = [[-1] * n for _ in range(n + 1)]
    dist[0][s] = 0
    for k in range(1, n + 1):
        dk, dk1, pk = dist[k], dist[k - 1], parent[k]
        for u in range(n):
            du = dk1[u]
            if du is None:
                continue
            for (t, w) in edges[nodes[u]]:
                v = idx[t]
                cand = du + w
                if dk[v] is None or cand < dk[v] or (cand == dk[v] and u < pk[v]):
                    dk[v] = cand
                    pk[v] = u
    best = None
    best_v = -1
    for v in range(n):
        if dist[n][v] is None:
            continue
        worst = None
        for k in range(n):
            if dist[k][v] is None:
                continue
            val = Fraction(dist[n][v] - dist[k][v], n - k)
            if worst is None or val > worst:
                worst = val
        if worst is not None and (best is None or worst < best):
            best = worst
            best_v = v
    if best is None:
        raise ValueError("graph has no cycle")
    # Recover a cycle of mean `best` from the optimal n-edge walk into best_v.
    walk = [best_v]
    v, k = best_v, n
    while k > 0:
        v = parent[k][v]
        walk.append(v)
        k -= 1
    walk.reverse()  # length n+1, indices into `nodes`
    weight_of = {}
    for u in nodes:
        for (t, w) in edges[u]:
            key = (idx[u], idx[t])
            if key not in weight_of or w < weight_of[key]:
                weight_of[key] = w
    for clen in range(1, n + 1):
        for i in range(n + 1 - clen):
            if walk[i] == walk[i + clen]:
                total = sum(weight_of[(walk[i + j], walk[i + j + 1])]
                            for j in range(clen))
                if Fraction(total, clen) == best:
                    return best, [nodes[w] for w in walk[i:i + clen]]
    raise AssertionError("min mean cycle not found on optimal walk")


def karp_min_mean_frontier_oracle(nodes: list[int],
                                  edges) -> tuple[Fraction, list[int]]:
    """Minimum mean cycle of a strongly connected weighted graph, by the
    frontier-dict rows (a dict per k of the nodes k-edge walks reach,
    expanded in ``sorted`` order) that the cyclic-class rows of
    ``shiftgeo._graph.karp_min_mean`` replaced.

    ``nodes`` are the node ids of one SCC; ``edges[v]`` lists (target, weight)
    pairs with both endpoints inside the SCC.  Returns the exact minimum mean
    and one cycle (as a node list) achieving it.

    Karp's recurrence over walks of exactly k edges from ``nodes[0]``, with
    each row holding only the nodes some k-edge walk reaches.  Time is
    O(sum_k |frontier_k| * outdeg) and memory is one entry per reached
    (k, node) pair.  On a phase-layered graph (every edge goes from phase j
    to phase j + 1 mod p, as in the product of a presentation with a
    position cycle) every frontier lies in one phase, so both are linear in
    the number of nodes rather than quadratic.

    The cycle returned is the shortest, then earliest, closed subwalk of
    mean equal to the minimum on the optimal n-edge walk.  Such a subwalk
    runs between consecutive occurrences of one node: if any node repeated
    strictly inside it, it would split into two closed walks, each of mean
    at least the minimum, hence both of mean exactly the minimum, and the
    shorter one would have been chosen.  So only the pairs (previous
    occurrence, occurrence) are tried, in O(n).
    """
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    adj = [[(idx[t], w) for (t, w) in edges[v]] for v in nodes]
    # dist[k][v] = min weight of a walk with exactly k edges from node 0 to
    # v, parent[k][v] = its predecessor; seen[v] lists (k, dist[k][v]) for
    # every k < n that reaches v, in ascending k.
    dist: list[dict[int, int]] = [{0: 0}]
    parent: list[dict[int, int]] = [{}]
    seen: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k in range(1, n + 1):
        prev = dist[-1]
        dk: dict[int, int] = {}
        pk: dict[int, int] = {}
        # ascending u with a strict < keeps the least predecessor on ties
        for u in sorted(prev):
            du = prev[u]
            seen[u].append((k - 1, du))
            for (v, w) in adj[u]:
                cand = du + w
                if v not in dk or cand < dk[v]:
                    dk[v] = cand
                    pk[v] = u
        dist.append(dk)
        parent.append(pk)
    # min over v of max over k of (dist[n][v] - dist[k][v]) / (n - k), as
    # (numerator, positive denominator) pairs compared by cross-multiplying;
    # the first maximum per v and the first minimum over ascending v win.
    dn = dist[n]
    best = None
    best_v = -1
    for v in sorted(dn):
        worst = None
        for (k, dkv) in seen[v]:
            num, den = dn[v] - dkv, n - k
            if worst is None or num * worst[1] > worst[0] * den:
                worst = (num, den)
        if worst is not None and (
                best is None or best[0] * worst[1] > worst[0] * best[1]):
            best = worst
            best_v = v
    if best is None:
        raise ValueError("graph has no cycle")
    mean = Fraction(*best)
    # Recover a cycle of mean `best` from the optimal n-edge walk into best_v.
    walk = [best_v]
    for k in range(n, 0, -1):
        walk.append(parent[k][walk[-1]])
    walk.reverse()  # length n+1, indices into `nodes`
    # The walk's first j edges weigh dist[j][walk[j]], since each parent
    # edge attains the minimum.
    last: dict[int, int] = {}
    found = None
    for j, v in enumerate(walk):
        i = last.get(v)
        last[v] = j
        if i is None:
            continue
        clen = j - i
        total = dist[j][v] - dist[i][v]
        if total * mean.denominator == mean.numerator * clen and (
                found is None or (clen, i) < found):
            found = (clen, i)
    if found is None:
        raise AssertionError("min mean cycle not found on optimal walk")
    clen, i = found
    return mean, [nodes[w] for w in walk[i:i + clen]]


def karp_min_mean_class_rows_oracle(nodes: list[int],
                                    edges) -> tuple[Fraction, list[int]]:
    """Minimum mean cycle of a strongly connected weighted graph, by the
    dense rows over cyclic classes (one fresh list per row, every row
    relaxed) that the memoized rows of ``shiftgeo._graph.karp_min_mean``
    replaced.

    ``nodes`` are the node ids of one SCC; ``edges[v]`` lists (target, weight)
    pairs with both endpoints inside the SCC.  Returns the exact minimum mean
    and one cycle (as a node list) achieving it.

    Karp's recurrence over walks of exactly k edges from ``nodes[0]``, on
    the cyclic classes of ``shiftgeo._graph.bfs_period``: edges go from
    class c to class c + 1 mod d, so row k is a list over class k mod d,
    relaxed from one precomputed (u, v, w) list in ``nodes`` order of u
    with a strict < (the least predecessor wins ties); only rows
    k = n (mod d) enter the max/min.
    A row costs the edges out of one class and holds one class, so on the
    product of a presentation with a position cycle of period p, whose
    phases the classes refine, time and memory are linear in p.

    The cycle returned is the shortest, then earliest, closed subwalk of
    mean equal to the minimum on the optimal n-edge walk.  Such a subwalk
    runs between consecutive occurrences of one node: if any node repeated
    strictly inside it, it would split into two closed walks, each of mean
    at least the minimum, hence both of mean exactly the minimum, and the
    shorter one would have been chosen.  So only the pairs (previous
    occurrence, occurrence) are tried, in O(n).
    """
    from shiftgeo._graph import bfs_period

    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    adj = [[(idx[t], w) for (t, w) in edges[v]] for v in nodes]
    level, d = bfs_period(adj)
    if d == 0:
        raise ValueError("graph has no cycle")
    # cls[c] lists class c in nodes order; pos[u] is u's place in its class
    cls: list[list[int]] = [[] for _ in range(d)]
    for u in range(n):
        cls[level[u] % d].append(u)
    pos = {u: i for c in cls for i, u in enumerate(c)}
    relax = [[(pos[u], pos[v], w) for u in c for (v, w) in adj[u]]
             for c in cls]
    inf = float("inf")
    # dist[k][i] = min weight of a walk with exactly k edges from node 0 to
    # the i-th node of class k mod d, parent[k][i] its predecessor's place
    dist = [[0] + [inf] * (len(cls[0]) - 1)]
    parent: list[list[int]] = [[]]
    for k in range(1, n + 1):
        prev = dist[-1]
        dk = [inf] * len(cls[k % d])
        pk = [-1] * len(dk)
        for (i, j, w) in relax[(k - 1) % d]:
            cand = prev[i] + w
            if cand < dk[j]:
                dk[j] = cand
                pk[j] = i
        dist.append(dk)
        parent.append(pk)
    # min over v of max over k of (dist[n][v] - dist[k][v]) / (n - k), as
    # (numerator, positive denominator) pairs compared by cross-multiplying;
    # the first maximum per v and the first minimum over ascending v win.
    best, best_v = None, -1
    for v, dnv in enumerate(dist[n]):
        if dnv == inf:
            continue
        worst = None
        for k in range(n % d, n, d):
            dkv = dist[k][v]
            if dkv == inf:
                continue
            num, den = dnv - dkv, n - k
            if worst is None or num * worst[1] > worst[0] * den:
                worst = (num, den)
        if worst is not None and (
                best is None or best[0] * worst[1] > worst[0] * best[1]):
            best = worst
            best_v = v
    mean = Fraction(*best)
    # Recover a cycle of mean `best` from the optimal n-edge walk into
    # best_v, as places in the classes of its rows.
    walk = [best_v]
    for k in range(n, 0, -1):
        walk.append(parent[k][walk[-1]])
    walk.reverse()
    # The walk's first j edges weigh dist[j][walk[j]], since each parent
    # edge attains the minimum; a node is (class, place).
    last: dict[tuple[int, int], int] = {}
    found = None
    for j, v in enumerate(walk):
        key = (j % d, v)
        i = last.get(key)
        last[key] = j
        if i is None:
            continue
        clen = j - i
        total = dist[j][v] - dist[i][v]
        if total * mean.denominator == mean.numerator * clen and (
                found is None or (clen, i) < found):
            found = (clen, i)
    if found is None:
        raise AssertionError("min mean cycle not found on optimal walk")
    clen, i = found
    return mean, [nodes[cls[j % d][walk[j]]] for j in range(i, i + clen)]


def internal_edges_only(karp):
    """``karp`` behind the edge contract of ``shiftgeo._graph.karp_min_mean``:
    ``edges[v]`` may list targets outside ``nodes``.  The Karp oracles take
    the edges inside one SCC only, so the wrapper hands them a dict of
    those, in their listed order, for patching in where the library passes
    its whole product adjacency."""
    def karp_on_internal_edges(nodes: list[int], edges):
        members = set(nodes)
        return karp(nodes, {v: [(t, w) for (t, w) in edges[v]
                                if t in members] for v in nodes})
    return karp_on_internal_edges


def strongly_connected_components_oracle(n: int, succ) -> list[list[int]]:
    """Tarjan's algorithm, iterative, with each DFS frame held as (node,
    next successor index) and rescanning ``succ[v]`` from that index: the
    frames that ``shiftgeo._graph.strongly_connected_components`` replaced
    with successor iterators.  ``succ[v]`` lists successors of v.

    Components are returned in reverse topological order (a component is
    emitted only after everything it can reach), each sorted ascending.
    """
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for i in range(pi, len(succ[v])):
                w = succ[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            work.pop()
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comps


def condensation_reach_oracle(n: int, succ, comps: list[list[int]]):
    """Reachability between SCCs, as the transitive closure of the
    condensation that ``shiftgeo._graph.condensation_reach`` returned before
    it returned the condensation DAG alone.  Returns (comp_of, reach) where
    reach[c] is the set of component indices reachable from component c
    (including c itself)."""
    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    k = len(comps)
    dag: list[set[int]] = [set() for _ in range(k)]
    for v in range(n):
        cv = comp_of[v]
        for w in succ[v]:
            cw = comp_of[w]
            if cw != cv:
                dag[cv].add(cw)
    reach: list[set[int]] = [set() for _ in range(k)]
    # comps come out of Tarjan in reverse topological order, so successors
    # of component c have smaller indices and are already complete.
    for c in range(k):
        r = {c}
        for d in dag[c]:
            r |= reach[d]
        reach[c] = r
    return comp_of, reach


# -- the |A|^p orbit loops that shiftgeo.shifts.periodic_orbits replaced -----


def _all_words(alphabet, p: int):
    """Every word of length p, in the alphabet's lexicographic order."""
    return ("".join(t) for t in itertools.product(alphabet.symbols, repeat=p))


def periodic_orbits_oracle(X, max_period: int) -> list[str]:
    """Primitive representatives of the periodic orbits of X with least
    period <= max_period, each the least rotation in the alphabet's
    order."""
    from shiftgeo.configs import periodic_config
    out = []
    seen = set()
    for p in range(1, max_period + 1):
        for w in _all_words(X.alphabet, p):
            if w in seen:
                continue
            if not is_lyndon(X.alphabet, w):
                continue
            seen.add(w)
            if contains_config_oracle(X, periodic_config(w, X.alphabet)):
                out.append(w)
    return out


def unique_approximation_search_oracle(X, P: int):
    """``metrics.unique_approximation_search`` with its candidate words
    drawn from the old |A|^p loop, its orbits from
    :func:`periodic_orbits_oracle`, and the exact distance computed first
    for every candidate, before any orbit is compared."""
    from shiftgeo.configs import periodic_config
    from shiftgeo.metrics import UapVerdict, cyclic_mismatch_density, \
        distance_to_shift
    rank = functools.partial(ranks, X.alphabet)
    x_orbits = periodic_orbits_oracle(X, P)
    for p in range(1, P + 1):
        for w in _all_words(X.alphabet, p):
            if not is_lyndon(X.alphabet, w):
                continue
            y = periodic_config(w, X.alphabet)
            if contains_config_oracle(X, y):
                continue
            d_true = distance_to_shift(y, X)
            orbit_hits: list[str] = []
            points: list[str] = []
            for ow in x_orbits:
                rots = sorted((ow[i:] + ow[:i] for i in range(len(ow))),
                              key=rank)
                hit = [r for r in rots
                       if cyclic_mismatch_density(w, r) == d_true]
                if hit:
                    orbit_hits.append(ow)
                    points.append(hit[0])
            if len(orbit_hits) >= 2:
                return UapVerdict(
                    True, P, witness=y, distance=d_true,
                    minimizers=[periodic_config(pt, X.alphabet)
                                for pt in sorted(points, key=rank)])
    return UapVerdict(False, P)


def precondition_words_oracle(X, P: int) -> dict:
    """For p = 1..P, every word w of length p, in the alphabet's order,
    with inf(w) in X."""
    from shiftgeo.configs import periodic_config
    periodic_words: dict[int, list[str]] = {}
    for p in range(1, P + 1):
        periodic_words[p] = [w for w in _all_words(X.alphabet, p)
                             if contains_config_oracle(
                                 X, periodic_config(w, X.alphabet))]
    return periodic_words


def isometric_ca_precondition_oracle(X, zero: str, L: int, P: int):
    """``automata.isometric_ca_precondition`` on the word lists of
    :func:`precondition_words_oracle`, with factors and their symbols taken
    in the alphabet's order."""
    from shiftgeo.automata import RigidityReport
    from shiftgeo.configs import periodic_config
    from shiftgeo.shifts import language
    if not contains_config_oracle(X, periodic_config(zero, X.alphabet)):
        return RigidityReport(False, None, {})
    periodic_words = precondition_words_oracle(X, P)
    rank = functools.partial(ranks, X.alphabet)
    used = {}
    for n in range(1, L + 1):
        for w in sorted(language(X, n), key=rank):
            for s in sorted(set(w), key=rank):
                found = None
                for p in range(1, P + 1):
                    marker = s + zero * (p - 1)
                    if not contains_config_oracle(
                            X, periodic_config(marker, X.alphabet)):
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


def precondition_oracle(X, zero: str, L: int, P: int):
    """``automata.isometric_ca_precondition`` as it was before the factor
    index: for each (w, s) the least marked p with some orbit u, |u|
    dividing p, whose power u^(|w| // |u| + 2) contains w, found by a scan
    over every orbit per (word, symbol, period)."""
    from shiftgeo.automata import RigidityReport
    from shiftgeo.errors import PreconditionError
    from shiftgeo.shifts import _RelationMonoid, language, periodic_orbits
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
        e, marked[s] = M.step(M.identity, s), []
        for p in range(1, P + 1):
            if M.cycles(e):
                marked[s].append(p)
            e = M.step(e, zero)
    orbits = periodic_orbits(X, P)
    used = {}
    for n in range(1, L + 1):
        for w in language(X, n):
            for s in (a for a in X.alphabet if a in w):
                found = next((p for p in marked[s] if any(
                    p % len(u) == 0 and w in u * (len(w) // len(u) + 2)
                    for u in orbits)), None)
                if found is None:
                    return RigidityReport(False, (w, s), used)
                used[(w, s)] = found
    return RigidityReport(True, None, used)


# -- the state-set walk and per-word fixpoints that the transition monoid of
# shiftgeo.shifts._RelationMonoid replaced -----------------------------------


def lyndon_words_state_set_oracle(X, max_period: int) -> list[str]:
    """Lyndon words of length <= max_period all of whose prefixes are
    factors of X, by length and then in the alphabet's order, on the
    prenecklace walk that carries each prefix's state set, stepped by
    ``X.step``."""
    if max_period <= 0 or X.is_empty:
        return []
    order = X.alphabet.symbols
    # the symbols >= b, largest first: pushed in this order, the prefixes
    # pop in lexicographic order
    pushes = {b: order[i:][::-1] for i, b in enumerate(order)}
    start = frozenset(X.states)
    words: list[str] = []
    a: list[str] = []  # the current prefix
    # (length t, last symbol a[t - 1], least period p, state set)
    stack = [(1, b, 1, S) for b in pushes[order[0]]
             if (S := X.step(start, b))]
    while stack:
        t, b, p, S = stack.pop()
        del a[t - 1:]
        a.append(b)
        if p == t:
            words.append("".join(a))
        if t == max_period:
            continue
        keep = a[t - p]
        for b in pushes[keep]:
            T = X.step(S, b)
            if T:
                stack.append((t + 1, b, p if b == keep else t + 1, T))
    words.sort(key=len)  # stable, so lexicographic within a length
    return words


def periodic_orbits_fixpoint_oracle(X, max_period: int) -> list[str]:
    """``shifts.periodic_orbits`` as the state-set walk plus one
    :func:`stable_block_set_oracle` fixpoint per Lyndon word."""
    return [w for w in lyndon_words_state_set_oracle(X, max_period)
            if stable_block_set_oracle(X, w, outgoing=True)]


def isometric_ca_precondition_fixpoint_oracle(X, zero: str, L: int, P: int):
    """``automata.isometric_ca_precondition`` with its zero point and every
    marker s zero^(p-1) tested by its own :func:`stable_block_set_oracle`
    fixpoint, and its orbits from :func:`periodic_orbits_fixpoint_oracle`."""
    from shiftgeo.automata import RigidityReport
    from shiftgeo.errors import PreconditionError
    from shiftgeo.shifts import language
    if zero not in X.alphabet:
        raise ValueError(f"symbol {zero!r} not in alphabet")
    if L <= 0:
        raise PreconditionError("factor length bound must be positive")
    if P <= 0:
        raise PreconditionError("period bound must be positive")
    if not stable_block_set_oracle(X, zero, outgoing=True):
        return RigidityReport(False, None, {})
    marked = {s: [p for p in range(1, P + 1)
                  if stable_block_set_oracle(X, s + zero * (p - 1),
                                             outgoing=True)]
              for s in X.alphabet}
    orbits = periodic_orbits_fixpoint_oracle(X, P)
    used = {}
    for n in range(1, L + 1):
        for w in language(X, n):
            for s in (a for a in X.alphabet if a in w):
                found = next((p for p in marked[s] if any(
                    p % len(u) == 0 and w in u * (len(w) // len(u) + 2)
                    for u in orbits)), None)
                if found is None:
                    return RigidityReport(False, (w, s), used)
                used[(w, s)] = found
    return RigidityReport(True, None, used)


# -- the list-prefix walk and the per-orbit factor loop that
# shiftgeo.shifts.periodic_orbits and the factor index of
# shiftgeo.automata.isometric_ca_precondition replaced ----------------------


def periodic_orbits_list_prefix_oracle(X, max_period: int) -> list[str]:
    """``shifts.periodic_orbits`` as the prenecklace walk on the transition
    monoid that keeps one shared prefix list (joined once per word), steps
    every symbol at every node, pushes and pops the last level, and sorts
    the words by length at the end."""
    from shiftgeo.shifts import _RelationMonoid
    if max_period <= 0 or X.is_empty:
        return []
    M = _RelationMonoid(X)
    succ, flags = M.succ, M.flags
    order = X.alphabet.symbols
    # the symbols >= b, largest first: pushed in this order, the prefixes
    # pop in lexicographic order
    pushes = {b: order[i:][::-1] for i, b in enumerate(order)}
    words: list[str] = []
    a: list[str] = []  # the current prefix
    # (length t, last symbol a[t - 1], least period p, element of a)
    stack = [(1, b, 1, e) for b in pushes[order[0]]
             if (e := M.step(M.identity, b)) >= 0]
    while stack:
        t, b, p, e = stack.pop()
        del a[t - 1:]
        a.append(b)
        if p == t and flags[e]:
            words.append("".join(a))
        if t == max_period:
            continue
        keep = a[t - p]
        nxt = succ[e]
        for b in pushes[keep]:
            f = nxt.get(b)
            if f is None:
                f = M.image(e, b)
            if f >= 0:
                stack.append((t + 1, b, p if b == keep else t + 1, f))
    words.sort(key=len)  # stable, so lexicographic within a length
    return words


def precondition_per_orbit_index_oracle(X, zero: str, L: int, P: int):
    """``automata.isometric_ca_precondition`` with the factor index built
    by one dict update per (orbit, start, length), not once per distinct
    factor of each length group."""
    from shiftgeo.automata import RigidityReport
    from shiftgeo.errors import PreconditionError
    from shiftgeo.shifts import _RelationMonoid, language, periodic_orbits
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
    for u in periodic_orbits(X, P):
        q = len(u)
        multiples = sum(1 << p for p in range(q, P + 1, q))
        text = u * (L // q + 2)
        for i in range(q):
            for j in range(i + 1, i + L + 1):
                w = text[i:j]
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


# -- the |A|^k (w, u, v) loops that shiftgeo.shifts._synchronizing_words and
# shiftgeo.shifts._pads replaced ---------------------------------------------


def find_unbordered_synchronizing_oracle(X, cap: int = 16) -> str:
    """``shifts.find_unbordered_synchronizing`` on the old loop over every
    word of each length."""
    from shiftgeo.configs import is_unbordered
    from shiftgeo.errors import CapError, PreconditionError
    from shiftgeo.shifts import shannon_cover
    if cap <= 0:
        raise PreconditionError("word length cap must be positive")
    C = shannon_cover(X)
    for length in range(1, cap + 1):
        for w in _all_words(C.alphabet, length):
            if not is_unbordered(w):
                continue
            reached = C.read(C.states, w)
            if len(reached) == 1:
                return w
    raise CapError(f"no unbordered synchronizing word of length <= {cap}")


def mixing_sft_inside_oracle(X, word_cap: int = 16, pad_cap: int = 8):
    """``shifts.mixing_sft_inside`` on the old loops over every word w, u
    and v of each length."""
    from shiftgeo.configs import is_unbordered
    from shiftgeo.errors import CapError, PreconditionError
    from shiftgeo.shifts import SftInside, concatenation_closure, \
        language_subset, mixing_distance, positive_entropy, shannon_cover
    if not positive_entropy(X):
        raise PreconditionError("shift does not have positive entropy")
    mixing_distance(X)
    C = shannon_cover(X)
    for length in range(1, word_cap + 1):
        for w in _all_words(C.alphabet, length):
            if not is_unbordered(w):
                continue
            if len(C.read(C.states, w)) != 1:
                continue
            for k in range(0, pad_cap + 1):
                us = [u for u in _all_words(C.alphabet, k)
                      if w not in u and C.accepts_word(w + u + w)]
                vs = [v for v in _all_words(C.alphabet, k + 1)
                      if w not in v and C.accepts_word(w + v + w)]
                if us and vs:
                    u, v = us[0], vs[0]
                    Y = concatenation_closure(C.alphabet, [w + u, w + v])
                    if not (language_subset(Y, C) and positive_entropy(Y)):
                        continue
                    try:
                        mixing_distance(Y)
                    except PreconditionError:
                        continue
                    return SftInside(Y, w, u, v)
    raise CapError("no (w, u, v) triple found within the search caps")


def embed_complex_oracle(K, X, word_cap: int = 16, pad_cap: int = 8):
    """``homotopy.embed_complex`` on the old loops over every word w, u and
    v of each length."""
    from shiftgeo.configs import is_unbordered
    from shiftgeo.errors import CapError, PreconditionError
    from shiftgeo.homotopy import ComplexEmbedding
    from shiftgeo.shifts import concatenation_closure, language_subset, \
        mixing_distance, positive_entropy, shannon_cover
    if not positive_entropy(X):
        raise PreconditionError("shift does not have positive entropy")
    mixing_distance(X)
    C = shannon_cover(X)
    n = len(K.vertices)
    if n == 0:
        raise PreconditionError("complex has no vertices")
    for length in range(1, word_cap + 1):
        for w in _all_words(C.alphabet, length):
            if not is_unbordered(w):
                continue
            if len(C.read(C.states, w)) != 1:
                continue
            for k in range(0, pad_cap + 1):
                us = [u for u in _all_words(C.alphabet, k)
                      if w not in u and C.accepts_word(w + u + w)]
                if len(us) < n:
                    continue
                vs = [v for v in _all_words(C.alphabet, k + 1)
                      if w not in v and C.accepts_word(w + v + w)]
                if not vs:
                    continue
                vertex_words = dict(zip(sorted(K.vertices, key=str), us))
                face_shifts = {}
                for face in sorted(K.faces, key=lambda f: (len(f), sorted(f))):
                    Y = concatenation_closure(
                        C.alphabet, [w + vs[0]] + [w + vertex_words[t]
                                                   for t in face])
                    if not language_subset(Y, C):
                        break
                    face_shifts[face] = Y
                else:
                    return ComplexEmbedding(w, vs[0], vertex_words,
                                            face_shifts)
    raise CapError("no embedding data found within the search caps")


def _raw_mpf_to_fraction(raw) -> Fraction:
    sign, man, exp, _bc = raw
    val = Fraction(int(man)) * Fraction(2) ** exp
    return -val if sign else val


def binomial_growth_threshold_oracle(k, a):
    """The block count m of ``measures.binomial_growth_threshold`` by the
    exact test of every candidate m <= 256, which the search ran before its
    float prescreen covered them too; None when none of them passes."""
    from shiftgeo.measures import _block_condition_exact
    return next((m for m in range(2, 257)
                 if _block_condition_exact(m, Fraction(k), Fraction(a))),
                None)


def verify_binomial_bound_oracle(n: int, m: int, p: int) -> bool:
    """Exact check of the strict Stirling-type inequality

        C(m n, p n)  <  n^(-1/2) m^(mn+1/2) /
                        (sqrt(2 pi) (m-p)^((m-p)n+1/2) p^(pn+1/2)).

    The left side is an exact integer; the right side is enclosed in an
    outward-rounded interval (128-bit working precision, doubled on demand),
    so the returned verdict is sound.
    """
    import mpmath
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 < p < m:
        raise ValueError("need 0 < p < m")
    lhs = Fraction(comb(m * n, p * n))
    for prec in (128, 256, 512, 1024):
        iv = mpmath.iv
        iv.prec = prec
        rhs = (1 / iv.sqrt(2 * iv.pi)
               * iv.mpf(n) ** iv.mpf(-0.5)
               * iv.mpf(m) ** (m * n + iv.mpf(0.5))
               / (iv.mpf(m - p) ** ((m - p) * n + iv.mpf(0.5))
                  * iv.mpf(p) ** (p * n + iv.mpf(0.5))))
        raw_lo, raw_hi = rhs._mpi_
        lo = _raw_mpf_to_fraction(raw_lo)
        hi = _raw_mpf_to_fraction(raw_hi)
        if lhs < lo:
            return True
        if lhs >= hi:
            return False
    raise RuntimeError("interval evaluation failed to separate the sides")


# -- the numpy power iteration that shiftgeo.measures.parry_measure ran
# before it iterated on Python floats ----------------------------------------


def parry_measure_numpy_oracle(X):
    """``measures.parry_measure`` with numpy's matrix-vector products and
    sums: the same power iteration on A + I, to the same tolerance and
    cap, with the same checks."""
    import numpy as np
    from shiftgeo.measures import MarkovMeasure, POWER_CAP, POWER_TOL, \
        STOCHASTIC_TOL
    from shiftgeo.errors import PreconditionError
    from shiftgeo.shifts import shannon_cover, _components

    if X.is_empty:
        raise PreconditionError("presentation is reducible")
    C = shannon_cover(X)
    if len(_components(C)) != 1:
        raise PreconditionError("presentation is reducible")
    n = len(C.states)
    idx = {s: i for i, s in enumerate(C.states)}
    A = np.zeros((n, n))
    for (s, t, _a) in C.edges:
        A[idx[s], idx[t]] += 1.0

    def lead_vector(M):
        v = np.ones(n) / n
        shifted = M + np.eye(n)
        for _ in range(POWER_CAP):
            w = shifted @ v
            w /= w.sum()
            if np.max(np.abs(w - v)) < POWER_TOL:
                return w
            v = w
        raise RuntimeError("power iteration did not converge")

    right = lead_vector(A)
    left = lead_vector(A.T)
    lam = float((A @ right).sum() / right.sum())
    edge_prob = {}
    for (s, t, a) in C.edges:
        edge_prob[(s, t, a)] = float(right[idx[t]] / (lam * right[idx[s]]))
    weights = left * right
    weights /= weights.sum()
    stationary = {s: float(weights[idx[s]]) for s in C.states}
    mu = MarkovMeasure(C, edge_prob, stationary, lam)
    if max(abs(v - 1.0) for v in mu.row_sums().values()) > STOCHASTIC_TOL:
        raise RuntimeError("transition rows failed the stochasticity check")
    if mu.stationarity_residual() > STOCHASTIC_TOL:
        raise RuntimeError("stationary vector failed the residual check")
    return mu


# -- the subset BFS on frozensets of named states that
# shiftgeo.shifts.language_subset ran before it stepped state masks ----------


def language_subset_oracle(A, B) -> bool:
    """Exact: every factor of A is a factor of B, by a breadth-first search
    on pairs (state set of A, state set of B) through the per-state dicts
    of ``StepOracle``, which stops at the first word A reads and B does
    not."""
    if A.is_empty:
        return True
    if B.is_empty:
        return False
    step_a, step_b = StepOracle(A).step, StepOracle(B).step
    start = (frozenset(A.states), frozenset(B.states))
    seen = {start}
    queue = [start]
    for SA, SB in queue:
        for a in A.alphabet:
            TA = step_a(SA, a)
            if not TA:
                continue
            TB = step_b(SB, a)
            if not TB:
                return False
            if (TA, TB) not in seen:
                seen.add((TA, TB))
                queue.append((TA, TB))
    return True


# -- the image presentation that shiftgeo.automata.preserves_shift built
# before it had one construction for every width -----------------------------


def preserves_shift_oracle(f, X) -> bool:
    """Exact test that f maps X into X, via an image presentation with a
    separate branch for width 1 and a frontier expansion of the readable
    words otherwise."""
    from shiftgeo.shifts import ShiftPresentation, shannon_cover
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
                            for t in C.step({qq}, a)]
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
    return language_subset_oracle(image, C)


# -- the image presentation on (q, u) names that
# shiftgeo.automata.preserves_shift built before it numbered its states ------


def preserves_shift_tuple_oracle(f, X) -> bool:
    """Exact test that f maps X into X, via the image presentation on
    (q, u) tuple names, each u + a re-read from q."""
    from shiftgeo.shifts import ShiftPresentation, shannon_cover
    C = shannon_cover(X)
    states = [(q, "") for q in C.states]
    for _ in range(f.width - 1):
        states = [(q, u + a) for (q, u) in states for a in C.alphabet
                  if C.read({q}, u + a)]
    edges = [((q, u), (t, (u + a)[1:]), f.table[u + a])
             for (q, u) in states for a in C.alphabet if C.read({q}, u + a)
             for t in C.step({q}, (u + a)[0])]
    return language_subset_oracle(
        ShiftPresentation(C.alphabet, states, edges), C)


# -- the per-cell reads that Configuration.window, Configuration.symbol_at,
# apply_ca, PathSource.window, homotopy.project and homotopy.average made
# before they sliced one window -----------------------------------------------


def symbol_at_oracle(x: Configuration, i: int) -> str:
    """x_i by index arithmetic on the finite part or the period of its side
    (what Configuration.symbol_at computed before it read window(i, i))."""
    if i >= 0:
        rf = x.right_finite
        if i < len(rf):
            return rf[i]
        rp = x.right_period
        return rp[(i - len(rf)) % len(rp)]
    j = -i - 1  # distance to the left of the origin, 0-based
    lf = x.left_finite
    if j < len(lf):
        return lf[len(lf) - 1 - j]
    lp = x.left_period
    return lp[len(lp) - 1 - (j - len(lf)) % len(lp)]


def d_cantor_oracle(x: Configuration, y: Configuration) -> Fraction:
    """``metrics.d_cantor`` as the per-cell loop it was: cells d and -d
    compared for d = 0, 1, ... up to each side's bound, one
    symbol_at_oracle call per cell."""
    if x.alphabet != y.alphabet:
        raise ValueError("alphabet mismatch")
    if x == y:
        return Fraction(0)
    bound_r = (max(len(x.right_finite), len(y.right_finite))
               + lcm(len(x.right_period), len(y.right_period)))
    bound_l = (max(len(x.left_finite), len(y.left_finite))
               + lcm(len(x.left_period), len(y.left_period)))
    for d in range(max(bound_r, bound_l) + 1):
        if d <= bound_r and \
                symbol_at_oracle(x, d) != symbol_at_oracle(y, d):
            return Fraction(1, 2 ** d)
        if 0 < d <= bound_l and \
                symbol_at_oracle(x, -d) != symbol_at_oracle(y, -d):
            return Fraction(1, 2 ** d)
    raise AssertionError("distinct canonical configurations must differ")


def window_oracle(x: Configuration, a: int, b: int) -> str:
    """The word x_a ... x_b, one symbol_at_oracle call per cell."""
    if a > b:
        raise ValueError(f"empty window [{a}, {b}]")
    return "".join(symbol_at_oracle(x, i) for i in range(a, b + 1))


def apply_ca_oracle(f, x: Configuration) -> Configuration:
    """f(x), one window per image cell."""
    lp, rp = len(x.left_period), len(x.right_period)
    ml = len(x.left_finite) + max(0, f.right) + lp + 1
    mr = len(x.right_finite) + max(0, -f.left) + rp + 1
    img = lambda i: f.table[window_oracle(x, i + f.left, i + f.right)]
    return Configuration(
        x.alphabet,
        "".join(img(i) for i in range(-ml - lp, -ml)),
        "".join(img(i) for i in range(-ml, 0)),
        "".join(img(i) for i in range(0, mr)),
        "".join(img(i) for i in range(mr, mr + rp)))


def path_window_oracle(prefix_fn, a: int, b: int) -> str:
    """Window [a, b] of the reflection t(i) = u(i), t(-1-i) = u(i) of the
    one-sided prefix function, one cell at a time."""
    if a > b:
        raise ValueError(f"empty window [{a}, {b}]")
    u = prefix_fn(max(b + 1, -a, 0))
    return "".join(u[i] if i >= 0 else u[-1 - i] for i in range(a, b + 1))


def project_oracle(S, T, anchor: Configuration, m: int, x: Configuration,
                   N: int) -> str:
    """homotopy.project with one window per position and one
    symbol_at_oracle per cell, preconditions included."""
    from shiftgeo.errors import PreconditionError
    from shiftgeo.homotopy import lex_least_completion
    from shiftgeo.shifts import contains_config, language_subset, \
        mixing_distance
    if not language_subset(T, S):
        raise PreconditionError("T is not a subshift of S")
    if not contains_config(T, anchor):
        raise PreconditionError("anchor is not a point of T")
    if mixing_distance(T) > m:
        raise PreconditionError("m is below the mixing distance of T")
    if not contains_config(S, x):
        raise PreconditionError("x is not a point of S")
    good = {}
    for j in range(-N - 2 * m, N + 2 * m + 1):
        good[j] = T.accepts_word(window_oracle(x, j - 2 * m, j + 2 * m))
    constraints: list = []
    for i in range(-N, N + 1):
        if any(good[j] for j in range(i - m, i + m + 1)):
            constraints.append(symbol_at_oracle(x, i))
        elif not any(good[j] for j in range(i - 2 * m, i + 2 * m + 1)):
            constraints.append(symbol_at_oracle(anchor, i))
        else:
            constraints.append(None)
    return lex_least_completion(T, constraints)


def average_oracle(X, m: int, r, x: Configuration, y: Configuration,
                   N: int) -> str:
    """homotopy.average with one symbol_at_oracle per selected cell,
    preconditions included."""
    from shiftgeo.errors import PreconditionError
    from shiftgeo.homotopy import average_selects, lex_least_completion
    from shiftgeo.shifts import contains_config, mixing_distance
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
    for i in range(-N, N + 1):
        side = average_selects(m, r, i)
        constraints.append(None if side is None else symbol_at_oracle(
            x if side == "x" else y, i))
    return lex_least_completion(X, constraints)


# -- the product graph on named nodes that
# shiftgeo.metrics.distance_to_shift_detail built before it numbered them -----


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
        sym[("M", i)] = symbol_at_oracle(x, i)
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


def distance_to_shift_detail_oracle(x: Configuration, Y):
    """``metrics.distance_to_shift_detail`` on product nodes named
    (state, ("L"|"M"|"R", i)) and looked up through an index dict, with the
    components of the index-based Tarjan oracle and the best right cycle
    taken over each component's full reach set, not folded along the DAG.
    Karp is the library's ``_graph.karp_min_mean``, so that tests can patch
    it on both sides."""
    from shiftgeo import _graph
    from shiftgeo.errors import EmptyShiftError
    from shiftgeo.metrics import ShiftDistanceDetail
    if Y.is_empty:
        raise EmptyShiftError("distance to the empty shift is undefined")
    pnodes, psym, psucc = _arm_position_nodes(x)
    nodes = [(q, p) for q in Y.states for p in pnodes]
    index = {v: i for i, v in enumerate(nodes)}
    succ = [[] for _ in nodes]
    wsucc = [[] for _ in nodes]
    for (s, t, a) in Y.edges:
        for p in pnodes:
            for pn in psucc[p]:
                u = index[(s, p)]
                v = index[(t, pn)]
                succ[u].append(v)
                cost = int(a != psym[p])
                wsucc[u].append((v, cost, a))
    comps = strongly_connected_components_oracle(len(nodes), succ)
    reach = condensation_reach_oracle(len(nodes), succ, comps)[1]

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
    word = _cycle_word(nodes, wsucc, rcyc, Y.alphabet.key)
    return ShiftDistanceDetail(total, lm, rm, len(lcyc), len(rcyc), word)


def _cycle_word(nodes, wsucc, cyc, key) -> str:
    """Label word along a product cycle, rotated so that it starts at the
    node whose position phase is 0 (for alignment with the configuration);
    between two nodes, the cheapest parallel edge, least label by `key`."""
    start = min(range(len(cyc)), key=lambda i: (nodes[cyc[i]][1][1], i))
    order = cyc[start:] + cyc[:start]
    return "".join(min((w, key(a), a) for (t, w, a) in wsucc[v] if t == u)[2]
                   for v, u in zip(order, order[1:] + order[:1]))


# -- the boolean matrix powers that shiftgeo.shifts.mixing_distance stored
# before it walked them as bitmask rows, and the period it took from its own
# BFS before the cover and Karp shared shiftgeo._graph.bfs_period ------------


def cover_period_oracle(succ) -> int:
    """gcd of cycle lengths of a strongly connected graph, given by its
    successor index lists."""
    level = {0: 0}
    queue = [0]
    g = 0
    while queue:
        v = queue.pop(0)
        for w in succ[v]:
            if w not in level:
                level[w] = level[v] + 1
                queue.append(w)
            else:
                g = gcd(g, level[v] + 1 - level[w])
    return abs(g) if g else 1


def mixing_distance_oracle(X) -> int:
    """``shifts.mixing_distance`` with every power of the cover's adjacency
    kept as a list of boolean lists, multiplied by an O(n^3) ``any``."""
    from shiftgeo import _graph
    from shiftgeo.errors import EmptyShiftError, PreconditionError
    from shiftgeo.shifts import shannon_cover
    if X.is_empty:
        raise EmptyShiftError("empty shift")
    C = shannon_cover(X)
    idx = {s: i for i, s in enumerate(C.states)}
    succ = [[] for _ in C.states]
    for (s, t, _a) in C.edges:
        succ[idx[s]].append(idx[t])
    if len(_graph.strongly_connected_components(len(succ), succ)) != 1:
        raise PreconditionError("shift is not irreducible")
    g = cover_period_oracle(succ)
    if g > 1:
        raise PreconditionError(f"shift is not mixing (period {g})")
    n_states = len(C.states)
    adj = [[False] * n_states for _ in range(n_states)]
    for i, row in enumerate(succ):
        for j in row:
            adj[i][j] = True
    steps = StepOracle(C)
    ends, starts = (
        [S for S in sets if not any(T < S for T in sets)]
        for sets in (subset_graph_oracle(C, steps.step)[0],
                     subset_graph_oracle(C, steps.step_back)[0]))
    end_sets = [sorted(idx[s] for s in S) for S in ends]
    start_sets = [frozenset(idx[s] for s in S) for S in starts]

    def condition(power) -> bool:
        # every reachable end-of-word state set can reach every
        # start-of-word state set with a path of this exact length
        for E in end_sets:
            for S in start_sets:
                if not any(power[p][q] for p in E for q in S):
                    return False
        return True

    powers = [[[i == j for j in range(n_states)] for i in range(n_states)]]
    cap = (n_states - 1) ** 2 + n_states + 2
    N = None
    for n in range(1, cap + 1):
        prev = powers[-1]
        cur = [[any(prev[i][k] and adj[k][j] for k in range(n_states))
                for j in range(n_states)] for i in range(n_states)]
        powers.append(cur)
        if all(all(row) for row in cur):
            N = n
            break
    if N is None:
        raise PreconditionError("shift is not mixing (no positive power)")
    m = N
    while m > 0 and condition(powers[m - 1]):
        m -= 1
    return m


# -- the per-state dicts that shiftgeo.shifts.ShiftPresentation stepped
# through before it held one adjacency of mask rows ---------------------------


class StepOracle:
    """The stepping of a presentation X through per-state dicts built from
    X.edges: ``out[s][a]`` holds the a-successors of s and ``inc[t][a]`` the
    a-predecessors of t.  State sets are frozensets of names; a symbol
    outside the alphabet steps to the empty set."""

    def __init__(self, X):
        self.states = X.states
        self.out = {s: {} for s in X.states}
        self.inc = {s: {} for s in X.states}
        for (s, t, a) in X.edges:
            self.out[s].setdefault(a, set()).add(t)
            self.inc[t].setdefault(a, set()).add(s)

    def is_deterministic(self) -> bool:
        return all(len(ts) == 1 for m in self.out.values()
                   for ts in m.values())

    def step(self, state_set, symbol) -> frozenset:
        out = set()
        for s in state_set:
            out |= self.out[s].get(symbol, set())
        return frozenset(out)

    def step_back(self, state_set, symbol) -> frozenset:
        out = set()
        for s in state_set:
            out |= self.inc[s].get(symbol, set())
        return frozenset(out)

    def read(self, state_set, word: str) -> frozenset:
        cur = frozenset(state_set)
        for a in word:
            if not cur:
                break
            cur = self.step(cur, a)
        return cur

    def accepts_word(self, word: str) -> bool:
        return bool(self.read(self.states, word))


def subset_graph_oracle(X, step):
    """The state sets reachable from X.states under ``step`` (a
    ``StepOracle``'s ``step`` or ``step_back``), as frozensets of names in
    breadth-first order, and the labeled edges (S, step(S, a), a) between
    them."""
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


# -- the per-state walks that shiftgeo.shifts and shiftgeo.homotopy ran before
# every walk went through step / step_back -----------------------------------


def stable_block_set_oracle(X, word: str, outgoing: bool) -> frozenset:
    """States carrying an infinite aligned run of `word`-blocks: leaving the
    state when ``outgoing``, arriving into it otherwise."""
    cur = frozenset(X.states)
    while True:
        if outgoing:
            nxt = frozenset(s for s in X.states
                            if X.read({s}, word) & cur)
        else:
            nxt = X.read(cur, word)
        if nxt == cur:
            return cur
        cur = nxt


def contains_config_oracle(X, x: Configuration) -> bool:
    """Exact membership of an eventually periodic configuration."""
    if X.is_empty:
        return False
    if x.alphabet != X.alphabet:
        # symbols outside the presentation alphabet can still be compared
        for part in (x.left_period, x.left_finite, x.right_finite,
                     x.right_period):
            if any(a not in X.alphabet for a in part):
                return False
    left_stable = stable_block_set_oracle(X, x.left_period, outgoing=False)
    mid = X.read(left_stable, x.left_finite + x.right_finite)
    if not mid:
        return False
    right_stable = stable_block_set_oracle(X, x.right_period, outgoing=True)
    return bool(mid & right_stable)


def merge_equivalent_oracle(X):
    """Merge states of a deterministic presentation with equal follower sets
    (Moore partition refinement on the partial transition function)."""
    from shiftgeo.shifts import ShiftPresentation, _state_key
    states = list(X.states)
    out = StepOracle(X).out
    sig0 = {s: frozenset(out[s]) for s in states}
    classes = {}
    for s in states:
        classes.setdefault(sig0[s], []).append(s)
    part = {s: i for i, (_k, grp) in enumerate(sorted(
        classes.items(), key=lambda kv: _state_key(kv[1][0]))) for s in grp}
    while True:
        sig = {}
        for s in states:
            sig[s] = (part[s], tuple(
                (a, part[next(iter(out[s][a]))] if a in out[s] else -1)
                for a in X.alphabet))
        groups: dict = {}
        for s in states:
            groups.setdefault(sig[s], []).append(s)
        new_part = {s: i for i, (_k, grp) in enumerate(sorted(
            groups.items(), key=lambda kv: _state_key(kv[1][0])))
            for s in grp}
        if len(set(new_part.values())) == len(set(part.values())):
            break
        part = new_part
    reps: dict[int, list] = {}
    for s in states:
        reps.setdefault(part[s], []).append(s)
    name = {c: frozenset(grp) for c, grp in reps.items()}
    edges = {(name[part[s]], name[part[t]], a) for (s, t, a) in X.edges}
    return ShiftPresentation(X.alphabet, list(name.values()), edges)


def lex_least_completion_oracle(X, constraints) -> str:
    """Lexicographically least word of X's language matching the constraint
    list (each cell a symbol or None)."""
    from shiftgeo.errors import PreconditionError
    n = len(constraints)
    viable = [None] * (n + 1)
    viable[n] = frozenset(X.states)
    for pos in range(n - 1, -1, -1):
        allowed = ([constraints[pos]] if constraints[pos] is not None
                   else list(X.alphabet))
        good = set()
        for q in X.states:
            for a in allowed:
                if X.step({q}, a) & viable[pos + 1]:
                    good.add(q)
                    break
        if not good:
            raise PreconditionError(
                f"constraints are not completable in the shift (cell {pos})")
        viable[pos] = frozenset(good)
    out = []
    cur = viable[0]
    for pos in range(n):
        allowed = ([constraints[pos]] if constraints[pos] is not None
                   else list(X.alphabet))
        for a in allowed:
            nxt = X.step(cur, a) & viable[pos + 1]
            if nxt:
                out.append(a)
                cur = nxt
                break
        else:
            raise AssertionError("viability sweep is inconsistent")
    return "".join(out)
