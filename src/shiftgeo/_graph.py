"""Small exact graph algorithms shared across the library.

Everything here works on integer-indexed nodes and integer edge weights, and
returns exact ``Fraction`` values where ratios appear.  All iteration orders
are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def strongly_connected_components(n: int, succ) -> list[list[int]]:
    """Tarjan's algorithm, iterative.  ``succ[v]`` lists successors of v.

    Components are returned in reverse topological order (a component is
    emitted only after everything it can reach), each sorted ascending.
    """
    index = [-1] * n
    low = [0] * (n + 1)
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    # one (node, iterator over its successors) per DFS frame, above a bottom
    # frame (n, all nodes; hence low[n]) that starts a search at each root
    work = [(n, iter(range(n)))]
    while True:
        v, it = work[-1]
        for w in it:
            if index[w] == -1:
                index[w] = low[w] = counter
                counter += 1
                stack.append(w)
                on_stack[w] = True
                work.append((w, iter(succ[w])))
                break
            if on_stack[w] and index[w] < low[v]:
                low[v] = index[w]
        else:
            work.pop()
            if not work:
                return comps
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            u = work[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]


def condensation_reach(n: int, succ, comps: list[list[int]]):
    """The condensation DAG as (comp_of, dag): dag[c] holds the components
    that edges leave c for.  ``comps`` is in reverse topological order, so a
    fold over ascending c along dag[c] sees everything c reaches."""
    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    dag: list[set[int]] = [set() for _ in comps]
    for v, out in enumerate(succ):
        cv = comp_of[v]
        for w in out:
            if (cw := comp_of[w]) != cv:
                dag[cv].add(cw)
    return comp_of, dag


def bfs_period(adj) -> tuple[list[int], int]:
    """(level, d) for a strongly connected graph on nodes 0..n-1, where
    ``adj[u]`` lists (v, label) pairs: level[v] is the BFS distance from
    node 0, and d the gcd of level(u) + 1 - level(v) over all edges, which
    is the gcd of the cycle lengths (the period), or 0 without an edge.
    Edges go from level class c to class c + 1 mod d."""
    n = len(adj)
    level = [0] + [-1] * (n - 1)
    queue = [0]
    for u in queue:
        for (v, _w) in adj[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    return level, gcd(*(level[u] + 1 - level[v]
                        for u in range(n) for (v, _w) in adj[u]))


def _relax_row(prev, relax, size: int):
    """One step of Karp's recurrence: the row over ``size`` places reached
    from row ``prev`` through the (place, place, weight) list ``relax``,
    with a strict < (the first candidate wins ties).  Returns the row
    shifted so that its least finite entry is 0, as a tuple, that shift,
    and the parent place of each entry (-1 where the row is infinite)."""
    inf = float("inf")
    row = [inf] * size
    parent = [-1] * size
    for (i, j, w) in relax:
        cand = prev[i] + w
        if cand < row[j]:
            row[j] = cand
            parent[j] = i
    low = min(row)
    return tuple([x - low for x in row]), low, parent


def karp_min_mean(nodes: list[int], edges) -> tuple[Fraction, list[int]]:
    """Minimum mean cycle of a strongly connected weighted graph.

    ``nodes`` are the node ids of one SCC; ``edges[v]`` lists (target, weight)
    pairs, and those with a target outside the SCC are skipped, so ``edges``
    may be a whole graph's adjacency.  Returns the exact minimum mean and one
    cycle (as a node list) achieving it.

    Karp's recurrence over walks of exactly k edges from ``nodes[0]``, on
    the cyclic classes of :func:`bfs_period`: edges go from class c to
    class c + 1 mod d, so row k is a list over class k mod d, relaxed from
    row k - 1 through one precomputed (u, v, w) list of class (k - 1) mod d,
    in ``nodes`` order of u, with a strict < (the least predecessor wins
    ties); only rows k = n (mod d) enter the max/min.

    The rows are memoized up to a constant.  Adding a constant to every
    finite entry of row k - 1 moves every candidate of row k by that
    constant, so every comparison, hence every parent, stays the same, and
    row k moves by the constant too (a min-plus step commutes with adding a
    constant).  So row k is kept as (id, offset): the id interns the row
    shifted so that its least finite entry is 0, which every row has, since
    the graph is strongly connected.  Classes with equal edge lists share
    one cache from row id to (next row id, offset added, parents), and a
    step that hits it costs one lookup.  On the product of a presentation
    with a position cycle, the classes refine the phases, and two phase
    steps differ only where the point's symbols differ, so there are few
    kinds of class step (one per symbol on every 14-state SFT call of the
    ``arms`` benchmark) and after a short transient the rows repeat.  Time
    is O(E) set-up (skipped pairs included), plus the edges of each class
    times the distinct rows it steps, plus one lookup per row, plus the
    max/min over the rows of class n mod d; memory is one (id, offset,
    parents) per row plus the distinct rows.  Every dist[k][v] read below
    is the same integer as in the unmemoized recurrence.

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
    adj = [[(j, w) for (t, w) in edges[v] if (j := idx.get(t)) is not None]
           for v in nodes]
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
    shared: dict[tuple, dict] = {}
    memo = [shared.setdefault(tuple(r), {}) for r in relax]
    inf = float("inf")
    # dist[k][i], the min weight of a walk with exactly k edges from node 0
    # to the i-th node of class k mod d, is rows[ids[k]][i] + offs[k], and
    # parents[k][i] is its predecessor's place
    start = (0,) + (inf,) * (len(cls[0]) - 1)
    row_id = {start: 0}
    rows = [start]
    ids, offs, parents = [0], [0], [None]
    r = off = 0
    for k in range(1, n + 1):
        cache = memo[(k - 1) % d]
        if (hit := cache.get(r)) is None:
            row, low, parent = _relax_row(rows[r], relax[(k - 1) % d],
                                          len(cls[k % d]))
            if (nxt := row_id.setdefault(row, len(rows))) == len(rows):
                rows.append(row)
            cache[r] = hit = (nxt, low, parent)
        r, low, parent = hit
        off += low
        ids.append(r)
        offs.append(off)
        parents.append(parent)
    # min over v of max over k of (dist[n][v] - dist[k][v]) / (n - k), as
    # (numerator, positive denominator) pairs compared by cross-multiplying;
    # the first maximum per v and the first minimum over ascending v win.
    cols = [(rows[ids[k]], offs[k], n - k) for k in range(n % d, n, d)]
    best, best_v = None, -1
    for v, top in enumerate(rows[ids[n]]):
        if top == inf:
            continue
        dnv = top + offs[n]
        worst = None
        for (row, base, den) in cols:
            if (dkv := row[v]) == inf:
                continue
            num = dnv - dkv - base
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
        walk.append(parents[k][walk[-1]])
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
        total = rows[ids[j]][v] + offs[j] - rows[ids[i]][v] - offs[i]
        if total * mean.denominator == mean.numerator * clen and (
                found is None or (clen, i) < found):
            found = (clen, i)
    if found is None:
        raise AssertionError("min mean cycle not found on optimal walk")
    clen, i = found
    return mean, [nodes[cls[j % d][walk[j]]] for j in range(i, i + clen)]
