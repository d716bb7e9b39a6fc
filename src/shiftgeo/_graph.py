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


def karp_min_mean(nodes: list[int], edges) -> tuple[Fraction, list[int]]:
    """Minimum mean cycle of a strongly connected weighted graph.

    ``nodes`` are the node ids of one SCC; ``edges[v]`` lists (target, weight)
    pairs with both endpoints inside the SCC.  Returns the exact minimum mean
    and one cycle (as a node list) achieving it.

    Karp's recurrence over walks of exactly k edges from ``nodes[0]``, on
    the cyclic classes of :func:`bfs_period`: edges go from class c to
    class c + 1 mod d, so row k is a list over class k mod d, relaxed from one
    precomputed (u, v, w) list in ``nodes`` order of u with a strict < (the
    least predecessor wins ties); only rows k = n (mod d) enter the max/min.
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
