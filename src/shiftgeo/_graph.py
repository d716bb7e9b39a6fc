"""Small exact graph algorithms shared across the library.

Everything here works on integer-indexed nodes and integer edge weights, and
returns exact ``Fraction`` values where ratios appear.  All iteration orders
are deterministic.
"""

from __future__ import annotations

from fractions import Fraction


def strongly_connected_components(n: int, succ) -> list[list[int]]:
    """Tarjan's algorithm, iterative.  ``succ[v]`` lists successors of v.

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


def condensation_reach(n: int, succ, comps: list[list[int]]):
    """Reachability between SCCs.  Returns (comp_of, reach) where
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


def karp_min_mean(nodes: list[int], edges) -> tuple[Fraction, list[int]]:
    """Minimum mean cycle of a strongly connected weighted graph.

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
