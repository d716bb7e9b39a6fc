"""Independent brute-force oracles used to pin expected values in the tests.

These deliberately avoid the library's own machinery where they serve as a
cross check: densities are counted over explicit unfolded windows, languages
are enumerated from forbidden words, and CA act on explicitly repeated
words.
"""

from __future__ import annotations

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


def nearest_periodic_oracle(X, y, P: int):
    """``metrics.nearest_periodic`` as a loop over every sorted rotation of
    every orbit word, one ``cyclic_mismatch_density`` call each."""
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
    best = None
    achievers = []  # (orbit representative, point)
    for w in periodic_orbits(X, P):
        rots = sorted(w[i:] + w[:i] for i in range(len(w)))
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
            for _w, pt in sorted(achievers, key=lambda t: t[1])]
    return MinimizerSet(best, mins, P)


def necklaces(symbols: str, p: int) -> list[str]:
    """Primitive lex-least rotation representatives of length p."""
    return [
        "".join(t) for t in itertools.product(symbols, repeat=p)
        if is_primitive("".join(t)) and least_rotation("".join(t)) == "".join(t)
    ]


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
        mism = sum(x.symbol_at(sign * i) != y.symbol_at(sign * i)
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
    mism = sum(x.symbol_at(i) != y.symbol_at(i) for i in range(-N, N + 1))
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


# -- the |A|^p orbit loops that shiftgeo.shifts.lyndon_words replaced -------


def _all_words(alphabet, p: int):
    """Every word of length p, in the alphabet's lexicographic order."""
    return ("".join(t) for t in itertools.product(alphabet.symbols, repeat=p))


def periodic_orbits_oracle(X, max_period: int) -> list[str]:
    """Lex-least primitive representatives of the periodic orbits of X with
    least period <= max_period."""
    from shiftgeo.configs import periodic_config
    from shiftgeo.shifts import contains_config
    out = []
    seen = set()
    for p in range(1, max_period + 1):
        for w in _all_words(X.alphabet, p):
            if w in seen:
                continue
            if not is_primitive(w) or least_rotation(w) != w:
                continue
            seen.add(w)
            if contains_config(X, periodic_config(w, X.alphabet)):
                out.append(w)
    return out


def unique_approximation_search_oracle(X, P: int):
    """``metrics.unique_approximation_search`` with its candidate words
    drawn from the old |A|^p loop and its orbits from
    :func:`periodic_orbits_oracle`."""
    from shiftgeo.configs import periodic_config
    from shiftgeo.metrics import UapVerdict, cyclic_mismatch_density, \
        distance_to_shift
    from shiftgeo.shifts import contains_config
    x_orbits = periodic_orbits_oracle(X, P)
    for p in range(1, P + 1):
        for w in _all_words(X.alphabet, p):
            if not is_primitive(w) or least_rotation(w) != w:
                continue
            y = periodic_config(w, X.alphabet)
            if contains_config(X, y):
                continue
            d_true = distance_to_shift(y, X)
            orbit_hits: list[str] = []
            points: list[str] = []
            for ow in x_orbits:
                rots = sorted(ow[i:] + ow[:i] for i in range(len(ow)))
                hit = [r for r in rots
                       if cyclic_mismatch_density(w, r) == d_true]
                if hit:
                    orbit_hits.append(ow)
                    points.append(hit[0])
            if len(orbit_hits) >= 2:
                return UapVerdict(
                    True, P, witness=y, distance=d_true,
                    minimizers=[periodic_config(pt, X.alphabet)
                                for pt in sorted(points)])
    return UapVerdict(False, P)


def precondition_words_oracle(X, P: int) -> dict:
    """For p = 1..P, every word w of length p, in the alphabet's order,
    with inf(w) in X."""
    from shiftgeo.configs import periodic_config
    from shiftgeo.shifts import contains_config
    periodic_words: dict[int, list[str]] = {}
    for p in range(1, P + 1):
        periodic_words[p] = [w for w in _all_words(X.alphabet, p)
                             if contains_config(
                                 X, periodic_config(w, X.alphabet))]
    return periodic_words


def isometric_ca_precondition_oracle(X, zero: str, L: int, P: int):
    """``automata.isometric_ca_precondition`` on the word lists of
    :func:`precondition_words_oracle`."""
    from shiftgeo.automata import RigidityReport
    from shiftgeo.configs import periodic_config
    from shiftgeo.shifts import contains_config, language
    if not contains_config(X, periodic_config(zero, X.alphabet)):
        return RigidityReport(False, None, {})
    periodic_words = precondition_words_oracle(X, P)
    used = {}
    for n in range(1, L + 1):
        for w in language(X, n):
            for s in sorted(set(w)):
                found = None
                for p in range(1, P + 1):
                    marker = s + zero * (p - 1)
                    if not contains_config(
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
