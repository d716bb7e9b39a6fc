"""Differential tests: the residue-class mismatch kernel, the packed
rotation-class correlation and the gcd-class CA scan against the unfolded
brute-force oracles and the per-class residue sum in oracle_utils, the
nearest-point search against its loop over every rotation, the
frontier-row Karp against the dense-table Karp it replaced, and the
Lyndon-word orbit enumerator and the (w, u, v) triple search against the
|A|^p loops they replaced, and the Machin enclosure of pi in the binomial
bound against the mpmath interval evaluation it replaced.

Every hypothesis run is derandomized, so the suite sees the same examples
on every run.
"""

import functools
import itertools
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, reject, settings, strategies as st

from shiftgeo import _graph
from shiftgeo.automata import CellularAutomaton, _periodic_words, \
    check_on_subshift, isometric_ca_precondition, preserves_shift
from shiftgeo.configs import Alphabet, BINARY, Configuration, \
    is_primitive, least_rotation, periodic_config
from shiftgeo.errors import CapError, EmptyShiftError, PreconditionError
from shiftgeo.homotopy import AbstractComplex, embed_complex
from shiftgeo.measures import _pi_less_than, verify_binomial_bound
from shiftgeo.metrics import _Correlator, cyclic_mismatch_density, \
    d_besicovitch, d_weyl, distance_to_shift_detail, nearest_periodic, \
    unique_approximation_search
from shiftgeo.shifts import SftSpec, ShiftPresentation, compile_sft, \
    disjoint_union, find_unbordered_synchronizing, full_shift, \
    lyndon_words, mixing_sft_inside, periodic_orbits
from oracle_utils import check_on_subshift_oracle, cyclic_avoids, \
    cyclic_density_oracle, embed_complex_oracle, \
    find_unbordered_synchronizing_oracle, \
    isometric_ca_precondition_oracle, karp_min_mean_oracle, \
    mixing_sft_inside_oracle, nearest_periodic_oracle, necklaces, \
    periodic_orbits_oracle, precondition_words_oracle, \
    profile_mismatches_oracle, residue_profile_oracle, \
    unfolded_arm_densities, unique_approximation_search_oracle, \
    verify_binomial_bound_oracle


def deterministic(examples: int):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=examples)


# (alphabet, forbidden words, largest period bound): the full 2- and
# 3-shifts, the golden mean and the no-111 shift.  The oracle scans every
# rotation over unfolded blocks, so the 3-shift stops at period 4.
SHIFTS = {
    "full2": ("01", (), 6),
    "full3": ("012", (), 4),
    "golden": ("01", ("11",), 6),
    "no111": ("01", ("111",), 6),
}


def _rules(symbols: str):
    """(lo, hi, patterns over `symbols`) for every offset window of width 1
    to 3 with lo <= 0 <= hi."""
    out = []
    for width in (1, 2, 3):
        pats = ["".join(t) for t in itertools.product(symbols,
                                                      repeat=width)]
        for lo in range(1 - width, 1):
            out.append((lo, lo + width - 1, pats))
    return out


@functools.cache
def _preserving_rules(name: str) -> list:
    """Every binary rule of width 1 to 3 that maps the SFT `name` into
    itself, as (lo, hi, table)."""
    symbols, forbidden, _p = SHIFTS[name]
    X = compile_sft(SftSpec(BINARY, forbidden))
    found = []
    for lo, hi, pats in _rules(symbols):
        for outs in itertools.product(symbols, repeat=len(pats)):
            table = dict(zip(pats, outs))
            if preserves_shift(CellularAutomaton(BINARY, lo, hi, table), X):
                found.append((lo, hi, table))
    return found


@st.composite
def rule_on_shift(draw):
    name = draw(st.sampled_from(sorted(SHIFTS)))
    symbols, forbidden, max_p = SHIFTS[name]
    if forbidden:
        lo, hi, table = draw(st.sampled_from(_preserving_rules(name)))
    else:
        lo, hi, pats = draw(st.sampled_from(_rules(symbols)))
        outs = draw(st.lists(st.sampled_from(symbols), min_size=len(pats),
                             max_size=len(pats)))
        table = dict(zip(pats, outs))
    P = draw(st.integers(1, max_p))
    return name, lo, hi, table, P


@deterministic(150)
@given(rule_on_shift())
def test_check_on_subshift_matches_full_rotation_oracle(case):
    name, lo, hi, table, P = case
    symbols, forbidden, _p = SHIFTS[name]
    ab = Alphabet(symbols)
    X = compile_sft(SftSpec(ab, forbidden)) if forbidden else full_shift(ab)
    chk = check_on_subshift(CellularAutomaton(ab, lo, hi, table), X, P)
    orbits = [w for p in range(1, P + 1) for w in necklaces(symbols, p)
              if cyclic_avoids(w, forbidden)]
    want = check_on_subshift_oracle(table, lo, hi, orbits)
    assert chk.period_bound == P
    for prop, expected in want.items():
        got = getattr(chk, prop)
        if expected is None:
            assert got is None, prop
            continue
        w1, rot, din, dout = expected
        assert got.x == Configuration(ab, w1, "", "", w1), prop
        assert got.y == Configuration(ab, rot, "", "", rot), prop
        assert (got.d_in, got.d_out) == (din, dout), prop


@st.composite
def word_pair(draw):
    """Two words over 2 to 4 symbols with lengths 1 to 60 that are equal,
    coprime, or share a proper common divisor."""
    symbols = "0123"[:draw(st.integers(2, 4))]
    m = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["equal", "coprime", "shared"]))
    others = {"equal": [m],
              "coprime": [n for n in range(1, 61) if gcd(m, n) == 1],
              "shared": [n for n in range(1, 61)
                         if n != m and 1 < gcd(m, n)]}[kind] or [m]
    n = draw(st.sampled_from(others))
    u = draw(st.text(st.sampled_from(symbols), min_size=m, max_size=m))
    v = draw(st.text(st.sampled_from(symbols), min_size=n, max_size=n))
    return u, v


@deterministic(300)
@given(word_pair())
def test_cyclic_mismatch_density_matches_unfolded_oracle(pair):
    u, v = pair
    assert cyclic_mismatch_density(u, v) == cyclic_density_oracle(u, v)


# Coprime lengths up to 200 whose lcm is within 2 of a power of two.  Just
# above one, two constant words match at every cell of the block, so the
# class digit reaches 2^(D - 1) with D = (P * P).bit_length(): a digit one
# bit narrower carries into its neighbour.
NEAR_POWERS = [(m, n) for n in range(2, 201) for m in range(1, n)
               if gcd(m, n) == 1
               and any(0 < abs(m * n - 2 ** j) <= 2 for j in range(4, 16))]


@st.composite
def long_word_pair(draw):
    """Two words of lengths 1 to 200 over 2 to 4 symbols, each drawn from a
    prefix of the symbols (so a word may be constant and match everywhere),
    with lengths that are equal, coprime, share a proper divisor, or are a
    coprime pair from NEAR_POWERS."""
    symbols = "0123"[:draw(st.integers(2, 4))]
    kind = draw(st.sampled_from(["equal", "coprime", "shared", "power"]))
    if kind == "power":
        m, n = draw(st.sampled_from(NEAR_POWERS))
        if draw(st.booleans()):
            m, n = n, m
    else:
        m = draw(st.integers(1, 200))
        others = {"equal": [m],
                  "coprime": [n for n in range(1, 201) if gcd(m, n) == 1],
                  "shared": [n for n in range(1, 201)
                             if n != m and 1 < gcd(m, n)]}[kind] or [m]
        n = draw(st.sampled_from(others))

    def word(length):
        used = symbols[:draw(st.integers(1, len(symbols)))]
        return draw(st.text(st.sampled_from(used), min_size=length,
                            max_size=length))

    return symbols, word(m), word(n)


@deterministic(250)
@given(long_word_pair())
def test_packed_class_matches_match_per_class_oracles(case):
    symbols, u, v = case
    corr = _Correlator(symbols, max(len(u), len(v)))
    g, block, counts = corr.class_matches(u, v)
    assert g == gcd(len(u), len(v)) and len(counts) == g
    pu = residue_profile_oracle(u, g, symbols)
    pv = residue_profile_oracle(v, g, symbols)
    for k in range(g):
        assert (block - counts[k], block) == \
            profile_mismatches_oracle(pu, pv, k), k
    for i in range(len(v)):  # every rotation, by its class i mod g
        assert Fraction(block - counts[i % g], block) == \
            cyclic_density_oracle(u, v[i:] + v[:i]), i


def test_packed_class_matches_near_powers_of_two():
    """Constant words match at all lcm cells; the digit must hold that."""
    for m, n in NEAR_POWERS:
        corr = _Correlator("01", n)
        assert corr.class_matches("0" * m, "0" * n) == (1, m * n, [m * n])
        assert corr.class_matches("0" * m, "1" * n) == (1, m * n, [0])


@st.composite
def config_pair(draw):
    """Two eventually periodic points over 2 or 3 symbols with arm periods
    up to 40 and non-empty finite parts."""
    symbols = draw(st.sampled_from(["01", "012"]))
    ab = Alphabet(symbols)

    def word(lo, hi):
        return draw(st.text(st.sampled_from(symbols), min_size=lo,
                            max_size=hi))

    return tuple(Configuration(ab, word(1, 40), word(1, 6), word(1, 6),
                               word(1, 40)) for _ in range(2))


@deterministic(200)
@given(config_pair())
def test_arm_distances_match_unfolded_oracle(pair):
    x, y = pair
    left, right = unfolded_arm_densities(x, y)
    assert d_besicovitch(x, y) == (left + right) / 2
    assert d_weyl(x, y) == max(left, right)


WEIGHTS = st.integers(-2, 3)


@st.composite
def strongly_connected_graph(draw):
    """(nodes, edges) of a strongly connected digraph on 1 to 9 nodes with
    arbitrary ids: a cycle through every node, plus random extra edges that
    may be self-loops or parallel to others.  Small weights make ties in
    the Karp tables common."""
    n = draw(st.integers(1, 9))
    ids = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n,
                        unique=True))
    order = draw(st.permutations(ids))
    pairs = [(order[i], order[(i + 1) % n]) for i in range(n)]
    pairs += draw(st.lists(st.tuples(st.sampled_from(ids),
                                     st.sampled_from(ids)), max_size=3 * n))
    pairs = draw(st.permutations(pairs))
    edges = {v: [] for v in ids}
    for (u, v) in pairs:
        edges[u].append((v, draw(WEIGHTS)))
    return ids, edges


@deterministic(400)
@given(strongly_connected_graph())
def test_karp_min_mean_matches_dense_oracle(graph):
    nodes, edges = graph
    assert _graph.karp_min_mean(nodes, edges) == \
        karp_min_mean_oracle(nodes, edges)


@st.composite
def phase_layered_scc(draw):
    """(nodes, edges) of the largest strongly connected component of a
    random graph on |Q| <= 5 states times p <= 30 phases, every edge going
    from phase j to phase j + 1 mod p, as in the product of a presentation
    with a position cycle.  Node (q, j) has id j * |Q| + q."""
    nq = draw(st.integers(1, 5))
    p = draw(st.integers(1, 30))
    weight = draw(st.sampled_from([st.integers(0, 1), WEIGHTS]))
    succ = [[] for _ in range(nq * p)]
    wsucc = [[] for _ in range(nq * p)]
    for j in range(p):
        for q in range(nq):
            u = j * nq + q
            targets = draw(st.lists(st.integers(0, nq - 1), min_size=1,
                                    max_size=3))
            for t in targets:
                v = (j + 1) % p * nq + t
                succ[u].append(v)
                wsucc[u].append((v, draw(weight)))
    comps = _graph.strongly_connected_components(nq * p, succ)
    comp = max(comps, key=len)
    members = set(comp)
    edges = {v: [(t, w) for (t, w) in wsucc[v] if t in members]
             for v in comp}
    return comp, edges


@deterministic(200)
@given(phase_layered_scc())
def test_karp_min_mean_matches_dense_oracle_on_phase_layers(graph):
    nodes, edges = graph
    if not any(edges.values()):
        return  # a single node without a self-loop has no cycle
    assert _graph.karp_min_mean(nodes, edges) == \
        karp_min_mean_oracle(nodes, edges)


@st.composite
def point_and_sft(draw):
    """A non-empty binary SFT with one to three forbidden words of length 1
    to 4, and an eventually periodic point with arm periods <= 30.  Lengths
    are drawn first, so long arms and many-state covers are common."""

    def word(lo, hi):
        n = draw(st.integers(lo, hi))
        return draw(st.text(st.sampled_from("01"), min_size=n, max_size=n))

    forbidden = tuple(word(1, 4) for _ in range(draw(st.integers(1, 3))))
    try:
        Y = compile_sft(SftSpec(BINARY, forbidden))
    except EmptyShiftError:
        reject()
    x = Configuration(BINARY, word(1, 30), word(0, 4), word(0, 4),
                      word(1, 30))
    return x, Y


@deterministic(200)
@given(point_and_sft())
def test_distance_to_shift_detail_matches_dense_karp(case):
    x, Y = case
    got = distance_to_shift_detail(x, Y)
    with mock.patch.object(_graph, "karp_min_mean", karp_min_mean_oracle):
        want = distance_to_shift_detail(x, Y)
    assert got == want


# -- the Lyndon-word orbit enumerator against the |A|^p loops ---------------


@st.composite
def presentation(draw, kinds=("sft", "graph", "union")):
    """A presentation over one to three of the symbols 0, 1, 2, in any
    order (so the alphabet's order may differ from the character order):
    a compiled SFT with up to three forbidden words of length 1 to 3, a
    random non-deterministic labeled graph on up to four states (often with
    states that trimming removes, sometimes empty), or a disjoint union of
    two of these."""
    kind = draw(st.sampled_from(kinds))
    if kind == "union":
        return disjoint_union(draw(presentation(("sft", "graph"))),
                              draw(presentation(("sft", "graph"))))
    k = draw(st.integers(1, 3))
    ab = Alphabet(draw(st.permutations("012"))[:k])
    syms = st.sampled_from(ab.symbols)
    if kind == "sft":
        words = st.text(syms, min_size=1, max_size=3)
        try:
            return compile_sft(SftSpec(ab, tuple(draw(
                st.lists(words, max_size=3)))))
        except EmptyShiftError:
            reject()
    n = draw(st.integers(1, 4))
    states = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(states, states, syms), min_size=1,
                          max_size=8))
    return ShiftPresentation(ab, range(n), edges)


def _lyndon_oracle(X, P: int) -> list[str]:
    """Lyndon words of length <= P (as the old loop picked them) whose
    prefixes are all factors of X, by brute force."""
    return [w for p in range(1, P + 1)
            for w in ("".join(t) for t in
                      itertools.product(X.alphabet.symbols, repeat=p))
            if is_primitive(w) and least_rotation(w) == w
            and all(X.accepts_word(w[:i]) for i in range(1, p + 1))]


@deterministic(300)
@given(presentation(), st.sampled_from(range(9)))
def test_periodic_orbits_match_word_loop_oracle(X, P):
    if len(X.alphabet) == 3:
        P = min(P, 6)  # the oracle walks all 3^p words
    assert lyndon_words(X, P) == _lyndon_oracle(X, P)
    assert periodic_orbits(X, P) == periodic_orbits_oracle(X, P)


@deterministic(300)
@given(presentation(), st.sampled_from(range(1, 9)))
def test_uap_search_matches_word_loop_oracle(X, P):
    if X.is_empty:
        reject()
    if len(X.alphabet) == 3:
        P = min(P, 5)  # each candidate runs distance_to_shift twice
    got = unique_approximation_search(X, P)
    want = unique_approximation_search_oracle(X, P)
    for field in ("violation", "period_bound", "witness", "distance",
                  "minimizers"):
        assert getattr(got, field) == getattr(want, field), field


def _outcome(fn, *args):
    """fn(*args), or the type and message of the search error it raised."""
    try:
        return fn(*args)
    except (CapError, PreconditionError) as e:
        return type(e), str(e)


@deterministic(200)
@given(presentation(), st.data())
def test_nearest_periodic_matches_rotation_loop_oracle(X, data):
    P = data.draw(st.integers(1, 6 if len(X.alphabet) == 3 else 8))
    n = data.draw(st.integers(1, P))
    w = data.draw(st.text(st.sampled_from(X.alphabet.symbols), min_size=n,
                          max_size=n))
    y = periodic_config(w, X.alphabet)
    got = _outcome(nearest_periodic, X, y, P)
    want = _outcome(nearest_periodic_oracle, X, y, P)
    if isinstance(want, tuple):
        assert got == want
        return
    for field in ("distance", "minimizers", "period_bound"):
        assert getattr(got, field) == getattr(want, field), field


@deterministic(150)
@given(presentation(), st.data())
def test_rigidity_precondition_matches_word_list_oracle(X, data):
    zero = data.draw(st.sampled_from(X.alphabet.symbols))
    L = data.draw(st.integers(1, 3))
    P = data.draw(st.sampled_from(range(1, 7 if len(X.alphabet) == 3
                                         else 9)))
    old = precondition_words_oracle(X, P)
    new = _periodic_words(X, P)
    assert {p: sorted(ws) for p, ws in new.items()} == \
        {p: sorted(ws) for p, ws in old.items()}
    got = isometric_ca_precondition(X, zero, L, P)
    want = isometric_ca_precondition_oracle(X, zero, L, P)
    assert got.passed == want.passed
    assert got.failing == want.failing
    assert got.periods_used == want.periods_used


# -- the (w, u, v) triple search against the |A|^k word loops ---------------


@deterministic(200)
@given(presentation(), st.integers(0, 4), st.integers(0, 3), st.data())
def test_triple_search_matches_word_loop_oracle(X, word_cap, pad_cap, data):
    got = _outcome(find_unbordered_synchronizing, X, word_cap)
    assert got == _outcome(find_unbordered_synchronizing_oracle, X, word_cap)
    got = _outcome(mixing_sft_inside, X, word_cap, pad_cap)
    want = _outcome(mixing_sft_inside_oracle, X, word_cap, pad_cap)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert (got.w, got.u, got.v) == (want.w, want.u, want.v)
        assert got.shift.to_dict() == want.shift.to_dict()
    vertices = "abc"[:data.draw(st.integers(1, 3))]
    faces = data.draw(st.lists(st.sets(st.sampled_from(vertices),
                                       min_size=1), max_size=3))
    K = AbstractComplex.make(vertices, faces)
    got = _outcome(embed_complex, K, X, word_cap, pad_cap)
    want = _outcome(embed_complex_oracle, K, X, word_cap, pad_cap)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert (got.marker, got.filler, got.vertex_words) == \
            (want.marker, want.filler, want.vertex_words)
        assert {f: Y.to_dict() for f, Y in got.face_shifts.items()} == \
            {f: Y.to_dict() for f, Y in want.face_shifts.items()}


def test_binomial_bound_matches_interval_oracle():
    pytest.importorskip("mpmath")
    points = [(n, m, p) for n in range(1, 61) for m in range(2, 9)
              for p in range(1, m)] + [(1000, 7, 3), (10000, 5, 2)]
    for n, m, p in points:
        assert verify_binomial_bound(n, m, p) == \
            verify_binomial_bound_oracle(n, m, p), (n, m, p)


@pytest.mark.parametrize("num, den, below", [
    (333, 106, False), (103993, 33102, False),
    (22, 7, True), (355, 113, True), (104348, 33215, True)])
def test_pi_comparison_on_rationals_near_pi(num, den, below):
    """Every grid verdict above is True; these rationals on both sides of
    pi, down to 3e-10 away, cover the False branch."""
    assert _pi_less_than(num, den) is below
