"""Differential tests: the residue-class mismatch kernel, the packed
rotation-class correlation and the gcd-class CA scan against the unfolded
brute-force oracles and the per-class residue sum in oracle_utils, the
batched CA scan against the per-pair loop it replaced, the
nearest-point search against its loop over every rotation, the
cyclic-class Karp against the dense-table and frontier-row Karps it
replaced, Tarjan's components and the condensation DAG against the
index-frame Tarjan and the reach-set closure they replaced, and the
Lyndon-word orbit enumerator and the (w, u, v) triple search against the
|A|^p loops they replaced, the Machin enclosure of pi in the binomial
bound against the mpmath interval evaluation it replaced, the image
presentation of ``preserves_shift`` against its old per-width construction,
the distance product on integer node ids against the product on named
nodes (and, on points whose two arms share one period, one Karp run per
twin pair of components against Karp on both arms), the bitmask powers of
``mixing_distance`` against the boolean matrix powers, and the orbit walk
and rigidity markers on the transition monoid against the state-set walk
and per-word block-set fixpoints they replaced, and the Parry measure's
power iteration on Python floats against the numpy one it replaced, and
the sliced windows of points and paths, the sliding rule read of
``apply_ca`` and ``apply_cyclic``, the one-window reads of ``project``
and ``average``, ``symbol_at`` as a one-cell window and the integer-id
image presentation of ``preserves_shift`` against the per-cell reads, the
index arithmetic and the (q, u)-named construction they replaced, the
subset BFS of ``language_subset`` on state masks against the one on
frozensets of named states, the mask rows behind ``step``, ``step_back``,
``read``, ``accepts_word`` and ``is_deterministic`` and the mask subset
construction against the per-state dicts they replaced, and the
period of ``_graph.bfs_period`` against the ``pop(0)`` BFS that
``mixing_distance`` ran, the factor index of the rigidity precondition
against its scan over every orbit and against its one update per (orbit,
start, length), the orbit walk with string prefixes, cached child lists
and parent-emitted leaves against the list-prefix walk it replaced,
``d_cantor``'s doubling windows against its per-cell loop, and checks on
one presentation, which share its orbit-scan plan, against checks on a
fresh one.

Metamorphic tests relabel each shift onto the same symbols in character
order, rank by rank, and check that every listing, tie-break and witness
maps across: the alphabet's order alone decides them.  One invariant test
walks the marker search past its first hit: every candidate closure it
could return lies in the cover.

Every hypothesis run is derandomized, so the suite sees the same examples
on every run.
"""

import dataclasses
import functools
import itertools
from fractions import Fraction
import math
from math import gcd
import random
from unittest import mock

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from shiftgeo import _graph
from shiftgeo.automata import CellularAutomaton, apply_ca, apply_cyclic, \
    check_on_subshift, classify_full_shift, elementary_ca, \
    isometric_ca_precondition, preserves_shift
from shiftgeo.configs import Alphabet, BINARY, Configuration, \
    periodic_config
from shiftgeo.errors import CapError, EmptyShiftError, PreconditionError
from shiftgeo.homotopy import AbstractComplex, average, embed_complex, \
    lex_least_completion, project
from shiftgeo.measures import cylinder_decay_bound, parry_measure, \
    _pi_less_than, verify_binomial_bound
from shiftgeo.metrics import _Correlator, cyclic_mismatch_density, \
    d_besicovitch, d_cantor, d_weyl, distance_to_shift, \
    distance_to_shift_detail, nearest_periodic, unique_approximation_search
from shiftgeo.paths import block_path_source, intersperse_path_source
from shiftgeo.shifts import SftSpec, ShiftPresentation, compile_sft, \
    concatenation_closure, contains_config, disjoint_union, even_shift, \
    find_unbordered_synchronizing, full_shift, golden_mean, language, \
    language_subset, mixing_distance, mixing_sft_inside, \
    periodic_orbits, positive_entropy, shannon_cover, transitive_components, \
    _is_mixing, _merge_equivalent, _pads, _RelationMonoid, _subset_graph, \
    _synchronizing_words
from oracle_utils import apply_ca_oracle, apply_cyclic_oracle, \
    average_oracle, block_shift, check_on_subshift_oracle, \
    check_on_subshift_pairwise_oracle, condensation_reach_oracle, \
    contains_config_oracle, cover_period_oracle, \
    cyclic_avoids, cyclic_density_oracle, d_cantor_oracle, \
    distance_to_shift_detail_oracle, \
    embed_complex_oracle, find_unbordered_synchronizing_oracle, \
    internal_edges_only, is_lyndon, \
    isometric_ca_precondition_fixpoint_oracle, \
    isometric_ca_precondition_oracle, karp_min_mean_class_rows_oracle, \
    karp_min_mean_frontier_oracle, karp_min_mean_oracle, \
    language_subset_oracle, \
    lex_least_completion_oracle, lyndon_words_state_set_oracle, \
    merge_equivalent_oracle, mixing_distance_oracle, \
    mixing_sft_inside_oracle, nearest_periodic_oracle, necklaces, \
    parry_measure_numpy_oracle, periodic_orbits_fixpoint_oracle, \
    path_window_oracle, periodic_orbits_list_prefix_oracle, \
    periodic_orbits_oracle, preserves_shift_oracle, precondition_oracle, \
    precondition_per_orbit_index_oracle, preserves_shift_tuple_oracle, \
    project_oracle, profile_mismatches_oracle, residue_profile_oracle, sft14, \
    stable_block_set_oracle, StepOracle, \
    strongly_connected_components_oracle, subset_graph_oracle, \
    symbol_at_oracle, unfolded_arm_densities, \
    unique_approximation_search_oracle, verify_binomial_bound_oracle, \
    window_oracle


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
    symbols, forbidden, _p = BATCH_SHIFTS[name]
    X = compile_sft(SftSpec(BINARY, forbidden))
    found = []
    for lo, hi, pats in _rules(symbols):
        for outs in itertools.product(symbols, repeat=len(pats)):
            table = dict(zip(pats, outs))
            if preserves_shift(CellularAutomaton(BINARY, lo, hi, table), X):
                found.append((lo, hi, table))
    return found


@st.composite
def rule_on_shift(draw, shifts):
    name = draw(st.sampled_from(sorted(shifts)))
    symbols, forbidden, max_p = shifts[name]
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
@given(rule_on_shift(SHIFTS))
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


# The batched scan against the per-pair loop it replaced: the shifts above,
# the SFT with forbidden words 11 and 000, and the one-symbol full shift, at
# longer periods than the unfolded oracle reaches.
BATCH_SHIFTS = {name: (symbols, forbidden, {"full3": 5}.get(name, 9))
                for name, (symbols, forbidden, _p) in SHIFTS.items()}
BATCH_SHIFTS.update({"golden000": ("01", ("11", "000"), 9),
                     "one": ("a", (), 9)})


def _assert_scans_agree(f, X, P: int):
    """check_on_subshift equals the per-pair loop field for field, and, at
    periods the unfolded oracle reaches, the full-rotation scan."""
    chk = check_on_subshift(f, X, P)
    assert chk == check_on_subshift_pairwise_oracle(f, X, P)
    if P > (4 if len(X.alphabet) > 2 else 6):
        return chk
    orbits = periodic_orbits_oracle(X, P)
    want = check_on_subshift_oracle(f.table, f.left, f.right, orbits)
    for prop, expected in want.items():
        got = getattr(chk, prop)
        if expected is None:
            assert got is None, prop
            continue
        w1, rot, din, dout = expected
        assert got.x == periodic_config(w1, X.alphabet), prop
        assert got.y == periodic_config(rot, X.alphabet), prop
        assert (got.d_in, got.d_out) == (din, dout), prop
    return chk


@deterministic(120)
@given(rule_on_shift(BATCH_SHIFTS))
def test_batched_check_on_subshift_matches_pairwise_loop(case):
    name, lo, hi, table, P = case
    symbols, forbidden, _p = BATCH_SHIFTS[name]
    ab = Alphabet(symbols)
    X = compile_sft(SftSpec(ab, forbidden)) if forbidden else full_shift(ab)
    _assert_scans_agree(CellularAutomaton(ab, lo, hi, table), X, P)


def _group_slot(X, P: int, point) -> int:
    """The place of point's orbit among the orbits of its length: the slot
    of its B(w2) in the batch."""
    w = point.right_period
    rep = min((w[i:] + w[:i] for i in range(len(w))), key=X.alphabet.key)
    return [v for v in periodic_orbits(X, P) if len(v) == len(w)].index(rep)


def _rule(symbols: str, lo: int, hi: int, outputs: str):
    """The rule over `symbols` with offsets [lo, hi] whose table lists
    `outputs` in the order of its patterns, in the alphabet's order."""
    pats = ["".join(t) for t in itertools.product(symbols,
                                                  repeat=hi - lo + 1)]
    return CellularAutomaton(Alphabet(symbols), lo, hi,
                             dict(zip(pats, outputs, strict=True)))


def test_batched_check_on_subshift_fixed_cases():
    full2, full3 = full_shift(BINARY), full_shift(Alphabet("012"))
    no111 = compile_sft(SftSpec(BINARY, ("111",)))
    # isometric and contracting each fire at the second orbit of a length
    # group, contracting only after isometric has a witness: the guard-bit
    # test with only contracting open
    chk = _assert_scans_agree(_rule("01", -1, 0, "1101"), full2, 4)
    for w in (chk.isometric, chk.contracting):
        assert _group_slot(full2, 4, w.y) == 1
    assert chk.contracting != chk.isometric and chk.expanding is not None
    # ECA 107: expanding fires mid-group after isometric, with only
    # expanding open
    chk = _assert_scans_agree(_rule("01", -1, 1, "11010110"), full2, 4)
    assert chk.expanding != chk.isometric
    assert _group_slot(full2, 4, chk.expanding.y) == 1
    # the and rule on no111: only contracting stays open, and never fires
    chk = _assert_scans_agree(_rule("01", -1, 0, "0001"), no111, 8)
    assert chk.contracting is None
    assert None not in (chk.isometric, chk.expanding)
    # rules on the full 3-shift: contracting, then expanding third in its
    # group, each after isometric
    chk = _assert_scans_agree(_rule("012", 0, 1, "210010112"), full3, 4)
    assert chk.contracting != chk.isometric
    chk = _assert_scans_agree(_rule("012", -1, 0, "101222212"), full3, 4)
    assert chk.expanding != chk.isometric
    assert _group_slot(full3, 4, chk.expanding.y) == 2
    # a symbol permutation is an isometry of the full 3-shift
    chk = _assert_scans_agree(_rule("012", 0, 0, "120"), full3, 5)
    assert (chk.contracting, chk.isometric, chk.expanding) == (None,) * 3
    # the one-symbol full shift has one point, so no rule violates anything
    one = full_shift(Alphabet("a"))
    chk = _assert_scans_agree(_rule("a", -1, 1, "a"), one, 9)
    assert (chk.contracting, chk.isometric, chk.expanding) == (None,) * 3


@st.composite
def queries_on_one_shift(draw):
    """A shift of BATCH_SHIFTS and a sequence of orbit queries on it, the
    period bounds rising and falling: 2 to 6 rule checks (on an SFT the
    rules mostly preserve it, and now and then one need not) with 0 to 4
    other queries put in among them, each a nearest periodic point search
    for a point of period <= P, a unique approximation search or a
    rigidity precondition."""
    name = draw(st.sampled_from(sorted(BATCH_SHIFTS)))
    symbols, forbidden, _p = BATCH_SHIFTS[name]
    max_p = 4 if len(symbols) == 3 else 6
    queries = []
    for _ in range(draw(st.integers(2, 6))):
        P = draw(st.integers(1, max_p))
        if forbidden and draw(st.integers(0, 4)):
            lo, hi, table = draw(st.sampled_from(_preserving_rules(name)))
        else:
            lo, hi, pats = draw(st.sampled_from(_rules(symbols)))
            table = dict(zip(pats, draw(st.lists(
                st.sampled_from(symbols), min_size=len(pats),
                max_size=len(pats)))))
        queries.append(("check", lo, hi, table, P))
    for _ in range(draw(st.integers(0, 4))):
        P = draw(st.integers(1, max_p))
        kind = draw(st.sampled_from(["nearest", "uap", "precondition"]))
        if kind == "nearest":
            n = draw(st.integers(1, P))
            query = (kind, draw(st.text(st.sampled_from(symbols),
                                        min_size=n, max_size=n)), P)
        elif kind == "uap":
            query = (kind, P)
        else:
            query = (kind, draw(st.sampled_from(symbols)),
                     draw(st.integers(1, 3)), P)
        queries.insert(draw(st.integers(0, len(queries))), query)
    return name, queries


def _orbit_query(X, query):
    """The outcome of one query of queries_on_one_shift on X."""
    kind, *args = query
    if kind == "check":
        lo, hi, table, P = args
        return _outcome(check_on_subshift,
                        CellularAutomaton(X.alphabet, lo, hi, table), X, P)
    if kind == "nearest":
        w, P = args
        return _outcome(nearest_periodic, X, periodic_config(w, X.alphabet),
                        P)
    if kind == "uap":
        return _outcome(unique_approximation_search, X, *args)
    return _outcome(isometric_ca_precondition, X, *args)


@deterministic(80)
@given(queries_on_one_shift())
def test_checks_sharing_a_plan_match_checks_on_fresh_presentations(case):
    """Every orbit query on one presentation, which keeps one orbit plan
    for the largest period bound asked so far and shares it with the later
    queries, equals the query on a freshly built presentation, which has
    none."""
    name, queries = case
    symbols, forbidden, _p = BATCH_SHIFTS[name]
    ab = Alphabet(symbols)

    def build():
        return compile_sft(SftSpec(ab, forbidden)) if forbidden \
            else full_shift(ab)

    X = build()
    for query in queries:
        assert _orbit_query(X, query) == _orbit_query(build(), query)


def test_non_contracting_witnesses_match_the_besicovitch_distance():
    """Each witness of the 248 non-contracting elementary rules, whose
    distances are mismatch densities of its period words, equals
    d_besicovitch of its points before and after the rule."""
    witnesses = 0
    for rule in range(256):
        f = elementary_ca(rule)
        rep = classify_full_shift(f)
        if rep.witness is None:
            continue
        x, y, d_in, d_out = rep.witness
        assert d_in == d_besicovitch(x, y), rule
        assert d_out == d_besicovitch(apply_ca(f, x), apply_ca(f, y)), rule
        witnesses += 1
    assert witnesses == 248


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
    g = gcd(len(u), len(v))
    block = len(u) // g * len(v)
    counts = corr.class_matches(corr.packs(g)(u)[0], g, v)
    assert len(counts) == g
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
        a = corr.packs(1)("0" * m)[0]
        assert corr.class_matches(a, 1, "0" * n) == [m * n]
        assert corr.class_matches(a, 1, "1" * n) == [0]


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


@st.composite
def cantor_pair(draw):
    """Two points over 2 or 3 symbols: unrelated ones, or a point and its
    copy with one cell changed at a drawn distance from the origin, so the
    pair agrees on every cell nearer."""
    x, y = draw(config_pair())
    if draw(st.booleans()):
        return x, y
    n = max(len(x.left_finite), len(x.right_finite), 1) + draw(
        st.integers(0, 40))
    lp, rp = len(x.left_period), len(x.right_period)
    left, right = list(x.window(-n, -1)), list(x.window(0, n))
    d = draw(st.integers(0, n))
    cells, i = (right, d) if d == 0 or draw(st.booleans()) else (left, n - d)
    cells[i] = draw(st.sampled_from([s for s in x.alphabet.symbols
                                     if s != cells[i]]))
    return x, Configuration(x.alphabet, x.window(-n - lp, -n - 1),
                            "".join(left), "".join(right),
                            x.window(n + 1, n + rp))


@deterministic(300)
@given(cantor_pair())
def test_d_cantor_matches_per_cell_oracle(pair):
    x, y = pair
    assert d_cantor(x, y) == d_cantor_oracle(x, y) == d_cantor(y, x)
    assert d_cantor(x, x) == 0


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
def point_and_sft(draw, max_finite=4):
    """A non-empty binary SFT with one to three forbidden words of length 1
    to 4, and an eventually periodic point with arm periods <= 30 and finite
    parts of at most `max_finite` cells each.  Lengths are drawn first, so
    long arms and many-state covers are common."""

    def word(lo, hi):
        n = draw(st.integers(lo, hi))
        return draw(st.text(st.sampled_from("01"), min_size=n, max_size=n))

    forbidden = tuple(word(1, 4) for _ in range(draw(st.integers(1, 3))))
    try:
        Y = compile_sft(SftSpec(BINARY, forbidden))
    except EmptyShiftError:
        reject()
    x = Configuration(BINARY, word(1, 30), word(0, max_finite),
                      word(0, max_finite), word(1, 30))
    return x, Y


@deterministic(200)
@given(point_and_sft())
def test_distance_to_shift_detail_matches_dense_karp(case):
    x, Y = case
    got = distance_to_shift_detail(x, Y)
    with mock.patch.object(_graph, "karp_min_mean",
                           internal_edges_only(karp_min_mean_oracle)):
        want = distance_to_shift_detail(x, Y)
    assert got == want


@deterministic(100)
@given(point_and_sft(max_finite=60))
def test_distance_to_shift_detail_with_long_finite_parts(case):
    """Finite parts of up to 60 cells make long chains of one-node
    components: the fold along the condensation DAG against the best right
    cycle over each component's full reach set."""
    x, Y = case
    assert distance_to_shift_detail(x, Y) == \
        distance_to_shift_detail_oracle(x, Y)


@st.composite
def periodic_classes(draw, least_period: int = 2, unequal: bool = False):
    """(classes, edges) of a strongly connected digraph whose cycle lengths
    are all multiples of d, for d in least_period..4: d classes of 1 to 4
    nodes each (often of unequal sizes, always with ``unequal``), every
    edge from class c to class c + 1 mod d, a closed walk through every
    node, and random extra edges that may be parallel to others.  Ids are
    arbitrary."""
    d = draw(st.integers(least_period, 4))
    sizes = draw(st.lists(st.integers(1, 4), min_size=d, max_size=d).filter(
        lambda s: not unequal or len(set(s)) > 1))
    ids = draw(st.lists(st.integers(0, 99), min_size=sum(sizes),
                        max_size=sum(sizes), unique=True))
    cls, at = [], 0
    for size in sizes:
        cls.append(ids[at:at + size])
        at += size
    # step t of the walk is in class t mod d; t // d runs over every place
    walk = [cls[t % d][t // d % sizes[t % d]]
            for t in range(d * max(sizes))]
    pairs = list(zip(walk, walk[1:] + walk[:1]))
    for _ in range(draw(st.integers(0, 2 * sum(sizes)))):
        c = draw(st.integers(0, d - 1))
        pairs.append((draw(st.sampled_from(cls[c])),
                      draw(st.sampled_from(cls[(c + 1) % d]))))
    pairs = draw(st.permutations(pairs))
    edges = {v: [] for v in ids}
    for (u, v) in pairs:
        edges[u].append((v, draw(WEIGHTS)))
    return cls, edges


@st.composite
def periodic_scc(draw, least_period: int = 2):
    """(nodes, edges) of a :func:`periodic_classes` graph, with ``nodes``
    listing its ids in a random order, so classes interleave in it."""
    cls, edges = draw(periodic_classes(least_period))
    return draw(st.permutations(list(edges))), edges


@deterministic(400)
@given(periodic_scc())
def test_karp_min_mean_on_periodic_sccs_matches_every_oracle(graph):
    nodes, edges = graph
    got = _graph.karp_min_mean(nodes, edges)
    assert got == karp_min_mean_oracle(nodes, edges)
    assert got == karp_min_mean_frontier_oracle(nodes, edges)
    assert got == karp_min_mean_class_rows_oracle(nodes, edges)


@deterministic(300)
@given(periodic_scc(), st.data())
def test_karp_min_mean_skips_edges_leaving_nodes(graph, data):
    """``edges[v]`` may list targets outside ``nodes``, as the distance
    product's adjacency does for every component: Karp skips them, and
    answers as on the internal edges alone."""
    nodes, edges = graph
    outside = st.integers(100, 199)
    wider = {v: list(out) for v, out in edges.items()}
    for _ in range(data.draw(st.integers(1, 2 * len(nodes)))):
        out = wider[data.draw(st.sampled_from(nodes))]
        out.insert(data.draw(st.integers(0, len(out))),
                   (data.draw(outside), data.draw(WEIGHTS)))
    for t in {t for out in wider.values() for (t, _w) in out} - set(nodes):
        wider[t] = [(data.draw(st.sampled_from(nodes)), data.draw(WEIGHTS))]
    got = _graph.karp_min_mean(nodes, wider)
    assert got == _graph.karp_min_mean(nodes, edges)
    assert got == karp_min_mean_oracle(nodes, edges)
    assert got == karp_min_mean_frontier_oracle(nodes, edges)
    assert got == karp_min_mean_class_rows_oracle(nodes, edges)


def test_karp_min_mean_on_one_node_whose_only_edge_leaves_raises():
    with pytest.raises(ValueError, match="graph has no cycle"):
        _graph.karp_min_mean([7], {7: [(8, 0)], 8: [(7, 0)]})


@st.composite
def replicated_periodic_scc(draw):
    """(nodes, edges) of m >= 2 copies of a :func:`periodic_classes` graph
    with classes of unequal sizes, wired around a cycle: copy r keeps the
    edge lists of the base graph, except that the edges out of its last
    class enter copy r + 1 mod m.  Node v of copy r has id 100 r + v, and
    ``nodes`` lists the copies one after another in one random order of
    the base ids, so every copy's class steps have the same edge lists and
    Karp's memoized rows are reused, with negative offsets from the
    weights.  A reused row rarely holds infinities here: unless two
    classes of the base share an edge list, a repeated row repeats with
    the copies from then on, so an infinity in it would never fill, which
    strong connectivity forbids; :func:`stuttering_scc` covers that case."""
    cls, base = draw(periodic_classes(unequal=True))
    m = draw(st.integers(2, 4))
    last = set(cls[-1])
    edges = {100 * r + u: [(100 * ((r + (u in last)) % m) + v, w)
                           for (v, w) in out]
             for r in range(m) for u, out in base.items()}
    order = draw(st.permutations(list(base)))
    return [100 * r + v for r in range(m) for v in order], edges


@st.composite
def presentation_product_scc(draw):
    """(nodes, edges) of the largest strongly connected component of a
    random presentation on |Q| <= 5 states over {0, 1} times the position
    cycle of a word that repeats a block of 1 to 4 symbols up to length 60,
    with weight 1 where an edge's label differs from the word's symbol and
    0 where it agrees: the shape of ``distance_to_shift``.  Node (q, j)
    has id j * |Q| + q, and the repeated block repeats Karp's class steps,
    so its memoized rows are reused."""
    nq = draw(st.integers(1, 5))
    labeled = draw(st.lists(st.tuples(st.integers(0, nq - 1),
                                      st.integers(0, nq - 1),
                                      st.sampled_from("01")),
                            min_size=1, max_size=3 * nq))
    block = draw(st.text(st.sampled_from("01"), min_size=1, max_size=4))
    word = (block * 60)[:draw(st.integers(1, 60))]
    p = len(word)
    succ = [[] for _ in range(nq * p)]
    wsucc = [[] for _ in range(nq * p)]
    for (s, t, a) in labeled:
        for j, c in enumerate(word):
            v = (j + 1) % p * nq + t
            succ[j * nq + s].append(v)
            wsucc[j * nq + s].append((v, int(a != c)))
    comp = max(_graph.strongly_connected_components(nq * p, succ), key=len)
    members = set(comp)
    edges = {v: [(t, w) for (t, w) in wsucc[v] if t in members]
             for v in comp}
    assume(any(edges.values()))
    return comp, edges


@deterministic(200)
@given(st.one_of(replicated_periodic_scc(), presentation_product_scc()))
def test_karp_min_mean_with_reused_rows_matches_every_oracle(graph):
    nodes, edges = graph
    got = _graph.karp_min_mean(nodes, edges)
    assert got == karp_min_mean_oracle(nodes, edges)
    assert got == karp_min_mean_frontier_oracle(nodes, edges)
    assert got == karp_min_mean_class_rows_oracle(nodes, edges)


@st.composite
def stuttering_scc(draw):
    """(nodes, edges) of a graph with d in 4..8 classes around a cycle:
    classes 0 to d - 2 have s in 2..4 places each and step to the next class
    through one shared edge list (place 0 to place 0, and place i > 0 to
    place i and to one lower place), class d - 2 steps to the one node of
    class d - 1, and that node steps to every place of class 0.  ``nodes``
    lists the classes in order, so Karp starts at place 0 of class 0, and
    its row (0, inf, ...) recurs through the shared steps of the first lap:
    a reused row that holds infinities, which the reach pattern of a
    periodic copy (filled within a lap) rarely gives."""
    d = draw(st.integers(4, 8))
    s = draw(st.integers(2, 4))
    shared = [(0, 0, draw(WEIGHTS))]
    for i in range(1, s):
        shared += [(i, i, draw(WEIGHTS)),
                   (i, draw(st.integers(0, i - 1)), draw(WEIGHTS))]
    z = 10 * (d - 1)
    edges = {10 * c + i: [] for c in range(d - 1) for i in range(s)}
    edges[z] = [(i, draw(WEIGHTS)) for i in range(s)]
    for c in range(d - 2):
        for (i, j, w) in shared:
            edges[10 * c + i].append((10 * (c + 1) + j, w))
    for i in range(s):
        edges[10 * (d - 2) + i].append((z, draw(WEIGHTS)))
    return list(edges), edges


@deterministic(100)
@given(stuttering_scc())
def test_karp_min_mean_reusing_infinite_rows_matches_every_oracle(graph):
    nodes, edges = graph
    with mock.patch.object(_graph, "_relax_row",
                           wraps=_graph._relax_row) as relax_row:
        got = _graph.karp_min_mean(nodes, edges)
    assert relax_row.call_count < len(nodes)
    assert got == karp_min_mean_oracle(nodes, edges)
    assert got == karp_min_mean_frontier_oracle(nodes, edges)
    assert got == karp_min_mean_class_rows_oracle(nodes, edges)


def _primitive_word(rng: random.Random, n: int) -> str:
    while True:
        w = "".join(rng.choice("01") for _ in range(n))
        if w not in (w + w)[1:-1]:
            return w


def _large_period_point(left: int, right: int) -> Configuration:
    """A point with arm periods ``left`` and ``right``, of the shapes that
    the ``arms`` benchmark gives the 14-state SFT: a periodic point when
    they are equal, else two five-cell finite parts between the arms."""
    rng = random.Random(left * 1000 + right)
    if left == right:
        return periodic_config(_primitive_word(rng, left), BINARY)
    return Configuration(BINARY, _primitive_word(rng, left), "01101",
                         "10010", _primitive_word(rng, right))


ARM_PERIODS = [(96, 96), (240, 240), (61, 127)]


@pytest.mark.parametrize("left,right", ARM_PERIODS)
def test_distance_to_shift_detail_at_large_periods_matches_class_rows_karp(
        left, right):
    """The hypothesis products stop at period 30; at the benchmark's
    periods, the memoized rows give every detail field of the class-row
    Karp they replaced."""
    x, Y = _large_period_point(left, right), sft14()
    got = distance_to_shift_detail(x, Y)
    with mock.patch.object(_graph, "karp_min_mean",
                           internal_edges_only(
                               karp_min_mean_class_rows_oracle)):
        want = distance_to_shift_detail(x, Y)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


@pytest.mark.parametrize("left,right", ARM_PERIODS)
def test_karp_relaxes_each_class_step_and_shifted_row_once(left, right):
    """Cost guard for the memoized rows: no Karp call relaxes one (edge
    list, shifted row) pair twice, and on the 14-state SFT at the
    benchmark's periods fewer than a tenth of the rows of the recurrences
    are relaxed at all."""
    relaxed, rows = [], []
    relax_row, karp = _graph._relax_row, _graph.karp_min_mean

    def spy_relax(prev, relax, size):
        relaxed[-1].append((tuple(relax), prev))
        return relax_row(prev, relax, size)

    def spy_karp(nodes, edges):
        relaxed.append([])
        rows.append(len(nodes))
        return karp(nodes, edges)

    with mock.patch.object(_graph, "_relax_row", spy_relax), \
            mock.patch.object(_graph, "karp_min_mean", spy_karp):
        distance_to_shift_detail(_large_period_point(left, right), sft14())
    assert all(len(set(steps)) == len(steps) for steps in relaxed)
    assert 10 * sum(map(len, relaxed)) < sum(rows)


@deterministic(50)
@given(st.integers(0, 99),
       st.lists(st.integers(-2, 3), min_size=1, max_size=4))
def test_karp_min_mean_on_one_node_with_self_loops(v, weights):
    edges = {v: [(v, w) for w in weights]}
    got = _graph.karp_min_mean([v], edges)
    assert got == (Fraction(min(weights)), [v])
    assert got == karp_min_mean_oracle([v], edges)
    assert got == karp_min_mean_frontier_oracle([v], edges)
    assert got == karp_min_mean_class_rows_oracle([v], edges)


@deterministic(400)
@given(periodic_scc(least_period=1))
def test_bfs_period_matches_cover_period_oracle(graph):
    """The period that Karp's cyclic classes and mixing_distance share,
    against the pop(0) BFS of mixing_distance it replaced; every edge
    steps from level class c to class c + 1 mod the period."""
    nodes, edges = graph
    idx = {v: i for i, v in enumerate(nodes)}
    adj = [[(idx[t], w) for (t, w) in edges[v]] for v in nodes]
    level, d = _graph.bfs_period(adj)
    assert d == cover_period_oracle([[t for (t, _w) in row] for row in adj])
    assert min(level) == 0
    assert all((level[u] + 1 - level[v]) % d == 0
               for u, row in enumerate(adj) for (v, _w) in row)


@pytest.mark.parametrize("karp", [_graph.karp_min_mean, karp_min_mean_oracle,
                                  karp_min_mean_frontier_oracle,
                                  karp_min_mean_class_rows_oracle])
def test_karp_min_mean_on_one_node_without_edges_raises(karp):
    with pytest.raises(ValueError, match="graph has no cycle"):
        karp([7], {7: []})


@st.composite
def random_digraph(draw):
    """(n, succ) on 0 to 12 nodes with random successor lists that may hold
    self-loops and repeated targets."""
    n = draw(st.integers(0, 12))
    if n == 0:
        return 0, []
    succ = [draw(st.lists(st.integers(0, n - 1), max_size=4))
            for _ in range(n)]
    return n, succ


def _closure(dag) -> list[set[int]]:
    reach = []
    for c, out in enumerate(dag):
        assert all(cj < c for cj in out)
        reach.append({c}.union(*(reach[cj] for cj in out)))
    return reach


@deterministic(400)
@given(random_digraph())
def test_tarjan_and_condensation_match_index_based_oracles(graph):
    """Components in the same emission order, each sorted, and a DAG whose
    closure is the oracle's reach sets."""
    n, succ = graph
    comps = _graph.strongly_connected_components(n, succ)
    assert comps == strongly_connected_components_oracle(n, succ)
    comp_of, dag = _graph.condensation_reach(n, succ, comps)
    want_of, reach = condensation_reach_oracle(n, succ, comps)
    assert comp_of == want_of
    assert _closure(dag) == reach


def test_tarjan_on_a_long_path_does_not_recurse():
    n = 20_000
    succ = [[v + 1] for v in range(n - 1)] + [[]]
    comps = _graph.strongly_connected_components(n, succ)
    assert comps == [[v] for v in reversed(range(n))]
    assert comps == strongly_connected_components_oracle(n, succ)
    comp_of, dag = _graph.condensation_reach(n, succ, comps)
    assert dag == [set()] + [{c - 1} for c in range(1, n)]


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
    """Lyndon words in the alphabet's order, of length <= P, whose prefixes
    are all factors of X, by brute force."""
    return [w for p in range(1, P + 1)
            for w in ("".join(t) for t in
                      itertools.product(X.alphabet.symbols, repeat=p))
            if is_lyndon(X.alphabet, w)
            and all(X.accepts_word(w[:i]) for i in range(1, p + 1))]


def _walks_match_fixpoint_oracle(X, P: int):
    """The monoid walk against the state-set walk and per-word fixpoints
    it replaced."""
    assert periodic_orbits(X, P) == periodic_orbits_fixpoint_oracle(X, P)


@deterministic(300)
@given(presentation(), st.sampled_from(range(9)))
def test_periodic_orbits_match_word_loop_oracle(X, P):
    if len(X.alphabet) == 3:
        P = min(P, 6)  # the oracle walks all 3^p words
    F = full_shift(X.alphabet)
    assert periodic_orbits(F, P) == _lyndon_oracle(F, P)
    assert periodic_orbits(X, P) == periodic_orbits_oracle(X, P)
    _walks_match_fixpoint_oracle(X, P)


@deterministic(300)
@given(presentation(), st.data())
def test_periodic_orbits_match_list_prefix_oracle(X, data):
    """The walk with string prefixes, cached child lists and leaves emitted
    by their parent against the list-prefix walk it replaced, to period 12
    on two symbols (8 on three), on X and on its full shift."""
    P = data.draw(st.integers(0, 12 if len(X.alphabet) <= 2 else 8))
    for Y in (X, full_shift(X.alphabet)):
        assert periodic_orbits(Y, P) == \
            periodic_orbits_list_prefix_oracle(Y, P)


@deterministic(300)
@given(presentation(), st.sampled_from(range(1, 9)))
def test_uap_search_matches_word_loop_oracle(X, P):
    if X.is_empty:
        reject()
    if len(X.alphabet) == 3:
        P = min(P, 5)  # the oracle runs distance_to_shift per candidate
    got = unique_approximation_search(X, P)
    want = unique_approximation_search_oracle(X, P)
    for field in ("violation", "period_bound", "witness", "distance",
                  "minimizers"):
        assert getattr(got, field) == getattr(want, field), field


@deterministic(200)
@given(presentation(), st.data())
def test_nearest_periodic_distance_bounds_the_exact_distance(X, data):
    # unique_approximation_search skips the exact distance unless the scan
    # ties; that is sound because the scanned points lie in X
    top = 6 if len(X.alphabet) == 3 else 8
    n = data.draw(st.integers(1, top))
    w = data.draw(st.text(st.sampled_from(X.alphabet.symbols), min_size=n,
                          max_size=n))
    P = data.draw(st.integers(n, top))
    if X.is_empty or not periodic_orbits(X, P):
        reject()
    y = periodic_config(w, X.alphabet)
    assert nearest_periodic(X, y, P).distance >= distance_to_shift(y, X)


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
    got = isometric_ca_precondition(X, zero, L, P)
    want = isometric_ca_precondition_oracle(X, zero, L, P)
    assert got.passed == want.passed
    assert got.failing == want.failing
    assert got.periods_used == want.periods_used


@deterministic(200)
@given(presentation(), st.data())
def test_rigidity_precondition_matches_orbit_scan_oracle(X, data):
    """The factor index against the scan over every orbit per (word,
    symbol, period) it replaced: every RigidityReport field."""
    zero = data.draw(st.sampled_from(X.alphabet.symbols))
    L = data.draw(st.integers(1, 5))
    P = data.draw(st.integers(1, 7 if len(X.alphabet) == 3 else 10))
    got = isometric_ca_precondition(X, zero, L, P)
    want = precondition_oracle(X, zero, L, P)
    assert (got.passed, got.failing, got.periods_used) == \
        (want.passed, want.failing, want.periods_used)


@deterministic(200)
@given(presentation(), st.data())
def test_rigidity_precondition_matches_per_orbit_index_oracle(X, data):
    """The factor index built once per distinct factor of each length
    group against the one dict update per (orbit, start, length) it
    replaced: every RigidityReport field."""
    zero = data.draw(st.sampled_from(X.alphabet.symbols))
    L = data.draw(st.integers(1, 6))
    P = data.draw(st.integers(1, 8 if len(X.alphabet) == 3 else 12))
    got = isometric_ca_precondition(X, zero, L, P)
    want = precondition_per_orbit_index_oracle(X, zero, L, P)
    assert (got.passed, got.failing, got.periods_used) == \
        (want.passed, want.failing, want.periods_used)


@pytest.mark.parametrize("symbols, edges, L, P", [
    ("012", [(1, 2, "0"), (1, 1, "1"), (1, 2, "1"), (1, 2, "2"),
             (2, 1, "0")], 3, 5),
    ("01", [(0, 4, "0"), (1, 0, "1"), (1, 3, "1"), (2, 4, "0"), (3, 3, "0"),
            (3, 0, "1"), (4, 1, "0"), (4, 2, "0")], 3, 6),
])
def test_rigidity_precondition_counts_only_multiples_of_an_orbit(symbols,
                                                                 edges, L,
                                                                 P):
    """A factor of an orbit u is offered only at the multiples of |u|: on
    these shifts a marker exists at a period p >= |u| that |u| does not
    divide, and the precondition fails."""
    X = ShiftPresentation(Alphabet(symbols), range(5), edges)
    want = precondition_oracle(X, "0", L, P)
    got = isometric_ca_precondition(X, "0", L, P)
    assert not want.passed
    assert (got.passed, got.failing, got.periods_used) == \
        (want.passed, want.failing, want.periods_used)


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


@deterministic(200)
@given(presentation())
def test_every_marker_candidate_closes_inside_the_cover(X):
    """The invariants that mixing_sft_inside and embed_complex raise on, past
    their first hit: for the first three markers w, k <= 3, up to three pads
    u and two fillers v, the closure of w u and w v lies in the cover, has
    positive entropy and is mixing, and the closure of w v with the first j
    of the w u (j <= 3) lies in the cover."""
    if not (positive_entropy(X) and _is_mixing(X)):
        return
    C = shannon_cover(X)
    for w in itertools.islice(_synchronizing_words(C, 4), 3):
        for k in range(4):
            us, vs = _pads(C, w, k)[:3], _pads(C, w, k + 1)[:2]
            for u, v in itertools.product(us, vs):
                Y = concatenation_closure(C.alphabet, [w + u, w + v])
                assert language_subset(Y, C), (w, u, v)
                assert positive_entropy(Y) and _is_mixing(Y), (w, u, v)
            for v, j in itertools.product(vs, range(len(us) + 1)):
                Y = concatenation_closure(
                    C.alphabet, [w + v] + [w + u for u in us[:j]])
                assert language_subset(Y, C), (w, us[:j], v)


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


# -- the right cycle word and the image presentation ------------------------


def _config(data, ab: Alphabet) -> Configuration:
    """A point over `ab` with arm periods up to 6 and finite parts up to 3."""
    period = st.text(st.sampled_from(ab.symbols), min_size=1, max_size=6)
    finite = st.text(st.sampled_from(ab.symbols), max_size=3)
    return Configuration(ab, data.draw(period), data.draw(finite),
                         data.draw(finite), data.draw(period))


@deterministic(300)
@given(presentation(), st.data())
def test_right_cycle_word_attains_the_right_mean(X, data):
    """The reported word is the labels of the right cycle, aligned with the
    point's right period, so its density against that period is the
    cycle's mean."""
    if X.is_empty:
        reject()
    x = _config(data, X.alphabet)
    d = distance_to_shift_detail(x, X)
    assert len(d.right_cycle_word) == d.right_cycle_len
    assert cyclic_mismatch_density(x.right_period, d.right_cycle_word) == \
        d.right_mean


@deterministic(300)
@given(presentation(), st.data())
def test_distance_product_on_integer_ids_matches_named_node_oracle(X, data):
    """Every field of the detail, and the error on an empty shift."""
    x = _config(data, X.alphabet)
    got = _outcome(distance_to_shift_detail, x, X)
    want = _outcome(distance_to_shift_detail_oracle, x, X)
    assert got == want


def _equal_arm_config(ab: Alphabet, w: str, u: str, v: str) -> Configuration:
    """inf(w)u.v inf(w) with u and v trimmed so that neither is absorbed
    into an arm: both arms keep the period primitive_root(w)."""
    x = Configuration(ab, w, u.lstrip(w[0]), v.rstrip(w[-1]), w)
    assert x.left_period == x.right_period
    return x


def _assert_details_match(x, X):
    """Field for field against the oracle, which runs Karp on every
    component of both arms; or the same error on an empty shift."""
    got = _outcome(distance_to_shift_detail, x, X)
    want = _outcome(distance_to_shift_detail_oracle, x, X)
    if isinstance(want, tuple):
        assert got == want
        return
    for f in dataclasses.fields(want):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


@deterministic(300)
@given(presentation(), st.data())
def test_equal_arm_distance_matches_per_arm_karp_oracle(X, data):
    """Points whose two arms share one period, periodic or with a finite
    defect: the right arm's Karp results serve the left."""
    syms = st.sampled_from(X.alphabet.symbols)
    w = data.draw(st.text(syms, min_size=1, max_size=6))
    u = v = ""
    if data.draw(st.booleans()):
        u, v = data.draw(st.text(syms, max_size=3)), \
            data.draw(st.text(syms, max_size=3))
    _assert_details_match(_equal_arm_config(X.alphabet, w, u, v), X)


@pytest.mark.parametrize("w, u, v, X", [
    # the block shift at even periods: two components per arm, and at
    # inf(10).1inf(10) Tarjan emits one left twin before its right twin
    ("10", "", "", block_shift()), ("10", "1", "", block_shift()),
    ("0110", "", "", block_shift()), ("011010", "1", "01", block_shift()),
    ("0011010011", "", "", sft14()), ("0011010011", "1", "10", sft14()),
    ("011", "11", "0", sft14()), ("01101001", "10", "0110", sft14())])
def test_equal_arm_distance_fixed_cases(w, u, v, X):
    _assert_details_match(_equal_arm_config(BINARY, w, u, v), X)


def _assert_periodic_detail_matches(x, X):
    """A periodic point searches one product copy: the oracle's two-copy
    answer field for field, with one cycle serving both arms."""
    _assert_details_match(x, X)
    got = _outcome(distance_to_shift_detail, x, X)
    if not isinstance(got, tuple):
        assert got.distance == got.left_mean == got.right_mean
        assert got.left_cycle_len == got.right_cycle_len


@deterministic(300)
@given(presentation(), st.data())
def test_periodic_distance_matches_two_copy_oracle(X, data):
    w = data.draw(st.text(st.sampled_from(X.alphabet.symbols), min_size=1,
                          max_size=8))
    _assert_periodic_detail_matches(periodic_config(w, X.alphabet), X)


# the shifts of the one points inf(0) and inf(1)
ZEROS, ONES = (compile_sft(SftSpec(BINARY, (a,))) for a in "10")


@pytest.mark.parametrize("w, X, word", [
    # the block shift at even periods: two components per copy, tied at
    # 0110 and 011010
    ("10", block_shift(), "10"), ("0110", block_shift(), "0100"),
    ("1000", block_shift(), "1000"), ("011010", block_shift(), "001010"),
    # equal least means with different words: the first component Tarjan
    # emits, here the one holding node 0, wins
    ("01", disjoint_union(ZEROS, ONES), "00"),
    ("01", disjoint_union(ONES, ZEROS), "11")])
def test_periodic_distance_ties_go_to_the_first_emitted_component(w, X,
                                                                   word):
    x = periodic_config(w, BINARY)
    _assert_periodic_detail_matches(x, X)
    assert distance_to_shift_detail(x, X).right_cycle_word == word


# key order 2 < 1 < 0, not character order; A -> B has two labels, and
# B -> A one that the key ranks before the other
TERNARY_210 = Alphabet("210")
PARALLEL_LABELS = ShiftPresentation(TERNARY_210, "AB", [
    ("A", "B", "1"), ("A", "B", "2"), ("B", "A", "0"), ("B", "A", "1")])


@pytest.mark.parametrize("x", [
    periodic_config("001", TERNARY_210),
    Configuration(TERNARY_210, "001", "2", "2", "001")])
def test_right_cycle_word_reads_the_tie_break_off_the_presentation(x):
    """The product carries no labels, so the word is read back off Y's
    edges: on A -> B at a 0 both labels cost 1 and the key's first, 2,
    wins; on B -> A at a 0 the label 0 costs nothing and beats 1, which
    the key ranks first.  Every field against the oracle, whose product
    edges carry their labels."""
    got = distance_to_shift_detail(x, PARALLEL_LABELS)
    assert dataclasses.asdict(got) == dataclasses.asdict(
        distance_to_shift_detail_oracle(x, PARALLEL_LABELS))
    assert got.right_cycle_word == "201021"


@deterministic(400)
@given(presentation())
def test_mixing_distance_bitmask_rows_match_boolean_powers_oracle(X):
    """The distance, or the type and message of the error."""
    assert _outcome(mixing_distance, X) == _outcome(mixing_distance_oracle, X)


# -- walks through step / step_back against the per-state loops ------------


@deterministic(400)
@given(presentation(), st.data())
def test_mask_rows_step_like_the_per_state_dicts_oracle(X, data):
    """step, step_back, read, accepts_word and is_deterministic against the
    per-state dicts built from the edges: on X, its cover and the empty
    presentation over its alphabet, from a random state set (the empty set
    among them) and from all states, by every symbol and one outside the
    alphabet, on words that may hold that symbol."""
    foreign = _foreign_symbol(X.alphabet)
    syms = X.alphabet.symbols + (foreign,)
    words = st.text(st.sampled_from(syms), max_size=6)
    empty = ShiftPresentation(X.alphabet, [], [])
    for Y in [X, empty] + ([] if X.is_empty else [shannon_cover(X)]):
        O = StepOracle(Y)
        assert Y.is_deterministic() == O.is_deterministic()
        some = frozenset(data.draw(st.sets(st.sampled_from(Y.states)))
                         if Y.states else ())
        for S in (some, frozenset(), Y.states):
            for a in syms:
                got = Y.step(S, a), Y.step_back(S, a)
                assert got == (O.step(S, a), O.step_back(S, a)), (S, a)
                assert all(type(T) is frozenset for T in got)
            word = data.draw(words)
            assert Y.read(S, word) == O.read(S, word), (S, word)
        for word in (data.draw(words), "", foreign,
                     "".join(data.draw(st.lists(
                         st.sampled_from(X.alphabet.symbols), max_size=6)))):
            assert Y.accepts_word(word) == O.accepts_word(word), word


@deterministic(300)
@given(presentation())
def test_mask_subset_graph_matches_frozenset_oracle(X):
    """The subset construction on masks, forward and backward, names the
    same state sets in the same breadth-first order with the same edges as
    the one on frozensets of state names."""
    O = StepOracle(X)
    for rows, step in ((X._fwd, O.step), (X._back, O.step_back)):
        sets, edges = _subset_graph(X, rows)
        name = X._names
        assert ([name(S) for S in sets],
                [(name(S), name(T), a) for (S, T, a) in edges]) == \
            subset_graph_oracle(X, step)


def _foreign_symbol(ab: Alphabet) -> str:
    """A symbol outside `ab` (whose symbols are among 0, 1, 2)."""
    return next(c for c in "0123" if c not in ab)


@deterministic(400)
@given(presentation(), st.data())
def test_stable_block_fold_matches_per_state_read_oracle(X, data):
    """Both directions, on words over the alphabet, on the markers
    s zero^(p-1) of the rigidity precondition (zero^p among them, which is
    not primitive) and on words with one symbol outside it.  The outgoing
    set, the one test for periodic points, is nonempty exactly when the
    periodic point of the word is in X.  And membership of points over a
    larger alphabet, which the fold decides without an alphabet
    pre-check."""
    syms = st.sampled_from(X.alphabet.symbols)
    word = data.draw(st.one_of(
        st.text(syms, min_size=1, max_size=5),
        st.builds(lambda s, zero, p: s + zero * (p - 1), syms, syms,
                  st.integers(1, 5))))
    big = Alphabet(X.alphabet.symbols + (_foreign_symbol(X.alphabet),))
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(word)))
        word = word[:i] + _foreign_symbol(X.alphabet) + word[i:]
    M = _RelationMonoid(X)
    e = functools.reduce(M.step, word, M.identity)
    for outgoing in (False, True):
        stable = M.stable(e, outgoing)
        assert frozenset(s for i, s in enumerate(X.states)
                         if stable >> i & 1) == \
            stable_block_set_oracle(X, word, outgoing), outgoing
    assert M.cycles(e) == bool(M.stable(e, True)) == \
        contains_config_oracle(X, periodic_config(word, big))
    x = _config(data, data.draw(st.sampled_from([X.alphabet, big])))
    assert contains_config(X, x) == contains_config_oracle(X, x)


# -- the transition monoid against the state-set walk and the per-word
# fixpoints it replaced ------------------------------------------------------


@st.composite
def long_word_sft(draw):
    """A compiled SFT with one to four forbidden words of length 4 or 5 over
    two of the symbols 0, 1, 2, or of length 4 over all three, in any order:
    8 to 16 or 27 states, and monoids of dozens of elements."""
    k = draw(st.sampled_from((2, 3)))
    ab = Alphabet(draw(st.permutations("012"))[:k])
    words = st.text(st.sampled_from(ab.symbols),
                    min_size=4, max_size=5 if k == 2 else 4)
    try:
        return compile_sft(SftSpec(ab, tuple(draw(
            st.lists(words, min_size=1, max_size=4)))))
    except EmptyShiftError:
        reject()


@deterministic(60)
@given(long_word_sft(), st.integers(3, 12))
def test_monoid_walk_matches_fixpoint_oracle_on_long_word_sfts(X, P):
    _walks_match_fixpoint_oracle(X, min(P, 8) if len(X.alphabet) == 3 else P)


@deterministic(400)
@given(st.one_of(presentation(), long_word_sft()), st.data())
def test_monoid_element_matches_per_state_read_oracle(X, data):
    """The element of a random word (a marker s zero^(p-1) among them, and
    sometimes with one symbol outside the alphabet) relates each state to
    the states its paths reach, and its cycle flag is set exactly when the
    outgoing stable block set is nonempty."""
    syms = st.sampled_from(X.alphabet.symbols)
    word = data.draw(st.one_of(
        st.text(syms, min_size=1, max_size=8),
        st.builds(lambda s, zero, p: s + zero * (p - 1), syms, syms,
                  st.integers(1, 8))))
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(word)))
        word = word[:i] + _foreign_symbol(X.alphabet) + word[i:]
    M = _RelationMonoid(X)
    e = functools.reduce(M.step, word, M.identity)
    reach = [frozenset(X.read({s}, word)) for s in X.states]
    if e < 0:
        assert not any(reach)
    else:
        assert [frozenset(X.states[j] for j in range(len(X.states))
                          if r >> j & 1) for r in M.relations[e]] == reach
    assert M.cycles(e) == bool(stable_block_set_oracle(X, word, True))


@deterministic(200)
@given(st.one_of(presentation(), long_word_sft()), st.data())
def test_rigidity_precondition_matches_fixpoint_oracle(X, data):
    zero = data.draw(st.sampled_from(X.alphabet.symbols))
    L = data.draw(st.integers(1, 3))
    P = data.draw(st.integers(1, 6 if len(X.alphabet) == 3 else 9))
    assert isometric_ca_precondition(X, zero, L, P) == \
        isometric_ca_precondition_fixpoint_oracle(X, zero, L, P)


@st.composite
def deterministic_presentation(draw):
    """A random deterministic labeled graph on up to seven states over one
    to three of the symbols 0, 1, 2 in any order: each state has at most
    one edge per symbol, so merging may take several refinement rounds."""
    ab = Alphabet(draw(st.permutations("012"))[:draw(st.integers(1, 3))])
    n = draw(st.integers(1, 7))
    targets = st.one_of(st.none(), st.integers(0, n - 1))
    return ShiftPresentation(ab, range(n), [
        (q, t, a) for q in range(n) for a in ab
        if (t := draw(targets)) is not None])


@deterministic(300)
@given(presentation(), deterministic_presentation())
def test_merge_equivalent_interned_rounds_match_sorted_round_oracle(X, G):
    """On the subset graph that shannon_cover merges, under its frozenset
    state names and renamed to q0, q1, ...; on the covers themselves; and
    on a random deterministic graph."""
    if X.is_empty:
        reject()
    D = ShiftPresentation(X.alphabet,
                          *subset_graph_oracle(X, StepOracle(X).step))
    for M in (D, D.renamed(), shannon_cover(X), G):
        got, want = _merge_equivalent(M), merge_equivalent_oracle(M)
        assert (got.states, got.edges) == (want.states, want.edges)
        assert got.to_dict() == want.to_dict()


@deterministic(400)
@given(presentation(), st.data())
def test_lex_least_completion_fold_matches_per_state_oracle(X, data):
    """The completion, or the type and message of the error, for
    constraint lists that may name one symbol outside the alphabet."""
    cell = st.one_of(st.none(), st.sampled_from(X.alphabet.symbols))
    constraints = data.draw(st.lists(cell, max_size=8))
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(constraints)))
        constraints.insert(i, _foreign_symbol(X.alphabet))
    assert _outcome(lex_least_completion, X, constraints) == \
        _outcome(lex_least_completion_oracle, X, constraints)


def _near_shift_rule(data, ab: Alphabet) -> CellularAutomaton:
    """A rule of width 1 to 3 over `ab` that copies one cell of its window
    except on up to two patterns, so it often maps a subshift into itself
    and often does not."""
    width = data.draw(st.integers(1, 3))
    lo = data.draw(st.integers(1 - width, 0))
    copy = data.draw(st.integers(0, width - 1))
    table = {p: p[copy] for p in ("".join(t) for t in
                                  itertools.product(ab.symbols,
                                                    repeat=width))}
    for pat in data.draw(st.lists(st.sampled_from(sorted(table)),
                                  max_size=2)):
        table[pat] = data.draw(st.sampled_from(ab.symbols))
    return CellularAutomaton(ab, lo, lo + width - 1, table)


@deterministic(300)
@given(presentation(), st.data())
def test_preserves_shift_matches_old_image_oracle(X, data):
    if X.is_empty:
        reject()
    f = _near_shift_rule(data, X.alphabet)
    shift = data.draw(st.integers(-2, 2))
    f = dataclasses.replace(f, left=f.left + shift, right=f.right + shift)
    assert preserves_shift(f, X) == preserves_shift_oracle(f, X) == \
        preserves_shift_tuple_oracle(f, X)


@deterministic(300)
@given(presentation(), presentation(), st.sampled_from(
    ("drawn", "reordered", "empty")), st.data())
def test_language_subset_matches_frozenset_bfs_oracle(A, B, kind, data):
    """The subset BFS on state masks against the one on frozensets of
    named states, both ways round, on two independent draws (often over
    different alphabets, so a symbol of one is missing from the other, and
    sometimes empty after the trim), on A's graph over its symbols in
    another order, and against an empty presentation."""
    if kind == "reordered":
        B = ShiftPresentation(
            Alphabet(data.draw(st.permutations(A.alphabet.symbols))),
            A.states, A.edges)
    elif kind == "empty":
        B = ShiftPresentation(B.alphabet, [], [])
    for P, Q in ((A, B), (B, A)):
        assert language_subset(P, Q) == language_subset_oracle(P, Q)


# -- sliced windows and the sliding rule read against per-cell reads --------


@st.composite
def point_and_window(draw):
    """A point with periods of length 1 to 4 and finite parts of up to 10
    cells, and a window wholly left of the origin, wholly right of it,
    across it, or inside the span of the finite parts."""
    ab = Alphabet(draw(st.permutations("012"))[:draw(st.integers(1, 3))])
    syms = st.sampled_from(ab.symbols)
    period = st.text(syms, min_size=1, max_size=4)
    finite = st.text(syms, max_size=10)
    x = Configuration(ab, draw(period), draw(finite), draw(finite),
                      draw(period))
    n, m = len(x.left_finite), len(x.right_finite)
    where = draw(st.sampled_from(("left", "right", "across", "finite")))
    if where == "left":
        b = draw(st.integers(-30, -1))
        a = b - draw(st.integers(0, 24))
    elif where == "right":
        a = draw(st.integers(0, 30))
        b = a + draw(st.integers(0, 24))
    elif where == "across":
        a = draw(st.integers(-30, -1))
        b = draw(st.integers(0, 30))
    else:
        a = draw(st.integers(-n, max(m - 1, -n)))
        b = draw(st.integers(a, max(m - 1, a)))
    return x, a, b


@deterministic(500)
@given(point_and_window())
def test_window_slices_match_per_cell_oracle(case):
    x, a, b = case
    assert x.window(a, b) == window_oracle(x, a, b)
    with pytest.raises(ValueError):
        x.window(b + 1, a)


@st.composite
def offset_rule(draw, ab: Alphabet):
    """A random rule over `ab` whose offsets lie in -3..2 (so its window may
    be all negative or all positive), at most six cells wide on two
    symbols and three on three."""
    widest = {1: 6, 2: 6, 3: 3}[len(ab)]
    lo = draw(st.integers(-3, 2))
    hi = draw(st.integers(lo, min(2, lo + widest - 1)))
    pats = ["".join(t) for t in itertools.product(ab.symbols,
                                                  repeat=hi - lo + 1)]
    outs = draw(st.lists(st.sampled_from(ab.symbols), min_size=len(pats),
                         max_size=len(pats)))
    return CellularAutomaton(ab, lo, hi, dict(zip(pats, outs)))


@deterministic(400)
@given(point_and_window(), st.data())
def test_apply_ca_matches_per_cell_oracle(case, data):
    x = case[0]
    f = data.draw(offset_rule(x.alphabet))
    assert apply_ca(f, x) == apply_ca_oracle(f, x)


@deterministic(400)
@given(st.data())
def test_apply_cyclic_matches_oracle_on_random_offsets(data):
    ab = Alphabet(data.draw(st.sampled_from(("01", "012", "0"))))
    f = data.draw(offset_rule(ab))
    w = data.draw(st.text(st.sampled_from(ab.symbols), max_size=8))
    assert apply_cyclic(f, w) == \
        apply_cyclic_oracle(f.table, f.left, f.right, w)


@deterministic(300)
@given(st.sampled_from((block_path_source, intersperse_path_source)),
       st.fractions(0, 1, max_denominator=64), st.integers(-40, 40),
       st.integers(0, 40))
def test_path_window_slices_match_per_cell_oracle(source, r, a, width):
    src = source(r)
    b = a + width
    assert src.window(a, b) == path_window_oracle(src._fn, a, b)
    with pytest.raises(ValueError):
        src.window(b + 1, a)


@deterministic(150)
@given(st.sampled_from(("golden", "even", "full")), st.data())
def test_project_slices_match_per_cell_oracle(name, data):
    T = {"golden": golden_mean, "even": even_shift,
         "full": lambda: full_shift(BINARY)}[name]()
    S = full_shift(BINARY)
    anchor = periodic_config(data.draw(st.sampled_from(("0", "01", "001"))),
                             BINARY)
    x = _config(data, BINARY)
    m = data.draw(st.integers(0, 3))
    N = data.draw(st.integers(-3, 12))
    assert _outcome(project, S, T, anchor, m, x, N) == \
        _outcome(project_oracle, S, T, anchor, m, x, N)


@deterministic(150)
@given(st.sampled_from(("golden", "even", "full")), st.data())
def test_average_slices_match_per_cell_oracle(name, data):
    X = {"golden": golden_mean, "even": even_shift,
         "full": lambda: full_shift(BINARY)}[name]()
    x, y = _config(data, BINARY), _config(data, BINARY)
    m = data.draw(st.integers(0, 3))
    r = Fraction(data.draw(st.integers(0, 8)), 8)
    N = data.draw(st.integers(-3, 40))
    assert _outcome(average, X, m, r, x, y, N) == \
        _outcome(average_oracle, X, m, r, x, y, N)


@deterministic(300)
@given(st.data())
def test_symbol_at_matches_index_arithmetic_oracle(data):
    """Every cell left of, inside and right of the finite parts, on arms
    of period 1 to 4."""
    ab = Alphabet(data.draw(st.permutations("012"))[:data.draw(
        st.integers(1, 3))])
    syms = st.sampled_from(ab.symbols)
    period = st.text(syms, min_size=1, max_size=4)
    finite = st.text(syms, max_size=5)
    x = Configuration(ab, data.draw(period), data.draw(finite),
                      data.draw(finite), data.draw(period))
    lo = -len(x.left_finite) - 2 * len(x.left_period) - 2
    hi = len(x.right_finite) + 2 * len(x.right_period) + 2
    for i in range(lo, hi + 1):
        assert x.symbol_at(i) == symbol_at_oracle(x, i), i


# -- every listing and tie-break follows the alphabet's order ---------------


class _Relabel:
    """Maps the i-th symbol of an alphabet to the i-th of the same symbols
    in character order, and words, points, rules and presentations with
    it.  An output computed over the permuted alphabet and mapped across
    must equal the output computed over the character-ordered one."""

    def __init__(self, A: Alphabet):
        self.B = Alphabet(sorted(A.symbols))
        self.table = str.maketrans(dict(zip(A.symbols, self.B.symbols)))

    def word(self, w: str) -> str:
        return w.translate(self.table)

    def config(self, x: Configuration) -> Configuration:
        return Configuration(self.B, *map(self.word, (
            x.left_period, x.left_finite, x.right_finite, x.right_period)))

    def rule(self, f: CellularAutomaton) -> CellularAutomaton:
        return CellularAutomaton(self.B, f.left, f.right, {
            self.word(p): self.word(o) for p, o in f.table.items()})

    def shift(self, X: ShiftPresentation) -> ShiftPresentation:
        return ShiftPresentation(self.B, X.states, [
            (s, t, self.word(a)) for (s, t, a) in X.edges])

    def listing(self, X: ShiftPresentation) -> tuple:
        """X's states and edges in X's own order, labels mapped."""
        return X.states, [(s, t, self.word(a)) for (s, t, a) in X.edges]


def _listing(X: ShiftPresentation) -> tuple:
    return X.states, list(X.edges)


@deterministic(250)
@given(presentation(), st.data())
def test_shift_outputs_map_across_relabelling_onto_character_order(X, data):
    r = _Relabel(X.alphabet)
    Y = r.shift(X)
    n = data.draw(st.integers(0, 4))
    P = data.draw(st.integers(1, 6 if len(X.alphabet) == 3 else 8))
    assert [r.word(w) for w in language(X, n)] == language(Y, n)
    assert [r.word(w) for w in periodic_orbits(full_shift(X.alphabet), P)] \
        == periodic_orbits(full_shift(Y.alphabet), P)
    assert [r.word(w) for w in periodic_orbits(X, P)] == \
        periodic_orbits(Y, P)
    cap = data.draw(st.integers(1, 4))
    got = _outcome(find_unbordered_synchronizing, X, cap)
    want = _outcome(find_unbordered_synchronizing, Y, cap)
    assert (r.word(got) if isinstance(got, str) else got) == want
    if X.is_empty:
        return
    assert r.listing(shannon_cover(X)) == _listing(shannon_cover(Y))
    got, want = transitive_components(X), transitive_components(Y)
    assert [r.listing(p) for p in got.components] == \
        [_listing(p) for p in want.components]
    assert [(r.listing(p), i) for p, i in got.dropped] == \
        [(_listing(p), i) for p, i in want.dropped]
    x = _config(data, X.alphabet)
    got = distance_to_shift_detail(x, X)
    want = distance_to_shift_detail(r.config(x), Y)
    assert r.word(got.right_cycle_word) == want.right_cycle_word
    for field in ("distance", "left_mean", "right_mean", "left_cycle_len",
                  "right_cycle_len"):
        assert getattr(got, field) == getattr(want, field), field


@deterministic(150)
@given(presentation(), st.data())
def test_search_outputs_map_across_relabelling_onto_character_order(X, data):
    if X.is_empty:
        reject()
    r = _Relabel(X.alphabet)
    Y = r.shift(X)
    small = len(X.alphabet) == 3
    P = data.draw(st.integers(1, 4 if small else 6))
    w = data.draw(st.text(st.sampled_from(X.alphabet.symbols), min_size=1,
                          max_size=P))
    y = periodic_config(w, X.alphabet)
    got = _outcome(nearest_periodic, X, y, P)
    want = _outcome(nearest_periodic, Y, r.config(y), P)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.distance == want.distance
        assert [r.config(z) for z in got.minimizers] == want.minimizers
    got = unique_approximation_search(X, P)
    want = unique_approximation_search(Y, P)
    assert (got.violation, got.distance) == (want.violation, want.distance)
    if got.violation:
        assert r.config(got.witness) == want.witness
        assert [r.config(z) for z in got.minimizers] == want.minimizers
    zero = data.draw(st.sampled_from(X.alphabet.symbols))
    L = data.draw(st.integers(1, 3))
    got = isometric_ca_precondition(X, zero, L, P)
    want = isometric_ca_precondition(Y, r.word(zero), L, P)
    assert got.passed == want.passed
    assert (got.failing and tuple(map(r.word, got.failing))) == want.failing
    assert [(tuple(map(r.word, k)), p) for k, p in got.periods_used.items()] \
        == list(want.periods_used.items())
    f = _near_shift_rule(data, X.alphabet)
    for Z in (X, full_shift(X.alphabet)):
        got = _outcome(check_on_subshift, f, Z, min(P, 4))
        want = _outcome(check_on_subshift, r.rule(f), r.shift(Z), min(P, 4))
        if isinstance(want, tuple):
            assert got == want
            continue
        for prop in ("contracting", "isometric", "expanding"):
            g, h = getattr(got, prop), getattr(want, prop)
            assert (g is None) == (h is None), prop
            if g is not None:
                assert (r.config(g.x), r.config(g.y), g.d_in, g.d_out) == \
                    (h.x, h.y, h.d_in, h.d_out), prop


@deterministic(200)
@given(st.permutations("012"), st.integers(1, 3), st.data())
def test_compile_sft_maps_across_relabelling_onto_character_order(
        perm, k, data):
    A = Alphabet(perm[:k])
    r = _Relabel(A)
    words = st.text(st.sampled_from(A.symbols), min_size=1, max_size=3)
    forbidden = tuple(data.draw(st.lists(words, max_size=3)))
    got = _outcome(compile_sft, SftSpec(A, forbidden))
    want = _outcome(compile_sft, SftSpec(r.B, tuple(map(r.word, forbidden))))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert r.listing(got) == _listing(want)


# -- the Parry measure on Python floats against numpy's power iteration -----

# numpy's BLAS products and pairwise sums add in another order than Python's
# left-to-right sums; on the covers drawn here (up to a dozen states) the
# two differ by at most about 1e-14 relative.
PARRY_REL_TOL = 1e-12


def _assert_parry_matches(mu, ref, close):
    assert mu.cover.states == ref.cover.states
    assert mu.edge_prob.keys() == ref.edge_prob.keys()
    pairs = [(mu.eigenvalue, ref.eigenvalue)]
    pairs += [(mu.edge_prob[k], ref.edge_prob[k]) for k in mu.edge_prob]
    pairs += [(mu.stationary[s], ref.stationary[s]) for s in mu.cover.states]
    for got, want in pairs:
        assert close(got, want), (got, want)


@deterministic(200)
@given(st.one_of(presentation(), long_word_sft()))
def test_parry_measure_matches_numpy_power_iteration(X):
    """Reducible presentations raise on both sides; on every irreducible
    one the eigenvalue, each transition probability and each stationary
    entry agree within PARRY_REL_TOL."""
    pytest.importorskip("numpy")
    mu = _outcome(parry_measure, X)
    ref = _outcome(parry_measure_numpy_oracle, X)
    if isinstance(ref, tuple):
        assert mu == ref
        return
    _assert_parry_matches(mu, ref, lambda a, b: math.isclose(
        a, b, rel_tol=PARRY_REL_TOL))


@pytest.mark.parametrize("X", [
    golden_mean(), even_shift(), full_shift(BINARY),
    full_shift(Alphabet("012"))], ids=["golden", "even", "full2", "full3"])
def test_parry_measure_is_bit_identical_on_small_covers(X):
    """On one- and two-state covers whose A + I entries are 0, 1 or 2 every
    product is exact and every sum has at most two terms, so both orders
    round alike."""
    pytest.importorskip("numpy")
    _assert_parry_matches(parry_measure(X), parry_measure_numpy_oracle(X),
                          lambda a, b: a == b)


def test_golden_decay_gamma_is_pinned():
    cert = cylinder_decay_bound(parry_measure(golden_mean()), 8)
    assert (cert.gamma, cert.t) == \
        (Fraction(2783377641436327, 4503599627370496), 2)
