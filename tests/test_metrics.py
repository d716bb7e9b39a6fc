import random
import tracemalloc
from fractions import Fraction as F

import pytest

from shiftgeo import metrics
from shiftgeo.configs import Alphabet, BINARY, least_rotation, parse_config, \
    periodic_config, shift
from shiftgeo.errors import PreconditionError
from shiftgeo.metrics import (cyclic_mismatch_density, d_besicovitch,
                              d_cantor, d_weyl, density_estimate,
                              distance_to_shift, distance_to_shift_detail,
                              estimator_error_bound, nearest_periodic,
                              unique_approximation_search, weyl_estimate)
from shiftgeo.shifts import (ShiftPresentation, SftSpec, compile_sft,
                             contains_config, full_shift, golden_mean,
                             periodic_orbits)
from oracle_utils import block_shift, cyclic_density_oracle, \
    distance_to_shift_detail_oracle, necklaces, parity_shift_distance, \
    parity_shift_orbits, parity_shift_uap_oracle, rand_config, sft14, \
    strongly_connected_components_oracle

ZERO = parse_config("inf(0).inf(0)", BINARY)
ONE = parse_config("inf(1).inf(1)", BINARY)


def test_d_cantor():
    x = parse_config("inf(0).1inf(1)", BINARY)
    assert d_cantor(x, x) == 0
    assert d_cantor(x, ZERO) == 1
    y = parse_config("inf(0).0001inf(0)", BINARY)
    assert d_cantor(y, ZERO) == F(1, 8)
    with pytest.raises(ValueError):
        d_cantor(ZERO, parse_config("inf(a).inf(a)", Alphabet("ab")))


def test_d_besicovitch_examples():
    x01 = parse_config("inf(01).inf(01)", BINARY)
    assert d_besicovitch(x01, x01) == 0
    assert d_besicovitch(x01, ZERO) == F(1, 2)
    halfline = parse_config("inf(0).1inf(1)", BINARY)
    assert d_besicovitch(halfline, ZERO) == F(1, 2)
    assert d_weyl(halfline, ZERO) == 1
    assert d_weyl(x01, ZERO) == F(1, 2)


def test_closed_form_matches_window_estimates():
    rng = random.Random(77)
    for i in range(40):
        _ = i
        x = rand_config(rng, BINARY)
        y = rand_config(rng, BINARY)
        db = d_besicovitch(x, y)
        C = estimator_error_bound(x, y)
        for N in (100, 1000):
            est = density_estimate(x, y, N)
            assert abs(est - db) <= F(C, 2 * N + 1), (x, y, N)
        if _ < 5:
            est = density_estimate(x, y, 10000)
            assert abs(est - db) <= F(C, 20001)
        # the uniform-position estimate brackets the Weyl value: windows of
        # length 2n+1 can exceed it by at most the finite-part and
        # partial-block excess C, and deep-arm windows fall short by less
        dw = d_weyl(x, y)
        west = weyl_estimate(x, y, 60, 400)
        assert abs(west - dw) <= F(C, 121)


def test_pseudometric_axioms_exact():
    rng = random.Random(99)
    ab3 = Alphabet("abc")
    for _ in range(60):
        ab = rng.choice([BINARY, ab3])
        x, y, z = (rand_config(rng, ab) for _ in range(3))
        for d in (d_besicovitch, d_weyl):
            assert d(x, x) == 0
            assert d(x, y) == d(y, x)
            assert d(x, z) <= d(x, y) + d(y, z)
            assert 0 <= d(x, y) <= 1
        assert d_besicovitch(x, y) <= d_weyl(x, y)
        k = rng.randint(-10, 10)
        assert d_besicovitch(shift(x, k), shift(y, k)) == d_besicovitch(x, y)
        assert d_weyl(shift(x, k), shift(y, k)) == d_weyl(x, y)


def test_density_estimate_examples():
    x01 = parse_config("inf(01).inf(01)", BINARY)
    assert density_estimate(x01, x01, 10) == 0
    assert density_estimate(x01, ZERO, 2) == F(2, 5)


def test_weyl_estimate_examples():
    halfline = parse_config("inf(0).1inf(1)", BINARY)
    assert weyl_estimate(halfline, halfline, 3, 10) == 0
    assert weyl_estimate(halfline, ZERO, 2, 10) == 1
    for M1, M2 in ((2, 5), (5, 9)):
        assert weyl_estimate(halfline, ZERO, 2, M1) <= \
            weyl_estimate(halfline, ZERO, 2, M2)
    assert weyl_estimate(halfline, ZERO, 0, 0) == 1
    with pytest.raises(ValueError, match="n must be non-negative"):
        weyl_estimate(halfline, ZERO, -1, 2)
    with pytest.raises(ValueError, match="M must be non-negative"):
        weyl_estimate(halfline, ZERO, 1, -3)


def test_distance_to_empty_shift():
    from shiftgeo.errors import EmptyShiftError
    from shiftgeo.shifts import ShiftPresentation
    empty = ShiftPresentation(BINARY, [], [])
    with pytest.raises(EmptyShiftError):
        distance_to_shift(ZERO, empty)


def test_distance_to_shift_fixed_cases():
    g = golden_mean()
    assert distance_to_shift(ZERO, g) == 0
    assert distance_to_shift(ONE, g) == F(1, 2)
    assert distance_to_shift(periodic_config("110", BINARY), g) == F(1, 3)
    halfline = parse_config("inf(0).1inf(1)", BINARY)
    assert distance_to_shift(halfline, g) == F(1, 4)


def test_distance_to_shift_rejects_another_alphabet():
    """A point over another alphabet is an input error, as for
    d_besicovitch, not a distance of 1."""
    x = parse_config("inf(ab).inf(ab)", Alphabet("ab"))
    for fn in (distance_to_shift, distance_to_shift_detail):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            fn(x, golden_mean())


def test_nearest_periodic_rejects_another_alphabet():
    """A point over another alphabet is an input error, not a distance of
    1 reached by every orbit."""
    y = periodic_config("ab", Alphabet("ab"))
    with pytest.raises(ValueError, match="alphabet mismatch"):
        nearest_periodic(golden_mean(), y, 4)


def test_distance_to_shift_matches_periodic_search():
    rng = random.Random(4)
    g = golden_mean()
    specs = [("11",), ("111",), ("00",), ("010",)]
    shifts_pool = [golden_mean()] + [compile_sft(SftSpec(BINARY, s))
                                     for s in specs]
    done = 0
    while done < 25:
        Y = rng.choice(shifts_pool)
        w = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
        x = periodic_config(w, BINARY)
        detail = distance_to_shift_detail(x, Y)
        if detail.right_cycle_len > 6:
            continue
        done += 1
        best = min(
            cyclic_mismatch_density(x.right_period, ow[i:] + ow[:i])
            for ow in periodic_orbits(Y, 6) for i in range(len(ow)))
        assert best == detail.distance, (w, Y.edges)
    assert done == 25
    # independently recheck one detail: the optimal cycle word is achieving
    d = distance_to_shift_detail(ONE, g)
    assert d.right_cycle_word in ("10", "01")
    assert cyclic_density_oracle("1", d.right_cycle_word) == F(1, 2)


def test_distance_to_shift_mixed_arms_oracle():
    # configurations whose arms differ: compare against a brute force over
    # grafted eventually periodic candidates inf(u).inf(v) inside the shift
    from shiftgeo.configs import Configuration
    from shiftgeo.shifts import even_shift
    from oracle_utils import necklaces

    def graft_oracle(x, Y, max_per):
        words = [w for p in range(1, max_per + 1) for w in necklaces("01", p)]
        best = None
        for u in words:
            for v in words:
                for i in range(len(u)):
                    for j in range(len(v)):
                        y = Configuration(BINARY, u[i:] + u[:i], "", "",
                                          v[j:] + v[:j])
                        if not contains_config(Y, y):
                            continue
                        d = d_besicovitch(x, y)
                        if best is None or d < best:
                            best = d
        return best

    cases = [
        (parse_config("inf(0).1inf(1)", BINARY), golden_mean()),
        (parse_config("inf(1)0.inf(110)", BINARY), golden_mean()),
        (parse_config("inf(10).inf(111)", BINARY), even_shift()),
        (parse_config("inf(010).11inf(01)", BINARY), even_shift()),
    ]
    for x, Y in cases:
        got = distance_to_shift(x, Y)
        want = graft_oracle(x, Y, 4)
        assert got == want, (x, got, want)


def test_uap_bounded_search_is_sound():
    # at period bound 2 the only candidate ties collapse into one orbit, so
    # the search reports no violation and defers to larger bounds
    assert not unique_approximation_search(golden_mean(), 2).violation


def test_nearest_periodic():
    g = golden_mean()
    inx = periodic_config("01", BINARY)
    ms = nearest_periodic(g, inx, 4)
    assert ms.distance == 0 and ms.minimizers == [inx]
    ms = nearest_periodic(g, ONE, 4)
    assert ms.distance == F(1, 2)
    assert ms.minimizers == [periodic_config("01", BINARY)]
    ms = nearest_periodic(block_shift(), ONE, 4)
    assert ms.distance == F(1, 2)
    assert ms.minimizers == [periodic_config("01", BINARY)]
    with pytest.raises(PreconditionError):
        nearest_periodic(g, parse_config("inf(0).1inf(1)", BINARY), 4)
    with pytest.raises(PreconditionError):
        nearest_periodic(g, ONE, 0)
    for P in (0, -3):
        with pytest.raises(PreconditionError, match="period bound"):
            unique_approximation_search(g, P)
    # a shift whose shortest periodic point exceeds the bound
    orbit5 = ShiftPresentation(
        BINARY, list("abcde"),
        [("a", "b", "0"), ("b", "c", "0"), ("c", "d", "0"),
         ("d", "e", "0"), ("e", "a", "1")])
    with pytest.raises(PreconditionError, match="no periodic points"):
        nearest_periodic(orbit5, ONE, 3)


def test_nearest_periodic_representatives_achieve():
    # the representative is the least point of its orbit that achieves the
    # minimum, not necessarily the least point of the orbit
    g = golden_mean()
    y = periodic_config("110", BINARY)
    ms = nearest_periodic(g, y, 3)
    assert ms.distance == F(1, 3)
    reps = [c.right_period for c in ms.minimizers]
    assert reps == ["010"]
    assert cyclic_density_oracle("110", "010") == F(1, 3)
    assert cyclic_density_oracle("110", "001") == 1


def test_uap_full_shift_and_golden():
    assert not unique_approximation_search(full_shift(BINARY), 4).violation
    v = unique_approximation_search(golden_mean(), 6)
    assert v.violation
    assert v.witness == periodic_config("011", BINARY)
    assert v.distance == F(1, 3)
    assert len(v.minimizers) == 2
    for z in v.minimizers:
        assert contains_config(golden_mean(), z)
        assert cyclic_density_oracle("011011", z.right_period * 2) == F(1, 3)


@pytest.mark.parametrize("X, P, calls", [(block_shift(), 7, 0),
                                          (block_shift(), 8, 1),
                                          (golden_mean(), 10, 1)])
def test_uap_search_runs_the_exact_distance_only_on_ties(monkeypatch, X, P,
                                                         calls):
    # the orbit scan decides each candidate; the exact distance runs only
    # where two orbits tie, and at P = 8 the block shift's one tie is its
    # witness inf(00011011)
    seen = []
    exact = metrics.distance_to_shift
    monkeypatch.setattr(metrics, "distance_to_shift",
                        lambda y, Y: seen.append(y) or exact(y, Y))
    v = unique_approximation_search(X, P)
    assert len(seen) == calls
    assert seen == ([v.witness] if v.violation else [])


def test_uap_block_shift_boundary():
    # the two-phase closure of the aligned block set is clean through
    # period 7 and picks up its first orbit-level tie at period 8; every
    # value is checked against the brute-force parity-shift oracle
    X = block_shift()
    assert parity_shift_uap_oracle(7) is None
    assert not unique_approximation_search(X, 7).violation
    want_w, want_d, want_orbits = parity_shift_uap_oracle(8)
    v = unique_approximation_search(X, 8)
    assert v.violation
    assert v.witness == periodic_config(want_w, BINARY) \
        == periodic_config("00011011", BINARY)
    assert v.distance == want_d == F(1, 4)
    assert sorted(least_rotation(z.right_period) for z in v.minimizers) \
        == sorted(want_orbits)
    assert sorted(z.period for z in v.minimizers) == [4, 8]
    assert periodic_orbits(X, 8) == parity_shift_orbits(8)
    for p in range(1, 9):
        for w in necklaces("01", p):
            assert distance_to_shift(periodic_config(w, BINARY), X) \
                == parity_shift_distance(w), w


def _karp_calls(monkeypatch, fn, x, Y) -> list[list[int]]:
    """The node lists of the Karp calls that fn(x, Y) makes."""
    calls = []
    karp = metrics._graph.karp_min_mean
    with monkeypatch.context() as m:
        m.setattr(metrics._graph, "karp_min_mean",
                  lambda nodes, edges: calls.append(nodes)
                  or karp(nodes, edges))
        fn(x, Y)
    return calls


def _right_arm(x, nodes) -> bool:
    word, _succ, _nl, r0 = metrics._position_graph(x)
    return all(v % len(word) >= r0 for v in nodes)


@pytest.mark.parametrize("w", ["0011010011", "011", "0101101001101",
                               "0010110010110010111"])
def test_periodic_point_runs_karp_once_per_right_component(monkeypatch, w):
    # the oracle runs Karp on every component of both arms, and the one
    # copy a periodic point searches has one component per twin pair
    x = periodic_config(w, BINARY)
    calls = _karp_calls(monkeypatch, distance_to_shift_detail, x, sft14())
    both = _karp_calls(monkeypatch, distance_to_shift_detail_oracle, x,
                       sft14())
    assert calls and len(both) == 2 * len(calls)


@pytest.mark.parametrize("text", ["inf(0011010011).inf(0011010011)",
                                  "inf(0011).1inf(011)"])
def test_karp_reads_the_product_adjacency_in_place(monkeypatch, text):
    """Every Karp call gets the one product adjacency itself, not a copy of
    a component's edges, and a periodic point runs Karp once per cyclic
    component (more than one node, or a self-loop) of its one copy."""
    calls = []
    karp = metrics._graph.karp_min_mean
    monkeypatch.setattr(metrics._graph, "karp_min_mean",
                        lambda nodes, edges: calls.append((nodes, edges))
                        or karp(nodes, edges))
    x, Y = parse_config(text, BINARY), sft14()
    distance_to_shift_detail(x, Y)
    edges = calls[0][1]
    assert all(e is edges for (_nodes, e) in calls)
    assert len(edges) == len(Y.states) * len(metrics._position_graph(x)[0])
    if x.is_periodic:
        succ = [[t for (t, _w) in row] for row in edges]
        cyclic = [c for c in strongly_connected_components_oracle(
            len(succ), succ) if len(c) > 1 or c[0] in succ[c[0]]]
        assert sorted(nodes for (nodes, _e) in calls) == sorted(cyclic)


@pytest.mark.parametrize("w", ["0011010011", "011", "01"])
def test_periodic_point_searches_one_product_copy(monkeypatch, w):
    """Tarjan sees |Q| p nodes for a periodic point of period p, not the
    2 |Q| p of a product copy per arm."""
    sizes = []
    scc = metrics._graph.strongly_connected_components
    monkeypatch.setattr(metrics._graph, "strongly_connected_components",
                        lambda n, succ: sizes.append(n) or scc(n, succ))
    Y = sft14()
    distance_to_shift_detail(periodic_config(w, BINARY), Y)
    assert sizes == [len(Y.states) * len(w)]


def test_equal_arm_twins_reuse_in_either_emission_order(monkeypatch):
    # the block shift at period 2 has two components per arm; Tarjan emits
    # one pair right twin first and the other left twin first
    x = parse_config("inf(10).1inf(10)", BINARY)
    calls = _karp_calls(monkeypatch, distance_to_shift_detail, x,
                        block_shift())
    assert sorted(_right_arm(x, nodes) for nodes in calls) == [False, True]


@pytest.mark.parametrize("literal", ["inf(01)1.inf(0111)",
                                     "inf(0011)10.01inf(011)",
                                     "inf(0111).inf(1110)"])
def test_unequal_arms_run_karp_on_every_component(monkeypatch, literal):
    x = parse_config(literal, BINARY)
    assert x.left_period != x.right_period
    calls = _karp_calls(monkeypatch, distance_to_shift_detail, x, sft14())
    both = _karp_calls(monkeypatch, distance_to_shift_detail_oracle, x,
                       sft14())
    assert len(calls) == len(both) > 0


def test_long_finite_part_costs_linear_memory():
    """A finite part of 1000 cells gives about 14 000 one-node components;
    the best right cycle is folded along the condensation DAG, so memory
    stays small where a reach set per component grew quadratically."""
    r = random.Random(1000)
    mid = "".join(r.choice("01") for _ in range(1000))
    x = parse_config(f"inf(01){mid}.inf(011)", BINARY)
    Y = sft14()
    tracemalloc.start()
    try:
        d = distance_to_shift_detail(x, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak
    # the points of Y nearest inf(01) differ from it once per 6 cells, and
    # inf(011) lies in Y
    assert (d.distance, d.left_mean, d.right_mean) == (F(1, 12), F(1, 6), 0)
    assert d.right_cycle_word == "011"
