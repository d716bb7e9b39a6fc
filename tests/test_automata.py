import gc
import itertools
import random
import weakref
from fractions import Fraction as F

import pytest

from shiftgeo import automata, metrics, shifts
from shiftgeo.configs import Alphabet, BINARY, parse_config, periodic_config, \
    shift
from shiftgeo.errors import PreconditionError
from shiftgeo.automata import (CellularAutomaton, apply_ca, apply_cyclic,
                               ca_pseudometric, check_on_subshift,
                               classify_full_shift, elementary_ca,
                               isometric_ca_precondition,
                               isometry_decomposition, minimal_neighborhood,
                               minimal_neighborhood_on, preserves_shift)
from shiftgeo.metrics import d_besicovitch, nearest_periodic, \
    unique_approximation_search
from shiftgeo.shifts import (ShiftPresentation, SftSpec, compile_sft,
                             disjoint_union, even_shift, full_shift,
                             golden_mean)
from oracle_utils import apply_cyclic_oracle, eca_table, rand_config

A4 = Alphabet("0123")


def and_rule():
    """Turns every 01 into 00: output is min(left, center)."""
    return CellularAutomaton(BINARY, -1, 0,
                             {"00": "0", "01": "0", "10": "0", "11": "1"})


def test_table_validation():
    with pytest.raises(ValueError):
        CellularAutomaton(BINARY, 0, 0, {"0": "0"})
    with pytest.raises(ValueError):
        CellularAutomaton(BINARY, 1, 0, {})
    with pytest.raises(ValueError):
        elementary_ca(256)


def test_apply_examples():
    x = parse_config("inf(0).1inf(1)", BINARY)
    assert apply_ca(elementary_ca(204), x) == x
    shift_rule = CellularAutomaton(BINARY, 1, 1, {"0": "0", "1": "1"})
    assert apply_ca(shift_rule, x) == shift(x, 1)
    x01 = periodic_config("01", BINARY)
    assert apply_ca(elementary_ca(90), x01) == \
        parse_config("inf(0).inf(0)", BINARY)


def test_apply_commutes_with_shift():
    rng = random.Random(6)
    for _ in range(50):
        f = elementary_ca(rng.randrange(256))
        x = rand_config(rng, BINARY)
        k = rng.randint(-5, 5)
        assert apply_ca(f, shift(x, k)) == shift(apply_ca(f, x), k)


def test_apply_cyclic_matches_oracle():
    rng = random.Random(9)
    for _ in range(40):
        rule = rng.randrange(256)
        w = "".join(rng.choice("01") for _ in range(rng.randint(1, 7)))
        assert apply_cyclic(elementary_ca(rule), w) == \
            apply_cyclic_oracle(eca_table(rule), -1, 1, w)


class CountingTable(dict):
    """A rule table that counts its reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def _wide_rule(out) -> CellularAutomaton:
    """The binary rule of width 10 whose output is out(pattern), its table
    counting reads."""
    pats = ("".join(t) for t in itertools.product("01", repeat=10))
    return CellularAutomaton(BINARY, 0, 9,
                             CountingTable({p: out(p) for p in pats}))


def test_classify_reads_a_wide_table_once():
    """A rule that depends on its last cell only is classified from one
    read of each of its 2^10 entries (joining a string per pattern and
    offset took 9220 reads)."""
    f = _wide_rule(lambda p: p[-1])
    rep = classify_full_shift(f)
    assert rep.isometric and rep.decomposition == (9, {"0": "0", "1": "1"})
    assert f.table.reads <= 2 ** 10


def test_classify_majority_reads_the_table_once_plus_the_witness():
    """The width-10 majority rule depends on every cell: one read of each
    entry, then 2 * 19 for the images of the two witness words of period
    2r - 1 = 19 (1702 reads through joined strings)."""
    f = _wide_rule(lambda p: "1" if p.count("1") > 5 else "0")
    rep = classify_full_shift(f)
    assert not rep.contracting and rep.witness[2] == F(1, 19)
    assert f.table.reads <= 2 ** 10 + 2 * 19


def test_minimal_neighborhood():
    assert minimal_neighborhood(elementary_ca(204)).span == (0, 0)
    assert minimal_neighborhood(elementary_ca(170)).span == (1, 1)
    info = minimal_neighborhood(elementary_ca(90))
    assert info.span == (-1, 1) and info.mask == (True, False, True)
    assert info.essential == (-1, 1)
    assert minimal_neighborhood(elementary_ca(0)).span is None


def test_classify_isometries():
    rep = classify_full_shift(elementary_ca(204))
    assert rep.isometric and rep.expanding and rep.contracting
    assert rep.decomposition == (0, {"0": "0", "1": "1"})
    assert isometry_decomposition(elementary_ca(170)) == \
        (1, {"0": "0", "1": "1"})
    assert isometry_decomposition(elementary_ca(51)) == \
        (0, {"0": "1", "1": "0"})
    with pytest.raises(PreconditionError):
        isometry_decomposition(elementary_ca(232))


def test_classify_witnesses():
    rep = classify_full_shift(elementary_ca(232))
    assert not rep.contracting
    x, y, din, dout = rep.witness
    assert din == F(1, 5) and dout >= F(2, 5)
    assert d_besicovitch(x, y) == din
    f = elementary_ca(232)
    assert d_besicovitch(apply_ca(f, x), apply_ca(f, y)) == dout


def test_classify_contracting_set():
    # the eight single-cell rules: two constants plus identity/negation at
    # each of the three offsets
    contracting = {rule for rule in range(256)
                   if classify_full_shift(elementary_ca(rule)).contracting}
    assert contracting == {0, 255, 204, 51, 240, 15, 170, 85}
    isometric = {rule for rule in range(256)
                 if classify_full_shift(elementary_ca(rule)).isometric}
    assert isometric == {204, 51, 240, 15, 170, 85}


def test_minimal_neighborhood_on_subshift():
    # rule 4 fires exactly on isolated ones, so it is the identity on the
    # no-11 shift although its full-shift neighborhood has size 3
    f4 = elementary_ca(4)
    assert minimal_neighborhood(f4).size == 3
    assert minimal_neighborhood_on(f4, golden_mean()) == (0,)
    # rule 138 restricted to the even shift reads only its right neighbor
    assert minimal_neighborhood_on(elementary_ca(138), even_shift()) == (1,)
    assert minimal_neighborhood_on(elementary_ca(0), golden_mean()) == ()


def test_minimal_neighborhood_on_rejects_another_alphabet():
    ab_shift = compile_sft(SftSpec(Alphabet("ab"), ("bb",)))
    with pytest.raises(ValueError, match="alphabet mismatch"):
        minimal_neighborhood_on(elementary_ca(30), ab_shift)


def test_preserves_shift():
    g111 = compile_sft(SftSpec(BINARY, ("111",)))
    assert preserves_shift(and_rule(), g111)
    assert preserves_shift(elementary_ca(204), golden_mean())
    assert not preserves_shift(elementary_ca(90), golden_mean())
    assert not preserves_shift(elementary_ca(255), golden_mean())


def test_contracting_example_small():
    g111 = compile_sft(SftSpec(BINARY, ("111",)))
    chk = check_on_subshift(and_rule(), g111, 6)
    assert chk.contracting is None
    # but it is not an isometry
    assert chk.isometric is not None


@pytest.mark.parametrize("P", [0, -3])
def test_check_on_subshift_rejects_non_positive_period(P):
    with pytest.raises(PreconditionError, match="period bound"):
        check_on_subshift(elementary_ca(204), golden_mean(), P)


def test_golden_survey_lists_the_orbits_once(monkeypatch):
    """The 56 radius-1 rules that preserve the golden mean shift, checked
    on one presentation at P = 8, share one orbit plan: one periodic_orbits
    call.  A lower bound reads a prefix of that plan and builds none; a
    higher bound builds one plan, which then serves every lower bound."""
    calls = []
    real = metrics.periodic_orbits
    monkeypatch.setattr(metrics, "periodic_orbits",
                        lambda X, P: calls.append(P) or real(X, P))
    X = golden_mean()
    survey = [f for f in map(elementary_ca, range(256))
              if preserves_shift(f, X)]
    assert len(survey) == 56
    for f in survey:
        check_on_subshift(f, X, 8)
    assert calls == [8]
    check_on_subshift(survey[0], X, 5)
    check_on_subshift(survey[1], X, 8)
    assert calls == [8]
    check_on_subshift(survey[2], X, 9)
    check_on_subshift(survey[3], X, 5)
    check_on_subshift(survey[4], X, 9)
    assert calls == [8, 9]


def test_presentation_frees_its_one_plan_by_reference_count():
    """The orbit plan holds no reference to its presentation: with the
    cycle collector off, deleting a presentation that every kind of orbit
    query has used frees it and its plan.  A sweep of bounds up and back
    down leaves exactly one plan, at the largest bound."""

    class Probe(ShiftPresentation):
        __slots__ = ("__weakref__",)

    g = golden_mean()
    gc.disable()
    try:
        X = Probe(g.alphabet, g.states, g.edges)
        check_on_subshift(elementary_ca(184), X, 6)
        nearest_periodic(X, periodic_config("011", BINARY), 7)
        unique_approximation_search(X, 5)
        isometric_ca_precondition(X, "0", 3, 4)
        # the plan's slots take no weak reference; its correlator, which
        # only the plan holds, goes when the plan does
        alive, corr = weakref.ref(X), weakref.ref(X._orbit_plan.corr)
        assert X._orbit_plan.P == 7
        del X
        assert alive() is None and corr() is None
    finally:
        gc.enable()
    X = full_shift(BINARY)
    f = elementary_ca(170)
    for P in range(1, 13):
        check_on_subshift(f, X, P)
        assert X._orbit_plan.P == P
    plan = X._orbit_plan
    for P in range(11, 0, -1):
        check_on_subshift(f, X, P)
        assert X._orbit_plan is plan
    assert isinstance(plan, metrics._OrbitPlan) and plan.P == 12


def test_mutating_outputs_leaves_later_checks_unchanged():
    """A returned witness and a periodic_orbits list are the caller's own:
    changing them changes no later check on the same presentation."""
    X = golden_mean()
    f, g = elementary_ca(0), elementary_ca(184)
    first = [check_on_subshift(h, golden_mean(), 6) for h in (f, g)]
    chk = check_on_subshift(f, X, 6)
    assert chk == first[0] and chk.isometric is not None
    chk.isometric.x = chk.isometric.y
    chk.isometric.d_in = F(99)
    chk.contracting = None
    orbits = shifts.periodic_orbits(X, 6)
    orbits.reverse()
    orbits.append("1")
    assert [check_on_subshift(h, X, 6) for h in (f, g)] == first


def test_identity_isometric_on_golden():
    chk = check_on_subshift(elementary_ca(204), golden_mean(), 6)
    assert chk.isometric is None and chk.contracting is None \
        and chk.expanding is None


def test_two_component_isometry_with_wide_neighborhood():
    # identity on one full shift, shift on the other: isometric although the
    # true neighborhood has size two
    X = disjoint_union(full_shift(BINARY), full_shift(Alphabet("23")))
    table = {}
    for a in "0123":
        for b in "0123":
            table[a + b] = a if a in "01" else b
    f = CellularAutomaton(A4, 0, 1, table)
    assert minimal_neighborhood(f).size == 2
    chk = check_on_subshift(f, X, 4)
    assert chk.isometric is None


def test_conjugacy_probe():
    # pair tracks: symbol s encodes (s >> 1, s & 1); swapping tracks is an
    # isometry, its conjugate by the half-track shift is not
    swap = CellularAutomaton(
        A4, 0, 0, {s: "0123"[((int(s) & 1) << 1) | (int(s) >> 1)]
                   for s in "0123"})
    X = full_shift(A4)
    chk = check_on_subshift(swap, X, 3)
    assert chk.isometric is None
    conj_table = {}
    for a, b, c in itertools.product("0123", repeat=3):
        out = ((int(a) & 1) << 1) | (int(c) >> 1)
        conj_table[a + b + c] = "0123"[out]
    conj = CellularAutomaton(A4, -1, 1, conj_table)
    chk2 = check_on_subshift(conj, X, 4)
    assert chk2.isometric is not None
    w = chk2.isometric
    assert w.d_in != w.d_out
    assert d_besicovitch(apply_ca(conj, w.x), apply_ca(conj, w.y)) == w.d_out


@pytest.mark.parametrize("L, P, bound", [(0, 4, "factor length"),
                                         (-2, 4, "factor length"),
                                         (3, 0, "period"), (3, -1, "period")])
def test_rigidity_precondition_rejects_non_positive_bounds(L, P, bound):
    with pytest.raises(PreconditionError, match=f"{bound} bound"):
        isometric_ca_precondition(golden_mean(), "0", L, P)


def test_rigidity_precondition():
    assert isometric_ca_precondition(golden_mean(), "0", 4, 9).passed
    assert isometric_ca_precondition(even_shift(), "0", 4, 9).passed
    orbit = ShiftPresentation(BINARY, ["a", "b"],
                              [("a", "b", "0"), ("b", "a", "1")])
    assert not isometric_ca_precondition(orbit, "0", 1, 4).passed


def test_check_on_subshift_tests_a_rule_on_a_shift_once(monkeypatch):
    """The verdict that a rule maps X into X is kept on X's orbit plan: a
    second check of the rule on X, at any bound the plan serves, runs no
    preserves_shift, while another presentation of the same shift and a
    rule that does not preserve X are tested on every call."""
    calls = []
    real = automata.preserves_shift
    monkeypatch.setattr(automata, "preserves_shift",
                        lambda f, X: calls.append(f) or real(f, X))
    X, f, g = golden_mean(), elementary_ca(184), elementary_ca(90)
    first = check_on_subshift(f, X, 6)
    assert check_on_subshift(f, X, 5).period_bound == 5
    assert check_on_subshift(elementary_ca(184), X, 6) == first
    assert calls == [f]
    assert check_on_subshift(f, golden_mean(), 6) == first
    for _ in range(2):
        with pytest.raises(PreconditionError):
            check_on_subshift(g, X, 6)
    assert calls == [f, f, g, g]


def test_periodic_points_make_no_contains_config_call(monkeypatch):
    """Periodic points are tested by the cycle flags of the transition
    monoid alone: no contains_config call.  On the full 2-shift every word
    has the one relation of the one state, so the walk to P = 20 interns
    one element and computes at most |A| images; every other node is a
    table lookup."""
    calls = []
    real = shifts.contains_config
    for module in (shifts, automata):
        monkeypatch.setattr(module, "contains_config",
                            lambda X, x: calls.append(x) or real(X, x),
                            raising=False)
    monoids, images = [], []
    init, image = shifts._RelationMonoid.__init__, \
        shifts._RelationMonoid.image
    monkeypatch.setattr(shifts._RelationMonoid, "__init__",
                        lambda M, X: init(M, X) or monoids.append(M))
    monkeypatch.setattr(shifts._RelationMonoid, "image",
                        lambda M, e, b: images.append(b) or image(M, e, b))
    # 111013 binary Lyndon words of length <= 20 (Moebius count)
    assert len(shifts.periodic_orbits(full_shift(BINARY), 20)) == 111013
    assert [len(M.relations) for M in monoids] == [1]
    assert len(images) <= len(BINARY)
    assert shifts.periodic_orbits(golden_mean(), 4) == \
        ["0", "01", "001", "0001"]
    assert isometric_ca_precondition(golden_mean(), "0", 3, 6).passed
    assert not isometric_ca_precondition(even_shift(), "1", 2, 4).passed
    assert calls == []


def test_ca_dict_roundtrip():
    f = elementary_ca(110)
    g = CellularAutomaton.from_dict(f.to_dict())
    assert g.table == f.table and (g.left, g.right) == (-1, 1)


def test_ca_pseudometric():
    ident, neg = elementary_ca(204), elementary_ca(51)
    assert ca_pseudometric(ident, ident, "0110", "0", origin=2) == 0
    assert ca_pseudometric(ident, neg, "0", "0") == 1
    assert ca_pseudometric(elementary_ca(170), ident, "00", "0") == 0
