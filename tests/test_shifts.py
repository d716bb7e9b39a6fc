import itertools
import random

import pytest

from shiftgeo import shifts
from shiftgeo.configs import Alphabet, BINARY, is_unbordered, parse_config, \
    periodic_config
from shiftgeo.errors import CapError, EmptyShiftError, PreconditionError
from shiftgeo.shifts import (ShiftPresentation, SftSpec, compile_sft,
                             contains_config, disjoint_union, even_shift,
                             full_shift, golden_mean, intersect, language,
                             language_equal, mixing_distance,
                             mixing_sft_inside, periodic_orbits,
                             positive_entropy, shannon_cover,
                             transitive_components,
                             find_unbordered_synchronizing)
from oracle_utils import avoiding_words, cyclic_avoids, factor_oracle, \
    necklaces, periodic_orbits_oracle, sft14

A012 = Alphabet("012")


def triangle_union():
    return ShiftPresentation(
        A012, ["a", "b", "c"],
        [("a", "a", "0"), ("a", "a", "1"), ("b", "b", "1"), ("b", "b", "2"),
         ("c", "c", "2"), ("c", "c", "0")])


def test_compile_sft_examples():
    g = golden_mean()
    assert len(g.states) == 2
    assert g.is_deterministic()
    assert compile_sft(SftSpec(BINARY, ())).to_dict()["states"] == ["q0"]
    # one-symbol forbidden words take the higher-block path with m = 1
    assert compile_sft(SftSpec(A012, ("1",))).to_dict() == {
        "alphabet": "012", "states": ["q0"],
        "edges": [{"from": "q0", "to": "q0", "label": "0"},
                  {"from": "q0", "to": "q0", "label": "2"}]}
    with pytest.raises(EmptyShiftError, match="rule out every point"):
        compile_sft(SftSpec(BINARY, ("0", "1")))


def test_language_examples():
    g = golden_mean()
    assert language(g, 2) == ["00", "01", "10"]
    assert language(full_shift(BINARY), 3) == sorted(
        "".join(t) for t in itertools.product("01", repeat=3))
    # factor counts follow the Fibonacci recurrence
    counts = [len(language(g, n)) for n in range(1, 13)]
    for i in range(2, len(counts)):
        assert counts[i] == counts[i - 1] + counts[i - 2]


def test_language_rejects_negative_length():
    assert language(golden_mean(), 0) == [""]
    for X in (golden_mean(), ShiftPresentation(BINARY, [], [])):
        with pytest.raises(ValueError, match="non-negative"):
            language(X, -2)


def test_language_matches_forbidden_oracle():
    # for these SFTs every avoiding word is extendable, so language =
    # avoiding words exactly
    for forbidden in (("11",), ("111",), ("00", "11")):
        X = compile_sft(SftSpec(BINARY, forbidden))
        for n in range(1, 11):
            assert language(X, n) == avoiding_words("01", n, forbidden)


def test_language_extendability_oracle_random_sfts():
    rng = random.Random(3)
    for _ in range(10):
        nf = rng.randint(1, 3)
        forbidden = tuple({"".join(rng.choice("01")
                                   for _ in range(rng.randint(2, 4)))
                           for _ in range(nf)})
        try:
            X = compile_sft(SftSpec(BINARY, forbidden))
        except EmptyShiftError:
            continue
        for n in (1, 3, 5):
            got = set(language(X, n))
            want = {w for w in avoiding_words("01", n, forbidden)
                    if factor_oracle("01", w, forbidden)}
            assert got == want, (forbidden, n)


def test_shannon_cover_sizes():
    assert len(shannon_cover(golden_mean()).states) == 2
    assert len(shannon_cover(even_shift()).states) == 2
    assert len(shannon_cover(full_shift(BINARY)).states) == 1


def test_shannon_cover_fixpoint_and_language():
    for X in (golden_mean(), even_shift(), triangle_union()):
        C = shannon_cover(X)
        assert language_equal(C, X)
        C2 = shannon_cover(C)
        assert len(C2.states) == len(C.states)
        assert C.is_deterministic()


def test_shannon_cover_builds_once_per_presentation(monkeypatch):
    built = []
    real = shifts._subset_graph
    monkeypatch.setattr(shifts, "_subset_graph",
                        lambda X, rows: built.append(X) or real(X, rows))
    X = triangle_union()
    C = shannon_cover(X)
    assert shannon_cover(X) is C and shannon_cover(X) is C
    assert built == [X]
    # an equal presentation is another object with its own cover
    assert shannon_cover(triangle_union()) is not C
    assert len(built) == 2
    # a cover does not count as its own cover: its cover is built from it
    C2 = shannon_cover(C)
    assert built[2] is C and len(built) == 3
    assert shannon_cover(C) is C2 and len(built) == 3


def test_shannon_cover_random_presentations_sound():
    # covers of arbitrary labeled graphs stay language-equal and determinize
    rng = random.Random(17)
    built = 0
    while built < 15:
        n = rng.randint(1, 4)
        states = [f"s{i}" for i in range(n)]
        edges = []
        for s_ in states:
            for a in "01":
                for t in rng.sample(states, rng.randint(0, n)):
                    edges.append((s_, t, a))
        X = ShiftPresentation(BINARY, states, edges)
        if X.is_empty:
            continue
        built += 1
        C = shannon_cover(X)
        assert C.is_deterministic()
        assert language_equal(C, X)
        assert len(shannon_cover(C).states) == len(C.states)


def test_transitive_components():
    assert len(transitive_components(golden_mean()).components) == 1
    two = disjoint_union(full_shift(BINARY), full_shift(Alphabet("23")))
    assert len(transitive_components(two).components) == 2
    dec = transitive_components(triangle_union())
    assert len(dec.components) == 3
    for comp in dec.components:
        assert sorted(language(comp, 1)) in (["0", "1"], ["0", "2"],
                                             ["1", "2"])


def test_mixing_distance_values():
    assert mixing_distance(full_shift(BINARY)) == 0
    assert mixing_distance(golden_mean()) == 1
    assert mixing_distance(even_shift()) == 2


@pytest.mark.parametrize("X,m", [(full_shift(BINARY), 0),
                                 (golden_mean(), 1), (even_shift(), 2)])
def test_mixing_distance_soundness(X, m):
    words = [w for n in range(1, 5) for w in language(X, n)]
    for n in range(m, m + 4):
        for u in words:
            for v in words:
                assert any(X.accepts_word(u + "".join(w) + v)
                           for w in itertools.product("01", repeat=n)), \
                    (u, v, n)
    if m >= 1:
        bad = [(u, v) for u in words for v in words
               if not any(X.accepts_word(u + "".join(w) + v)
                          for w in itertools.product("01", repeat=m - 1))]
        assert bad


def test_mixing_distance_errors():
    orbit = ShiftPresentation(BINARY, ["a", "b"],
                              [("a", "b", "0"), ("b", "a", "1")])
    with pytest.raises(PreconditionError, match="period"):
        mixing_distance(orbit)
    reducible = ShiftPresentation(
        BINARY, ["a", "b"],
        [("a", "a", "0"), ("a", "b", "1"), ("b", "b", "1")])
    with pytest.raises(PreconditionError):
        mixing_distance(reducible)


def _is_synchronizing(X, w):
    return len(X.read(X.states, w)) == 1


@pytest.mark.parametrize("X,expected", [
    (golden_mean(), "0"), (even_shift(), "1"), (full_shift(BINARY), "0")])
def test_find_unbordered_synchronizing(X, expected):
    w = find_unbordered_synchronizing(X)
    assert w == expected
    C = shannon_cover(X)
    assert is_unbordered(w) and _is_synchronizing(C, w)
    # nothing shorter or lexicographically smaller qualifies
    for length in range(1, len(w) + 1):
        for cand in itertools.product("01", repeat=length):
            cand = "".join(cand)
            if length == len(w) and cand >= w:
                break
            assert not (is_unbordered(cand) and _is_synchronizing(C, cand))


def test_sync_word_cap():
    orbit = ShiftPresentation(BINARY, ["a", "b"],
                              [("a", "b", "0"), ("b", "a", "0")])
    # the periodic orbit of 0 has cover = 1 state; every word synchronizes
    assert find_unbordered_synchronizing(orbit) == "0"
    # on the orbit of 0011 no symbol synchronizes; 01 is the first word
    orbit4 = ShiftPresentation(BINARY, ["a", "b", "c", "d"], [
        ("a", "b", "0"), ("b", "c", "0"), ("c", "d", "1"), ("d", "a", "1")])
    with pytest.raises(CapError):
        find_unbordered_synchronizing(orbit4, cap=1)
    assert find_unbordered_synchronizing(orbit4, cap=2) == "01"
    for cap in (0, -5):
        with pytest.raises(PreconditionError,
                           match="word length cap must be positive"):
            find_unbordered_synchronizing(even_shift(), cap=cap)


def test_positive_entropy():
    assert positive_entropy(full_shift(BINARY))
    assert positive_entropy(golden_mean())
    orbit = ShiftPresentation(BINARY, ["a", "b"],
                              [("a", "b", "0"), ("b", "a", "1")])
    assert not positive_entropy(orbit)


def test_mixing_sft_inside_preconditions():
    orbit = ShiftPresentation(BINARY, ["a", "b"],
                              [("a", "b", "0"), ("b", "a", "1")])
    with pytest.raises(PreconditionError):
        mixing_sft_inside(orbit)


@pytest.mark.parametrize("X", [even_shift(), full_shift(BINARY)])
def test_mixing_sft_inside(X):
    res = mixing_sft_inside(X)
    w, u, v = res.w, res.u, res.v
    C = shannon_cover(X)
    assert is_unbordered(w) and _is_synchronizing(C, w)
    assert u != v and w not in u and w not in v
    assert len(v) == len(u) + 1
    assert X.accepts_word(w + u + w) and X.accepts_word(w + v + w)
    assert positive_entropy(res.shift)
    mixing_distance(res.shift)  # raises if not mixing
    for n in range(1, 11):
        assert set(language(res.shift, n)) <= set(language(X, n))


def test_mixing_sft_inside_values():
    assert (mixing_sft_inside(even_shift()).w,
            mixing_sft_inside(even_shift()).u,
            mixing_sft_inside(even_shift()).v) == ("01", "0", "10")
    res = mixing_sft_inside(full_shift(BINARY))
    assert (res.w, res.u, res.v) == ("0", "", "1")


def test_intersect():
    g = golden_mean()
    assert language_equal(intersect(g, g), g)
    X01 = ShiftPresentation(A012, ["a"], [("a", "a", "0"), ("a", "a", "1")])
    X12 = ShiftPresentation(A012, ["b"], [("b", "b", "1"), ("b", "b", "2")])
    Z = intersect(X01, X12)
    assert language(Z, 3) == ["111"]
    no00 = compile_sft(SftSpec(BINARY, ("00",)))
    W = intersect(g, no00)
    assert language(W, 4) == ["0101", "1010"]
    # empty intersections are representable and queryable
    X02 = ShiftPresentation(A012, ["c"], [("c", "c", "2")])
    E = intersect(X01, X02)
    assert E.is_empty and language(E, 1) == []
    with pytest.raises(ValueError, match="alphabet"):
        intersect(g, X01)


def test_contains_config():
    g = golden_mean()
    assert contains_config(g, parse_config("inf(0).inf(0)", BINARY))
    assert not contains_config(g, parse_config("inf(1).inf(1)", BINARY))
    assert contains_config(g, parse_config("inf(10).inf(10)", BINARY))
    assert contains_config(g, parse_config("inf(0)1.001inf(01)", BINARY))
    assert not contains_config(g, parse_config("inf(0)11.inf(0)", BINARY))
    e = even_shift()
    assert contains_config(e, parse_config("inf(0).1inf(0)", BINARY))
    assert not contains_config(e, parse_config("inf(0)1.0 1inf(0)", BINARY))


def test_contains_random_periodic_vs_oracle():
    g = golden_mean()
    for p in range(1, 8):
        for w in necklaces("01", p):
            want = cyclic_avoids(w, ("11",))
            assert contains_config(g, periodic_config(w, BINARY)) == want


def test_presentation_dict_roundtrip():
    for X in (golden_mean(), even_shift(), triangle_union()):
        Y = ShiftPresentation.from_dict(X.to_dict())
        assert language_equal(X, Y)


def test_periodic_orbits():
    got = periodic_orbits(golden_mean(), 4)
    assert got == ["0", "01", "001", "0001"]
    assert periodic_orbits(full_shift(BINARY), 3) == \
        ["0", "1", "01", "001", "011"]


def _mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def test_orbit_counts_match_trace_formula():
    """On a higher-block graph with adjacency matrix A, X has tr(A^d) points
    of period d, so (1/n) sum_{d|n} mu(n/d) tr(A^d) orbits of least period
    n (Lind and Marcus, sections 2.2 and 6.4)."""
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        syms = "01" if rng.random() < 0.6 else "012"
        forbidden = tuple(
            "".join(rng.choice(syms) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(0, 3)))
        try:
            X = compile_sft(SftSpec(Alphabet(syms), forbidden))
        except EmptyShiftError:
            continue
        checked += 1
        P = 10 if syms == "01" else 7
        idx = {s: i for i, s in enumerate(X.states)}
        A = [[0] * len(idx) for _ in idx]
        for (s, t, _a) in X.edges:
            A[idx[s]][idx[t]] += 1
        traces, M = [], A
        for _ in range(P):
            traces.append(sum(M[i][i] for i in range(len(M))))
            M = [[sum(r[k] * A[k][j] for k in range(len(A)))
                  for j in range(len(A))] for r in M]
        orbits = periodic_orbits(X, P)
        for n in range(1, P + 1):
            total = sum(_mobius(n // d) * traces[d - 1]
                        for d in range(1, n + 1) if n % d == 0)
            assert total % n == 0
            assert sum(len(w) == n for w in orbits) == total // n, \
                (syms, forbidden, n)


def test_periodic_orbits_of_one_symbol_need_no_recursion():
    assert periodic_orbits(full_shift(Alphabet("0")), 3000) == ["0"]


@pytest.mark.parametrize("X", [full_shift(Alphabet("210")), golden_mean()],
                         ids=["full3-210", "golden"])
@pytest.mark.parametrize("P", [0, 1, 2])
def test_periodic_orbits_at_the_leaf_level(X, P):
    """At P <= 2 the words of length P are the leaves their parents emit
    (at P = 1 the roots themselves): the same list as the word loop."""
    assert periodic_orbits(X, P) == periodic_orbits_oracle(X, P)


@pytest.mark.parametrize("X, P", [(full_shift(BINARY), 14), (sft14(), 14),
                                  (full_shift(A012), 9)],
                         ids=["full2", "sft14", "full3"])
def test_orbit_walk_steps_each_element_once_per_symbol(monkeypatch, X, P):
    """The cached child lists step through the monoid's ``succ`` table:
    each image of an element by a symbol is computed at most once per
    walk (on three symbols the child lists of two kept symbols share a
    larger symbol)."""
    seen = []
    real = shifts._RelationMonoid.image

    def image(self, e, b):
        seen.append((id(self), e, b))
        return real(self, e, b)

    monkeypatch.setattr(shifts._RelationMonoid, "image", image)
    assert periodic_orbits(X, P)
    assert seen and len(seen) == len(set(seen))


def test_lyndon_words_edge_cases():
    """periodic_orbits on a full shift lists its Lyndon words."""
    for P in (0, -1, -5):
        assert periodic_orbits(full_shift(BINARY), P) == []
    empty = ShiftPresentation(BINARY, ["a", "b"], [("a", "b", "0")])
    assert empty.is_empty
    assert periodic_orbits(empty, 6) == []
    # the order is by length, then by the alphabet's order, and each word
    # is the least of its rotations in that order too
    assert periodic_orbits(full_shift(Alphabet("10")), 3) == \
        ["1", "0", "10", "110", "100"]
