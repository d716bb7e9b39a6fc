import math
from fractions import Fraction as F

import pytest

from shiftgeo.configs import Alphabet, BINARY, parse_config, periodic_config
from shiftgeo.errors import PreconditionError
from shiftgeo.homotopy import (AbstractComplex, BarycentricPoint,
                               average, average_selects, complex_coordinates,
                               embed_complex, extract_complex,
                               inverse_weighted_average, lex_least_completion,
                               project)
from shiftgeo.metrics import distance_to_shift
from shiftgeo.shifts import (ShiftPresentation, disjoint_union, even_shift,
                             full_shift, golden_mean, language,
                             language_subset, mixing_distance,
                             positive_entropy)

A012 = Alphabet("012")
ZERO = parse_config("inf(0).inf(0)", BINARY)
ONE = parse_config("inf(1).inf(1)", BINARY)


def triangle_union():
    return ShiftPresentation(
        A012, ["a", "b", "c"],
        [("a", "a", "0"), ("a", "a", "1"), ("b", "b", "1"), ("b", "b", "2"),
         ("c", "c", "2"), ("c", "c", "0")])


# ---------------------------------------------------------------------------


def test_abstract_complex_closure():
    K = AbstractComplex.make(["p", "q", "r"], [["p", "q", "r"]])
    assert len(K.faces) == 7  # all nonempty subsets
    assert K.dimension() == 2
    K2 = AbstractComplex.make(["p", "q"], [])
    assert K2.faces == frozenset({frozenset({"p"}), frozenset({"q"})})
    with pytest.raises(ValueError):
        AbstractComplex.make(["p"], [["p", "z"]])


def test_inverse_weighted_average():
    pt = (F(3),)
    assert inverse_weighted_average([pt], [F(5)]) == pt
    assert inverse_weighted_average([pt, pt], [F(1), F(7)]) == pt
    assert inverse_weighted_average([(F(0),), (F(3),)], [F(1), F(2)]) == (F(1),)
    b1 = BarycentricPoint.make({"u": 1})
    b2 = BarycentricPoint.make({"v": 1})
    mid = inverse_weighted_average([b1, b2], [F(1, 2), F(1, 2)])
    assert mid.weight("u") == mid.weight("v") == F(1, 2)
    with pytest.raises(ValueError):
        inverse_weighted_average([pt], [F(0)])
    with pytest.raises(ValueError):
        inverse_weighted_average([], [])


def test_lex_least_completion():
    g = golden_mean()
    assert lex_least_completion(g, [None] * 5 ) == "00000"
    assert lex_least_completion(g, ["1", None, "1", None, "1"]) == "10101"
    with pytest.raises(PreconditionError):
        lex_least_completion(g, ["1", "1"])


def test_lex_least_completion_is_minimal():
    import itertools
    import random as _random
    rng = _random.Random(13)
    g = golden_mean()
    for _ in range(40):
        n = rng.randint(1, 8)
        constraints = [rng.choice(["0", "1", None, None]) for _ in range(n)]
        legal = ["".join(t) for t in itertools.product("01", repeat=n)
                 if g.accepts_word("".join(t))
                 and all(c is None or c == x
                         for c, x in zip(constraints, t))]
        if not legal:
            with pytest.raises(PreconditionError):
                lex_least_completion(g, constraints)
        else:
            assert lex_least_completion(g, constraints) == min(legal)


# ---------------------------------------------------------------------------
# averaging


def test_average_endpoint_laws():
    N = 63
    cases = [
        (full_shift(BINARY), 0, ZERO, ONE),
        (golden_mean(), 1, ZERO, periodic_config("01", BINARY)),
    ]
    for X, m, x, y in cases:
        for r, src in ((F(1), x), (F(0), y)):
            out = average(X, m, r, x, y, N)
            assert X.accepts_word(out)
            undefined = 0
            for pos, i in enumerate(range(-N, N + 1)):
                sel = average_selects(m, r, i)
                if sel == "x":
                    assert out[pos] == x.symbol_at(i)
                elif sel == "y":
                    assert out[pos] == y.symbol_at(i)
                else:
                    undefined += 1
            mm = max(m, 1)
            assert undefined <= (2 * mm + 2) * (math.log2(N) + 2) * 2


def test_average_half_density():
    out = average(full_shift(BINARY), 0, F(1, 2), ZERO, ONE, 31)
    dens = F(out.count("0"), len(out))
    assert abs(dens - F(1, 2)) <= F(1, 4)


def test_average_membership_and_errors():
    g = golden_mean()
    x = periodic_config("01", BINARY)
    out = average(g, 1, F(1, 3), ZERO, x, 40)
    assert g.accepts_word(out)
    with pytest.raises(PreconditionError):
        average(g, 0, F(1, 2), ZERO, x, 10)      # m below mixing distance
    with pytest.raises(PreconditionError):
        average(g, 1, F(1, 2), ONE, x, 10)       # 1^inf not in golden
    with pytest.raises(PreconditionError):
        average(g, 1, F(3, 2), ZERO, x, 10)


# ---------------------------------------------------------------------------
# projection


def test_project_fixed_cases():
    g = golden_mean()
    full = full_shift(BINARY)
    x = periodic_config("100", BINARY)
    assert project(full, g, ZERO, 1, x, 7) == x.window(-7, 7)
    assert project(full, g, ZERO, 1, ONE, 7) == ZERO.window(-7, 7)


def test_project_continuity_trend():
    g = golden_mean()
    full = full_shift(BINARY)
    m, N = 1, 60
    densities = []
    for t in (2, 4, 8, 12):
        x = periodic_config("10" * t + "1", BINARY)
        d = distance_to_shift(x, g)
        assert d == F(1, 2 * t + 1)
        out = project(full, g, ZERO, m, x, N)
        assert g.accepts_word(out)
        mism = sum(a != b for a, b in zip(out, x.window(-N, N)))
        dens = F(mism, 2 * N + 1)
        assert dens <= 2 * d + F(4 * m + 2, 2 * t + 1)
        densities.append(dens)
    assert densities == sorted(densities, reverse=True)


def test_project_errors():
    g = golden_mean()
    full = full_shift(BINARY)
    with pytest.raises(PreconditionError, match="subshift"):
        project(g, full, ZERO, 1, ZERO, 4)
    with pytest.raises(PreconditionError, match="anchor"):
        project(full, g, ONE, 1, ZERO, 4)
    with pytest.raises(PreconditionError, match="mixing"):
        project(full, g, ZERO, 0, ZERO, 4)


# ---------------------------------------------------------------------------
# embedding complexes


def test_embed_single_vertex():
    K = AbstractComplex.make(["p"], [["p"]])
    emb = embed_complex(K, full_shift(BINARY))
    assert emb.marker == "0"
    Y = emb.face_shifts[frozenset({"p"})]
    assert not Y.is_empty and positive_entropy(Y)
    mixing_distance(Y)


def test_embed_edge():
    K = AbstractComplex.make(["p", "q"], [["p", "q"]])
    X = full_shift(BINARY)
    emb = embed_complex(K, X)
    w, v = emb.marker, emb.filler
    us = emb.vertex_words
    assert len(set(us.values()) | {v}) == 3
    assert all(len(u) + 1 == len(v) for u in us.values())
    assert all(w not in u for u in list(us.values()) + [v])
    assert all(X.accepts_word(w + u + w) for u in list(us.values()) + [v])
    fp, fq = frozenset({"p"}), frozenset({"q"})
    fe = frozenset({"p", "q"})
    for face, Y in emb.face_shifts.items():
        assert language_subset(Y, X)
        assert positive_entropy(Y)
        mixing_distance(Y)
    for n in range(1, 13):
        assert set(language(emb.face_shifts[fp], n)) <= \
            set(language(emb.face_shifts[fe], n))
        assert set(language(emb.face_shifts[fq], n)) <= \
            set(language(emb.face_shifts[fe], n))


def test_embed_on_even_shift():
    K = AbstractComplex.make(["p", "q"], [["p", "q"]])
    X = even_shift()
    emb = embed_complex(K, X)
    for Y in emb.face_shifts.values():
        assert language_subset(Y, X)


# ---------------------------------------------------------------------------
# extracting complexes


def test_embed_requires_entropy():
    orbit = ShiftPresentation(BINARY, ["a", "b"],
                              [("a", "b", "0"), ("b", "a", "1")])
    K = AbstractComplex.make(["p"], [["p"]])
    with pytest.raises(PreconditionError):
        embed_complex(K, orbit)
    # entropy, then mixing, then the empty complex, then the search caps
    empty = AbstractComplex.make([], [])
    with pytest.raises(PreconditionError, match="positive entropy"):
        embed_complex(empty, orbit)
    with pytest.raises(PreconditionError, match="not mixing"):
        embed_complex(empty, ShiftPresentation(
            BINARY, ["a", "b"],
            [("a", "b", "0"), ("a", "b", "1"), ("b", "a", "0")]))
    with pytest.raises(PreconditionError, match="no vertices"):
        embed_complex(empty, full_shift(BINARY), word_cap=0)


def test_extract_component_cap():
    from shiftgeo.errors import CapError
    with pytest.raises(CapError):
        extract_complex(triangle_union(), component_cap=2)


def test_extract_irreducible():
    for X in (golden_mean(), even_shift(), full_shift(BINARY)):
        ext = extract_complex(X)
        assert len(ext.complex.vertices) == 1
        assert ext.complex.faces == frozenset({frozenset(ext.complex.vertices)})


def test_extract_two_components():
    U = disjoint_union(full_shift(BINARY), full_shift(Alphabet("23")))
    ext = extract_complex(U)
    assert len(ext.complex.vertices) == 2
    assert ext.complex.faces_of_size(2) == []


def test_extract_hollow_triangle():
    ext = extract_complex(triangle_union())
    K = ext.complex
    assert len(K.vertices) == 3
    assert len(K.faces_of_size(2)) == 3
    assert K.faces_of_size(3) == []
    # each edge is labeled by the full component joining its endpoints
    for face in K.faces_of_size(2):
        elem = ext.poset.elements[ext.face_labels[face]]
        assert len(elem.component_set) == 1
    # downward closure
    for f in K.faces:
        for v in f:
            assert frozenset({v}) in K.faces


def test_extract_functorial_under_disjoint_union():
    X = triangle_union()
    Y = full_shift(Alphabet("34"))
    ext = extract_complex(disjoint_union(X, Y))
    assert len(ext.complex.vertices) == 4
    assert len(ext.complex.faces_of_size(2)) == 3


def test_complex_dict_roundtrip():
    K = AbstractComplex.make(["p", "q", "r"], [["p", "q"], ["q", "r"]])
    K2 = AbstractComplex.from_dict(K.to_dict())
    assert K2 == K


def test_complex_rejects_mixed_vertex_name_types():
    for vertices, faces in ((["a", 1], [["a", 1]]), (["a", 1], []),
                            ([2, "b", 1.5], [[2, 1.5]])):
        with pytest.raises(ValueError, match="vertex names of mixed types"):
            AbstractComplex.make(vertices, faces)
    with pytest.raises(ValueError, match="vertex names of mixed types"):
        AbstractComplex.from_dict({"vertices": ["a", 1], "faces": [["a", 1]]})
    # names of one kind keep their own order: numbers are not made strings
    K = AbstractComplex.make([10, 9, 2.5], [[10, 9], [9, 2.5]])
    assert K.vertices == (10, 9, 2.5)
    assert K.faces_of_size(2) == [frozenset({2.5, 9}), frozenset({9, 10})]


def test_complex_coordinates():
    ext = extract_complex(triangle_union())
    one = parse_config("inf(1).inf(1)", A012)
    pt = complex_coordinates(one, ext)
    assert pt.weights == ((pt.support.__iter__().__next__(), F(1)),)
    assert len(pt.support) == 1
    x01 = parse_config("inf(01).inf(01)", A012)
    pt2 = complex_coordinates(x01, ext)
    assert sorted(w for _v, w in pt2.weights) == [F(1, 2), F(1, 2)]
    assert sum(w for _v, w in pt2.weights) == 1
    assert pt2.support in ext.complex.faces
    # weighted point leans toward the nearer vertex
    x = periodic_config("0001", A012)  # in the {0,1} component
    pt3 = complex_coordinates(x, ext)
    assert sum(w for _v, w in pt3.weights) == 1
    assert pt3.support in ext.complex.faces


def test_complex_coordinates_straddling_point_rejected():
    U = disjoint_union(full_shift(BINARY), full_shift(Alphabet("23")))
    ext = extract_complex(U)
    x = parse_config("inf(0).inf(2)", Alphabet("0123"))
    with pytest.raises(PreconditionError):
        complex_coordinates(x, ext)
