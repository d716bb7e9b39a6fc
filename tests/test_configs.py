import random

import pytest

from shiftgeo.configs import (Alphabet, BINARY, Configuration, format_config,
                              hamming, is_unbordered, least_rotation,
                              parse_config, periodic_config, primitive_root,
                              shift, window)
from oracle_utils import rand_config


def test_alphabet_validation():
    ab = Alphabet("abc")
    assert len(ab) == 3 and ab.index("b") == 1
    with pytest.raises(ValueError):
        Alphabet("")
    with pytest.raises(ValueError):
        Alphabet("aa")
    with pytest.raises(ValueError):
        Alphabet("a*")
    with pytest.raises(ValueError):
        Alphabet(["ab"])


def test_hamming():
    assert hamming("01", "01") == 0
    assert hamming("0011", "0101") == 2
    assert hamming("", "") == 0
    with pytest.raises(ValueError):
        hamming("0", "01")


def test_word_helpers():
    assert primitive_root("010101") == "01"
    assert primitive_root("0110") == "0110"
    assert least_rotation("100") == "001"
    assert is_unbordered("01")
    assert not is_unbordered("010")
    assert is_unbordered("0011")


def test_parse_literal_examples():
    x = parse_config("inf(0).1inf(1)", BINARY)
    assert x.symbol_at(0) == "1"
    assert format_config(x) == "inf(0).inf(1)"  # the 1 absorbs into the tail

    y = parse_config("inf(01).inf(01)", BINARY)
    assert y.symbol_at(0) == "0"
    assert y.is_periodic and y.period == 2

    z = parse_config("inf(00)0.inf(0)", BINARY)
    assert z.left_period == "0" and z.left_finite == ""
    assert z == parse_config("inf(0).inf(0)", BINARY)

    w = parse_config(" inf(0) 1 . 01 inf(10) ", BINARY)
    assert w.window(-1, 4) == "101101"


def test_parse_errors():
    for bad in ("inf().inf(0)", "inf(0)inf(0)", "inf(0)..inf(0)",
                "0.inf(0)", "inf(0).inf(0"):
        with pytest.raises(ValueError):
            parse_config(bad, BINARY)
    with pytest.raises(ValueError):
        parse_config("inf(2).inf(0)", BINARY)


@pytest.mark.parametrize("literal, need", [
    ("inf(01)", "needs a '.' and a second period 'inf(WORD)'"),
    ("inf(01)1", "needs a '.' and a second period 'inf(WORD)'"),
    ("inf(01).", "needs a second period 'inf(WORD)'"),
    ("inf(0).1", "needs a second period 'inf(WORD)'"),
])
def test_parse_error_names_the_missing_dot_and_period(literal, need):
    """A literal with one period ends in 'inf(WORD)' already: the message
    names what is missing after it."""
    with pytest.raises(ValueError) as err:
        parse_config(literal, BINARY)
    assert str(err.value) == (f"configuration literal {need} after the "
                              f"first, as in 'inf(01).inf(01)'")


def test_roundtrip_and_canonical_idempotence():
    rng = random.Random(11)
    for _ in range(100):
        x = rand_config(rng, BINARY)
        y = parse_config(format_config(x), BINARY)
        assert x == y
        z = Configuration(x.alphabet, x.left_period, x.left_finite,
                          x.right_finite, x.right_period)
        assert z == x


def test_equality_of_denotations():
    # the same point written three ways
    a = parse_config("inf(01).inf(01)", BINARY)
    b = parse_config("inf(10)1.inf(01)", BINARY)
    c = parse_config("inf(01).0101inf(01)", BINARY)
    assert a == b == c


def test_window_examples():
    x = parse_config("inf(0).1inf(1)", BINARY)
    assert window(x, -2, 2) == "00111"
    y = parse_config("inf(01).inf(01)", BINARY)
    assert window(y, 0, 3) == "0101"
    assert window(y, 5, 5) == y.symbol_at(5) == "1"
    with pytest.raises(ValueError):
        window(y, 3, 2)


def test_window_consistency():
    rng = random.Random(5)
    for _ in range(50):
        x = rand_config(rng, BINARY)
        a = rng.randint(-15, 0)
        b = rng.randint(a + 1, a + 10)
        c = rng.randint(b, b + 10)
        assert window(x, a, c) == window(x, a, b - 1) + window(x, b, c)


def test_shift_examples():
    x = parse_config("inf(0).1inf(1)", BINARY)
    assert shift(x, 0) == x
    y = parse_config("inf(01).inf(01)", BINARY)
    assert shift(y, 1).symbol_at(0) == "1"
    assert shift(y, 1) == parse_config("inf(10).inf(10)", BINARY)


def test_shift_group_action():
    rng = random.Random(23)
    ab3 = Alphabet("abc")
    for _ in range(200):
        ab = rng.choice([BINARY, ab3])
        x = rand_config(rng, ab)
        j = rng.randint(-20, 20)
        k = rng.randint(-20, 20)
        assert shift(x, j + k) == shift(shift(x, j), k)
        # shifting is window translation
        a = rng.randint(-6, 0)
        b = a + rng.randint(0, 8)
        assert shift(x, k).window(a, b) == x.window(a + k, b + k)


def test_periodic_config():
    p = periodic_config("110", BINARY)
    assert p.is_periodic and p.period == 3
    assert p.window(0, 5) == "110110"
    q = periodic_config("11", BINARY)
    assert q.period == 1  # reduced to the primitive root
