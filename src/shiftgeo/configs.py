"""Words and eventually periodic bi-infinite configurations.

A Configuration denotes the point

    inf(left_period) left_finite . right_finite inf(right_period)

of the full shift over its alphabet, with coordinate 0 at the first cell of
``right_finite`` (or of ``right_period`` when ``right_finite`` is empty).
Values are canonicalized on construction: both periods are primitive and the
finite parts are maximally absorbed into the periodic tails, so two
Configurations denote the same point of the full shift iff they compare equal.

Finite words are plain ``str`` values; symbols are single characters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# Characters with a structural meaning in the literal grammar or in the
# starred-word machinery; they can never be alphabet symbols.
_RESERVED = set("().*")


class Alphabet:
    """Ordered finite set of single-character symbols.

    The ordering is total and fixed; it is the tie-breaking order used by
    every lexicographic search in the library and fixes every canonical
    listing (words, orbits, presentation edges); :meth:`key` compares in it.
    """

    __slots__ = ("symbols", "_index", "_ranks")

    def __init__(self, symbols):
        syms = tuple(symbols)
        if not syms:
            raise ValueError("alphabet must be nonempty")
        if len(syms) > 255:
            raise ValueError("alphabet too large (max 255 symbols)")
        for s in syms:
            if not (isinstance(s, str) and len(s) == 1):
                raise ValueError(f"symbol {s!r} is not a single character")
            if not s.isprintable() or s.isspace() or s in _RESERVED:
                raise ValueError(f"symbol {s!r} is reserved or unprintable")
        if len(set(syms)) != len(syms):
            raise ValueError("duplicate symbols in alphabet")
        self.symbols = syms
        self._index = {s: i for i, s in enumerate(syms)}
        self._ranks = {ord(s): i for i, s in enumerate(syms)}

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in alphabet") from None

    def key(self, word: str) -> str:
        """word with each symbol replaced by its rank, as a character: keys
        compare as the words do in the alphabet's order."""
        return word.translate(self._ranks)

    def check_word(self, word: str) -> str:
        for c in word:
            if c not in self._index:
                raise ValueError(f"symbol {c!r} not in alphabet")
        return word

    def __contains__(self, symbol) -> bool:
        return symbol in self._index

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.symbols)!r})"


BINARY = Alphabet("01")


def json_field(d: dict, key: str, kind, entries=None):
    """d[key] as read from a JSON file, checked to be a `kind` whose items
    (an object's values) are all `entries`; a wrongly typed field raises a
    ValueError that names it."""
    value = d[key]
    if not isinstance(value, kind) or entries and not all(
            isinstance(v, entries) for v in
            (value.values() if isinstance(value, dict) else value)):
        raise ValueError(f"field {key!r} has the wrong type")
    return value


# ---------------------------------------------------------------------------
# word helpers


def hamming(u: str, v: str) -> int:
    """Number of positions where the equal-length words u and v differ."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(a != b for a, b in zip(u, v))


def primitive_root(w: str) -> str:
    """Shortest u with w = u^k."""
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w[:d] * (n // d) == w:
            return w[:d]
    return w


def is_primitive(w: str) -> bool:
    return primitive_root(w) == w


def least_rotation(w: str) -> str:
    """Lexicographically least rotation of w, with symbols compared as
    characters; the library's searches rank rotations by ``Alphabet.key``
    instead and do not call this."""
    return min(w[i:] + w[:i] for i in range(len(w)))


def is_unbordered(w: str) -> bool:
    """True iff no proper nonempty prefix of w equals a suffix of w."""
    return not any(w[:k] == w[-k:] for k in range(1, len(w)))


def cyclic_slice(w: str, a: int, b: int) -> str:
    """Cells a..b-1 of the periodic point inf(w) whose cell 0 is w[0]; the
    empty word when a >= b.  w must be nonempty."""
    if a >= b:
        return ""
    k = a % len(w)
    return (w * ((k + b - a) // len(w) + 1))[k:k + b - a]


# ---------------------------------------------------------------------------
# configurations


@dataclass(frozen=True)
class Configuration:
    """Eventually periodic point of the full shift, in canonical form."""

    alphabet: Alphabet
    left_period: str
    left_finite: str
    right_finite: str
    right_period: str

    def __post_init__(self):
        ab = self.alphabet
        if not self.left_period or not self.right_period:
            raise ValueError("periods must be nonempty")
        for part in (self.left_period, self.left_finite,
                     self.right_finite, self.right_period):
            ab.check_word(part)

        lp = primitive_root(self.left_period)
        rp = primitive_root(self.right_period)
        lf, rf = self.left_finite, self.right_finite
        # Absorb the finite parts into the tails one cell at a time,
        # rotating the period to keep the block alignment.
        while lf and lf[0] == lp[0]:
            lf = lf[1:]
            lp = lp[1:] + lp[0]
        while rf and rf[-1] == rp[-1]:
            rf = rf[:-1]
            rp = rp[-1] + rp[:-1]
        object.__setattr__(self, "left_period", lp)
        object.__setattr__(self, "left_finite", lf)
        object.__setattr__(self, "right_finite", rf)
        object.__setattr__(self, "right_period", rp)

    # -- access ------------------------------------------------------------

    def symbol_at(self, i: int) -> str:
        return self.window(i, i)

    def window(self, a: int, b: int) -> str:
        """The word x_a x_{a+1} ... x_b (inclusive on both ends)."""
        if a > b:
            raise ValueError(f"empty window [{a}, {b}]")
        lf, rf = self.left_finite, self.right_finite
        n, m = len(lf), len(rf)
        return (cyclic_slice(self.left_period, a + n, min(b + 1, -n) + n)
                + lf[max(a + n, 0):max(min(b + 1, 0) + n, 0)]
                + rf[max(a, 0):max(min(b + 1, m), 0)]
                + cyclic_slice(self.right_period, max(a, m) - m, b + 1 - m))

    @property
    def is_periodic(self) -> bool:
        return (not self.left_finite and not self.right_finite
                and self.left_period == self.right_period)

    @property
    def period(self) -> int:
        """Least period of a periodic configuration."""
        if not self.is_periodic:
            raise ValueError("configuration is not periodic")
        return len(self.right_period)

    def __repr__(self) -> str:
        return f"Configuration({format_config(self)!r})"


def periodic_config(word: str, alphabet: Alphabet) -> Configuration:
    """The periodic point with window [0, |word|) equal to word."""
    if not word:
        raise ValueError("period word must be nonempty")
    return Configuration(alphabet, word, "", "", word)


def format_config(x: Configuration) -> str:
    return (f"inf({x.left_period}){x.left_finite}"
            f".{x.right_finite}inf({x.right_period})")


def parse_config(literal: str, alphabet: Alphabet) -> Configuration:
    """Parse a configuration literal, e.g. ``inf(0)1.01inf(10)``.

    Grammar (whitespace ignored)::

        config := "inf(" WORD ")" WORD? "." WORD? "inf(" WORD ")"

    Coordinate 0 is the first character after the dot.
    """
    s = re.sub(r"\s+", "", literal)
    if not s.startswith("inf("):
        raise ValueError("configuration literal must start with 'inf('")
    close1 = s.find(")")
    if close1 < 0:
        raise ValueError("unterminated left period")
    left_period = s[4:close1]
    rest = s[close1 + 1:]
    start2 = rest.rfind("inf(")
    if start2 < 0 or not rest.endswith(")"):
        need = "a second period" if "." in rest else \
            "a '.' and a second period"
        raise ValueError(f"configuration literal needs {need} 'inf(WORD)' "
                         f"after the first, as in 'inf(01).inf(01)'")
    right_period = rest[start2 + 4:-1]
    middle = rest[:start2]
    if middle.count(".") != 1:
        raise ValueError("expected exactly one '.' between the periods")
    left_finite, right_finite = middle.split(".")
    if not left_period or not right_period:
        raise ValueError("periods must be nonempty")
    for part in (left_period, left_finite, right_finite, right_period):
        if any(c in _RESERVED for c in part):
            raise ValueError(f"malformed literal near {part!r}")
    return Configuration(alphabet, left_period, left_finite,
                         right_finite, right_period)


def shift(x: Configuration, k: int) -> Configuration:
    """The shifted configuration sigma^k(x), with sigma(x)_i = x_{i+1}."""
    if k == 0:
        return x
    lp, lf = x.left_period, x.left_finite
    rf, rp = x.right_finite, x.right_period
    if k > 0:
        lf = lf + x.window(0, k - 1)
        if k <= len(rf):
            rf = rf[k:]
        else:
            d = (k - len(rf)) % len(rp)
            rf = ""
            rp = rp[d:] + rp[:d]
    else:
        m = -k
        rf = x.window(-m, -1) + rf
        if m <= len(lf):
            lf = lf[:len(lf) - m]
        else:
            d = (m - len(lf)) % len(lp)
            lf = ""
            lp = lp[len(lp) - d:] + lp[:len(lp) - d]
    return Configuration(x.alphabet, lp, lf, rf, rp)


def window(x: Configuration, a: int, b: int) -> str:
    return x.window(a, b)

