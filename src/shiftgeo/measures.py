"""Markov measures on minimal deterministic presentations, cylinder
probabilities with exponential decay certificates, exact combinatorial
bound validators, and seeded generic-point sampling.

Eigenvector computations use floating point (a power iteration on Python
floats) with explicit residual tolerances; every combinatorial bound (binomial
inequalities, Hamming ball counts) uses exact big-integer rationals.  The one
irrational factor, 2 pi, is enclosed between exact rationals from a Machin
series, so every verdict is exact.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf, log
from operator import mul, sub

from .configs import Alphabet
from .errors import CapError, PreconditionError
from .shifts import ShiftPresentation, language, shannon_cover, \
    _components

STOCHASTIC_TOL = 1e-12
POWER_TOL = 1e-15
POWER_CAP = 200_000
DECAY_T_CAP = 4          # longest transition path tried for a decay bound
GROWTH_M_CAP = 1 << 16   # largest block count tried for the growth bound
GROWTH_SPAN = 8          # verified multiples of m reach GROWTH_SPAN * n0
GROWTH_BITS_CAP = 1 << 22  # largest exact power raised for the growth bound
BALL_N_CAP = 22          # longest word length enumerated for a ball count


@dataclass
class MarkovMeasure:
    cover: ShiftPresentation            # deterministic presentation
    edge_prob: dict                     # (src, dst, label) -> float
    stationary: dict                    # state -> float
    eigenvalue: float

    def row_sums(self) -> dict:
        sums = {s: 0.0 for s in self.cover.states}
        for (s, _t, _a), p in self.edge_prob.items():
            sums[s] += p
        return sums

    def stationarity_residual(self) -> float:
        acc = {s: 0.0 for s in self.cover.states}
        for (s, t, _a), p in self.edge_prob.items():
            acc[t] += self.stationary[s] * p
        return max(abs(acc[s] - self.stationary[s])
                   for s in self.cover.states)

    def report(self) -> dict:
        return {
            "states": [str(s) for s in self.cover.states],
            "stationary": [self.stationary[s] for s in self.cover.states],
            "transitions": [
                {"from": str(s), "to": str(t), "label": a, "prob": p}
                for (s, t, a), p in sorted(self.edge_prob.items())],
            "eigenvalue": self.eigenvalue,
            "row_residual": max(abs(v - 1.0)
                                for v in self.row_sums().values()),
            "stationarity_residual": self.stationarity_residual(),
        }


def parry_measure(X: ShiftPresentation) -> MarkovMeasure:
    """Maximal-entropy Markov measure on the Shannon cover of X.

    Computed by power iteration on A + I (the shift makes the iteration
    converge even for a periodic single cycle), to tolerance 1e-15 with an
    iteration cap.
    """
    if X.is_empty:
        raise PreconditionError("presentation is reducible")
    C = shannon_cover(X)
    if len(_components(C)) != 1:
        raise PreconditionError("presentation is reducible")
    n = len(C.states)
    idx = C._index
    A = [[0.0] * n for _ in range(n)]
    for (s, t, _a) in C.edges:
        A[idx[s]][idx[t]] += 1.0

    def lead_vector(M):
        v = [1.0 / n] * n
        shifted = [[x + (i == j) for j, x in enumerate(row)]
                   for i, row in enumerate(M)]
        for _ in range(POWER_CAP):
            w = [sum(map(mul, row, v)) for row in shifted]
            total = sum(w)
            w = [x / total for x in w]
            if max(map(abs, map(sub, w, v))) < POWER_TOL:
                return w
            v = w
        raise RuntimeError("power iteration did not converge")

    right = lead_vector(A)
    left = lead_vector(list(zip(*A)))
    lam = sum(sum(map(mul, row, right)) for row in A) / sum(right)
    edge_prob = {}
    for (s, t, a) in C.edges:
        edge_prob[(s, t, a)] = right[idx[t]] / (lam * right[idx[s]])
    weights = list(map(mul, left, right))
    total = sum(weights)
    stationary = {s: weights[idx[s]] / total for s in C.states}
    mu = MarkovMeasure(C, edge_prob, stationary, lam)
    if max(abs(v - 1.0) for v in mu.row_sums().values()) > STOCHASTIC_TOL:
        raise RuntimeError("transition rows failed the stochasticity check")
    if mu.stationarity_residual() > STOCHASTIC_TOL:
        raise RuntimeError("stationary vector failed the residual check")
    return mu


def cylinder(mu: MarkovMeasure, w: str) -> float:
    """Measure of the set of points carrying w at a fixed position."""
    mu.cover.alphabet.check_word(w)
    if w == "":
        return 1.0
    C = mu.cover
    total = 0.0
    for s in C.states:
        p = mu.stationary[s]
        cur = s
        for a in w:
            nxt = C.step({cur}, a)
            if not nxt:
                break
            (t,) = nxt
            p *= mu.edge_prob[(cur, t, a)]
            cur = t
        else:
            total += p
    return total


# ---------------------------------------------------------------------------
# exponential cylinder decay


@dataclass
class BoundCertificate:
    gamma: Fraction
    t: int
    verified_length: int


def cylinder_decay_bound(mu: MarkovMeasure, L: int) -> BoundCertificate:
    """A pair (gamma, t) with mu([w]) <= gamma^n for every factor w of
    length t*n, verified exhaustively for all lengths up to L.

    gamma is the largest probability of any length-t transition path; the
    smallest t <= DECAY_T_CAP that pushes it below 1 is chosen.  Fails for
    degenerate measures whose paths keep probability 1.  L must be
    positive.
    """
    if L <= 0:
        raise PreconditionError("length bound must be positive")
    C = mu.cover
    states = list(C.states)
    best = None
    path_max = {s: 1.0 for s in states}
    for t in range(1, DECAY_T_CAP + 1):
        nxt = {}
        for s in states:
            vals = [mu.edge_prob[(s, q, a)] * path_max[q]
                    for a in C.alphabet for q in C.step({s}, a)]
            nxt[s] = max(vals) if vals else 0.0
        path_max = nxt
        beta = max(path_max.values())
        if beta < 1.0 - 1e-13:
            best = (Fraction(beta), t)
            break
    if best is None:
        raise PreconditionError(
            f"no decay certificate with t <= {DECAY_T_CAP}: some transition "
            f"path keeps probability 1")
    gamma, t = best
    g = float(gamma)
    verified = (L // t) * t
    for n in range(1, L // t + 1):
        bound = g ** n * (1 + 1e-9)
        for w in language(C, t * n):
            if cylinder(mu, w) > bound:
                raise AssertionError(
                    f"certificate violated at {w!r}: "
                    f"{cylinder(mu, w)} > {g}^{n}")
    return BoundCertificate(gamma, t, verified)


# ---------------------------------------------------------------------------
# exact binomial bounds


def _arctan_inv(x: int, terms: int) -> tuple[Fraction, Fraction]:
    """Rationals lo < arctan(1/x) < hi for an integer x > 1: the partial
    sums with `terms` and `terms` + 1 terms of the alternating series
    sum_k (-1)^k / ((2k+1) x^(2k+1)), whose terms decrease."""
    s = sum(Fraction((-1) ** k, (2 * k + 1) * x ** (2 * k + 1))
            for k in range(terms))
    t = s + Fraction((-1) ** terms, (2 * terms + 1) * x ** (2 * terms + 1))
    return min(s, t), max(s, t)


def _pi_less_than(num: int, den: int) -> bool:
    """Exact test of pi < num/den for den > 0.

    Machin's formula pi = 16 arctan(1/5) - 4 arctan(1/239) encloses pi
    between rationals; the number of series terms doubles until the
    enclosure lies on one side of num/den.  pi is irrational, so it never
    equals num/den and the loop ends.
    """
    terms = 2
    while True:
        lo5, hi5 = _arctan_inv(5, terms)
        lo239, hi239 = _arctan_inv(239, terms)
        lo, hi = 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239
        if hi.numerator * den < num * hi.denominator:
            return True
        if lo.numerator * den > num * lo.denominator:
            return False
        terms *= 2


def verify_binomial_bound(n: int, m: int, p: int) -> bool:
    """Exact check of the strict Stirling-type inequality

        C(m n, p n)  <  n^(-1/2) m^(mn+1/2) /
                        (sqrt(2 pi) (m-p)^((m-p)n+1/2) p^(pn+1/2)).

    Squared, it reads pi L < R with the integers
    L = 2 C(m n, p n)^2 n (m-p)^(2(m-p)n+1) p^(2pn+1) and R = m^(2mn+1);
    the one irrational factor, 2 pi, is enclosed between exact rationals
    from a Machin series, so the returned verdict is exact.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 < p < m:
        raise ValueError("need 0 < p < m")
    q = m - p
    L = (2 * comb(m * n, p * n) ** 2 * n * q ** (2 * q * n + 1)
         * p ** (2 * p * n + 1))
    return _pi_less_than(m ** (2 * m * n + 1), L)


def _block_condition_exact(m: int, k: Fraction, a: Fraction) -> bool:
    """Exact test of m^(1/m) * m/(m-1) <= k^(2a/3) via integer powers."""
    q = a.denominator
    # raise both sides to the power 3*m*q
    lhs = Fraction(m) ** (3 * q) * Fraction(m, m - 1) ** (3 * m * q)
    rhs = Fraction(k) ** (2 * a.numerator * m)
    return lhs <= rhs


def _power_within_cap(bits: int, covered: str) -> None:
    if bits > GROWTH_BITS_CAP:
        raise CapError(f"an exact power of about {bits} bits exceeds the cap "
                       f"of {GROWTH_BITS_CAP} bits; {covered}")


def binomial_growth_threshold(k, a) -> tuple[int, int]:
    """The least block count m <= GROWTH_M_CAP with
    m^(1/m) * m/(m-1) <= k^(2a/3), plus the least multiple n0 of m such that
    C(n, n/m) <= k^(n a) holds, by exact evaluation, for every multiple of m
    in [n0, GROWTH_SPAN * n0].

    This witnesses the eventual binomial bound C(n, n/m) <= k^(n a) for
    k > 1, a > 0 on a concrete verified range.  A float prescreen in logs,
    its margin far above rounding error, leaves the exact test to block
    counts near the threshold; one whose power would exceed GROWTH_BITS_CAP
    bits raises CapError, naming what was covered.
    """
    k = Fraction(k)
    a = Fraction(a)
    if k <= 1 or a <= 0:
        raise ValueError("need k > 1 and a > 0")
    q = a.denominator
    k_bits = max(k.numerator, k.denominator).bit_length()
    # log k^(2a/3): k may pass the float range, so its log is taken from
    # its integer parts; an a past it makes the target infinite
    try:
        log_target = 2 * float(a) / 3 * (log(k.numerator)
                                          - log(k.denominator))
    except OverflowError:
        log_target = inf
    m = None
    for cand in range(2, GROWTH_M_CAP + 1):
        # cheap float prescreen in logs, exact test to commit
        if log(cand) / cand + log(cand / (cand - 1)) > log_target + 1e-9:
            continue
        _power_within_cap(
            max(3 * q * (cand + 1) * cand.bit_length(),
                2 * a.numerator * cand * k_bits),
            f"no block count m < {cand} meets the condition")
        if _block_condition_exact(cand, k, a):
            m = cand
            break
    if m is None:
        raise PreconditionError(f"no block count m <= {GROWTH_M_CAP} works")

    def holds(n: int) -> bool:
        # C(n, n/m)^q <= k^(n * a_num)  exactly
        c = comb(n, n // m)
        _power_within_cap(
            max(q * c.bit_length(), n * a.numerator * k_bits),
            f"m = {m}, no start n0 < {m * j} verified, and the bound holds "
            f"at the multiples of m from {m * j} below {n}")
        return Fraction(c) ** q <= Fraction(k) ** (n * a.numerator)

    n0 = None
    j = 1
    while n0 is None:
        cand = m * j
        if all(holds(n) for n in range(cand, GROWTH_SPAN * cand + 1)
               if n % m == 0):
            n0 = cand
        j += 1
        if j > 1 << 12:
            raise PreconditionError("no verified starting point found")
    return m, n0


# ---------------------------------------------------------------------------
# generic points and Hamming ball counts


def bernoulli_prefix(alphabet: Alphabet, seed: int, N: int) -> str:
    """N >= 0 symbols drawn i.i.d. uniformly with a seeded generator."""
    if N < 0:
        raise PreconditionError("prefix length must be non-negative")
    rng = random.Random(seed)
    syms = alphabet.symbols
    k = len(syms)
    return "".join(syms[rng.randrange(k)] for _ in range(N))


def hamming_ball_count(w: str, n: int, eps):
    """Exact count of the length-n words within relative Hamming distance
    eps of some window of the periodic point given by w, compared against
    the bound p * C(n, floor(n eps)) * |A|^ceil(n eps), where A is the set
    of w's symbols, padded with the least of 0, 1 that w lacks when w has
    one symbol.

    Returns (count, bound, count <= bound).
    """
    if not w:
        raise PreconditionError("need a non-empty period word")
    syms = set(w)
    if len(syms) < 2:
        syms.add(min({"0", "1"} - syms))
    syms = tuple(sorted(syms))
    if n < 0:
        raise PreconditionError("word length must be non-negative")
    if n > BALL_N_CAP:
        raise CapError(f"n = {n} exceeds the enumeration cap {BALL_N_CAP}")
    eps = Fraction(eps)
    if not 0 <= eps <= 1:
        raise ValueError("need 0 <= eps <= 1")
    p = len(w)
    radius = int(n * eps)
    centers = sorted({"".join(w[(i + j) % p] for j in range(n))
                      for i in range(p)})
    size = len(syms)
    if size == 2:
        s2i = {s: i for i, s in enumerate(syms)}
        cbits = [sum(s2i[c] << j for j, c in enumerate(u)) for u in centers]
        count = sum(
            1 for v in range(1 << n)
            if any((v ^ c).bit_count() <= radius for c in cbits))
    else:
        count = 0
        for tup in itertools.product(syms, repeat=n):
            if any(sum(a != b for a, b in zip(tup, u)) <= radius
                   for u in centers):
                count += 1
    ceil_ne = -((-n * eps.numerator) // eps.denominator) if eps else 0
    bound = p * comb(n, radius) * size ** ceil_ne
    return count, bound, count <= bound
