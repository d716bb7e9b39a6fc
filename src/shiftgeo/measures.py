"""Markov measures on minimal deterministic presentations, cylinder
probabilities with exponential decay certificates, exact combinatorial
bound validators, and seeded generic-point sampling.

Eigenvector computations use floating point (numpy, imported on first use)
with explicit residual tolerances; every combinatorial bound (binomial
inequalities, Hamming ball counts) uses exact big-integer rationals.  The one
irrational factor, 2 pi, is enclosed between exact rationals from a Machin
series, so every verdict is exact.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .configs import Alphabet
from .errors import CapError, PreconditionError
from .shifts import ShiftPresentation, language, shannon_cover, \
    _components, _indexed

STOCHASTIC_TOL = 1e-12
POWER_TOL = 1e-15
POWER_CAP = 200_000


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
    import numpy as np

    if X.is_empty:
        raise PreconditionError("presentation is reducible")
    C = shannon_cover(X)
    if len(_components(C)) != 1:
        raise PreconditionError("presentation is reducible")
    n = len(C.states)
    idx = _indexed(C)[0]
    A = np.zeros((n, n))
    for (s, t, _a) in C.edges:
        A[idx[s], idx[t]] += 1.0

    def lead_vector(M):
        v = np.ones(n) / n
        shifted = M + np.eye(n)
        for _ in range(POWER_CAP):
            w = shifted @ v
            w /= w.sum()
            if np.max(np.abs(w - v)) < POWER_TOL:
                return w
            v = w
        raise RuntimeError("power iteration did not converge")

    right = lead_vector(A)
    left = lead_vector(A.T)
    lam = float((A @ right).sum() / right.sum())
    edge_prob = {}
    for (s, t, a) in C.edges:
        edge_prob[(s, t, a)] = float(right[idx[t]] / (lam * right[idx[s]]))
    weights = left * right
    weights /= weights.sum()
    stationary = {s: float(weights[idx[s]]) for s in C.states}
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
        ok = True
        for a in w:
            nxt = C.successors(cur, a)
            if not nxt:
                ok = False
                break
            (t,) = nxt
            p *= mu.edge_prob[(cur, t, a)]
            cur = t
        if ok:
            total += p
    return total


# ---------------------------------------------------------------------------
# exponential cylinder decay


@dataclass
class BoundCertificate:
    gamma: Fraction
    t: int
    verified_length: int


def cylinder_decay_bound(mu: MarkovMeasure, L: int,
                         t_cap: int = 4) -> BoundCertificate:
    """A pair (gamma, t) with mu([w]) <= gamma^n for every factor w of
    length t*n, verified exhaustively for all lengths up to L.

    gamma is the largest probability of any length-t transition path; the
    smallest t <= t_cap that pushes it below 1 is chosen.  Fails for
    degenerate measures whose paths keep probability 1.  L must be
    positive.
    """
    if L <= 0:
        raise PreconditionError("length bound must be positive")
    C = mu.cover
    states = list(C.states)
    best = None
    path_max = {s: 1.0 for s in states}
    for t in range(1, t_cap + 1):
        nxt = {}
        for s in states:
            vals = [mu.edge_prob[(s, q, a)] * path_max[q]
                    for (s2, q, a) in C.edges if s2 == s]
            nxt[s] = max(vals) if vals else 0.0
        path_max = nxt
        beta = max(path_max.values())
        if beta < 1.0 - 1e-13:
            best = (Fraction(beta), t)
            break
    if best is None:
        raise PreconditionError(
            f"no decay certificate with t <= {t_cap}: some transition path "
            f"keeps probability 1")
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


def binomial_growth_threshold(k, a, m_cap: int = 1 << 16,
                              span: int = 8) -> tuple[int, int]:
    """The least block count m (up to a cap) with
    m^(1/m) * m/(m-1) <= k^(2a/3), plus the least multiple n0 of m such that
    C(n, n/m) <= k^(n a) holds, by exact evaluation, for every multiple of m
    in [n0, span*n0].

    This witnesses the eventual binomial bound C(n, n/m) <= k^(n a) for
    k > 1, a > 0 on a concrete verified range.
    """
    k = Fraction(k)
    a = Fraction(a)
    if k <= 1 or a <= 0:
        raise ValueError("need k > 1 and a > 0")
    target = float(k) ** (2 * float(a) / 3)
    m = None
    for cand in range(2, m_cap + 1):
        # cheap float prescreen for large candidates, exact test to commit
        if cand > 256 and cand ** (1.0 / cand) * cand / (cand - 1) \
                > target * (1 + 1e-9):
            continue
        if _block_condition_exact(cand, k, a):
            m = cand
            break
    if m is None:
        raise PreconditionError(f"no block count m <= {m_cap} works")

    q = a.denominator

    def holds(n: int) -> bool:
        # C(n, n/m)^q <= k^(n * a_num)  exactly
        return (Fraction(comb(n, n // m)) ** q
                <= Fraction(k) ** (n * a.numerator))

    n0 = None
    j = 1
    while n0 is None:
        cand = m * j
        if all(holds(n) for n in range(cand, span * cand + 1)
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


def hamming_ball_count(w: str, n: int, eps, alphabet: Alphabet | None = None,
                       n_cap: int = 22):
    """Exact count of the length-n words within relative Hamming distance
    eps of some window of the periodic point given by w, compared against
    the bound p * C(n, floor(n eps)) * |A|^ceil(n eps).

    Returns (count, bound, count <= bound).
    """
    if not w:
        raise PreconditionError("need a non-empty period word")
    if alphabet is None:
        syms = tuple(sorted(set(w)))
        if len(syms) < 2:
            syms = tuple(sorted(set(w) | {"0", "1"}))[:2]
    else:
        syms = alphabet.symbols
    if n < 0:
        raise PreconditionError("word length must be non-negative")
    if n > n_cap:
        raise CapError(f"n = {n} exceeds the enumeration cap {n_cap}")
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
