"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria marked DERIVED are pinned against independent brute-force oracles
computed inside the test (or in oracle_utils); exact rational comparisons
carry no tolerance.  Criterion 11a checks the true unique-approximation
boundary of the two-block parity shift: no orbit-level tie through period 7
and a genuine one at period 8 (witness inf(00011011), distance 1/4,
minimizer orbits of periods 4 and 8), each value confirmed by
oracle_utils.parity_shift_uap_oracle.
"""

import itertools
import random
import time
from fractions import Fraction as F
from math import comb

from shiftgeo.configs import Alphabet, BINARY, least_rotation, parse_config, \
    periodic_config, shift
from shiftgeo.metrics import (cyclic_mismatch_density, d_besicovitch, d_weyl,
                              density_estimate, distance_to_shift,
                              distance_to_shift_detail,
                              unique_approximation_search)
from shiftgeo.paths import (block_path_source, dyadic_digits,
                            intersperse_path_source)
from shiftgeo.automata import (CellularAutomaton, check_on_subshift,
                               classify_full_shift, elementary_ca,
                               isometric_ca_precondition,
                               minimal_neighborhood, minimal_neighborhood_on,
                               preserves_shift)
from shiftgeo.homotopy import extract_complex
from shiftgeo.measures import (bernoulli_prefix, binomial_growth_threshold,
                               cylinder, cylinder_decay_bound,
                               hamming_ball_count, parry_measure,
                               verify_binomial_bound)
from shiftgeo.shifts import (ShiftPresentation, SftSpec, compile_sft,
                             disjoint_union, even_shift, full_shift,
                             golden_mean, language, mixing_distance,
                             periodic_orbits)
from oracle_utils import block_shift, check_on_subshift_oracle, eca_table, \
    necklaces, parity_shift_uap_oracle, rand_config

A012 = Alphabet("012")


def report(num, ok, detail=""):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- criterion 1: elementary CA classification vs exhaustive oracle ---------


def _oracle_full_shift_verdicts(rule, orbits):
    """Exhaustive periodic-pair oracle on the binary full shift: scan all
    (orbit representative, orbit point) pairs with period <= 8 and compare
    exact aligned densities before and after the rule."""
    first = check_on_subshift_oracle(eca_table(rule), -1, 1, orbits)
    return tuple(first[prop] is None
                 for prop in ("contracting", "isometric", "expanding"))


def test_criterion_1_elementary_classification():
    start = time.monotonic()
    orbits = [w for p in range(1, 9) for w in necklaces("01", p)]
    counts = {"contracting": 0, "isometric": 0, "expanding": 0}
    for rule in range(256):
        got = classify_full_shift(elementary_ca(rule))
        want = _oracle_full_shift_verdicts(rule, orbits)
        assert (got.contracting, got.isometric, got.expanding) == want, rule
        counts["contracting"] += got.contracting
        counts["isometric"] += got.isometric
        counts["expanding"] += got.expanding
    elapsed = time.monotonic() - start
    ok = (counts == {"contracting": 8, "isometric": 6, "expanding": 6}
          and elapsed <= 120)
    report(1, ok, f"counts {counts}, {elapsed:.1f}s")


# -- criterion 2: explicit witnesses for multi-cell rules --------------------


def test_criterion_2_witness_distances():
    checked = 0
    for rule in range(256):
        f = elementary_ca(rule)
        info = minimal_neighborhood(f)
        if info.size < 2:
            continue
        rep = classify_full_shift(f)
        x, y, d_in, d_out = rep.witness
        lo, hi = info.span
        r = hi - lo + 1
        assert d_in == F(1, 2 * r - 1), rule
        assert d_out >= F(2, 2 * r - 1), rule
        # recompute both distances from scratch
        assert d_besicovitch(x, y) == d_in
        checked += 1
    report(2, checked == 256 - 8, f"{checked} rules with witnesses")


# -- criterion 3: the contracting example on the no-111 shift ----------------


def test_criterion_3_contracting_example():
    start = time.monotonic()
    X = compile_sft(SftSpec(BINARY, ("111",)))
    f = CellularAutomaton(BINARY, -1, 0,
                          {"00": "0", "01": "0", "10": "0", "11": "1"})
    chk = check_on_subshift(f, X, 10)
    elapsed = time.monotonic() - start
    ok = chk.contracting is None and elapsed <= 300
    report(3, ok, f"no contraction violation up to period 10, {elapsed:.1f}s")


# -- criterion 4: rigidity precondition and radius-1 survey ------------------


def test_criterion_4_rigidity_and_survey():
    ok = True
    details = []
    for X, name in ((golden_mean(), "no-11"), (even_shift(), "even-runs")):
        pre = isometric_ca_precondition(X, "0", 4, 9)
        ok = ok and pre.passed
        survivors = []
        for rule in range(256):
            f = elementary_ca(rule)
            if not preserves_shift(f, X):
                continue
            chk = check_on_subshift(f, X, 8)
            if chk.isometric is None:
                survivors.append(rule)
                # every undetected rule must act with one cell on X
                if len(minimal_neighborhood_on(f, X)) > 1:
                    ok = False
        details.append(f"{name}: precondition pass, "
                       f"{len(survivors)} isometric rules, all size 1 on X")
    report(4, ok, "; ".join(details))


# -- criterion 5: block-path near-isometry -----------------------------------


def test_criterion_5_block_path_near_isometry():
    start = time.monotonic()
    rng = random.Random(1234)
    N = 2 ** 15
    for _ in range(100):
        den1, den2 = rng.randint(1, 2 ** 10), rng.randint(1, 2 ** 10)
        r = F(rng.randint(0, den1), den1)
        s = F(rng.randint(0, den2), den2)
        est = density_estimate(block_path_source(r), block_path_source(s), N)
        assert abs(est - abs(r - s)) <= F(1, 100), (r, s, est)
    elapsed = time.monotonic() - start
    report(5, elapsed <= 60, f"100 pairs within 1e-2, {elapsed:.1f}s")


# -- criterion 6: interspersing modulus --------------------------------------


def test_criterion_6_interspersing_modulus():
    rng = random.Random(4321)
    N = 2 ** 15
    done = 0
    while done < 50:
        k = rng.randint(1, 8)
        prefix = rng.getrandbits(k)
        r = F(prefix, 2 ** k) + F(rng.getrandbits(10), 2 ** (k + 10))
        s = F(prefix, 2 ** k) + F(rng.getrandbits(10), 2 ** (k + 10))
        if not (r < 1 and s < 1):
            continue
        if dyadic_digits(r, k) != dyadic_digits(s, k):
            continue
        est = density_estimate(intersperse_path_source(r),
                               intersperse_path_source(s), N)
        assert est <= F(1, 2 ** k) + F(1, 2 ** 9), (r, s, k, est)
        done += 1
    report(6, done == 50, "50 dyadic pairs within 2^-k + 2^-9")


# -- criterion 7: mixing distances -------------------------------------------


def test_criterion_7_mixing_distances():
    expected = [(full_shift(BINARY), 0), (golden_mean(), 1),
                (even_shift(), 2)]
    for X, m in expected:
        assert mixing_distance(X) == m
        words = [w for n in range(1, 5) for w in language(X, n)]
        for n in range(m, 7):
            for u in words:
                for v in words:
                    assert any(
                        X.accepts_word(u + "".join(t) + v)
                        for t in itertools.product("01", repeat=n)), (u, v, n)
        if m >= 1:
            assert any(
                not any(X.accepts_word(u + "".join(t) + v)
                        for t in itertools.product("01", repeat=m - 1))
                for u in words for v in words)
    report(7, True, "0 / 1 / 2, cross-checked to connecting length 6")


# -- criterion 8: complex extraction -----------------------------------------


def test_criterion_8_complex_extraction():
    tri = ShiftPresentation(
        A012, ["a", "b", "c"],
        [("a", "a", "0"), ("a", "a", "1"), ("b", "b", "1"), ("b", "b", "2"),
         ("c", "c", "2"), ("c", "c", "0")])
    K = extract_complex(tri).complex
    hollow = (len(K.vertices) == 3 and len(K.faces_of_size(2)) == 3
              and not K.faces_of_size(3))
    two = extract_complex(
        disjoint_union(full_shift(BINARY), full_shift(Alphabet("23"))))
    isolated = (len(two.complex.vertices) == 2
                and not two.complex.faces_of_size(2))
    points = all(len(extract_complex(X).complex.vertices) == 1
                 for X in (golden_mean(), even_shift(), full_shift(BINARY)))
    report(8, hollow and isolated and points,
           "hollow triangle / 2 isolated vertices / single points")


# -- criterion 9: metric axioms ----------------------------------------------


def test_criterion_9_metric_axioms():
    rng = random.Random(2024)
    ab3 = Alphabet("abc")
    for i in range(200):
        ab = ab3 if i % 3 == 0 else BINARY
        x, y, z = (rand_config(rng, ab) for _ in range(3))
        for d in (d_besicovitch, d_weyl):
            assert d(x, x) == 0
            assert d(x, y) == d(y, x)
            assert d(x, z) <= d(x, y) + d(y, z)
        assert d_besicovitch(x, y) <= d_weyl(x, y) <= 1
        k = rng.randint(-10, 10)
        assert d_besicovitch(shift(x, k), shift(y, k)) == d_besicovitch(x, y)
        assert d_weyl(shift(x, k), shift(y, k)) == d_weyl(x, y)
    report(9, True, "200 random triples, exact")


# -- criterion 10: distance-to-shift oracle equivalence ----------------------


def test_criterion_10_distance_oracle():
    g = golden_mean()
    assert distance_to_shift(parse_config("inf(1).inf(1)", BINARY), g) \
        == F(1, 2)
    assert distance_to_shift(periodic_config("110", BINARY), g) == F(1, 3)
    rng = random.Random(55)
    pool = [golden_mean()] + [
        compile_sft(SftSpec(BINARY, s))
        for s in (("11",), ("111",), ("00",), ("010",), ("11", "000"))]
    done = 0
    while done < 50:
        Y = rng.choice(pool)
        w = "".join(rng.choice("01") for _ in range(rng.randint(1, 7)))
        x = periodic_config(w, BINARY)
        detail = distance_to_shift_detail(x, Y)
        if detail.right_cycle_len > 10:
            continue
        oracle = min(
            cyclic_mismatch_density(x.right_period, ow[i:] + ow[:i])
            for ow in periodic_orbits(Y, 10) for i in range(len(ow)))
        assert oracle == detail.distance, (w, Y.edges)
        done += 1
    report(10, done == 50, "50 instances + 2 fixed cases, exact")


# -- criterion 11: unique approximation property ------------------------------


def test_criterion_11a_block_shift_stated():
    # Every point of the block shift has one parity class all 0.  For
    # y = inf(00011011) that class costs 2/8 whichever it is, and copying y
    # on the free class gives minimizers inf(0001) and inf(00001010) in two
    # orbits.  Odd periods put the two choices one shift apart and periods
    # 2, 4, 6 put them in one orbit, so P = 8 is the first tie.  The oracle
    # reaches this without the library's search, distance or orbit code.
    assert parity_shift_uap_oracle(7) is None
    want_w, want_d, want_orbits = parity_shift_uap_oracle(8)
    assert (want_w, want_d) == ("00011011", F(1, 4))
    assert sorted(len(n) for n in want_orbits) == [4, 8]
    v = unique_approximation_search(block_shift(), 8)
    ok = (v.violation and v.witness == periodic_config(want_w, BINARY)
          and v.distance == want_d
          and sorted(least_rotation(z.right_period) for z in v.minimizers)
          == sorted(want_orbits)
          and sorted(z.period for z in v.minimizers) == [4, 8])
    report("11a", ok, f"tie at P=8: witness {v.witness!r} at {v.distance}, "
           f"oracle {want_w} at {want_d} with orbits {want_orbits}")


def test_criterion_11b_golden_witness():
    v = unique_approximation_search(golden_mean(), 8)
    ok = v.violation and v.witness == periodic_config("011", BINARY)
    # confirm both minimizer orbits independently
    if ok:
        d = v.distance
        for z in v.minimizers:
            assert cyclic_mismatch_density("011", z.right_period) == d
    report("11b", ok, f"witness {v.witness!r} at {v.distance}")


# -- criterion 12: measure suite ----------------------------------------------


def test_criterion_12_measure_suite():
    start = time.monotonic()
    ok = True
    for X in (full_shift(BINARY), golden_mean(), even_shift()):
        mu = parry_measure(X)
        ok = ok and max(abs(v - 1) for v in mu.row_sums().values()) <= 1e-12
        ok = ok and mu.stationarity_residual() <= 1e-12
        rng = random.Random(7)
        words = [w for n in range(1, 8) for w in language(X, n)]
        for w in rng.sample(words, min(100, len(words))):
            total = sum(cylinder(mu, w + a) for a in "01")
            ok = ok and abs(total - cylinder(mu, w)) <= 1e-12
        cert = cylinder_decay_bound(mu, 12)
        g = float(cert.gamma)
        for n in range(1, 12 // cert.t + 1):
            for w in language(X, cert.t * n):
                ok = ok and cylinder(mu, w) <= g ** n * (1 + 1e-9)
    for n in range(1, 21):
        for m in range(2, 7):
            for p in range(1, m):
                ok = ok and verify_binomial_bound(n, m, p)
    m, n0 = binomial_growth_threshold(2, 1)
    for n in range(n0, 8 * n0 + 1):
        if n % m == 0:
            ok = ok and comb(n, n // m) <= 2 ** n
    w = bernoulli_prefix(BINARY, 0, 10 ** 6)
    for length in (1, 2, 3):
        total = len(w) - length + 1
        for t in itertools.product("01", repeat=length):
            pat = "".join(t)
            count = sum(w.startswith(pat, i) for i in range(total))
            ok = ok and abs(count / total - 2 ** -length) < 0.01
    elapsed = time.monotonic() - start
    report(12, ok and elapsed <= 180, f"{elapsed:.1f}s")


# -- criterion 13: Hamming ball counting --------------------------------------


def test_criterion_13_ball_counts():
    for w in ("0", "01", "011"):
        for eps in (F(1, 8), F(1, 4), F(1, 2)):
            for n in range(1, 15):
                count, bound, ok = hamming_ball_count(w, n, eps)
                assert ok, (w, eps, n, count, bound)
    report(13, True, "all n <= 14, eps in {1/8, 1/4, 1/2}, exact")
