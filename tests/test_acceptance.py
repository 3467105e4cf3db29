"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 2 checks
the Klein k=13 fractional part of the formula documented in
``klein_value`` against an mpmath oracle that shares no code with
``fermatvol.specfun``, and against the traced harmonic volume.  The
previously reported 0.96275 is not a value of that formula (all routes
give 0.0703575612...); it is kept below as a named constant only.  See
README for details.
"""

import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from _extalg_reference import (ceresa_eval_k, ceresa_eval_k_bruteforce, pi_pq,
                               perm_sign, v_pairing, v_pairing_bruteforce)
from _fermat_reference import example_triple, klein_trace_route
from fermatvol.ceresa import f_value, genus, klein_value, multiples_scan, table1
from fermatvol.fermat import (FermatCurve, delta_iterated_integral,
                              harmonic_volume_trace, index_set)
from fermatvol.specfun import dixon_family, euler_double_integral, gamma_quotient

F = Fraction

# fractional parts of the degree-4..99 sweep, as previously published
PUBLISHED_FRACTIONS = {
    4: "0.262996", 5: "0.537741", 6: "0.834938", 7: "0.0389723", 8: "0.486831",
    9: "0.191617", 10: "0.0194112", 11: "0.714331", 12: "0.787413", 13: "0.339364",
    14: "0.107307", 15: "0.964777", 16: "0.0707329", 17: "0.849791", 18: "0.8478",
    19: "0.216837", 20: "0.459979", 21: "0.296951", 22: "0.876098", 23: "0.884882",
    24: "0.565879", 25: "0.227588", 26: "0.674037", 27: "0.024742", 28: "0.860369",
    29: "0.862392", 30: "0.706843", 31: "0.753471", 32: "0.389462", 33: "0.736648",
    34: "0.106166", 35: "0.518381", 36: "0.447655", 37: "0.525754", 38: "0.709018",
    39: "0.90578", 40: "0.885897", 41: "0.888106", 42: "0.664142", 43: "0.053105",
    44: "0.194837", 45: "0.167823", 46: "0.581124", 47: "0.0668079", 48: "0.0527443",
    49: "0.492313", 50: "0.316991", 51: "0.298819", 52: "0.59749", 53: "0.444978",
    54: "0.919842", 55: "0.714357", 56: "0.197632", 57: "0.321665", 58: "0.688486",
    59: "0.0898551", 60: "0.687806", 61: "0.832525", 62: "0.301712", 63: "0.02593",
    64: "0.920061", 65: "0.706527", 66: "0.0810429", 67: "0.0490554", 68: "0.718085",
    69: "0.964278", 70: "0.103166", 71: "0.449617", 72: "0.544859", 73: "0.356497",
    74: "0.505994", 75: "0.232621", 76: "0.992762", 77: "0.581805", 78: "0.102977",
    79: "0.822496", 80: "0.517871", 81: "0.960151", 82: "0.0135158", 83: "0.686773",
    84: "0.791853", 85: "0.862785", 86: "0.698527", 87: "0.169399", 88: "0.440793",
    89: "0.678576", 90: "0.312135", 91: "0.285791", 92: "0.877431", 93: "0.360037",
    94: "0.796999", 95: "0.797337", 96: "0.532044", 97: "0.848835", 98: "0.898728",
    99: "0.72628",
}


def _report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion}] {tag} {detail}")


def test_criterion_1_table_reproduction():
    t0 = time.time()
    rows = table1(range(4, 100), 1, 30)
    elapsed = time.time() - t0
    worst = 0.0
    bad = []
    for row in rows:
        target = mp.mpf(PUBLISHED_FRACTIONS[row.n])
        gap = abs(float(row.frac - target))
        worst = max(worst, gap)
        if gap > 1e-5:
            bad.append(row.n)
    ok = not bad and elapsed < 600
    _report("1: table of 96 fractional parts",
            ok, f"worst gap {worst:.2e}, {elapsed:.1f}s")
    assert not bad, f"rows off beyond 1e-5: {bad}"
    assert elapsed < 600


# The fractional part once reported for the Klein k=13 quantity.  It is not
# a value of the formula that klein_value documents: that formula gives
# 0.0703575612633883864526598715... by the certified closed form, by the
# traced harmonic volume and by plain mpmath at 60, 80 and 120 dps.  Kept
# as a record only; criterion 2 asserts the documented formula instead.
REPORTED_KLEIN_13_FRACTION = "0.96275"

# Oracle tolerance for criterion 2.  At 60 dps the k=13 value (~1.8e32)
# keeps ~28 fractional digits, and the 60- and 80-dps oracles differ by
# ~5e-29; mpmath's unit-argument 3F2 carries no proved bound, so the
# oracle is a-posteriori and gets 8 orders of headroom.  A wrong prefactor
# or gamma bracket moves the fraction by O(0.1), far above this.
KLEIN_ORACLE_TOL = mp.mpf("1e-20")


def _klein_oracle_fraction(k: int):
    """frac(k! 2 7^{2k} (G[3/7,6/7;2/7]^2 + G[5/7,6/7;4/7]^2 + G[3/7,5/7;1/7]^2)
    3F2(1/7,2/7,4/7;1,1;1)) from plain mpmath gamma and hyp3f2 at 60 dps,
    independent of fermatvol.specfun."""
    with mp.workdps(60):
        s = mp.mpf(1) / 7

        def bracket(x, y, z):
            return mpmath.gamma(x * s) * mpmath.gamma(y * s) / mpmath.gamma(z * s)

        acc = bracket(3, 6, 2) ** 2 + bracket(5, 6, 4) ** 2 + bracket(3, 5, 1) ** 2
        hyp = mpmath.hyp3f2(s, 2 * s, 4 * s, 1, 1, 1)
        value = math.factorial(k) * 2 * 7 ** (2 * k) * acc * hyp
        return value - mpmath.floor(value)


def test_criterion_2_klein_reported_fraction():
    t0 = time.time()
    res = klein_value(13, 30)
    elapsed = time.time() - t0
    oracle = _klein_oracle_fraction(13)
    traced = klein_trace_route(13, 30)
    with mp.workprec(400):
        gap = abs(res.frac - oracle)
        route_gap = abs(res.value.value - traced.value)
        route_ok = route_gap <= res.value.err + traced.err
    ok = (gap <= KLEIN_ORACLE_TOL and route_ok
          and res.verdict == "non-integral" and elapsed < 60)
    _report("2: Klein k=13 fraction vs mpmath oracle", ok,
            f"got {mpmath.nstr(res.frac, 12)}, oracle gap {mpmath.nstr(gap, 3)} "
            f"(reported {REPORTED_KLEIN_13_FRACTION} not reproduced), {elapsed:.1f}s")
    assert gap <= KLEIN_ORACLE_TOL, (
        f"Klein k=13 fractional part {mpmath.nstr(res.frac, 30)} is "
        f"{mpmath.nstr(gap, 3)} from the mpmath oracle {mpmath.nstr(oracle, 30)}")
    assert route_ok, (
        f"closed form and traced volume differ by {mpmath.nstr(route_gap, 3)}, "
        f"beyond their bounds {mpmath.nstr(res.value.err + traced.err, 3)}")
    assert res.verdict == "non-integral"
    assert elapsed < 60


def test_criterion_3_scaled_scans():
    t0 = time.time()
    bad = []
    for n in range(4, 101):
        if f_value(n, 1, 30).verdict != "non-integral":
            bad.append((n, 1))
    for n in range(4, 9):
        for k in range(1, genus(n) - 1):
            if f_value(n, k, 30).verdict != "non-integral":
                bad.append((n, k))
    scan = multiples_scan(5, 1, 10 ** 4, 30)
    ok = not bad and scan.all_verified
    _report("3: scaled non-integrality scans", ok,
            f"{97 + sum(genus(n) - 2 for n in range(4, 9))} checks, "
            f"multiples to 1e4, {time.time() - t0:.1f}s")
    assert not bad, f"inconclusive at {bad}"
    assert scan.all_verified


def test_criterion_4_dixon_ten_way_oracle():
    t0 = time.time()
    rng = random.Random(513)
    disagreements = 0
    evaluated = 0
    for _ in range(50):
        quad = [F(rng.randint(1, den - 1), den)
                for den in (rng.randint(5, 40) for _ in range(4))]
        members = dixon_family(*quad, digits=18)
        live = [m for m in members if not m.skipped]
        evaluated += len(live)
        for i in range(len(live)):
            for j in range(i + 1, len(live)):
                if not live[i].value.agrees_with(live[j].value):
                    disagreements += 1
    elapsed = time.time() - t0
    ok = disagreements == 0 and elapsed < 120
    _report("4: Dixon ten-way consistency", ok,
            f"50 quadruples, {evaluated} member values, {elapsed:.1f}s")
    assert disagreements == 0
    assert elapsed < 120


def test_criterion_5_quadrature_cross_check():
    t0 = time.time()
    curve = FermatCurve(5)
    idxs = index_set(5)
    worst = 0.0
    bad = []
    beta_cache = {}

    def beta(idx):
        key = (idx.alpha, idx.beta)
        if key not in beta_cache:
            beta_cache[key] = gamma_quotient([idx.alpha, idx.beta],
                                             [idx.alpha + idx.beta], 25)
        return beta_cache[key]

    with mp.workprec(200):
        for i1 in idxs:
            for i2 in idxs:
                closed = delta_iterated_integral(curve, i1, i2, 25)
                normalized = closed * beta(i1) * beta(i2)
                quad = euler_double_integral(i1.alpha, i1.beta, i2.alpha, i2.beta)
                gap = abs(float(normalized.value - quad.value))
                worst = max(worst, gap)
                if gap > 1e-8:
                    bad.append(((i1.a, i1.b), (i2.a, i2.b), gap))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 300
    _report("5: closed form vs quadrature at degree 5", ok,
            f"{len(idxs) ** 2} pairs, worst gap {worst:.2e}, {elapsed:.1f}s")
    assert not bad, bad[:5]
    assert elapsed < 300


def test_criterion_6_combinatorial_oracles():
    import itertools
    from fermatvol.cyclotomic import CycloElem, euler_phi
    rng = random.Random(99)

    def rand_cyclo(n=5):
        return CycloElem(n, [F(rng.randint(-3, 3)) for _ in range(euler_phi(n))])

    ok = True
    # shuffle map vs full-group filter up to grade 7
    for (p, q) in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 4)]:
        word = tuple(range(p + q))
        expected = []
        for perm in itertools.permutations(range(p + q)):
            if all(perm[i] < perm[i + 1] for i in range(p - 1)) and \
               all(perm[p + i] < perm[p + i + 1] for i in range(q - 1)):
                expected.append((perm_sign(perm), tuple(perm[:p]), tuple(perm[p:])))
        ok &= sorted(pi_pq(word, p, q)) == sorted(expected)
    # matching sums and the k-fold reduction vs brute force, exact coefficients
    for k in (2, 3):
        labels = tuple(range(2 * (k - 1)))
        pairs = {}

        def pair(a, b):
            key = (a, b) if a <= b else (b, a)
            if key not in pairs:
                pairs[key] = rand_cyclo()
            return pairs[key] if a <= b else -pairs[key]

        ok &= v_pairing(k, labels, pair) == v_pairing_bruteforce(k, labels, pair)
        labels2 = tuple(range(2 * k + 1))
        heads = {}

        def phi1(t):
            if t not in heads:
                heads[t] = rand_cyclo()
            return heads[t]

        ok &= ceresa_eval_k(k, labels2, phi1, pair) == \
            ceresa_eval_k_bruteforce(k, labels2, phi1, pair)
    _report("6: combinatorial brute-force equivalence", ok, "grades <= 7, exact")
    assert ok


def test_criterion_7_cross_module_identity():
    t0 = time.time()
    bad = []
    with mp.workprec(300):
        for n in range(4, 13):
            r = f_value(n, 1, 30)
            curve = FermatCurve(n)
            tr = harmonic_volume_trace(curve, example_triple(curve), 40)
            gap = abs(r.value.value - 2 * tr.value)
            if gap > r.value.err + 2 * tr.err:
                bad.append((n, float(gap)))
    ok = not bad
    _report("7: f(N,1) vs traced harmonic volume", ok,
            f"N=4..12, {time.time() - t0:.1f}s")
    assert not bad, bad


def test_criterion_8_precision_monotonicity():
    rng = random.Random(2024)
    bad = []
    for _ in range(20):
        n = rng.randint(4, 30)
        kmax = min(3, genus(n) - 2)
        k = rng.randint(1, kmax)
        digits = rng.randint(14, 40)
        lo = f_value(n, k, digits)
        hi = f_value(n, k, 2 * digits)
        with mp.workprec(700):
            if abs(hi.value.value - lo.value.value) > lo.value.err:
                bad.append((n, k, digits))
    ok = not bad
    _report("8: doubling digits stays inside prior interval", ok, "20 random triples")
    assert not bad, bad
