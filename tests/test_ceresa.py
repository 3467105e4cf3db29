import concurrent.futures
import functools
import json
import math
import os
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp, to_rational

import _cyclo_reference as cyclo_reference
import _scan_reference as scan_reference
from _extalg_reference import ceresa_eval_k
from _fermat_reference import example_triple, klein_trace_route, phi_pairing
from fermatvol import ceresa, specfun
from fermatvol.ceresa import (CeresaResult, RowFailure, _decimal_len, f_value,
                              genus, klein_value, multiples_scan, table1,
                              verdict_for)
from fermatvol.fermat import FermatCurve, harmonic_volume_trace
from fermatvol.specfun import BoundedReal, DomainError, PrecisionError, clear_caches

F = Fraction


def test_f41_matches_published_fraction():
    r = f_value(4, 1, 30)
    assert abs(r.frac - mp.mpf("0.262996")) < 1e-5
    assert r.verdict == "non-integral"
    assert r.h_terms == 1


def test_cold_table_computes_each_log_once(monkeypatch):
    # ln N recurs across a degree's twist arguments at one precision: each distinct
    # (n, prec) is computed once, its first attempt being at prec + _LOG_GUARD bits
    asked, computed = [], Counter()
    log_fixed, interval = specfun._log_fixed, specfun._log_interval

    def asking(n, prec):
        asked.append((n, prec))
        return log_fixed(n, prec)

    def computing(n, wp, cut):
        if cut == specfun._LOG_GUARD // 2:
            computed[n, wp - specfun._LOG_GUARD] += 1
        return interval(n, wp, cut)

    monkeypatch.setattr(specfun, "_log_fixed", asking)
    monkeypatch.setattr(specfun, "_log_interval", computing)
    clear_caches()
    table1([9, 15], 1, 30)
    assert len(asked) > len(set(asked))
    assert computed == Counter(set(asked))


def test_cold_twist_term_does_no_fraction_arithmetic(monkeypatch, count_fractions):
    # a cold _h_term builds h/N, 1 - h/N and 1 - 2h/N from ints and hands them on; from
    # there to the kernels every parameter is read through its numerator and
    # denominator, so no Fraction is computed, compared or built again
    used, built = count_fractions()
    clear_caches()
    term = ceresa._h_term(97, 23, 50)
    monkeypatch.undo()
    assert used == Counter()
    assert built == [(23, 97), (74, 97), (51, 97)]
    clear_caches()
    want = ceresa._h_term(97, 23, 50)
    assert (term.mid, term.rad, term.exp) == (want.mid, want.rad, want.exp)


def test_f71_and_f99_match_published_fraction():
    assert abs(f_value(7, 1, 30).frac - mp.mpf("0.0389723")) < 1e-5
    r = f_value(99, 1, 30)
    assert abs(r.frac - mp.mpf("0.72628")) < 1e-5
    assert r.h_terms == 30


@pytest.mark.parametrize("digits", [0, -400, 12.5])
def test_f_value_refuses_fewer_than_one_digit(digits):
    # -400 once returned a row certified against the float 10 ** -400 == 0.0, and 12.5
    # a row too
    for call in [lambda: f_value(5, 1, digits), lambda: ceresa.klein_value(1, digits)]:
        with pytest.raises(DomainError, match=f"digits must be an int of at least 1, got "
                                              f"{digits}"):
            call()


def test_f_value_k_range_guard():
    with pytest.raises(DomainError):
        f_value(4, 2, 20)  # genus 3 allows only k = 1
    with pytest.raises(DomainError):
        f_value(3, 1, 20)


def test_f_value_scaling_in_k():
    # f(N,k) = k! N^{2(k-1)} f(N,1)
    r1 = f_value(5, 1, 30)
    r3 = f_value(5, 3, 30)
    with mp.workprec(400):
        scale = math.factorial(3) * 5 ** 4
        gap = abs(r3.value.value - scale * r1.value.value)
        assert gap <= r3.value.err + scale * r1.value.err


def test_f_value_independent_of_k_order(monkeypatch):
    # every admissible k at N = 9, ascending and then descending, each from cold caches:
    # ascending continues each twist series' tail solve and partial sum to the next
    # precision, descending solves and sums it once at the highest and reads the lower
    # orders and lengths back from its exact prefix
    resumed = []
    steps, ratios = specfun._tail_solve_steps, specfun._term_ratios

    def counted_steps(P, Q, s, K, Valt, factors, diag):
        resumed.append(bool(factors))
        return steps(P, Q, s, K, Valt, factors, diag)

    def counted_ratios(uppers, lowers, start, stop):
        resumed.append(start > 0)
        return ratios(uppers, lowers, start, stop)

    monkeypatch.setattr(specfun, "_tail_solve_steps", counted_steps)
    monkeypatch.setattr(specfun, "_term_ratios", counted_ratios)

    def sweep(ks):
        clear_caches()
        resumed.clear()
        rows = {k: f_value(9, k) for k in ks}
        return {k: (r.value.value._mpf_, r.err._mpf_, r.frac._mpf_, r.verdict)
                for k, r in rows.items()}, any(resumed)

    ks = range(1, genus(9) - 1)
    up, up_resumed = sweep(ks)
    down, down_resumed = sweep(reversed(ks))
    assert up == down
    assert up_resumed and not down_resumed
    assert {v[3] for v in up.values()} == {"non-integral"}


def test_verdict_logic():
    assert verdict_for(mp.mpf("0.3"), mp.mpf("0.001")) == "non-integral"
    assert verdict_for(mp.mpf("0.3"), mp.mpf("0.04")) == "inconclusive"
    # a synthetic exact integer: distance zero can never clear the margin
    assert verdict_for(mp.mpf(0), mp.mpf("1e-40")) == "inconclusive"


def test_nonintegrality_check_examples():
    assert f_value(5, 1, 30).verdict == "non-integral"
    # degree 8 at the top admissible k (genus 21 -> k = 19)
    assert genus(8) == 21
    r = f_value(8, 19, 30)
    assert r.verdict == "non-integral"


@pytest.mark.parametrize("n, k, digits, more", [(13, 64, 100, 130), (17, 118, 30, 60)])
def test_f_value_past_355_ln_gamma_digits(n, k, digits, more):
    # the twist terms' ln_gamma calls need more than 355 digits (and a Stirling order
    # above 259), where the order search once stopped with PrecisionError
    r = f_value(n, k, digits)
    assert r.verdict == "non-integral"
    assert r.value.agrees_with(f_value(n, k, more).value)


def test_trace_cross_identity_small():
    # f(N,1) = 2 * traced harmonic volume at the standard triple
    for n in (4, 5, 7):
        r = f_value(n, 1, 30)
        tr = harmonic_volume_trace(FermatCurve(n), example_triple(FermatCurve(n)), 40)
        with mp.workprec(300):
            gap = abs(r.value.value - 2 * tr.value)
            assert gap <= r.value.err + 2 * tr.err


def test_table_rows_and_failure_reporting():
    rows = table1([4, 5, 6], 1, 30)
    assert [r.n for r in rows] == [4, 5, 6]
    assert all(isinstance(r, CeresaResult) for r in rows)
    # an inadmissible k yields a reported failure, not an exception
    rows = table1([4, 5], 2, 30)
    assert isinstance(rows[0], RowFailure)
    assert isinstance(rows[1], CeresaResult)


def test_table_threads_deterministic():
    a = table1([4, 5, 6, 7], 1, 30, threads=1)
    b = table1([4, 5, 6, 7], 1, 30, threads=2)
    assert [r.csv_row() for r in a] == [r.csv_row() for r in b]


def test_table_threads_clamped(monkeypatch):
    # a serial stand-in pool records the worker count; no real process is started
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    rows = table1([4, 5], threads=10 ** 6)
    assert seen == [2]
    assert [r.n for r in rows] == [4, 5]
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    table1([4, 5], threads=10 ** 6)
    assert seen == [2]


def test_gamma_precision_error_is_row_failure(monkeypatch):
    # a gamma quotient whose bound misses its digits fails the row, explicitly
    def wide(x, digits=30):
        return BoundedReal(mp.mpf(1), mp.mpf(10) ** -3)
    clear_caches()
    monkeypatch.setattr(specfun, "ln_gamma", wide)
    try:
        rows = table1([5, 7], 1, 30)
    finally:
        clear_caches()
    assert all(isinstance(r, RowFailure) and r.message.startswith("PrecisionError")
               for r in rows)


@pytest.mark.parametrize("n,h,digits", [(97, 23, 50), (13, 6, 280)])
def test_twist_term_bound_is_its_propagated_parts(n, h, digits):
    # the product is formed exactly and rounded once: its bound is the propagated
    # |g| err(F) + |F| err(g) plus at most half an ulp at 2^-(bits(digits) + 40), no slop
    x = Fraction(h, n)
    g = specfun.gamma_quotient([1 - x] * 4, [1 - 2 * x] * 2, digits + 6)
    f = specfun.hyp_unit_sum([x, x, 1 - 2 * x], [1, 1], digits + 6)
    term = ceresa._h_term(n, h, digits)
    gv, ge, fv, fe, tv, te = map(_exact, (g.value, g.err, f.value, f.err, term.value, term.err))
    parts = abs(gv) * fe + abs(fv) * ge + Fraction(1, 2 ** (specfun._bits(digits) + 41))
    assert te <= 2 * parts
    assert abs(tv - gv * fv) <= te


def test_decimal_len_matches_str():
    # exact on every input, also past Python's int-to-str digit limit, which is
    # lifted here only to get the reference
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rng = random.Random(7)
        cases = [0, 1, -1, 9, -10]
        for j in range(1, 6000, 7):
            cases += [10 ** j - 1, 10 ** j, -(10 ** j)]
        cases += [rng.getrandbits(rng.randint(1, 40000)) for _ in range(300)]
        cases.append(ceresa._prefactor(100, 4000))  # 28,674 digits
        for p in cases:
            assert _decimal_len(p) == len(str(p)), p
    finally:
        sys.set_int_max_str_digits(limit)


def test_multiples_scan_small():
    res = multiples_scan(5, 1, 10, 30)
    assert res.all_verified and res.verified_up_to == 10
    assert res.err_per_unit == f_value(5, 1, 30).err


def _dyadic(man, exp):
    return mp.make_mpf(from_man_exp(man, exp))


def _exact(x):
    return Fraction(*to_rational(x._mpf_))


def test_exact_fixed_reads_binary_fractions():
    rng = random.Random(11)
    xs = [_dyadic(rng.randint(-2 ** 200, 2 ** 200), rng.randint(-400, 40)) for _ in range(50)]
    xs += [mp.mpf(0), mp.mpf(3) * 2 ** 70]
    # a ball's ints: value mid 2^exp and bound rad 2^exp, over 2^-prec with prec >= 0
    for value, err in zip(xs, reversed(xs)):
        err = _dyadic(*err._mpf_[1:3])   # |err|, exactly
        ball = BoundedReal(value, err)
        prec = -ball.exp
        assert prec >= 0
        assert (Fraction(ball.mid, 2 ** prec), Fraction(ball.rad, 2 ** prec)) == \
            (_exact(value), _exact(err))
    for bad in (mpmath.inf, -mpmath.inf, mpmath.nan):
        with pytest.raises(ValueError):
            BoundedReal(mp.mpf(1), bad)


def _from_dyadic_fraction(q):
    return _dyadic(q.numerator, 1 - q.denominator.bit_length())


def _split(rng, value, err, count):
    # count dyadic terms of varied exponents whose values sum to value and
    # whose bounds sum to err
    parts = [_dyadic(rng.randint(-2 ** 200, 2 ** 200), rng.randint(-450, 10))
             for _ in range(count - 1)]
    parts.append(_from_dyadic_fraction(_exact(value) - sum(map(_exact, parts), F(0))))
    man, exp = err._mpf_[1:3]
    cuts = sorted(rng.randint(0, man) for _ in range(count - 1))
    errs = [_dyadic(hi - lo, exp) for lo, hi in zip([0] + cuts, cuts + [man])]
    return [BoundedReal(v, e) for v, e in zip(parts, errs)]


def test_certify_is_exact_on_binary_fractions():
    # the sum of the terms times the prefactor, its fractional part, the distance
    # to the nearest integer and the bound equal their exact rational values
    rng = random.Random(12)
    for _ in range(200):
        n, k = rng.randint(4, 40), rng.randint(1, 6)
        prefactor = ceresa._prefactor(n, k)
        value = _dyadic(rng.randint(-2 ** 300, 2 ** 300), rng.randint(-420, 20))
        err = _dyadic(rng.randint(0, 2 ** 40), rng.randint(-480, -300))
        terms = _split(rng, value, err, rng.randint(1, 5))
        assert sum(map(_exact, (t.value for t in terms))) == _exact(value)
        assert sum(map(_exact, (t.err for t in terms))) == _exact(err)
        r = ceresa._certify(n, k, prefactor, 30, lambda inner: terms)
        v = _exact(value) * prefactor
        frac = v - math.floor(v)
        dist = min(frac, 1 - frac)
        e = _exact(err) * prefactor
        assert (_exact(r.value.value), _exact(r.frac), _exact(r.int_distance)) == (v, frac, dist)
        assert _exact(r.err) == _exact(r.value.err) == e
        assert r.verdict == ("non-integral" if dist > 10 * e else "inconclusive")
        assert r.h_terms == len(terms)


def test_certify_enforces_digits_contract(monkeypatch):
    # a bound above 10^-digits raises PrecisionError, one at it does not
    def wide(n, h, digits):
        return BoundedReal(mp.mpf(0.25), mp.mpf(2) ** -90)
    prefactor = ceresa._prefactor(5, 1)
    with pytest.raises(PrecisionError):
        ceresa._certify(5, 1, prefactor, 30, lambda inner: [wide(5, 1, inner)] * 3)
    # the largest bound in ulps of 2^-200 within 10^-1, and one ulp more
    at_bound = mp.make_mpf(from_man_exp((1 << 200) // 10, -200))
    at = ceresa._certify(5, 1, 1, 1, lambda inner: [BoundedReal(mp.mpf(0.5), at_bound)])
    assert at.err == at_bound and at.verdict == "inconclusive"
    with pytest.raises(PrecisionError):
        ceresa._certify(5, 1, 1, 1, lambda inner: [BoundedReal(mp.mpf(0.5), at_bound),
                                                   BoundedReal(0, mp.mpf(2) ** -200)])
    # table1 reports the row as a failure
    monkeypatch.setattr(ceresa, "_h_term", wide)
    rows = table1([5, 7], 1, 30)
    assert all(isinstance(r, RowFailure) and r.message.startswith("PrecisionError")
               for r in rows)


def _reference_first_inconclusive(f, e, m_max):
    for m in range(1, m_max + 1):
        r = m * f % 1
        if min(r, 1 - r) <= ceresa.MARGIN_FACTOR * m * e:
            return m
    return None


def _scan_cases():
    third = (2 ** 64 - 1) // 3  # (2^64 - 1) / 3 in units of 2^-64
    cases = [(5, -4, 1, -5, 3),        # distance equals 10 * err at m = 1
             (5, -4, 1, -6, 3),        # clears it by a factor 2
             (third, -64, 1, -68, 10),  # 3f misses 1 by 2^-64 < 30 err
             (third, -64, 1, -70, 10)]  # ... > 30 err
    rng = random.Random(13)
    for _ in range(40):
        cases.append((rng.getrandbits(120) | 1, -120,
                      rng.getrandbits(8) | 1, -rng.randint(23, 36), 500))
    return cases


def test_multiples_scan_matches_exact_reference(monkeypatch):
    outcomes = set()
    for fm, fe, em, ee, m_max in _scan_cases():
        base = SimpleNamespace(frac=_dyadic(fm, fe), err=_dyadic(em, ee))
        monkeypatch.setattr(ceresa, "f_value", lambda n, k, digits: base)
        res = multiples_scan(5, 1, m_max, 30)
        first = _reference_first_inconclusive(_exact(base.frac), _exact(base.err), m_max)
        assert scan_reference.first_inconclusive(base.frac, base.err, m_max) == first
        assert res.first_inconclusive == first
        assert res.verified_up_to == (m_max if first is None else first - 1)
        assert res.err_per_unit == base.err
        outcomes.add(first if first in (None, 1) else "later")
    assert outcomes == {None, 1, "later"}


def test_multiples_scan_guard():
    with pytest.raises(PrecisionError):
        multiples_scan(5, 1, 10 ** 60, 30)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda prec: st.tuples(
           st.integers(0, 2 ** prec - 1), st.just(-prec))),
       st.tuples(st.integers(0, 2 ** 12), st.integers(-44, -12)),
       st.integers(1, 2000))
@example((3, -3), (0, 0), 20)            # err = 0: m = 8, the denominator of frac
@example((0, 0), (1, -40), 20)           # frac = 0: m = 1
@example((69, -7), (1, -8), 20)          # dist(2 frac, Z) = 5/64 = 10 * 2 * err exactly
@example((5, -11), (1, -12), 20)         # frac = 10 err: the interval reaches 0
@example((2043, -11), (1, -12), 20)      # 1 - frac = 10 err: it reaches 1
def test_multiples_scan_matches_linear_loop(frac, err, m_max):
    # the smallest-denominator search returns the first m the linear walk fails at
    base = SimpleNamespace(frac=_dyadic(*frac), err=_dyadic(*err))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ceresa, "f_value", lambda n, k, digits: base)
        if m_max * _exact(base.err) >= F(1, 10):
            with pytest.raises(PrecisionError):
                multiples_scan(5, 1, m_max, 30)
            return
        res = multiples_scan(5, 1, m_max, 30)
    first = scan_reference.first_inconclusive(base.frac, base.err, m_max)
    assert res.first_inconclusive == first
    assert res.verified_up_to == (m_max if first is None else first - 1)


def test_multiples_scan_finds_large_first_multiple():
    # far beyond any walk: m fails the margin rule exactly, by Fraction arithmetic,
    # and the search takes 64 continued-fraction steps
    base = f_value(5, 1, 30)  # the twist terms, outside the timed search
    t0 = time.perf_counter()
    res = multiples_scan(5, 1, 10 ** 30, 30)
    assert time.perf_counter() - t0 < 0.1
    m = 730220312483273298691662530864
    assert (res.first_inconclusive, res.verified_up_to) == (m, m - 1)
    r = m * _exact(base.frac) % 1
    assert min(r, 1 - r) <= ceresa.MARGIN_FACTOR * m * _exact(base.err)


def test_json_and_csv_shapes():
    r = f_value(5, 1, 30)
    d = json.loads(r.to_json())
    assert set(d) == {"n", "k", "value", "frac", "int_distance", "err", "h_terms", "verdict"}
    assert d["n"] == 5 and d["verdict"] == "non-integral"
    assert r.csv_row().startswith("5,1,0.5377411")
    s = multiples_scan(5, 1, 5, 30)
    assert json.loads(s.to_json())["verified_up_to"] == 5


def test_frac_formatting_six_significant():
    r = f_value(7, 1, 30)
    assert r.frac_6digits() == "0.0389723"


def test_klein_range_guard():
    with pytest.raises(DomainError):
        klein_value(14, 20)
    with pytest.raises(DomainError):
        klein_value(0, 20)


def test_klein_k1_cross_module_identity():
    # closed display vs the traced harmonic volume route over twists {1,2,4}
    a = klein_value(1, 30)
    b = klein_trace_route(1, 30)
    with mp.workprec(300):
        assert abs(a.value.value - b.value) <= a.value.err + b.err


def test_klein_hyp_factor_matches_arc_integrals():
    # the single 3F2 factor times each squared gamma bracket reproduces the
    # per-twist arc integrals assembled independently
    from fermatvol.fermat import FermatIndex, delta_iterated_integral
    curve = FermatCurve(7)
    i1, i2 = FermatIndex(7, 1, 2), FermatIndex(7, 2, 4)
    total = None
    with mp.workprec(300):
        for h in (1, 2, 4):
            v = delta_iterated_integral(curve, i1.scaled(h), i2.scaled(h), 35)
            total = v if total is None else total + v
        a = klein_value(1, 30)
        gap = abs(a.value.value - 2 * 49 * total.value)
        assert gap <= a.value.err + 2 * 49 * total.err


def test_precision_monotonicity_smoke():
    lo = f_value(9, 1, 20)
    hi = f_value(9, 1, 40)
    with mp.workprec(400):
        assert abs(lo.value.value - hi.value.value) <= lo.value.err + hi.value.err


@pytest.mark.parametrize("curve_case,k", [
    pytest.param("fermat", 2, id="2"),
    pytest.param("fermat", 3, id="3"),
    pytest.param("klein", 2, id="klein-2"),
    pytest.param("klein", 3, id="klein-3"),
])
def test_f_value_through_permutation_sum(curve_case, k):
    # end-to-end: build the 2k+1 labels of the collapsed configuration with
    # the exact eigenclass pairing (scaled so chain pairs give exactly N^2,
    # everything else exactly zero) and push the k=1 value through the
    # constrained permutation sum; k! times the result must be the value at
    # k.  For the Klein triple this checks the k-dependence of klein_value
    # by a route that does not share its k! 7^{2k} prefactor.
    from fermatvol.cyclotomic import one_minus_power
    from fermatvol.fermat import FermatIndex

    n = 7
    curve = FermatCurve(n)
    if curve_case == "klein":
        triple = (FermatIndex(n, 1, 2), FermatIndex(n, 2, 4), FermatIndex(n, 4, 1))
        chain = [(FermatIndex(n, 1, 3), FermatIndex(n, -1, -3)),
                 (FermatIndex(n, 2, 3), FermatIndex(n, -2, -3))][: k - 1]
        value = klein_value
    else:
        triple = (FermatIndex(n, 1, -2), FermatIndex(n, -2, 1), FermatIndex(n, 1, 1))
        chain = [(FermatIndex(n, 1, 2), FermatIndex(n, -1, -2)),
                 (FermatIndex(n, 2, 3), FermatIndex(n, -2, -3))][: k - 1]
        value = functools.partial(f_value, n)
    labels = list(triple)
    scale = {}
    for (c, cneg) in chain:
        labels += [c, cneg]
        scale[c] = one_minus_power(n, c.a + c.b) * (
            one_minus_power(n, c.a) * one_minus_power(n, c.b)).inverse()
    assert len(set(labels)) == 2 * k + 1

    def pair(x, y):
        raw = phi_pairing(curve, x, y)
        if raw.is_zero():
            return 0
        val = raw * scale.get(x, 1) * scale.get(y, 1)
        assert cyclo_reference.is_rational(val)
        q = cyclo_reference.rational_value(val)
        assert q.denominator == 1
        return int(q)

    base = value(1, 30)

    # heads are requested for every ascending triple; all but the canonical
    # one are annihilated by the exact zero pairings, so any total function
    # works and the collapse itself is what is being exercised
    def phi1(t):
        return base.value

    with mp.workprec(350):
        through = ceresa_eval_k(k, tuple(labels), phi1, pair) * math.factorial(k)
        direct = value(k, 30)
        assert abs(through.value - direct.value.value) <= through.err + direct.value.err
