import ast
import math
import os
import random
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from operator import mul
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_float, from_man_exp, fzero, to_rational

import fermatvol
from fermatvol import _quadrature, specfun
from fermatvol.specfun import (_LOG_ULPS, BoundedComplex, BoundedReal, DivergenceError,
                               DomainError, PrecisionError, _bits, _certified,
                               _defect_poly, _hyp_unit_series, _ln_gamma_fixed,
                               _log_fixed, _partial_sum, _poly_from_factors,
                               _round_product, _solve_tail_series, _stirling_coeffs,
                               _stirling_order, _stirling_sum, _tail_defect_majorant,
                               clear_caches, dixon_family, euler_double_integral,
                               gamma_quotient, hyp_unit_sum, ln_gamma)

import _product_reference as product_reference
from _appell_reference import appell_f3_partial_sum, appell_f3_unit
import _series_reference as series_reference

F = Fraction


def agree(a: BoundedReal, b, slack=0):
    b = b if isinstance(b, BoundedReal) else BoundedReal(mp.mpf(b), 0)
    return abs(a.value - b.value) <= a.err + b.err + slack


# ------------------------------------------------------------- BoundedReal

def _dyadic(man, exp):
    return mp.make_mpf(from_man_exp(man, exp))


def _exact(x):
    return F(*to_rational(x._mpf_))


_VALUE = st.builds(_dyadic, st.integers(-2 ** 200, 2 ** 200), st.integers(-300, 50))
_ERR = st.builds(_dyadic, st.integers(0, 2 ** 64), st.integers(-300, 0))
_BOUNDED = st.builds(BoundedReal, _VALUE, _ERR)
_INT = st.one_of(st.integers(-10, 10), st.integers(-2 ** 100, 2 ** 100))


@settings(max_examples=300, deadline=None)
@given(_BOUNDED, _BOUNDED, _INT, st.integers(20, 300))
def test_bounded_sums_and_int_multiples_are_exact(a, b, n, prec):
    # value and bound equal their exact rational values at any ambient precision
    va, ea, vb, eb = _exact(a.value), _exact(a.err), _exact(b.value), _exact(b.err)
    with mp.workprec(prec):
        cases = [(a + b, va + vb, ea + eb), (a - b, va - vb, ea + eb),
                 (a * n, va * n, ea * abs(n)), (n * a, va * n, ea * abs(n)),
                 (a + n, va + n, ea), (n - a, n - va, ea),
                 (a * b, va * vb, abs(va) * eb + (abs(vb) + eb) * ea)]
    for r, v, e in cases:
        assert (_exact(r.value), _exact(r.err)) == (v, e)


_UNIT = st.fractions(min_value=-1, max_value=1, max_denominator=10 ** 6)


@settings(max_examples=300, deadline=None)
@given(_BOUNDED, _BOUNDED, _UNIT, _UNIT, st.integers(20, 300))
@example(BoundedReal(0, 5), BoundedReal(9, 0), F(1), F(0), 20)  # the value is 0
def test_bounded_products_and_quotients_enclose(a, b, s, t, prec):
    # every point x, y of the input intervals multiplies into the result's interval;
    # a quotient is not defined
    x = _exact(a.value) + s * _exact(a.err)
    y = _exact(b.value) + t * _exact(b.err)
    with mp.workprec(prec):
        r = a * b
        with pytest.raises(TypeError):
            a / b
    assert abs(_exact(r.value) - x * y) <= _exact(r.err)


@pytest.mark.parametrize("bad", [mpmath.inf, -mpmath.inf, mpmath.nan])
def test_bounded_classes_reject_non_finite(bad):
    for build in (lambda: BoundedReal(bad, 0), lambda: BoundedReal(1, bad),
                  lambda: BoundedComplex(1, bad), lambda: BoundedComplex(mp.mpc(bad, 0), 0),
                  lambda: BoundedComplex(mp.mpc(0, bad), 0)):
        with pytest.raises(ValueError):
            build()


def test_bounded_constructors_keep_values_exactly():
    with mp.workprec(200):
        long = mp.mpf(1) + mp.mpf(2) ** -100  # 101 bits
    with mp.workprec(20):
        r = BoundedReal(2 ** 60 + 1, 0)
        z = BoundedComplex(long, 0)
        w = BoundedComplex(2 ** 60 + 1, 0.1)
    assert r.value._mpf_ == from_man_exp(2 ** 60 + 1, 0) and r.err == 0
    assert z.value._mpc_ == (long._mpf_, fzero) and z.err == 0
    assert w.value.real == 2 ** 60 + 1 and w.err._mpf_ == from_float(0.1)
    for bad in (F(1, 3), "1", 1j, None):
        with pytest.raises(TypeError):
            BoundedReal(bad, 0)
        with pytest.raises(TypeError):
            BoundedReal(0, bad)
        with pytest.raises(TypeError):
            BoundedComplex(bad, 0)
    with pytest.raises(TypeError):
        specfun._coerce(F(1, 2))  # a Fraction operand


_FACTOR = st.tuples(_BOUNDED, _UNIT)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FACTOR, min_size=2, max_size=3), st.integers(20, 300))
@example([(BoundedReal(_dyadic(3, -300), 0), F(0)), (BoundedReal(_dyadic(5, -300), 0), F(0))],
         20)  # exact inputs: the bound is the rounding residual alone
def test_round_product_encloses(factors, prec):
    # every point of the input intervals multiplies into the result's interval, whose
    # value is the product of the values rounded to nearest on the grid 2^-prec and
    # whose bound is the propagated one plus that residual, rounded up to prec bits
    r = _round_product([b for b, _ in factors], prec)
    value, err = _exact(r.value), _exact(r.err)
    points = [_exact(b.value) + s * _exact(b.err) for b, s in factors]
    assert abs(value - math.prod(points)) <= err
    mids = [_exact(b.value) for b, _ in factors]
    residual = abs(value - math.prod(mids))
    assert residual <= F(1, 2 ** (prec + 1)) and (value * 2 ** prec).denominator == 1
    propagated = (math.prod(abs(x) + _exact(b.err) for x, (b, _) in zip(mids, factors))
                  - math.prod(map(abs, mids)))
    assert err <= (propagated + residual) * (1 + F(1, 2 ** (prec - 1)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_BOUNDED, min_size=2, max_size=3), st.integers(20, 300), st.integers(20, 300))
@example([BoundedReal(_dyadic(3, -300), 0), BoundedReal(_dyadic(5, -300), 0)], 20, 20)
@example([BoundedReal(_dyadic(3, -2), 0), BoundedReal(1, 0)], 1, 20)  # a tie rounds up
@example([BoundedReal(_dyadic(-3, -2), 0), BoundedReal(1, 0)], 1, 20)
# a propagated bound of 272 bits: rounding its sum with the residual inside mpf_add
# gives one unit of 2^-167 too little
@example([BoundedReal(_dyadic(-170291327862742125279659094042409525157, -173),
                      _dyadic(68693013665953, -54)),
          BoundedReal(_dyadic(158995533303789212914779621430729863, -243),
                      _dyadic(18858969, -42))], 142, 20)
def test_round_product_matches_integer_reference(factors, prec, ambient):
    # the product of the bounded reals, rounded once, is bit for bit the integer
    # computation it replaced, at any ambient precision
    with mp.workprec(ambient):
        r = _round_product(factors, prec)
    ref = product_reference.round_product(factors, prec)
    assert (r.value._mpf_, r.err._mpf_) == (ref.value._mpf_, ref.err._mpf_)


def test_agrees_with_is_exact_at_low_ambient_precision():
    # intervals that touch agree and intervals 2^-300 apart do not, though the ambient
    # precision cannot tell their ends apart
    tiny, gap = _dyadic(1, -200), _dyadic(1, -300)
    with mp.workprec(20):
        one = BoundedReal(1, 0)
        touching = BoundedReal(_dyadic(2 ** 200 + 1, -200), tiny)
        apart = BoundedReal(mpmath.fadd(touching.value, gap, exact=True), tiny)
        assert one.agrees_with(touching) and touching.agrees_with(one)
        assert not one.agrees_with(apart) and not apart.agrees_with(one)
        # a 3-4-5 triangle: the discs touch at one point
        unit = BoundedComplex(1, 0)
        re, im = _dyadic(2 ** 200 + 3, -200), _dyadic(4, -200)
        five = _dyadic(5, -200)
        assert unit.agrees_with(_complex(re, im, five))
        assert not unit.agrees_with(_complex(re, im, mpmath.fsub(five, gap, exact=True)))


def _complex(re, im, err):
    # the exact dyadic parts, not re-rounded to the ambient precision
    return BoundedComplex(mp.make_mpc((re._mpf_, im._mpf_)), err)


def _disc_point(z: BoundedComplex, dx: F, dy: F) -> tuple[F, F]:
    return _exact(z.value.real) + dx * _exact(z.err), _exact(z.value.imag) + dy * _exact(z.err)


_COMPLEX = st.builds(_complex, _VALUE, _VALUE, _ERR)
_OFFSET = st.tuples(_UNIT, _UNIT).filter(lambda p: p[0] ** 2 + p[1] ** 2 <= 1)


@settings(max_examples=300, deadline=None)
@given(_COMPLEX, _COMPLEX, _OFFSET, _OFFSET, st.integers(20, 300))
@example(BoundedComplex(0, 5), BoundedComplex(mp.mpc(mp.mpf(1) / 57), 0),
         (F(1), F(0)), (F(0), F(0)), 20)  # bound rounds down, value is 0
def test_bounded_complex_sums_and_products_enclose(a, b, s, t, prec):
    # every point x, y of the input discs lands inside the result's disc
    (xr, xi), (yr, yi) = _disc_point(a, *s), _disc_point(b, *t)
    with mp.workprec(prec):
        cases = [(a + b, xr + yr, xi + yi), (a - b, xr - yr, xi - yi),
                 (a * b, xr * yr - xi * yi, xr * yi + xi * yr)]
    for r, tr, ti in cases:
        dr, di = _exact(r.value.real) - tr, _exact(r.value.imag) - ti
        assert dr * dr + di * di <= _exact(r.err) ** 2


# ---------------------------------------------------------------- ln_gamma

def test_ln_gamma_at_one_is_zero():
    r = ln_gamma(F(1), 30)
    assert abs(r.value) <= r.err


def test_ln_gamma_half_is_log_sqrt_pi():
    r = ln_gamma(F(1, 2), 40)
    with mp.workdps(60):
        ref = mpmath.log(mpmath.sqrt(mp.pi))
        assert abs(r.value - ref) <= r.err
        assert r.err <= mp.mpf(10) ** -40


def test_ln_gamma_five_is_log_24():
    r = ln_gamma(F(5), 35)
    with mp.workdps(50):
        assert abs(r.value - mpmath.log(24)) <= r.err


def test_ln_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        ln_gamma(F(0), 20)
    with pytest.raises(DomainError):
        ln_gamma(F(-3, 2), 20)


@pytest.mark.parametrize("digits", [15, 30, 50, 80])
def test_ln_gamma_bound_contains_truth(digits):
    rng = random.Random(digits)
    for _ in range(8):
        x = F(rng.randint(1, 400), rng.randint(1, 100))
        r = ln_gamma(x, digits)
        with mp.workdps(digits + 30):
            ref = mpmath.loggamma(mp.mpf(x.numerator) / x.denominator)
            assert abs(r.value - ref) <= r.err
            assert r.err <= mp.mpf(10) ** (-digits)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 3), st.integers(10, 300))
def test_ln_gamma_encloses_loggamma(p, q, digits):
    r = ln_gamma(F(p, q), digits)
    assert r.err <= mp.mpf(10) ** -digits
    with mp.workdps(2 * digits + 20):
        ref = mpmath.loggamma(mp.mpf(p) / q)
        assert abs(r.value - ref) <= r.err


def _bernoulli_reference(n):
    """B_0..B_n from the defining recurrence sum_k C(m+1, k) B_k = 0 (B_1 = -1/2)."""
    row = [F(1)]
    for m in range(1, n + 1):
        row.append(-sum(math.comb(m + 1, k) * bk for k, bk in enumerate(row)) / (m + 1))
    return row


_BERNOULLI = _bernoulli_reference(2 * 41 + 2)


def test_bernoulli_even_matches_recurrence():
    # the Stirling coefficients B_2n / ((2n)(2n-1)) against the defining recurrence: from
    # the row at import the row grows in place to exactly J + 1 entries, and a shorter
    # request reuses it
    ref = [None] + [(b.numerator, b.denominator * (2 * n) * (2 * n - 1))
                    for n, b in enumerate(_bernoulli_reference(400)[::2]) if n]
    clear_caches()
    longest = 0
    for J in (0, 1, 3, 44, 45, 95, 30, 200, 57):
        row = _stirling_coeffs(J)
        longest = max(longest, J)
        assert row is specfun._STIRLING_COEFFS and len(row) == longest + 1
        assert row == ref[:longest + 1]


def test_ln_gamma_core_independent_of_bernoulli_growth():
    # the same (value, round_err, rem, prec) from a Stirling row and ln 2 cache grown by
    # these requests in either order; cold ones for each of them, and a warm rerun, give
    # it too
    args = [(F(1, 3), 30), (F(97, 5), 120), (F(2, 7), 56), (F(11, 13), 250), (F(5, 4), 12)]
    runs = []
    for order in (args, args[::-1]):
        clear_caches()
        runs.append({a: _ln_gamma_fixed.__wrapped__(*a) for a in order})
    assert runs[0] == runs[1]
    for a in args:
        clear_caches()
        assert _ln_gamma_fixed.__wrapped__(*a) == runs[0][a]
    for order in (args, args[::-1]):
        assert {a: _ln_gamma_fixed.__wrapped__(*a) for a in order} == runs[0]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 5), st.integers(1, 10 ** 3), st.integers(1, 40),
       st.integers(4, 400))
def test_stirling_sum_within_rounding_term(A, D, J, prec):
    # the fixed-point sum against the exact rational sum, and the remainder
    # bound against the exact first omitted term
    S, rem = _stirling_sum(A, D, J, prec)
    y = F(A, D)
    exact = sum(_BERNOULLI[2 * j] / ((2 * j) * (2 * j - 1) * y ** (2 * j - 1))
                for j in range(1, J + 1))
    omitted = abs(_BERNOULLI[2 * J + 2]) / ((2 * J + 2) * (2 * J + 1) * y ** (2 * J + 1))
    ulp = F(1, 2 ** prec)
    assert abs(S * ulp - exact) <= J * ulp
    assert omitted <= rem * ulp < omitted + ulp


def test_stirling_order_matches_per_call_loop():
    # the search evaluates the scan's float expression, so J is identical, also past
    # J = 259 (where a table of the terms once stopped) and up to the cap
    for y in (0.5, 1.0, 2.5, 10.0, 10.5, 17.25, 40.0 / 3, 106.0, 361.5, 1000.0):
        for digits in range(0, 801, 7):
            assert _stirling_order(y, digits) == series_reference.stirling_order(y, digits)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.floats(0.05, 2000), st.integers(1, 400).map(float),
                 st.integers(2, 800).map(lambda k: k / 2)),
       st.integers(0, 3000))
@example(0.3, 0)                    # no falling stretch to bisect
@example(10 ** 12, 3)               # one term suffices
@example(81.9, 1400)                # the answer near the falling stretch's end
@example(1.7e308, 10)               # pi y is infinite
@example(806.0, 2000)               # the answer past the cap
@example(457.39130434782606, 1128)  # J = 860, the largest of f_value(23, 229, 30)
def test_stirling_order_bisected_start_matches_scan(y, digits):
    # the scan starts after a bisected J that it would have passed, so J is identical,
    # None included where no J up to the cap reaches the target
    assert _stirling_order(y, digits) == series_reference.stirling_order(y, digits)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2 ** 2000), st.integers(4, 1200))
def test_log_fixed_within_slop(n, prec):
    L = _log_fixed(n, prec)
    with mp.workprec(prec + n.bit_length().bit_length() + 40):
        assert abs(mp.mpf(L) - mpmath.ldexp(mpmath.log(n), prec)) <= _LOG_ULPS


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2 ** 2000), st.integers(4, 1200))
@example(1, 4)
@example(2 ** 2000, 1200)
def test_log_fixed_is_the_mpmath_floor(n, prec):
    # the integer routine returns the integers of the mpmath formula it replaced
    assert _log_fixed(n, prec) == series_reference.log_fixed(n, prec)


def _sqrt2_neighbours(bits):
    # the last n with n / 2^(bits-1) < sqrt(2) and the first past it
    below = math.isqrt(1 << (2 * bits - 1))
    return below, below + 1


def _log_edge_grid():
    ns = {1, 2, 3}
    for k in (2, 3, 5, 8, 13, 31, 32, 33, 63, 64, 65, 100, 263, 498, 1000, 2000):
        ns.update((2 ** k - 1, 2 ** k, 2 ** k + 1))
    for bits in (2, 3, 4, 5, 8, 12, 16, 31, 32, 33, 64, 300, 2000):
        ns.update(_sqrt2_neighbours(bits))
    return sorted(ns)


def _twist_log_calls(monkeypatch):
    # every (n, prec) that ln Gamma's logs take for the twist arguments 1 - h/N and
    # 1 - 2h/N at table's ln_gamma digits (68) and deep's (68..138): ln A, ln D and the
    # rising factorials prod(range(a, A, D))
    calls = set()

    def record(n, prec):
        calls.add((n, prec))
        return _log_fixed(n, prec)

    monkeypatch.setattr(specfun, "_log_fixed", record)
    for N in (4, 5, 7, 9, 13, 23, 97):
        for h in range(1, (N - 1) // 2 + 1):
            if math.gcd(h, N) == 1:
                for digits in range(68, 139, 10):
                    _ln_gamma_fixed.__wrapped__(1 - F(h, N), digits)
                    _ln_gamma_fixed.__wrapped__(1 - F(2 * h, N), digits)
    return sorted(calls)


def test_log_fixed_edge_grid(monkeypatch):
    for n in _log_edge_grid():
        for prec in (4, 5, 53, 264, 498, 1200):
            assert _log_fixed(n, prec) == series_reference.log_fixed(n, prec), (n, prec)
    twist = _twist_log_calls(monkeypatch)
    assert max(n.bit_length() for n, _ in twist) > 500
    for n, prec in twist:
        assert _log_fixed(n, prec) == series_reference.log_fixed(n, prec), (n, prec)


def test_log_fixed_guard_retry(monkeypatch):
    # from one guard bit every call needs the retry, and the floor is the same
    attempts = []
    interval = specfun._log_interval

    def counted(n, wp, cut):
        attempts.append(n)
        return interval(n, wp, cut)

    monkeypatch.setattr(specfun, "_LOG_GUARD", 1)
    monkeypatch.setattr(specfun, "_log_interval", counted)
    rng = random.Random(26)
    cases = [(n, prec) for n in _log_edge_grid() for prec in (4, 264)]
    cases += [(rng.getrandbits(rng.randrange(2, 2001)) | 1, rng.randrange(4, 1201))
              for _ in range(60)]
    for n, prec in cases:
        attempts.clear()
        # past the memo, which may hold (n, prec) from an earlier test
        assert _log_fixed.__wrapped__(n, prec) == series_reference.log_fixed(n, prec), (n, prec)
        assert len(attempts) > 1 or n == 1


def _encloses(pair, f, wp):
    # |value - 2^wp f| <= err, f evaluated by mpmath 64 bits beyond the value
    v, err = pair
    with mp.workprec(abs(v).bit_length() + 64):
        return abs(v - mpmath.ldexp(f(), wp)) <= err


def test_ln2_pair_encloses_ln2():
    for wp in (1, 4, 17, 53, 264, 284, 518, 1000, 2048, 5000):
        pair = specfun._ln2_fixed.__wrapped__(wp)
        assert _encloses(pair, lambda: +mpmath.ln2, wp), wp
        assert pair[1] == 2


def _log_pair_cases():
    rng = random.Random(2026)
    ns = [n for bits in (2, 3, 4, 9, 13, 20, 40, 300, 2000) for n in _sqrt2_neighbours(bits)]
    ns += [3, 5, 7, 12, 97, 1234, 2 ** 11 + 1, 2 ** 40 - 1]
    ns += [rng.getrandbits(2000) | 1 << 1999 for _ in range(6)]
    return ns


@pytest.mark.parametrize("wp", [4, 9, 24, 60, 284, 1220])
@pytest.mark.parametrize("cut", [0, 5, 10, 30])
def test_log_pairs_enclose_ln(wp, cut):
    # (value, err) of ln n, and of its atanh series, against mpmath: the worst ratio
    # (n next to 2^e sqrt 2), 2,000-bit n, and cuts that leave a large tail
    for n in _log_pair_cases():
        assert _encloses(specfun._log_interval(n, wp, cut), lambda: mpmath.log(n), wp), n
        e = n.bit_length() - (n * n < 1 << (2 * n.bit_length() - 1))
        p, q = abs(n - (1 << e)), n + (1 << e)
        if p:
            pair = specfun._atanh_fixed(p, q, wp, cut)
            assert _encloses(pair, lambda: mpmath.atanh(mp.mpf(p) / q), wp), n


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 2 ** 2000), st.integers(1, 1300), st.integers(0, 40))
def test_log_pair_encloses_ln_everywhere(n, wp, cut):
    assert _encloses(specfun._log_interval(n, wp, cut), lambda: mpmath.log(n), wp)


def test_ln_gamma_rejects_arguments_beyond_floats():
    with pytest.raises(DomainError, match="float range"):
        ln_gamma(10 ** 400, 20)
    with pytest.raises(DomainError, match="float range"):
        gamma_quotient([10 ** 400], [1], 20)
    # the largest floats still work
    assert ln_gamma(10 ** 300, 20).value > 0


def test_ln_gamma_certifies_near_the_float_maximum():
    # pi y is infinite here; the order search once took int() of it (bare OverflowError)
    r = ln_gamma(10 ** 308, 10)
    assert r.err <= mp.mpf(10) ** -10
    with mp.workdps(360):
        assert abs(r.value - mpmath.loggamma(mp.mpf(10) ** 308)) <= r.err
    q = gamma_quotient([10 ** 308], [10 ** 308 + 1], 10)
    assert q.err <= mp.mpf(10) ** -10
    with mp.workdps(30):
        assert abs(q.value - mp.mpf(10) ** -308) <= q.err


@pytest.mark.parametrize("digits", [360, 600, 1000])
@pytest.mark.parametrize("x", [F(12, 13), F(1, 3), F(5, 7)])
def test_ln_gamma_past_355_digits(x, digits):
    # these need a Stirling order above 259, where a table of the order search once
    # stopped (PrecisionError from 355 digits)
    r = ln_gamma(x, digits)
    assert r.err <= mp.mpf(10) ** -digits
    with mp.workdps(digits + 30):
        assert abs(r.value - mpmath.loggamma(mp.mpf(x.numerator) / x.denominator)) <= r.err


def test_ln_gamma_past_the_order_cap_refuses_before_building():
    # J of about 1,540 is over the cap: refused before any Stirling coefficient is built
    clear_caches()
    ln_gamma(F(1, 3), 30)
    before = len(specfun._STIRLING_COEFFS)
    start = time.perf_counter()
    with pytest.raises(PrecisionError, match=f"_STIRLING_ORDER_MAX = {1 << 10}"):
        ln_gamma(F(1, 3), 2000)
    assert time.perf_counter() - start < 1
    assert len(specfun._STIRLING_COEFFS) == before


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 3), st.integers(10, 300))
def test_ln_gamma_rounding_below_nominal_ulp(p, q, digits):
    # the guard bits keep all rounding below 2^-(bits(digits) + 30), so the
    # bound is the Stirling remainder plus less than one ulp of that precision
    value, round_err, rem, prec = _ln_gamma_fixed(F(p, q), digits)
    assert round_err < 2 ** (prec - _bits(digits) - 30)
    with mp.workprec(prec + 80):
        ref = mpmath.ldexp(mpmath.loggamma(mp.mpf(p) / q), prec)
        assert abs(value - ref) <= round_err + rem


def test_ln_gamma_core_computed_once_per_argument_and_digits():
    clear_caches()
    first = ln_gamma(F(1, 3), 30)
    again = ln_gamma(F(1, 3), 30)
    ln_gamma(F(1, 3), 40)
    info = _ln_gamma_fixed.cache_info()
    assert (info.hits, info.misses) == (1, 2)
    # each call builds its own BoundedReal from the shared tuple of ints
    assert again is not first
    assert (again.value._mpf_, again.err._mpf_) == (first.value._mpf_, first.err._mpf_)


@settings(max_examples=100, deadline=None)
@given(st.fractions(min_value=F(1, 10 ** 3), max_value=10 ** 3, max_denominator=10 ** 3),
       st.integers(15, 80))
def test_ln_gamma_core_cache_matches_uncached(q, digits):
    assert _ln_gamma_fixed(q, digits) == _ln_gamma_fixed.__wrapped__(q, digits)


# ------------------------------------------------------------ gamma_quotient

def test_gamma_quotient_identity():
    r = gamma_quotient([1, 1], [1, 1], 30)
    assert agree(r, 1)


def test_gamma_quotient_three_quarters_fourth_over_pi():
    # Gamma(3/4)^4 / Gamma(1/2)^2 with Gamma(1/2)^2 = pi
    r = gamma_quotient([F(3, 4)] * 4, [F(1, 2)] * 2, 35)
    with mp.workdps(60):
        ref = mpmath.gamma(mp.mpf(3) / 4) ** 4 / mp.pi
        assert abs(r.value - ref) <= r.err


def test_gamma_quotient_beta_matches_quadrature():
    # B(1/3, 1/5) against the independent quadrature of u^(s-1)(1-u)^(t-1)
    r = gamma_quotient([F(1, 3), F(1, 5)], [F(1, 3) + F(1, 5)], 30)
    import numpy as np
    from scipy.special import roots_jacobi
    x, w = roots_jacobi(160, 1.0 / 5.0 - 1.0, 1.0 / 3.0 - 1.0)
    quad = float(np.sum(w)) * 0.5 ** (1.0 / 3.0 + 1.0 / 5.0 - 1.0)
    assert abs(float(r.value) - quad) < 1e-10


def test_gamma_quotient_rejects_nonpositive():
    with pytest.raises(DomainError):
        gamma_quotient([F(-1, 2)], [F(1)], 20)


def test_gamma_quotient_raises_on_wide_bound(monkeypatch):
    def wide(x, digits=30):
        return BoundedReal(mp.mpf(1), mp.mpf(10) ** -3)
    monkeypatch.setattr(specfun, "ln_gamma", wide)
    with pytest.raises(PrecisionError):
        gamma_quotient([F(1, 3)], [F(2, 3)], 30)


def test_gamma_quotient_refuses_exponents_past_the_cap():
    # Gamma(5000) needs about 56,000 integer bits, under the cap of 2^16, and encloses
    # 4999!; Gamma(6000), about 69,000 bits, and Gamma(10^6) raise before the exponential
    r = gamma_quotient([5000], [1], 20)
    assert abs(r.mid - (math.factorial(4999) << -r.exp)) <= r.rad
    for big in (6000, 10 ** 6):
        start = time.perf_counter()
        with pytest.raises(PrecisionError, match=f"above {specfun._EXP_INT_BITS_MAX}"):
            gamma_quotient([big], [1], 20)
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize("relative", [True, False])
@pytest.mark.parametrize("value", [976, -976, 0])
@pytest.mark.parametrize("digits,prec", [(0, 7), (3, 10), (30, 150)])
def test_certified_accepts_the_contract_and_not_one_ulp_more(digits, prec, value, relative):
    # err <= 10^-digits (1 + |value|), or err <= 10^-digits, on the exact integers
    limit = ((1 << prec) + (abs(value) if relative else 0)) // 10 ** digits
    r = _certified(value, limit, prec, digits, "test", relative=relative)
    assert (r.value, r.err) == (mpmath.ldexp(value, -prec), mpmath.ldexp(limit, -prec))
    with pytest.raises(PrecisionError, match=f"test bound .* above 10\\^-{digits}"):
        _certified(value, limit + 1, prec, digits, "test", relative=relative)


def test_certified_at_the_contract_exactly():
    # 10^-3 (1 + 976/1024) = 2/1024 and 10^0 = 1024/1024 are reached, not just approached
    assert _certified(976, 2, 10, 3, "test").err == mp.mpf(2) / 1024
    assert _certified(-976, 1024, 10, 0, "test", relative=False).err == 1
    with pytest.raises(PrecisionError):
        _certified(976, 2, 10, 3, "test", relative=False)


def test_ln_gamma_enforces_absolute_digits_contract(monkeypatch):
    # a remainder above 10^-digits raises, whatever the value; one at it does not
    def remainder(rem):
        return lambda q, digits: (1 << 200, 0, rem, 100)
    monkeypatch.setattr(specfun, "_ln_gamma_fixed", remainder((1 << 100) // 10 ** 20))
    assert ln_gamma(F(1, 3), 20).err <= mp.mpf(10) ** -20
    monkeypatch.setattr(specfun, "_ln_gamma_fixed", remainder((1 << 100) // 10 ** 20 + 1))
    with pytest.raises(PrecisionError, match="ln_gamma bound"):
        ln_gamma(F(1, 3), 20)


_GAMMA_ARG = st.fractions(min_value=F(1, 40), max_value=4, max_denominator=40)


@settings(max_examples=150, deadline=None)
@given(st.lists(_GAMMA_ARG, max_size=4), st.lists(_GAMMA_ARG, max_size=4), st.integers(10, 80))
@example([F(1, 40)] * 4, [F(39, 40)] * 4, 30)  # about 2.4e6
@example([F(39, 40)] * 4, [F(1, 40)] * 4, 30)  # about 4.1e-7
def test_gamma_quotient_encloses_gamma_product(nums, dens, digits):
    r = gamma_quotient(nums, dens, digits)
    assert r.err <= mp.mpf(10) ** -digits * (1 + abs(r.value))
    with mp.workdps(2 * digits + 20):
        ref = (mpmath.fprod(mpmath.gamma(mp.mpf(a.numerator) / a.denominator) for a in nums)
               / mpmath.fprod(mpmath.gamma(mp.mpf(b.numerator) / b.denominator) for b in dens))
        slack = abs(ref) * mp.mpf(2) ** (8 - mp.prec)  # the reference's own rounding
    assert abs(_exact(r.value) - _exact(ref)) <= _exact(r.err) + _exact(slack)


@pytest.mark.parametrize("sign", [1, -1])
def test_gamma_quotient_propagates_log_errors(monkeypatch, sign):
    # every ln Gamma moved by 2^-100 inside a bound widened to match: the quotient
    # still encloses the true product, through e^x eps (1 + eps) and not the ulp charge
    true_ln_gamma, shift = specfun.ln_gamma, _dyadic(sign, -100)

    def moved(x, digits=30):
        r = true_ln_gamma(x, digits)
        return BoundedReal(mpmath.fadd(r.value, shift, exact=True),
                           mpmath.fadd(r.err, abs(shift), exact=True))
    monkeypatch.setattr(specfun, "ln_gamma", moved)
    r = gamma_quotient([F(1, 3), F(1, 3), F(1, 40)], [F(3, 5)], 20)
    with mp.workdps(60):
        ref = mpmath.gamma(mp.mpf(1) / 3) ** 2 * mpmath.gamma(mp.mpf(1) / 40) \
            / mpmath.gamma(mp.mpf(3) / 5)
        slack = ref * mp.mpf(2) ** (8 - mp.prec)
    assert abs(_exact(r.value) - _exact(ref)) <= _exact(r.err) + _exact(slack)


# ------------------------------------------------------------- 3F2 at unity

def test_hyp_unit_sum_enforces_digits_contract():
    # terms far above 1: this sum once came back as 7.0e-30 with err 3.7e74, and then
    # raised; the accepted attempt now reruns once with bits for its ulp count
    uppers, lowers = [F(1552, 3), F(169, 12), F(-507, 2)], [F(85, 6), F(543, 2)]
    r = hyp_unit_sum(uppers, lowers, 15)
    assert r.err <= mp.mpf(10) ** -15 * (1 + abs(r.value))
    # mpmath's own unit-argument 3F2; at 45 digits it agrees with 110 digits to 1e-53
    with mp.workdps(45):
        ref = mpmath.hyp3f2(*[mp.mpf(q.numerator) / q.denominator for q in uppers + lowers], 1)
    assert abs(r.value - ref) <= r.err


@pytest.mark.parametrize("uppers,lowers,digits", [
    ([F(-17), F(4), F(4)], [F(-5, 2), F(-7, 2)], 10),
    ([F(-25), F(4), F(4)], [F(-121, 40), F(-159, 40)], 60),
])
def test_terminating_series_meets_digits_contract(uppers, lowers, digits):
    # terms up to 5e16 and 7e23 cancel to sums below 0.01; at the default guard bits
    # the bound misses 10^-digits (1 + |value|), and the rerun with more bits meets it
    r = hyp_unit_sum(uppers, lowers, digits)
    assert r.err <= mp.mpf(10) ** -digits * (1 + abs(r.value))
    total = _exact_partial_sum(uppers, lowers, int(1 - uppers[0]))[0]
    assert abs(_exact(r.value) - total) <= _exact(r.err)


def test_hyp3f2_zero_upper_truncates_to_one():
    r = hyp_unit_sum([F(1, 3), F(2, 5), F(0)], [F(1), F(1)], 30)
    assert agree(r, 1)


def test_hyp3f2_gauss_collapse():
    # c = d makes it a 2F1; Gauss: Gamma(e)Gamma(e-a-b)/(Gamma(e-a)Gamma(e-b))
    r = hyp_unit_sum([F(1, 4), F(1, 4), F(1)], [F(1), F(1)], 35)
    ref = gamma_quotient([1, F(1, 2)], [F(3, 4), F(3, 4)], 40)
    assert r.agrees_with(ref)


@pytest.mark.parametrize("params", [
    (F(1, 4), F(1, 4), F(1, 2), 1, 1),
    (F(49, 99), F(49, 99), F(1, 99), 1, 1),
    (F(1, 7), F(2, 7), F(4, 7), 1, 1),
    (F(2, 3), F(2, 3), F(1), F(4, 3), F(21, 20)),           # margin 1/20
    (F(1, 8), F(1, 8), F(-1, 2), F(3, 8), F(3, 8)),         # negative upper
])
def test_hyp3f2_matches_mpmath(params):
    a, b, c, d, e = (F(x) for x in params)
    r = hyp_unit_sum([a, b, c], [d, e], 30)
    with mp.workdps(45):
        ref = mpmath.hyper([_f(a), _f(b), _f(c)], [_f(d), _f(e)], 1)
        assert abs(r.value - ref) <= r.err + mp.mpf(10) ** -40
        assert r.err <= mp.mpf(10) ** -30


def _f(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def test_hyp_unit_negative_noninteger_lower():
    r = hyp_unit_sum([F(1, 3), F(1, 5), F(1, 7)], [F(-1, 2), F(4)], 25)
    with mp.workdps(40):
        ref = mpmath.hyper([mp.mpf(1) / 3, mp.mpf(1) / 5, mp.mpf(1) / 7],
                           [mp.mpf(-1) / 2, 4], 1)
        assert abs(r.value - ref) <= r.err


def test_hyp3f2_divergent_raises():
    with pytest.raises(DivergenceError):
        hyp_unit_sum([F(7, 8), F(7, 8), F(1)], [F(9, 8), F(9, 8)], 20)


def test_hyp3f2_bad_lower_raises():
    with pytest.raises(DomainError):
        hyp_unit_sum([F(1, 2), F(1, 2), F(1, 2)], [F(0), F(1)])


@pytest.mark.parametrize("uppers,lowers", [
    ([2], [1]),                                 # 1F1(2; 1; 1) = 2e, convergent
    ([], []),                                   # e
    ([F(-1, 2), F(-1, 3), F(-1, 4)], []),       # 3F0, divergent
    ([F(-2), F(1, 3)], []),                     # terminating 2F0
    ([F(1, 3)], [F(1, 2), F(2)]),
])
def test_hyp_unit_sum_refuses_all_but_pFp_1(uppers, lowers):
    # P and Q are padded to one degree, so for any other shape P(1/n)/Q(1/n) is the term
    # ratio times a power of n: refused, after the non-positive lower check
    with pytest.raises(DomainError, match=r"pF\(p-1\) needs one lower parameter fewer"):
        hyp_unit_sum(uppers, lowers, 25)
    with pytest.raises(DomainError, match="non-positive integer"):
        hyp_unit_sum(uppers, lowers + [F(-1)], 25)


@pytest.mark.parametrize("digits", [0, -400, 12.5])
def test_fewer_than_one_digit_is_a_domain_error(digits):
    # -400 once shifted by a negative count (bare ValueError) in each of these, and 12.5
    # stopped hyp_unit_sum with a bare AttributeError
    twist = [F(1, 3), F(1, 3), F(1, 3)], [1, 1]
    for call in [lambda: ln_gamma(F(1, 3), digits),
                 lambda: gamma_quotient([F(1, 3)], [1], digits),
                 lambda: hyp_unit_sum(*twist, digits),
                 lambda: specfun._gamma_hyp([F(2, 3)], [F(1, 3)], *twist, digits),
                 lambda: dixon_family(F(1, 3), F(1, 2), F(1, 4), F(2, 5), digits)]:
        with pytest.raises(DomainError, match=f"digits must be an int of at least 1, got "
                                              f"{digits}"):
            call()


def test_hyp3f2_terminating_is_exact():
    # upper -3 terminates after 4 terms; compare against the explicit sum
    r = hyp_unit_sum([F(-3), F(1, 2), F(1, 3)], [F(5, 4), F(7, 4)], 30)
    with mp.workdps(50):
        total = mp.mpf(0)
        for n in range(4):
            term = (mpmath.rf(-3, n) * mpmath.rf(_f(F(1, 2)), n) * mpmath.rf(_f(F(1, 3)), n)
                    / (mpmath.rf(_f(F(5, 4)), n) * mpmath.rf(_f(F(7, 4)), n) * mpmath.factorial(n)))
            total += term
        assert abs(r.value - total) <= r.err + mp.mpf(10) ** -45


@pytest.mark.parametrize("seed", range(4))
def test_tail_bound_soundness(seed):
    # re-evaluating with 10x more terms must stay inside the reported bound
    rng = random.Random(seed)
    a = F(rng.randint(1, 9), 10)
    b = F(rng.randint(1, 9), 10)
    c = F(rng.randint(1, 9), 10)
    d = F(rng.randint(10, 19), 10)
    e = 1 + a + b + c - d + F(rng.randint(5, 15), 10)  # margin in [0.5, 1.5]
    margin = d + e - a - b - c
    assert margin > 0
    near = _hyp_unit_series([a, b, c], [d, e], 25, 500, 14)
    far = _hyp_unit_series([a, b, c], [d, e], 25, 5000, 14)
    assert abs(near.value - far.value) <= near.err + far.err
    # and the truncated raw sum sits below the value for positive terms,
    # approaching it from underneath
    with mp.workprec(250):
        raw = mpmath.ldexp(_partial_sum([a, b, c], [d, e], 5000, 250)[0], -250)
        assert raw < near.value + near.err
        assert near.value - raw < mp.mpf(10) ** -2


_PARAM = st.fractions(min_value=-2, max_value=2, max_denominator=12).filter(
    lambda x: not (x <= 0 and x.denominator == 1))


@st.composite
def _convergent(draw):
    """A 2F1 or 3F2 at 1, neither terminating nor with a non-positive integer
    lower parameter, whose margin is at least 1/10."""
    p = draw(st.integers(2, 3))
    uppers = draw(st.lists(_PARAM, min_size=p, max_size=p))
    lowers = draw(st.lists(_PARAM, min_size=p - 2, max_size=p - 2))
    margin = draw(st.fractions(min_value=F(1, 10), max_value=3, max_denominator=60))
    lowers.append(sum(uppers) - sum(lowers) + margin)
    assume(not (lowers[-1] <= 0 and lowers[-1].denominator == 1))
    return uppers, lowers


@settings(max_examples=60, deadline=None)
@given(_convergent(), st.integers(20, 80), st.booleans())
@example(([F(1), F(1), F(1)], [F(2), F(11, 10)]), 20, True)  # margin 1/10
@example(([F(1), F(1), F(1)], [F(2), F(11, 10)]), 80, False)
@example(([F(1, 3), F(1, 3), F(1, 2)], [F(1), F(4, 15)]), 80, True)
@example(([F(-3, 2), F(5, 4)], [F(-3, 20)]), 50, True)
def test_hyp_unit_sum_encloses_double_precision_reference(series, digits, short):
    # ``short`` starts from a quarter of the default (M, K), so that the accepted
    # attempt's bound is mostly the truncation term rather than rounding
    uppers, lowers = series
    if short:
        r = _hyp_unit_series(uppers, lowers, digits, digits, digits // 8 + 4)
    else:
        r = hyp_unit_sum(uppers, lowers, digits)
    ref = hyp_unit_sum(uppers, lowers, 2 * digits)
    assert r.err <= mp.mpf(10) ** -digits
    assert abs(_exact(r.value) - _exact(ref.value)) <= _exact(r.err) + _exact(ref.err)


_SCHEDULE_CASES = {
    **{f"twist97_{h}": ([F(h, 97), F(h, 97), 1 - F(2 * h, 97)], [F(1), F(1)])
       for h in (1, 23, 48)},
    "klein": ([F(1, 7), F(2, 7), F(4, 7)], [F(1), F(1)]),
    # the ninth Dixon member at (1/4, 1/4, 1/4, 3/10)
    "dixon9_margin_1_20": ([F(3, 4), F(3, 4), F(1)], [F(5, 4), F(13, 10)]),
    "2F1_negative_upper": ([F(-7, 3), F(1, 2)], [F(3, 2)]),
}


@pytest.mark.parametrize("digits", [31, 36, 56, 126])
@pytest.mark.parametrize("name", list(_SCHEDULE_CASES))
def test_default_schedule_bound_no_wider_than_fixed_schedule(name, digits):
    uppers, lowers = _SCHEDULE_CASES[name]
    new = hyp_unit_sum(uppers, lowers, digits)
    # the former fixed schedule: M = 24 d terms, K = 0.42 d + 6 capped at 48
    old = _hyp_unit_series(uppers, lowers, digits, max(400, 24 * digits),
                           min(48, max(12, int(0.42 * digits) + 6)))
    assert _exact(new.err) <= _exact(old.err)
    assert abs(_exact(new.value) - _exact(old.value)) <= _exact(new.err) + _exact(old.err)


@pytest.mark.parametrize("digits", [281, 300, 500])
@pytest.mark.parametrize("uppers", [[F(1, 5), F(1, 5), F(3, 5)], [F(1, 7), F(2, 7), F(4, 7)],
                                    [F(1, 1009), F(1, 1009), F(1007, 1009)]],
                         ids=["fifths", "klein", "twist1009_1"])
def test_hyp_unit_sum_certifies_above_280_digits(uppers, digits):
    # K grows with the digits and on escalation, so no digit count is out of reach
    r = hyp_unit_sum(uppers, [F(1), F(1)], digits)
    assert r.err < mp.mpf(10) ** -digits
    assert agree(r, hyp_unit_sum(uppers, [F(1), F(1)], 250))


# ------------------------------------------------- fixed-point partial sum

_RAT = st.fractions(min_value=-4, max_value=4, max_denominator=40)
_LOWER = _RAT.filter(lambda b: not (b <= 0 and b.denominator == 1))


def _exact_partial_sum(uppers, lowers, terms):
    """(sum of t_n over n < terms, t_terms, max |t_{n+1}/t_n|) in exact rationals."""
    t, total, worst = F(1), F(0), F(0)
    for n in range(terms):
        total += t
        ratio = F(1, n + 1)
        for a in uppers:
            ratio *= n + a
        for b in lowers:
            ratio /= n + b
        worst = max(worst, abs(ratio))
        t *= ratio
    return total, t, worst


@st.composite
def _series(draw):
    uppers = draw(st.lists(_RAT, min_size=1, max_size=3))
    lowers = draw(st.lists(_LOWER, min_size=len(uppers) - 1, max_size=len(uppers) - 1))
    if draw(st.booleans()):  # terminating
        uppers[0] = F(-draw(st.integers(0, 30)))
    if lowers and draw(st.booleans()):  # convergence margin just above 0
        b = sum(uppers) - sum(lowers[1:]) + F(1, draw(st.integers(1, 10 ** 6)))
        assume(not (b <= 0 and b.denominator == 1))
        lowers[0] = b
    return uppers, lowers


@settings(max_examples=300, deadline=None)
@given(_series(), st.integers(1, 120), st.integers(4, 160))
def test_fixed_point_partial_sum_within_rounding_term(series, terms, prec):
    uppers, lowers = series
    S, S_err, T, T_err = _partial_sum(uppers, lowers, terms, prec)
    total, t, worst = _exact_partial_sum(uppers, lowers, terms)
    ulp = F(1, 2 ** prec)
    assert abs(S * ulp - total) <= S_err * ulp
    assert abs(T * ulp - t) <= T_err * ulp
    if worst <= 1:  # non-increasing terms: at most one ulp per step
        assert T_err <= terms and S_err <= terms * (terms - 1) // 2


# ------------------------------------ exact-integer kernels against list loops

def _tail_polys(uppers, lowers):
    # P and Q as hyp_unit_sum builds them
    D = math.lcm(*(x.denominator for x in uppers + lowers))
    d = max(len(uppers), len(lowers) + 1)
    return _poly_from_factors(uppers, D, d), _poly_from_factors(lowers + [F(1)], D, d)


@st.composite
def _tail_series(draw):
    """2-4 upper parameters, lowers that may be negative, and a last lower
    that sets the margin, which need not be a unit fraction."""
    p = draw(st.integers(2, 4))
    uppers = draw(st.lists(_RAT, min_size=p, max_size=p))
    lowers = draw(st.lists(_LOWER, min_size=p - 2, max_size=p - 2))
    margin = draw(st.fractions(min_value=F(1, 60), max_value=4, max_denominator=60))
    lowers.append(sum(uppers) - sum(lowers) + margin)
    assume(not (lowers[-1] <= 0 and lowers[-1].denominator == 1))
    return uppers, lowers, margin


@settings(max_examples=150, deadline=None)
@given(_tail_series(), st.integers(10, 80), st.booleans(), st.sampled_from([0, 1, None]))
@example(([F(23, 97), F(23, 97), F(51, 97)], [F(1), F(1)], F(1)), 56, False, None)
@example(([F(-7, 3), F(1, 2)], [F(3, 2)], F(10, 3)), 30, True, 1)
def test_series_kernels_match_list_reference(series, digits, escalated, terms):
    # the default (M, K) of hyp_unit_sum, K raised by half as a failed attempt does
    uppers, lowers, margin = series
    K, M = int(digits * 0.46) + 8, 4 * digits
    K += K // 2 if escalated else 0
    P, Q = _tail_polys(uppers, lowers)
    V, L = _solve_tail_series(uppers, lowers, K)
    assert (V, L) == series_reference.solve_tail_series(P, Q, margin, K)
    assert _defect_poly(P, Q, V, L, K) == series_reference.defect_poly(P, Q, V, L, K)
    assert (_tail_defect_majorant(P, Q, V, L, K, M)
            == series_reference.tail_defect_majorant(P, Q, V, L, K, M))
    terms = M if terms is None else terms
    prec = _bits(digits) + 46 + M.bit_length()
    assert (_partial_sum(uppers, lowers, terms, prec)
            == series_reference.partial_sum(uppers, lowers, terms, prec))


@pytest.mark.parametrize("index", [0, 1, 17, 33])
@pytest.mark.parametrize("step", [-1, 1])
def test_tail_defect_majorant_detects_wrong_solution(index, step):
    # a V with one coefficient changed breaks one of the K+2 vanishing orders
    uppers, lowers = [F(23, 97), F(23, 97), F(51, 97)], [F(1), F(1)]
    P, Q = _tail_polys(uppers, lowers)
    V, L = _solve_tail_series(uppers, lowers, 33)
    V[index] += step
    with pytest.raises(AssertionError, match="tail series solve lost cancellation"):
        _tail_defect_majorant(P, Q, V, L, 33, 224)
    with pytest.raises(AssertionError, match="tail series solve lost cancellation"):
        series_reference.tail_defect_majorant(P, Q, V, L, 33, 224)


@settings(max_examples=100, deadline=None)
@given(_tail_series(), st.integers(1, 40), st.integers(0, 40), st.sampled_from([-1, 1]))
@example(([F(23, 97), F(23, 97), F(51, 97)], [F(1), F(1)], F(1)), 33, 33, -1)
@example(([F(-7, 3), F(1, 2)], [F(3, 2)], F(10, 3)), 1, 1, 1)
def test_tail_defect_majorant_detects_wrong_solution_on_drawn_series(series, K, index, step):
    # changing v_k by one changes G_{k+1} by D^d (s + k), s the margin: index K breaks
    # only G[K+1], the top slot of the vanishing half, and every index above K maps to it
    uppers, lowers, _ = series
    index = min(index, K)
    P, Q = _tail_polys(uppers, lowers)
    V, L = _solve_tail_series(uppers, lowers, K)
    V[index] += step
    with pytest.raises(AssertionError, match="tail series solve lost cancellation"):
        _tail_defect_majorant(P, Q, V, L, K, 4 * K)
    with pytest.raises(AssertionError, match="tail series solve lost cancellation"):
        series_reference.tail_defect_majorant(P, Q, V, L, K, 4 * K)


def test_cold_hyp_unit_sum_builds_its_polynomials_once(monkeypatch):
    # hyp_unit_sum hands P, Q and the margin down to the tail solve
    calls = []
    build = specfun._series_polys

    def counted(uppers, lowers):
        calls.append(1)
        return build(uppers, lowers)

    monkeypatch.setattr(specfun, "_series_polys", counted)
    clear_caches()
    hyp_unit_sum([F(23, 97), F(23, 97), F(51, 97)], [1, 1], 56)
    assert len(calls) == 1


def test_cold_hyp_unit_sum_forms_its_term_ratios_once(monkeypatch):
    # one call for the M = 224 terms, on the parameters' int pairs as the series record
    # keys them (ints and Fractions alike); the prec rerun and the tail read the record
    calls = []
    ratios = specfun._term_ratios

    def counted(ups, lows, start, stop):
        calls.append((ups, lows, start, stop))
        return ratios(ups, lows, start, stop)

    monkeypatch.setattr(specfun, "_term_ratios", counted)
    clear_caches()
    hyp_unit_sum([F(23, 97), F(23, 97), F(51, 97)], [1, F(1)], 56)
    assert calls == [(((23, 97), (23, 97), (51, 97)), ((1, 1), (1, 1)), 0, 224)]
    # the ratios themselves: num(n) = prod bd prod (n ad + an), den(n) = (n+1) prod ad
    # prod (n bd + bn)
    nums, dens = ratios(((-7, 3), (1, 2)), ((3, 2),), 2, 9)
    assert nums == [2 * (3 * n - 7) * (2 * n + 1) for n in range(2, 9)]
    assert dens == [(n + 1) * 6 * (2 * n + 3) for n in range(2, 9)]


def test_partial_sum_forms_only_the_ratios_it_lacks(monkeypatch):
    # the record keeps the ratios for the most terms asked: a new precision or fewer
    # terms form none, more terms form only those past the stored end, and every sum is
    # the cold reference's integers
    calls = []
    ratios = specfun._term_ratios

    def counted(ups, lows, start, stop):
        calls.append((start, stop))
        return ratios(ups, lows, start, stop)

    monkeypatch.setattr(specfun, "_term_ratios", counted)
    clear_caches()
    for uppers, lowers in _TAIL_GRID[:2]:
        calls.clear()
        for terms, prec, formed in [(40, 100, [(0, 40)]), (40, 211, []), (7, 100, []),
                                    (90, 60, [(40, 90)]), (90, 100, []), (1, 4, [])]:
            assert (_partial_sum(uppers, lowers, terms, prec)
                    == series_reference.partial_sum(uppers, lowers, terms, prec))
            assert calls == formed
            calls.clear()
        assert len(specfun._SERIES[specfun._series_key(uppers, lowers)][0]) == 2


# an int parameter and the same value as a Fraction; the second form of an int-valued
# Fraction is an int, so each draw may take either
_FORM = st.fractions(min_value=-3, max_value=3, max_denominator=6).flatmap(
    lambda x: st.sampled_from([x, int(x)] if x.denominator == 1 else [x]))


def _outcome(fn, *args):
    try:
        r = fn(*args)
    except (ArithmeticError, ValueError, RuntimeError) as e:
        return type(e).__name__, str(e)
    return r.mid, r.rad, r.exp


@settings(max_examples=150, deadline=None)
@given(st.lists(_FORM, min_size=1, max_size=3), st.lists(_FORM, max_size=2),
       st.integers(5, 25))
@example([F(-2), F(1, 3)], [F(1, 2)], 10)                 # terminating at n = 2
@example([F(-3, 2), F(5, 4)], [F(-3, 20)], 12)            # negative, convergent
@example([F(1, 2), F(3, 4), F(1)], [F(5, 4), F(1, 2)], 9)  # divergent, margin -1/2
@example([F(1, 3)], [F(-2)], 9)                           # non-positive integer lower
@example([F(-61, 2), F(1, 3)], [F(1, 2)], 5)              # the floor shift sets M = 64
@example([F(1, 3), F(1, 4), F(1, 5)], [F(-41, 3), 16], 6)  # ... and a negative lower qscale
@example([F(-45, 4), 2, F(1, 5)], [F(-7, 2), 3], 5)
@example([2], [1], 9)                                     # 1F1: not a pF(p-1)
def test_parameters_as_ints_or_fractions_give_the_same_ints(uppers, lowers, digits):
    # hyp_unit_sum, gamma_quotient and ln_gamma read ints and Fractions through their
    # numerators and denominators: the same ball, or the same exception and text, for
    # either form, and those of the Fraction set-up they replaced; hyp_unit_sum refuses
    # any series that is not a pF(p-1) with DomainError
    as_fractions = [F(x) for x in uppers], [F(x) for x in lowers]
    forms = [list(as_fractions), [uppers, lowers]]
    for fn, reference in [(hyp_unit_sum, series_reference.hyp_unit_sum),
                          (gamma_quotient, series_reference.gamma_quotient)]:
        clear_caches()
        unbalanced = fn is hyp_unit_sum and len(lowers) != len(uppers) - 1
        want = "DomainError" if unbalanced else _outcome(reference, *as_fractions, digits)
        for ups, lows in forms:
            clear_caches()
            got = _outcome(fn, ups, lows, digits)
            assert (got[0] if unbalanced else got) == want
    for x in uppers:
        want = _outcome(series_reference.ln_gamma, F(x), digits)
        assert _outcome(ln_gamma, x, digits) == _outcome(ln_gamma, F(x), digits) == want


@pytest.mark.parametrize("x", [-(10 ** 400 + F(1, 2)), -(10 ** 6 + F(1, 2))],
                         ids=["1e400", "1e6"])
def test_large_negative_parameter_refused_before_its_terms(x):
    # the floor shift asks for 2|x| + 3 terms: refused, naming them, before any list is
    # built (10^400 raised OverflowError from float(x); 10^6 ran out of memory)
    start = time.perf_counter()
    with pytest.raises(PrecisionError, match=r"series needs 2\.0e\+\d+ terms, above 65536"):
        hyp_unit_sum([x, F(1, 3)], [F(1, 2)], 10)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(PrecisionError, match="series needs 1.0e\\+6 terms"):
        hyp_unit_sum([-10 ** 6 + 1, F(1, 3)], [F(1, 2)], 10)   # terminating, as long


def test_message_bounds_above_int_to_str_limit():
    # a bound of 15,000 bits at prec 98 made mpmath.nstr of its exact view meet Python's
    # 4,300-digit int-to-str limit (ValueError); from 64 bits rounded up it is text
    with pytest.raises(PrecisionError, match=r"^x bound 8\.89e\+4485 above 10\^-5 "):
        _certified(0, 2 ** 15000 - 1, 98, 5, "x")
    with pytest.raises(PrecisionError, match=r"^x bound 8\.3e\+4184 above"):
        _certified(0, 2 ** 14000 - 1, 98, 5, "x")
    # ordinary bounds keep their text
    texts = []
    for value, err, prec, digits, relative in [(0, 12345, 20, 5, True),
                                               (3, 2 ** 70 - 1, 60, 10, True),
                                               (0, 2 ** 63 + 2 ** 62 + 1, 64, 3, False),
                                               (10 ** 30, 10 ** 40, 100, 20, True)]:
        with pytest.raises(PrecisionError) as info:
            _certified(value, err, prec, digits, "x", relative)
        texts.append(str(info.value))
    assert texts == ["x bound 0.0118 above 10^-5 (1 + |value|)",
                     "x bound 1.02e+3 above 10^-10 (1 + |value|)",
                     "x bound 0.75 above 10^-3",
                     "x bound 7.89e+9 above 10^-20 (1 + |value|)"]
    # and a ball above 10^4300 has a repr, its ordinary ones the same text
    assert repr(gamma_quotient([3000], [1], 20)).startswith("BoundedReal(1.38311986781261802")
    assert (repr(gamma_quotient([F(1, 3)], [1], 20))
            == "BoundedReal(2.6789385347077476337, err<=1.85e-32)")
    z = BoundedComplex(mpmath.mpc("1.2345678901234567890123", "-3.25"), mp.mpf("1e-30"))
    assert repr(z * z) == ("BoundedComplex((-9.0383421246761165684 - 8.0246912858024684878j), "
                           "err<=6.95e-30)")
    assert repr(specfun._cball(2 ** 15000 + 1, 3, 2 ** 14990, -20)).startswith(
        "BoundedComplex((2.6874169155420280813e+4509 + 2.86102294921875e-6j), err<=2.")


_TAIL_GRID = [
    ([F(23, 97), F(23, 97), F(51, 97)], [F(1), F(1)]),
    ([F(-7, 3), F(1, 2)], [F(3, 2)]),
    ([F(-1, 2), F(-1, 3), F(-1, 4)], []),       # len(P) > len(Q)
    ([F(1, 5), F(0), F(2, 5)], [F(7, 5), F(-1, 3)]),
    ([F(-6), F(1, 3), F(5, 7)], [F(3, 2), F(-2, 3)]),   # terminating at n = 6
]


def _tail_reference(uppers, lowers, K):
    # a cold solve's (V, L) from the list loops
    return series_reference.solve_tail_series(*_tail_polys(uppers, lowers),
                                              sum(lowers) - sum(uppers), K)


def _ask(grid, request):
    # one request to the series engine: ("tail", i, K) or ("sum", i, terms, prec)
    kind, i, *args = request
    return (_solve_tail_series if kind == "tail" else _partial_sum)(*grid[i], *args)


def _want(grid, request):
    kind, i, *args = request
    return (_tail_reference if kind == "tail" else series_reference.partial_sum)(*grid[i], *args)


@pytest.mark.parametrize("maxsize", [64, 1])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tail_solve_memo_is_order_independent(monkeypatch, maxsize, seed):
    # each series asked for its orders and its partial sums at several lengths and
    # precisions, twice, in a seeded shuffle on one warm memo: an order or a length below
    # the stored one reads it, one above continues it, and every answer is the cold
    # reference's integers; at maxsize 1 the series evict each other
    monkeypatch.setattr(specfun, "_SERIES_MAX", maxsize)
    clear_caches()
    grid = _TAIL_GRID
    requests = ([("tail", i, K) for i in range(len(grid)) for K in (1, 2, 3, 8, 17, 33, 34, 49)]
                + [("sum", i, terms, prec) for i in range(len(grid))
                   for terms in (1, 2, 7, 40, 41, 130) for prec in (4, 60, 211)]) * 2
    random.Random(seed).shuffle(requests)
    want = {}
    for request in requests:
        if request not in want:
            want[request] = _want(grid, request)
        assert _ask(grid, request) == want[request], request
    assert len(specfun._SERIES) == min(maxsize, len(grid))
    if maxsize >= len(grid):
        for sums, solve in specfun._SERIES.values():
            assert (len(sums[0]), len(solve[0])) == (130, 50)


def test_tail_solve_memo_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(specfun, "_SERIES_MAX", 2)
    clear_caches()
    a, b, c = _TAIL_GRID[:3]
    _solve_tail_series(*a, 8)
    _solve_tail_series(*b, 8)
    _solve_tail_series(*a, 3)       # a prefix read also marks a as used
    _solve_tail_series(*c, 8)
    assert list(specfun._SERIES) == [specfun._series_key(*a), specfun._series_key(*c)]
    _partial_sum(*a, 10, 60)
    _partial_sum(*c, 5, 60)         # so does a read of the partial-sum half
    _partial_sum(*b, 10, 60)
    assert list(specfun._SERIES) == [specfun._series_key(*c), specfun._series_key(*b)]


def test_interrupted_tail_solve_keeps_the_stored_entry(monkeypatch):
    # an exception part-way through an extension leaves the stored half as it was,
    # whichever half it extends: the tail solve's and the term ratios' products both
    # go through mul
    uppers, lowers = _TAIL_GRID[1]
    key = specfun._series_key(uppers, lowers)
    clear_caches()
    _solve_tail_series(uppers, lowers, 20)
    _partial_sum(uppers, lowers, 20, 100)
    sums, solve = specfun._SERIES[key]
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) > 40:
            raise RuntimeError("interrupted")
        return mul(*args)

    for extend in [lambda: _solve_tail_series(uppers, lowers, 30),
                   lambda: _partial_sum(uppers, lowers, 60, 100)]:
        calls.clear()
        monkeypatch.setattr(specfun, "mul", failing)
        with pytest.raises(RuntimeError, match="interrupted"):
            extend()
        monkeypatch.undo()
        assert len(specfun._SERIES) == 1
        assert specfun._SERIES[key][0] is sums and specfun._SERIES[key][1] is solve
    assert _solve_tail_series(uppers, lowers, 30) == _tail_reference(uppers, lowers, 30)
    assert (_partial_sum(uppers, lowers, 60, 100)
            == series_reference.partial_sum(uppers, lowers, 60, 100))


def test_tail_solve_memo_under_threads():
    # more threads than cores ask for shuffled orders and partial sums of three series at
    # a short switch interval; a lost update or a half-made entry would hand some thread
    # other integers, and the memo must end with each series at its highest order and
    # its longest sum
    grid = _TAIL_GRID[:3]
    want = {request: _want(grid, request)
            for request in [("tail", i, K) for i in range(len(grid)) for K in (4, 9, 17, 30)]
            + [("sum", i, terms, prec) for i in range(len(grid))
               for terms in (3, 50, 90) for prec in (30, 150)]}

    def worker(seed):
        jobs = list(want) * 3
        random.Random(seed).shuffle(jobs)
        return all(_ask(grid, request) == want[request] for request in jobs)

    clear_caches()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(worker, seed) for seed in range(8)]
            assert all(f.result(timeout=120) for f in futures)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(len(solve[1]) for _, solve in specfun._SERIES.values()) == [31] * 3
    assert sorted(len(sums[0]) for sums, _ in specfun._SERIES.values()) == [90] * 3
    # a slower thread's shorter extension, stored last, leaves the longer halves
    key = specfun._series_key(*grid[0])
    record = specfun._SERIES[key]
    for i in (0, 1):
        specfun._store_half(key, i, tuple(part[:3] for part in record[i]))
    assert specfun._SERIES[key] is record


@pytest.mark.parametrize("uppers, lowers", _TAIL_GRID)
@pytest.mark.parametrize("K", [1, 2, 3, 8, 33])
def test_defect_poly_has_list_length(uppers, lowers, K):
    # hd = L D^d M^(len(G) - K - 3) depends on the length, trailing zeros included
    P, Q = _tail_polys(uppers, lowers)
    V, L = _solve_tail_series(uppers, lowers, K)
    G = _defect_poly(P, Q, V, L, K)
    assert len(G) == len(series_reference.defect_poly(P, Q, V, L, K))
    assert len(G) == max(2 * K + len(Q), len(P) + K + 1)
    assert G == series_reference.defect_poly(P, Q, V, L, K)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 25), st.lists(_RAT, min_size=2, max_size=2),
       st.lists(_LOWER, min_size=2, max_size=2), st.integers(10, 60))
def test_terminating_series_encloses_exact_sum(m, ups, lows, digits):
    uppers = [F(-m)] + ups
    r = hyp_unit_sum(uppers, lows, digits)
    total = _exact_partial_sum(uppers, lows, m + 1)[0]
    assert abs(F(*to_rational(r.value._mpf_)) - total) <= F(*to_rational(r.err._mpf_))


# ------------------------------------------------------------------- Appell

def test_appell_trivial_when_betas_vanish():
    r = appell_f3_unit(F(1, 3), F(2, 5), F(0), F(0), F(7, 4), 25)
    assert agree(r, 1)


def test_appell_divergent_raises():
    with pytest.raises(DivergenceError):
        appell_f3_unit(F(1, 2), F(1, 2), F(1), F(1), F(5, 4), 20)


def test_appell_reduction_identity_along_other_variable():
    # collapsing the second series instead of the first must agree:
    # F3(a,a',b,b',a+a'+1; 1,1) = G[a+a'+1, a-b'+1; a+1, a+a'-b'+1]
    #                             * 3F2(a, b, a-b'+1; a+1, a+a'-b'+1; 1)
    cases = [
        (F(1, 4), F(1, 2), F(3, 4), F(1, 3)),
        (F(1, 3), F(2, 5), F(1, 2), F(3, 4)),
        (F(2, 7), F(1, 6), F(1, 5), F(1, 2)),
    ]
    for (a, a2, b, b2) in cases:
        ga = a + a2 + 1
        lhs = appell_f3_unit(a, a2, b, b2, ga, 25)
        pref = gamma_quotient([ga, a - b2 + 1], [a + 1, a + a2 - b2 + 1], 30)
        f = hyp_unit_sum([a, b, a - b2 + 1], [a + 1, a + a2 - b2 + 1], 30)
        rhs = pref * f
        assert lhs.agrees_with(rhs), (a, a2, b, b2)


def test_appell_equals_simplex_integral():
    # F3(a1, b2, 1-b1, 1-a2, a1+b2+1; 1,1) * G[a1, b2; a1+b2+1] is the
    # ordered simplex integral; checked against quadrature
    a1, b1, a2, b2 = F(1, 3), F(1, 2), F(1, 4), F(2, 5)
    val = (appell_f3_unit(a1, b2, 1 - b1, 1 - a2, a1 + b2 + 1, 25)
           * gamma_quotient([a1, b2], [a1 + b2 + 1], 30))
    quad = euler_double_integral(a1, b1, a2, b2)
    assert abs(val.value - quad.value) < 1e-9


def test_appell_partial_sums_increase_toward_value():
    p = (F(1, 3), F(2, 5), F(1, 2), F(3, 4), F(9, 4))
    r = appell_f3_unit(*p, 25)
    with mp.workdps(30):
        prev = None
        for m in (10, 40, 160):
            part = appell_f3_partial_sum(*p, m, m)
            assert part < r.value + r.err
            if prev is not None:
                assert part > prev  # positive terms
            prev = part
        assert r.value - part < 0.1  # most of the mass is in the square


# --------------------------------------------------------------- quadrature

def test_simplex_area():
    r = euler_double_integral(1, 1, 1, 1)
    assert abs(float(r.value) - 0.5) < 1e-12


def test_simplex_elementary_closed_form():
    # int_0^1 int_0^v u^(-1/2) du dv = 4/3
    r = euler_double_integral(F(1, 2), 1, 1, 1)
    assert abs(float(r.value) - 4.0 / 3.0) < 1e-10


def test_simplex_symmetry_sums_to_beta_product():
    # I(a1,b1,a2,b2) + I(a2,b2,a1,b1) = B(a1,b1) B(a2,b2)
    a1, b1, a2, b2 = F(1, 3), F(3, 4), F(2, 5), F(1, 2)
    r1 = euler_double_integral(a1, b1, a2, b2)
    r2 = euler_double_integral(a2, b2, a1, b1)
    bb = gamma_quotient([a1, b1], [a1 + b1], 25) * gamma_quotient([a2, b2], [a2 + b2], 25)
    assert abs(float(r1.value + r2.value - bb.value)) < 1e-9


def test_quadrature_rejects_bad_exponent():
    with pytest.raises(DomainError):
        euler_double_integral(F(3, 2), 1, 1, 1)


def test_jacobi_rules_are_cached_read_only_and_exact(monkeypatch):
    for n, left, right in ((24, -0.5, 0.0), (48, -0.8, -0.6), (96, 0.4, 0.0), (24, 0.0, 0.0)):
        nodes, weights = _quadrature._jacobi_01(n, left, right)
        # a fresh rule, mapped from [-1, 1] to [0, 1]
        x, w = _quadrature._gauss_jacobi(n, right, left)
        assert np.array_equal(nodes, (x + 1.0) / 2.0)
        assert np.array_equal(weights, w * 0.5 ** (left + right + 1.0))
        assert _quadrature._jacobi_01(n, left, right)[0] is nodes
        for arr in (nodes, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.5
    # the same integral twice: identical value and bound, and the rules come from the cache;
    # the converged regions are cached too, so the second bypasses them to rebuild
    args = (F(2, 7), F(3, 7), F(1, 7), F(5, 7))
    first = euler_double_integral(*args)
    for name in ("_region", "_region_c"):
        monkeypatch.setattr(_quadrature, name, getattr(_quadrature, name).__wrapped__)
    hits = _quadrature._jacobi_01.cache_info().hits
    second = euler_double_integral(*args)
    assert (second.value, second.err) == (first.value, first.err)
    assert _quadrature._jacobi_01.cache_info().hits > hits


def test_two_exponent_factors_converge_once_per_pair():
    # region C reads (a2, b2) only: a second integral sharing them reads it from its
    # cache, which holds the floats of a fresh convergence
    clear_caches()
    euler_double_integral(F(2, 7), F(3, 7), F(1, 7), F(5, 7))
    euler_double_integral(F(2, 7), F(3, 7), F(4, 7), F(5, 7))
    euler_double_integral(F(1, 7), F(1, 7), F(1, 7), F(5, 7))
    assert _quadrature._region_c.cache_info()[:2] == (1, 2)
    assert _quadrature._region_c(4 / 7, 5 / 7) == _quadrature._region_c.__wrapped__(4 / 7, 5 / 7)


def _region_d_reference(fa1, fb1, fa2, fb2):
    """Region D as its own closure converged by its own doubling loop, as the oracle
    computed it before region A's function took it over with the exponents swapped."""
    def region_d(order):
        zn, zw = _quadrature._jacobi_01(order, fb1 - 1.0, 0.0)
        tn, tw = _quadrature._jacobi_01(order, fb1 + fb2 - 1.0, 0.0)
        one_minus_vs = tn / 2.0
        g = _quadrature._kernel_sums(one_minus_vs, zn, zw, fa1 - 1.0)
        vals = (1.0 - one_minus_vs) ** (fa2 - 1.0) * g
        scale = 0.5 ** (fb1 + fb2)
        return scale * float(np.dot(tw, vals))
    order, prev = 24, region_d(24)
    for _ in range(4):
        order *= 2
        cur = region_d(order)
        err, prev = abs(cur - prev), cur
        if err <= 1e-12:
            break
    return prev, err


def test_region_d_is_region_a_mirrored():
    # D is A under (u, v) -> (1 - v, 1 - u): the swapped-exponent call reproduces the
    # old closure's value and estimate bit for bit
    from fermatvol.fermat import index_set
    for n in range(4, 8):
        exps = [(float(i.alpha), float(i.beta)) for i in index_set(n)]
        for fa1, fb1 in exps:
            for fa2, fb2 in exps:
                assert _quadrature._region(fb1, fa1, fb2, fa2) \
                    == _region_d_reference(fa1, fb1, fa2, fb2)


@pytest.mark.parametrize("a1,b1", [(F(1, 7), F(6, 7)), (F(2, 7), F(3, 7)), (F(1, 40), F(1, 40)),
                                   (F(39, 40), F(1, 3)), (F(1, 2), F(1, 2)), (F(1), F(1, 5))])
def test_rule_weights_sum_to_libm_beta(a1, b1):
    # the oracle reads B(a1, b1) from lgamma instead of summing a rule: every rule the
    # doubling can reach carries that total
    beta = math.exp(math.lgamma(a1) + math.lgamma(b1) - math.lgamma(a1 + b1))
    for order in (24, 48, 96, 192, 384):
        _, weights = _quadrature._jacobi_01(order, float(a1) - 1.0, float(b1) - 1.0)
        assert abs(float(np.sum(weights)) - beta) <= 1e-14 * beta


@pytest.mark.parametrize("n", [1, 2, 3, 24, 96, 384])
@pytest.mark.parametrize("alpha,beta", [
    (0.0, 0.0), (-0.5, -0.5), (0.4, 0.4), (-0.95, -0.95),   # alpha == beta
    (-0.25, -0.75), (-0.95, -0.05), (-0.05, -0.95),          # alpha + beta = -1
    (0.0, -0.95), (-0.95, 0.0), (-0.6, -0.8), (0.9, -0.3), (-2 / 3, 0.0),
])
def test_gauss_jacobi_rule_matches_scipy(n, alpha, beta):
    from scipy.special import roots_jacobi
    x, w = _quadrature._gauss_jacobi(n, alpha, beta)
    with np.errstate(divide="ignore", invalid="ignore"):  # scipy's own 0/0 at alpha + beta = -1
        ref_x, ref_w, mu0 = roots_jacobi(n, alpha, beta, mu=True)
    assert np.max(np.abs(x - ref_x)) <= 1e-15
    assert np.max(np.abs(w - ref_w) / ref_w) <= 1e-7
    assert abs(np.sum(w) - mu0) <= 1e-14 * mu0


@pytest.mark.parametrize("n,left,right,power", [
    (24, -0.5, 0.0, -0.25), (96, -0.9, 0.0, -0.95), (384, 0.4, 0.0, -0.6), (48, 0.0, 0.0, 0.0)])
def test_kernel_sums_match_per_node_loop(n, left, right, power):
    # the per-node loop that the one matrix product replaced; every term is positive,
    # so the summation order moves each sum by at most n ulps
    nodes, weights = _quadrature._jacobi_01(n, left, right)
    xs = _quadrature._jacobi_01(n, left + 0.3, 0.0)[0] / 2.0
    loop = np.array([np.dot(weights, (1.0 - x * nodes) ** power) for x in xs])
    fast = _quadrature._kernel_sums(xs, nodes, weights, power)
    assert np.allclose(fast, loop, rtol=n * np.finfo(float).eps, atol=0)


@pytest.mark.parametrize("call", [
    "specfun.euler_double_integral(F(1, 3), F(3, 4), F(2, 5), F(1, 2))",
    "cli.main(['oracle-test', '--n', '4'])",
])
def test_quadrature_oracle_runs_without_scipy(call):
    # a fresh interpreter: the oracle's rules come from numpy and libm alone
    script = ("import sys\nfrom fractions import Fraction as F\nimport fermatvol\n"
              f"from fermatvol import cli, specfun\n{call}\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fermatvol.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


# ------------------------------------------------------------- Dixon family

def test_dixon_consistency_reference_point():
    members = dixon_family(F(1, 3), F(1, 2), F(1, 4), F(2, 5), digits=20)
    live = [m for m in members if not m.skipped]
    assert len(live) >= 9
    for i in range(len(live)):
        for j in range(i + 1, len(live)):
            assert live[i].value.agrees_with(live[j].value), (live[i].index, live[j].index)
    # and the tenth agrees with quadrature
    tenth = members[9]
    assert not tenth.skipped
    quad = euler_double_integral(F(1, 3), F(1, 2), F(1, 4), F(2, 5))
    assert abs(tenth.value.value - quad.value) < 1e-9


def test_dixon_members_share_one_grid_point():
    # every member is one product rounded once, to nearest, at 2^-(bits(digits) + 40),
    # far coarser than the members' own errors, so the ten equal closed forms at the
    # twist point x = 6/13 give one binary fraction
    x = F(6, 13)
    members = dixon_family(x, 1 - 2 * x, 1 - 2 * x, x, digits=40)
    assert not any(m.skipped for m in members)
    assert len({_exact(m.value.value) for m in members}) == 1


def test_dixon_ninth_member_convergence_follows_its_margin():
    # at all-1/2 parameters the ninth member's series has margin +1: it is
    # evaluated and equals pi^2/2 (= the simplex integral by symmetry)
    members = dixon_family(F(1, 2), F(1, 2), F(1, 2), F(1, 2), digits=20)
    ninth = members[8]
    assert not ninth.skipped
    with mp.workdps(40):
        assert abs(ninth.value.value - mp.pi ** 2 / 2) <= ninth.value.err + mp.mpf(10) ** -35
    # at all-1/8 parameters the margin is -1/2: skipped
    members = dixon_family(F(1, 8), F(1, 8), F(1, 8), F(1, 8), digits=20)
    ninth = members[8]
    assert ninth.skipped and ninth.margin == F(-1, 2)
    live = [m for m in members if not m.skipped]
    for i in range(len(live)):
        for j in range(i + 1, len(live)):
            assert live[i].value.agrees_with(live[j].value)


def test_dixon_tenth_always_margin_one():
    rng = random.Random(7)
    for _ in range(5):
        quad = [F(rng.randint(1, 19), 20) for _ in range(4)]
        members = dixon_family(*quad, digits=15)
        assert members[9].margin == 1
        assert not members[9].skipped


# ------------------------------------------------------------ memo registry

def _memo_calls():
    # calls through every registered memo, each returning a ball: ln Gamma at digits
    # 12-250 (its logs, ln 2 and the Stirling row); f(5, 1) at two precisions (the twist
    # terms and series records); volume components at two precisions and a conjugate
    # (closed forms, exact parts, roots, Phi_5); a quadrature integral (rules, regions)
    from _fermat_reference import example_triple
    curve, sigma = fermatvol.FermatCurve(5), fermatvol.harmonic_volume_sigma
    t = example_triple(curve)
    return ([lambda a=a: ln_gamma(*a) for a in
             [(F(1, 3), 30), (F(97, 5), 120), (F(2, 7), 56), (F(11, 13), 250), (F(5, 4), 12)]]
            + [lambda d=d: fermatvol.f_value(5, 1, d).value for d in (30, 20)]
            + [lambda h=h, d=d: sigma(curve, t, fermatvol.EmbeddingIndex(h, 5), d)
               for h, d in ((1, 30), (1, 20), (4, 20))]
            + [lambda: euler_double_integral(F(2, 7), F(3, 7), F(1, 7), F(5, 7))])


def _run(calls, order):
    # each call's ball as its ints, keyed by the call's place in the list
    balls = {i: calls[i]() for i in order}
    return {i: tuple(getattr(x, slot) for slot in type(x).__slots__) for i, x in balls.items()}


def test_memos_give_the_ints_of_a_cold_run():
    # cold; warm in shuffled orders; cold again in reverse order at ambient precision
    # 20 and shuffled at 2000.  A memo that answered one request with another's entry
    # (a 20-digit one with a 30-digit one, say), that depended on the order the Stirling
    # row or a series record grew in, or that read mp.prec would change some int
    calls = _memo_calls()
    order = list(range(len(calls)))
    clear_caches()
    cold = _run(calls, order)
    for seed in (0, 1):
        assert _run(calls, random.Random(seed).sample(order, len(order))) == cold
    for prec, again in ((20, order[::-1]), (2000, random.Random(2).sample(order, len(order)))):
        clear_caches()
        with mp.workprec(prec):
            assert _run(calls, again) == cold


def test_memo_calls_miss_every_registered_memo():
    # a memo that the purity test's calls never fill would escape it
    calls = _memo_calls()
    clear_caches()
    _run(calls, range(len(calls)))
    assert [memo.__qualname__ for memo in fermatvol._MEMOS if not memo.cache_info().misses] == []


def test_every_lru_cache_is_a_registered_memo():
    # lru_cache appears in the package only inside fermatvol._memo, and each _memo
    # declaration is registered once its module is imported
    stray, declared = [], 0
    for path in sorted(Path(fermatvol.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        memo = [fn for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name == "_memo"]
        inside = {id(node) for fn in memo for node in ast.walk(fn)}
        for node in ast.walk(tree):     # a name, an attribute or an imported alias
            if ("lru_cache" in (getattr(node, key, None) for key in ("id", "attr", "name"))
                    and id(node) not in inside):
                stray.append(f"{path.name}:{node.lineno}")
            declared += isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_memo"
    assert stray == []
    assert declared == len(fermatvol._MEMOS)
