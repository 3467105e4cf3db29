"""The integer balls against the mpf classes they replaced (``_ball_reference``).

Every operation must give the reference's value and bound exactly: both are
read back as normalised raw mpfs, which are equal exactly when the rationals
are.  Operands are ints, floats, mpfs and mpcs with exponents up to about
10,000 apart, and bounds may be zero.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp

import _ball_reference as ref
from fermatvol import ceresa, cli, fermat, specfun
from fermatvol.cyclotomic import EmbeddingIndex
from fermatvol.specfun import BoundedComplex, BoundedReal, PrecisionError


def _dyadic(man, exp):
    return mp.make_mpf(from_man_exp(man, exp))


_EXP = st.integers(-5000, 5000)
_MPF = st.builds(_dyadic, st.integers(-2 ** 200, 2 ** 200), _EXP)
_ERR = st.one_of(st.just(0), st.builds(_dyadic, st.integers(0, 2 ** 70), _EXP))
_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_REAL = st.one_of(st.integers(-2 ** 100, 2 ** 100), _FLOAT, _MPF)
_BALL = st.tuples(_REAL, _ERR)
_MPC = st.builds(lambda re, im: mp.make_mpc((re._mpf_, im._mpf_)), _MPF, _MPF)
_CBALL = st.tuples(st.one_of(_MPC, _REAL), _ERR)
_PREC = st.integers(1, 400)


def _same(new, old) -> bool:
    # equal values and bounds, exactly
    if isinstance(old, ref.BoundedComplex):
        return (new.value._mpc_, new.err._mpf_) == (old.value._mpc_, old.err._mpf_)
    return (new.value._mpf_, new.err._mpf_) == (old.value._mpf_, old.err._mpf_)


def _check(op, new, old, ref_op=None):
    """op on the new operands gives the reference's ball, bool or exception type, from
    ``ref_op`` (op when None) on the reference's operands."""
    try:
        want = (ref_op or op)(*old)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            op(*new)
        return
    got = op(*new)
    assert got == want if isinstance(want, bool) else _same(got, want)


def _pair(cls, refcls, x):
    return cls(*x), refcls(*x)


_OPS = [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
        lambda a, b: b + a, lambda a, b: b - a, lambda a, b: b * a,
        lambda a, b: -a, lambda a, b: a.agrees_with(b)]
# the reference refuses b + a, b - a and b * a for a real ball b and a complex a, and
# b - a for a plain number b: those orders must give the ints of the order it supports
_COMPLEX_FIRST = {_OPS[3]: _OPS[0], _OPS[4]: lambda a, b: -(a - b), _OPS[5]: _OPS[2]}


@settings(max_examples=300, deadline=None)
@given(_BALL, st.one_of(_BALL, _REAL), _PREC)
@example((0, 0), (0, 0), 20)
@example((_dyadic(3, 5000), _dyadic(1, -5000)), (_dyadic(-5, -5000), 0), 20)
def test_real_ball_operations_match_reference(a, b, prec):
    x, rx = _pair(BoundedReal, ref.BoundedReal, a)
    # a ball, or a plain int, float or mpf operand on either side
    y, ry = _pair(BoundedReal, ref.BoundedReal, b) if isinstance(b, tuple) else (b, b)
    with mp.workprec(prec):
        for op in _OPS:
            _check(op, (x, y), (rx, ry))


@settings(max_examples=100, deadline=None)
@given(_BALL, _ERR, st.integers(0, 2))
def test_real_agrees_with_matches_reference_where_balls_touch(a, gap, shift):
    # b's interval ends exactly at a's, or 2^-shift times its bound further away
    x, rx = _pair(BoundedReal, ref.BoundedReal, a)
    reach = mpmath.fadd(rx.err, gap, exact=True)
    b = (mpmath.fadd(rx.value, mpmath.ldexp(reach, shift), exact=True), gap)
    y, ry = _pair(BoundedReal, ref.BoundedReal, b)
    assert x.agrees_with(y) == rx.agrees_with(ry) == (shift == 0 or reach == 0)


@settings(max_examples=300, deadline=None)
@given(_CBALL, st.one_of(_CBALL, _BALL, _REAL), _PREC)
@example((0, 0), (0, 0), 20)
@example((_dyadic(3, 5000), _dyadic(1, -5000)), (mp.mpc(1, 1), _dyadic(1, 5000)), 20)
@example((mp.mpc(3, 4), 1), (mp.mpc(5, 12), 2), 20)  # exact moduli 5 and 13
def test_complex_ball_operations_match_reference(a, b, prec):
    z, rz = _pair(BoundedComplex, ref.BoundedComplex, a)
    if isinstance(b, tuple) and isinstance(b[0], mpmath.mpc):
        w, rw = _pair(BoundedComplex, ref.BoundedComplex, b)
    elif isinstance(b, tuple):   # a real ball operand
        w, rw = _pair(BoundedReal, ref.BoundedReal, b)
    else:
        w, rw = b, b
    with mp.workprec(prec):
        for op in _OPS + [lambda a, b: a.conjugate()]:
            _check(op, (z, w), (rz, rw),
                   None if isinstance(w, BoundedComplex) else _COMPLEX_FIRST.get(op))


def _ints(z):
    return z.re, z.im, z.rad, z.exp


@settings(max_examples=200, deadline=None)
@given(_CBALL, _BALL)
@example((mp.mpc(3, -4), 1), (3, 0))
@example((mp.mpc(3, -4), 1), (1.5, 0))
@example((mp.mpc(3, -4), 1), (3, 3))    # the discs touch
def test_mixed_balls_give_the_ints_of_either_order(a, b):
    # a real ball or plain number w against a complex ball z: w + z, w - z and w * z
    # (w - z also for a plain number) are the ints of z + w, -(z - w) and z * w, and a
    # real ball agrees with z exactly when z agrees with it
    z = BoundedComplex(*a)
    for w in (BoundedReal(*b), b[0]):
        assert _ints(w + z) == _ints(z + w)
        assert _ints(w - z) == _ints(-(z - w))
        assert _ints(w * z) == _ints(z * w)
    w = BoundedReal(*b)
    assert w.agrees_with(z) == z.agrees_with(w) == (z - w).agrees_with(0)
    for op in (w.__add__, w.__sub__, w.__mul__):
        assert op(z) is NotImplemented


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2 ** 40), st.integers(0, 2 ** 40), st.integers(1, 2 ** 20),
       st.integers(-300, 0), st.integers(-1, 1))
@example(2, 1, 1, 0, 0)        # 3 + 4i against a radius of 5
def test_complex_agrees_with_matches_reference_where_discs_touch(m, n, k, exp, nudge):
    # a disc whose radius is |value| - 1, |value| or |value| + 1 ulps against the point 0:
    # (m^2 - n^2, 2 m n) has the modulus m^2 + n^2
    re, im, rad = k * (m * m - n * n), k * 2 * m * n, k * (m * m + n * n) + nudge
    value = mp.make_mpc((_dyadic(re, exp)._mpf_, _dyadic(im, exp)._mpf_))
    z, rz = _pair(BoundedComplex, ref.BoundedComplex, (value, _dyadic(rad, exp)))
    assert z.agrees_with(0) == rz.agrees_with(0) == (nudge >= 0)


@pytest.mark.parametrize("bad", [mpmath.inf, mpmath.nan])
def test_fraction_and_non_finite_operands_are_refused(bad):
    x = BoundedReal(1, 0)
    for op in (lambda: x + Fraction(1, 3), lambda: x * Fraction(1, 2),
               lambda: BoundedComplex(1, 0) * Fraction(1, 2)):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(ValueError):
        x + bad


_DIGITS = st.integers(0, 60)


@settings(max_examples=300, deadline=None)
@given(st.integers(-2 ** 300, 2 ** 300), st.integers(0, 2 ** 300), st.integers(1, 400),
       _DIGITS, st.booleans(), st.integers(-1, 1), st.booleans())
@example(976, 0, 10, 3, True, 0, True)
def test_certified_matches_reference(value, err, prec, digits, relative, nudge, at_limit):
    # err at the contract's limit, one ulp either side, or anywhere
    if at_limit:
        err = max(0, ((1 << prec) + (abs(value) if relative else 0)) // 10 ** digits + nudge)
    args = (value, err, prec, digits, "test", relative)
    try:
        old = ref._certified(*args)
    except PrecisionError as exc:
        with pytest.raises(PrecisionError) as new:
            specfun._certified(*args)
        assert str(new.value) == str(exc)
        return
    assert _same(specfun._certified(*args), old)


_FACTOR = st.tuples(st.one_of(st.integers(-2 ** 100, 2 ** 100), _MPF), _ERR)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FACTOR, min_size=2, max_size=3), _PREC, st.integers(20, 300))
@example([(_dyadic(3, -2), 0), (1, 0)], 1, 20)     # a tie rounds up
@example([(_dyadic(-3, -2), 0), (1, 0)], 1, 20)
@example([(_dyadic(3, -300), 0), (_dyadic(5, -300), 0)], 20, 20)  # the bound is the residual
def test_round_product_matches_reference(factors, prec, ambient):
    new = [BoundedReal(*f) for f in factors]
    old = [ref.BoundedReal(*f) for f in factors]
    with mp.workprec(ambient):
        assert _same(specfun._round_product(new, prec), ref._round_product(old, prec))


def test_results_identical_at_any_ambient_precision(capsys):
    # no certified number and no dixon-test byte reads mp.prec
    curve = fermat.FermatCurve(11)
    t = fermat.assumption_check(curve, fermat.FermatIndex(11, 4, 5),
                                fermat.FermatIndex(11, 2, 4), fermat.FermatIndex(11, 5, 2))
    seen = []
    for prec in (20, 2000):
        specfun.clear_caches()
        with mp.workprec(prec):
            f = ceresa.f_value(7, 3).value
            z = fermat.harmonic_volume_sigma(curve, t, EmbeddingIndex(1, 11), 30)
            code = cli.main(["dixon-test", "--seed", "20100301"])
        seen.append(((f.mid, f.rad, f.exp), (z.re, z.im, z.rad, z.exp), code,
                     capsys.readouterr()))
    assert seen[0] == seen[1]
    assert seen[0][2] == 0 and "worst pairwise gap: 0.0" in seen[0][3].out
