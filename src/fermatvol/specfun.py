r"""High-precision, error-bounded special functions.

Everything analytic in this package flows through here: log-gamma and
gamma quotients with proved Stirling remainders, generalized
hypergeometric series pF(p-1) at unit argument with a rigorous truncation
bound, the Euler-type double integral over the ordered simplex (a
quadrature oracle), and the ten-expression Dixon family used as a
built-in consistency check.

Error-bound conventions
-----------------------
Results are ``BoundedReal`` (or ``BoundedComplex``) pairs (value, err)
with |true - value| <= err.  Log-gamma, gamma quotients, both kinds of series
and ``ceresa``'s f(N,k) leave through one exit, ``_certified``, which checks
err <= 10^-digits (1 + |value|), or 10^-digits (absolute) for log-gamma and
f(N,k), on exact integers.  Bound propagation is conservative:

* log-gamma uses the Stirling series for real y > 0, whose remainder
  after J terms is bounded by the first omitted term
  |B_{2J+2}| / ((2J+2)(2J+1) y^{2J+1}); a rational argument a/D is first
  raised to y = A/D = a/D + m past a precision-dependent threshold, and
  the raising is undone by one log of the exact integer rising factorial
  R = prod_{i<m} (a + iD), as ln(R / D^m).

* the unit-argument series engine sums M terms directly and closes the
  tail with an asymptotic solution of the tail recurrence.  Writing
  t_{n+1}/t_n = P(n)/Q(n) (P, Q monic of equal degree), the normalized
  tail W(n) = (sum_{m>=n} t_m)/t_n satisfies W(n) = 1 + (P/Q)(n) W(n+1).
  An expansion W(n) = n * V(1/n) with V a polynomial of degree K is
  solved exactly over the rationals; the defect
  d(n) = W(n) - 1 - (P/Q)(n) W(n+1) is an explicit rational function
  vanishing to order n^{-K-1}, and since the terms are eventually
  one-signed and decreasing,

      |tail - t_M W(M)| <= |t_M| * H(M) * (M^{-K-1} + M^{-K}/K),

  where H(M) majorizes the defect numerator (exact integer arithmetic
  over one common denominator).  This is the comparison-series bound,
  with the exponent pushed down by K: M = 4 * digits and K = 0.46 *
  digits + 8, fitted by timing; a failed attempt doubles M and raises K
  by half.  M is capped only at ``_SERIES_TERMS_MAX`` = 2^16 terms, which a
  large negative parameter's floor shift can ask for and the default
  schedule reaches past 16,000 digits.  Parameters enter as ints or
  Fractions and are read as integer pairs (numerator, denominator): the sign
  checks, the stops of a terminating series, the floor shift, qscale, the
  series record's key and the term ratios use those ints alone, so no
  Fraction arithmetic runs between a caller and the kernels.  P and Q are
  built once per call, and the margin comes from them, as
  (Q_1 - Q_0 - P_1) / Q_0 in lowest terms, and is handed with them to the
  tail solve.  The defect numerator, a polynomial G with integer coefficients
  (see ``_defect_poly``), is evaluated exactly at x = 2^b by shifts and by
  products of one big integer with the small coefficients of P and Q, b a
  multiple of 8 with |G_i| <= 2^{K+1} (|Q|_1 (|V|_1 + L) + |P|_1 |V|_1) <
  2^(b-1).  So G_0 .. G_{K+1}, which a solved V makes vanish, vanish
  exactly when one mask finds the low b (K+2) bits of G zero, and only the
  b-bit slots above, which the majorant reads, are decoded.
  The exact solve for V is the same at every order up to K: step m
  rescales the common denominator and the earlier coefficients by an
  integer f_m and appends v_m, reading one anti-diagonal of the system and
  nothing that K changes.  So each series keeps one record in ``_SERIES``,
  a process-local LRU memo keyed on its exact parameters, and its tail
  half is the highest solve: the coefficients, the factors f_m and the
  next anti-diagonal.  A lower order divides out prod_{m>K} f_m; a higher
  one, from the next precision of an all-k sweep or from a failed attempt,
  continues from the last step.  Both return the integers of a cold solve.

One fixed-point loop, ``_fixed_point_sum``, sums both kinds of series on
plain Python ints: every quantity is an integer count of ulps 2^-prec, prec
being the working precision plus guard bits for the number of terms.  A term advances by
T <- floor(T num(n) / den(n)), with the integer term ratio num/den built
from the parameters' numerators and denominators.  Floor division is off
by less than one ulp, so the error E_n of T_n obeys the recurrence
E_0 = 0, E_{n+1} = ceil(E_n |num| / |den|) + 1; the partial sum is off by
at most the sum of the E_n, the tail floor(T_M W(M)) (W(M) an exact
rational; a terminating series has none) by ceil(E_M |W(M)|) + 1, and the
truncation bound is rounded up from exact integers.  These ulp counts do
not depend on prec, so one rerun with them times 10^digits below
2^(prec-1) meets the contract when terms far above 1 break it.  Nor do
the ratios, so the partial-sum half of the series' record keeps only the
ratios, for the most terms asked so far; more terms extend them from the
stored end, and every sum runs one loop over T, S and their ulp counts.

Log-gamma rounds in the same fixed point.  Each Stirling term is one
floor division of the exact Bernoulli numerator times D^{2j-1} by
A^{2j-1} (under one ulp each), and the remainder bound is rounded up
from exact integers.  ln A, ln D and ln R are exact floors of 2^prec ln n,
computed on Python ints by ``_log_fixed`` and memoised on (n, prec), since
both twist arguments of a degree N ask for ln N at one precision:
n = 2^e m with m in [sqrt(1/2), sqrt(2)) gives ln n = 2 atanh(z) + e ln 2,
z = (n - 2^e) / (n + 2^e) and |z| < 3 - 2 sqrt(2), with ln 2 = 18 atanh(1/26) -
2 atanh(1/4801) + 8 atanh(1/8749) kept once per working precision.  Every
floor of the atanh series and its truncated tail is counted, and guard bits
are added (Ziv's method) until the counted interval fixes the floor.  Only
ln(2 pi) (once per prec) comes from mpmath, at 8 guard bits.  Each of the
four logs is charged a stated ``_LOG_ULPS``, above the under-one-ulp error
of a floor, and the error of ln y = ln A - ln D is multiplied by |y - 1/2|.
Guard bits for that total keep the rounding below one ulp of the nominal
working precision, so the bound is the Stirling remainder plus less than
2^-(bits(digits) + 30).

A gamma quotient stays in the same fixed point.  Its arguments' net
multiplicities are counted on their (numerator, denominator) pairs, and the
log-gammas are read exactly as integers, put over the largest of their powers of two and
summed with their net multiplicities into x and its bound eps; x is
exponentiated once, by mpmath at 8 guard bits beyond its integer part and
charged a stated ``_EXP_ULPS``, then floored to 2^-prec with
prec = bits(digits) + 40.  The propagated error e^x eps (1 + eps) (eps < 1)
is rounded up from exact integers.  The closed form Gamma quotient times 3F2 multiplies the two
certified binary fractions exactly and rounds the value once, to
nearest, at 2^-(bits(digits) + 40); the exact residual joins the
propagated bound |G| e_H + |H| e_G + e_G e_H, and that sum is rounded up
to as many significant bits (``_round_product``).

The ``BoundedReal`` and ``BoundedComplex`` balls that carry these results are
Python ints, a midpoint and a radius over one power of two (as in Arb), and
their arithmetic is exact or rounds once and adds the exact residual to the
bound.  Sums, differences, products and ``agrees_with`` are exact (the
complex ones part by part), so a sum of certified terms is certified by the
sum of their bounds; a real ball meets a complex one in the complex ball's
methods, so either operand order gives the same ints.  A real product's
bound is (|a| + e_a)(|b| + e_b) - |a b|; a complex product's is
|a| e_b + (|b| + e_b) e_a, rounded up from moduli
rounded up at ``_BOUND_PREC`` bits.  mpf appears only in their read-only
``value`` and ``err`` views, built for output.
"""

from __future__ import annotations

import math
import sys
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, mul
from typing import Callable, Optional, Sequence, Union

import mpmath
from mpmath import mp
from mpmath.libmp import (from_float, from_man_exp, mpf_exp, mpf_log, mpf_pi, mpf_shift,
                          round_floor, to_fixed)

from . import _MEMOS, _memo

Rational = Union[int, Fraction]


class DomainError(ValueError):
    """Argument outside the mathematical domain (e.g. ln_gamma(x<=0))."""


class DivergenceError(ValueError):
    """Series parameters violate the unit-argument convergence condition."""


class PrecisionError(RuntimeError):
    """Requested accuracy cannot be certified with the given budget."""


def clear_caches() -> None:
    """Empty every process-local memo: those declared through ``_memo``, the series
    records and the Stirling row, so the next call computes from cold.  Not safe while
    another thread computes."""
    for memo in _MEMOS:
        memo.cache_clear()
    with _SERIES_LOCK:
        _SERIES.clear()
    with _BERNOULLI_LOCK:
        del _STIRLING_COEFFS[1:]
        _SEIDEL_ROW[:] = [1]


def _bits(digits: int) -> int:
    return int(digits * 3.3219281) + 1


def _check_digits(digits: int) -> None:
    # below one digit, or not an int, bits(digits) is negative or 10 ** digits a float,
    # which no fixed-point precision or exact contract can take
    if not isinstance(digits, int) or digits < 1:
        raise DomainError(f"digits must be an int of at least 1, got {digits!r}")


def _param(x: Rational) -> Rational:
    # an argument as an int or a Fraction, both of which expose their numerator and
    # denominator; any other type (a float) becomes a Fraction once
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _fractions(params) -> list[Fraction]:
    # the parameters as Fractions, for the text of an exception
    return [Fraction(x) for x in params]


def _fixed_mpf(x: int, prec: int) -> mpmath.mpf:
    # x * 2^-prec, exactly (the mantissa is not rounded to the ambient precision)
    return mp.make_mpf(from_man_exp(x, -prec))


def _dyadic(x, what: str, nonneg: bool = False) -> tuple[int, int]:
    """(man, exp) with x = man * 2^exp exactly, for a finite mpf, int or float
    (and nonnegative when ``nonneg``)."""
    if isinstance(x, int):
        sign, man, exp = x < 0, abs(x), 0
    elif isinstance(x, (float, mpmath.mpf)):
        sign, man, exp, _ = from_float(x) if isinstance(x, float) else x._mpf_
    else:
        raise TypeError(f"expected an mpf, int or float, got {type(x).__name__}")
    # inf and nan are the only raw mpfs with mantissa 0 and a nonzero exponent
    if (not man and exp) or (nonneg and sign):
        raise ValueError(f"invalid {what} {x!r}")
    return (-int(man) if sign else int(man)), exp


def _ceil_bits(x: int, bits: int) -> tuple[int, int]:
    # (m, t): m 2^t is the nonnegative x rounded up to ``bits`` significant bits
    t = max(0, x.bit_length() - bits)
    return -(-x >> t), t


# significant bits of a complex product's rounded-up moduli and bound
_BOUND_PREC = 64


def _sqrt_up(n: int) -> tuple[int, int]:
    # (m, k): m 2^k is sqrt(n) rounded up to _BOUND_PREC significant bits, n >= 0
    k = math.isqrt(n).bit_length() - _BOUND_PREC
    n <<= max(0, -2 * k)
    r = math.isqrt(n)
    r += r * r < n
    return -(-r >> max(0, k)), k


class BoundedReal:
    """A real ball: the value mid * 2^exp within rad * 2^exp, three Python ints with
    rad >= 0 and exp <= 0 (midpoint and radius, as in Arb).

    Sums, differences, products and ``agrees_with`` are exact on the ints; one with
    a ``BoundedComplex`` is left to the complex ball's methods, so either order gives
    the same ints.  The constructor reads an mpf, int or float value and bound
    exactly and refuses any other type, a ``Fraction`` too, with ``TypeError``.
    ``value`` and ``err`` are exact mpf views, built on each access for output.
    """

    __slots__ = ("mid", "rad", "exp")

    def __init__(self, value, err=0):
        (m, e), (r, f) = _dyadic(value, "value"), _dyadic(err, "error bound", nonneg=True)
        exp = min(e, f, 0)
        self.mid, self.rad, self.exp = m << (e - exp), r << (f - exp), exp

    @property
    def value(self) -> mpmath.mpf:
        return _fixed_mpf(self.mid, -self.exp)

    @property
    def err(self) -> mpmath.mpf:
        return _fixed_mpf(self.rad, -self.exp)

    def _at(self, exp: int) -> tuple[int, int]:
        # mid and rad over 2^exp, exp <= self.exp
        return self.mid << (self.exp - exp), self.rad << (self.exp - exp)

    def __add__(self, other):
        if isinstance(other, BoundedComplex):
            return NotImplemented
        (a, ea), (b, eb), exp = _aligned(self, _coerce(other))
        return _ball(a + b, ea + eb, exp)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, BoundedComplex):
            return NotImplemented
        (a, ea), (b, eb), exp = _aligned(self, _coerce(other))
        return _ball(a - b, ea + eb, exp)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        if isinstance(other, BoundedComplex):
            return NotImplemented
        other = _coerce(other)
        a, ea, b, eb = self.mid, self.rad, other.mid, other.rad
        # (|a| + e_a)(|b| + e_b) - |a b|
        return _ball(a * b, abs(a) * eb + (abs(b) + eb) * ea, self.exp + other.exp)

    __rmul__ = __mul__

    def __neg__(self):
        return _ball(-self.mid, self.rad, self.exp)

    def agrees_with(self, other) -> bool:
        if isinstance(other, BoundedComplex):
            return other.agrees_with(self)
        (a, ea), (b, eb), exp = _aligned(self, _coerce(other))
        return abs(a - b) <= ea + eb

    def __repr__(self):
        return f"BoundedReal({_nstr(self.mid, self.exp, 20)}, err<={_nstr(self.rad, self.exp, 3)})"


def _aligned(x, y) -> tuple[tuple, tuple, int]:
    # the ints of two balls of one kind over their common exponent, and that exponent
    exp = min(x.exp, y.exp)
    return x._at(exp), y._at(exp), exp


def _ball(mid: int, rad: int, exp: int) -> BoundedReal:
    # from its ints, unchecked: rad >= 0 and exp <= 0
    x = object.__new__(BoundedReal)
    x.mid, x.rad, x.exp = mid, rad, exp
    return x


def _coerce(x) -> BoundedReal:
    return x if isinstance(x, BoundedReal) else BoundedReal(x)


class BoundedComplex:
    """A complex ball: the value (re + i im) 2^exp within the radius rad * 2^exp,
    four Python ints with rad >= 0 and exp <= 0.

    Sums, differences, negations and conjugates are exact.  A product's parts
    are exact, and its bound is rounded up once from moduli rounded up at
    ``_BOUND_PREC`` bits.  The constructor reads an mpc value exactly, and an
    mpf, int or float one as (x, 0); any other type raises ``TypeError``.
    ``value`` and ``err`` are exact mpc and mpf views.
    """

    __slots__ = ("re", "im", "rad", "exp")

    def __init__(self, value, err=0):
        parts = (value.real, value.imag) if isinstance(value, mpmath.mpc) else (value, 0)
        (a, e), (b, f) = (_dyadic(x, "value") for x in parts)
        r, g = _dyadic(err, "error bound", nonneg=True)
        exp = min(e, f, g, 0)
        self.re, self.im, self.rad, self.exp = a << (e - exp), b << (f - exp), r << (g - exp), exp

    @property
    def value(self) -> mpmath.mpc:
        return mp.make_mpc((from_man_exp(self.re, self.exp), from_man_exp(self.im, self.exp)))

    @property
    def err(self) -> mpmath.mpf:
        return _fixed_mpf(self.rad, -self.exp)

    def _at(self, exp: int) -> tuple[int, int, int]:
        # re, im and rad over 2^exp, exp <= self.exp
        d = self.exp - exp
        return self.re << d, self.im << d, self.rad << d

    def __add__(self, other):
        (ar, ai, ea), (br, bi, eb), exp = _aligned(self, _coerce_c(other))
        return _cball(ar + br, ai + bi, ea + eb, exp)

    __radd__ = __add__

    def __sub__(self, other):
        (ar, ai, ea), (br, bi, eb), exp = _aligned(self, _coerce_c(other))
        return _cball(ar - br, ai - bi, ea + eb, exp)

    def __rsub__(self, other):
        return _coerce_c(other).__sub__(self)

    def __mul__(self, other):
        other = _coerce_c(other)
        ar, ai, ea, br, bi, eb = self.re, self.im, self.rad, other.re, other.im, other.rad
        # |a| e_b + (|b| + e_b) e_a over 2^(exp + k), from the moduli m 2^k, then
        # rounded up to 2^(exp + k + t)
        (ma, ka), (mb, kb) = _sqrt_up(ar * ar + ai * ai), _sqrt_up(br * br + bi * bi)
        k = min(ka, kb, 0)
        err, t = _ceil_bits((ma << (ka - k)) * eb + ((mb << (kb - k)) + (eb << -k)) * ea,
                            _BOUND_PREC)
        k += t
        d = max(0, -k)
        return _cball((ar * br - ai * bi) << d, (ar * bi + ai * br) << d, err << max(0, k),
                      self.exp + other.exp - d)

    __rmul__ = __mul__

    def __neg__(self):
        return _cball(-self.re, -self.im, self.rad, self.exp)

    def conjugate(self) -> "BoundedComplex":
        return _cball(self.re, -self.im, self.rad, self.exp)

    def agrees_with(self, other: "BoundedComplex") -> bool:
        (ar, ai, ea), (br, bi, eb), exp = _aligned(self, _coerce_c(other))
        dr, di, e = ar - br, ai - bi, ea + eb
        return dr * dr + di * di <= e * e

    def __repr__(self):
        z = mp.make_mpc((_shown(self.re, self.exp, 20), _shown(self.im, self.exp, 20)))
        return f"BoundedComplex({mpmath.nstr(z, 20)}, err<={_nstr(self.rad, self.exp, 3)})"


def _cball(re: int, im: int, rad: int, exp: int) -> BoundedComplex:
    # from its ints, unchecked: rad >= 0 and exp <= 0
    z = object.__new__(BoundedComplex)
    z.re, z.im, z.rad, z.exp = re, im, rad, exp
    return z


def _coerce_c(x) -> BoundedComplex:
    if isinstance(x, BoundedComplex):
        return x
    if isinstance(x, BoundedReal):
        return _cball(x.mid, 0, x.rad, x.exp)
    return BoundedComplex(x, 0)


def _shown(x: int, exp: int, n: int) -> tuple:
    """x 2^exp as a raw mpf for ``mpmath.nstr`` to n digits, |x| rounded up to
    max(_BOUND_PREC, 5 n) significant bits.  For |x 2^exp| between 2^-3500 and 2^3500
    nstr reads only the top int(3.32 (n + 3)) + 10 bits, so the text is that of the
    exact value unless the rounding carries into them; above 10^4300 an exact mantissa
    would meet Python's int-to-str limit inside mpmath (ValueError)."""
    m, t = _ceil_bits(abs(x), max(_BOUND_PREC, 5 * n))
    return from_man_exp(-m if x < 0 else m, exp + t)


def _nstr(x: int, exp: int, n: int) -> str:
    return mpmath.nstr(mp.make_mpf(_shown(x, exp, n)), n)


def _certified(value: int, err: int, prec: int, digits: int, what: Union[str, Callable[[], str]],
               relative: bool = True) -> BoundedReal:
    """value within err, both in ulps of 2^-prec, once the ``digits`` contract holds on
    the exact integers: err <= 10^-digits (1 + |value|), or 10^-digits when not
    ``relative``; PrecisionError otherwise, naming ``what`` (called first when it is a
    function, so a costly name is formatted only then).  The one exit; see the module
    docstring."""
    if err * 10 ** digits > (1 << prec) + (abs(value) if relative else 0):
        what = what() if callable(what) else what
        raise PrecisionError(f"{what} bound {_nstr(err, -prec, 3)} above "
                             f"10^-{digits}" + (" (1 + |value|)" if relative else ""))
    return _ball(value, err, -prec)


# ---------------------------------------------------------------------------
# log-gamma with proved Stirling remainder
# ---------------------------------------------------------------------------

# (numerator, denominator (2n)(2n-1)) of B_2n / ((2n)(2n-1)), the Stirling coefficients
# for n >= 1, and the last row of the Seidel-Entringer-Arnold triangle they come from
_STIRLING_COEFFS: list[Optional[tuple[int, int]]] = [None]
_SEIDEL_ROW: list[int] = [1]
_BERNOULLI_LOCK = threading.Lock()


def _stirling_coeffs(J: int) -> list[Optional[tuple[int, int]]]:
    """The shared row [None, c_1, ..., c_n], n >= J, of exact Stirling coefficients.

    Built from the tangent numbers T_n = A_{2n-1}, the zigzag numbers A_k
    ending the rows of the Seidel-Entringer-Arnold triangle (one prefix sum
    per row; Brent and Harvey), as B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)).
    A row that is too short grows in place to exactly J + 1 entries, so a
    reader never finds it short.
    """
    row = _STIRLING_COEFFS
    if len(row) <= J:
        with _BERNOULLI_LOCK:
            seidel = _SEIDEL_ROW
            for n in range(len(row), J + 1):
                # rows 2n - 1 and 2n from row 2n - 2: each is 0 and the prefix sums of
                # the row before, reversed
                seidel[:] = [0, *accumulate(reversed(seidel))]
                T = seidel[-1]
                seidel[:] = [0, *accumulate(reversed(seidel))]
                # B_2n in lowest terms, its denominator positive
                bn, bd = (-1) ** (n - 1) * 2 * n * T, 4 ** n * (4 ** n - 1)
                g = math.gcd(bn, bd)
                row.append((bn // g, bd // g * (2 * n) * (2 * n - 1)))
    return row


# the largest Stirling order J that ln Gamma sums: a cold row to J = 1,025 took
# 0.9-1.7 s, and ln_gamma reaches 1,339 digits (N = 23's top k needs J = 860)
_STIRLING_ORDER_MAX = 1 << 10


def _stirling_order(y: float, digits: int) -> Optional[int]:
    """Smallest J <= ``_STIRLING_ORDER_MAX`` with
    |B_{2J+2}|/((2J+2)(2J+1) y^{2J+1}) <= 10^{-digits-4}, as a scan from J = 1 of
    t_J = ln 2 + lgamma(n+1) - n ln(2 pi) - ln(n(n-1)) - (n-1) ln y, n = 2J + 2,
    finds it (|B_n| ~ 2 n!/(2 pi)^n); None if no such J.

    t_{J+1} - t_J = ln(n (n-1)) - 2 ln(2 pi y), so t falls up to J = floor(pi y), and
    one J more while (2J+2)(2J+1) < (2 pi y)^2, and rises after.  A J whose t_J clears
    the target by far more than float error is passed by the scan with every J below
    it; past the fall, one that clears it ends the scan.  Bisection finds the last such
    J on the fall, and the scan starts after it."""
    target = -(digits + 4) * math.log(10)
    log2, log2pi, logy = math.log(2), math.log(2 * math.pi), math.log(y)
    lgamma, log = math.lgamma, math.log

    def t(J):
        n = 2 * J + 2
        logB = log2 + lgamma(n + 1) - n * log2pi
        return logB - log(n * (n - 1)) - (n - 1) * logy

    # the last J of the fall, within the cap; pi y is compared before int() takes it,
    # since it is infinite near the float maximum
    top = _STIRLING_ORDER_MAX
    if math.pi * y < top:
        top = int(math.pi * y)
        top += (2 * top + 2) * (2 * top + 1) < (2 * math.pi * y) ** 2
    lo, hi = 0, top
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if t(mid) > target + 1e-6:
            lo = mid
        else:
            hi = mid - 1
    for J in range(lo + 1, _STIRLING_ORDER_MAX + 1):
        tJ = t(J)
        if tJ <= target:
            return J
        if J >= top and tJ > target + 1e-6:
            return None
    return None


def _stirling_sum(A: int, D: int, J: int, prec: int) -> tuple[int, int]:
    """Stirling's series sum_{j=1}^{J} B_{2j} / ((2j)(2j-1) y^{2j-1}) at y = A/D,
    in units of 2^-prec.

    Returns (S, rem): every term is one floor division of exact integers, off by
    less than one ulp, so |S - 2^prec sum| <= J; rem is the first omitted term
    |B_{2J+2}| / ((2J+2)(2J+1) y^{2J+1}) in ulps, rounded up, which bounds the
    remainder for every real y > 0 (NIST DLMF 5.11.ii).
    """
    coeffs = _stirling_coeffs(J + 1)
    num, den = D << prec, A          # 2^prec D^{2j-1} and A^{2j-1}
    D2, A2 = D * D, A * A
    S = 0
    for j in range(1, J + 1):
        bn, bd = coeffs[j]
        S += bn * num // (bd * den)
        num *= D2
        den *= A2
    bn, bd = coeffs[J + 1]
    rem = -(-abs(bn) * num // (bd * den))
    return S, rem


# ulps charged to each fixed-point log.  _log_fixed returns the exact floor, off by
# less than one ulp.  mpmath evaluates ln(2 pi) (and pi) at prec + 8 bits; even 16
# ulps of error there is 1/16 ulp at prec, and the final floor adds less than one more
_LOG_ULPS = 2

# guard bits of _log_fixed's first attempt; each failed attempt doubles them
_LOG_GUARD = 20
# ln 2 = 18 atanh(1/26) - 2 atanh(1/4801) + 8 atanh(1/8749), as (coefficient, q)
_LN2_MACHIN = ((18, 26), (-2, 4801), (8, 8749))


def _atanh_fixed(p: int, q: int, wp: int, cut: int = 0) -> tuple[int, int]:
    """2^wp atanh(p/q) for 0 <= p/q <= 3 - 2 sqrt(2) as (value, err), with
    |value - 2^wp atanh(p/q)| <= err.

    atanh z = sum_k z^(2k+1) / (2k+1).  T_k, the k-th floor of 2^wp z^(2k+1), is
    below its true value by delta_k < 2: delta_0 < 1, and a step by the fixed-point
    Z2 = floor(T_0^2 / 2^wp), short of 2^wp z^2 by less than 2z + 1, gives
    delta_{k+1} < delta_k z^2 + z (2z + 1) + 1.  So term k, floor(T_k / (2k+1)), is
    short by less than 2 ulps (by delta_0 < 1 for k = 0).  After term 0 the sum
    stops at the first T_K < 2^cut, and the tail sum_{k>=K} is at most
    (T_K + 2) / ((2K+1)(1 - z^2)) with 1 / (1 - z^2) < 33/32.
    """
    T = (p << wp) // q
    S, d, top = T, 1, 1 << cut          # d = 2k + 1; term 0 is T itself
    z2 = T * T >> wp
    T = T * z2 >> wp
    while T >= top:
        d += 2
        S += T // d
        T = T * z2 >> wp
    return S, d + 1 - (-33 * (T + 2) // (32 * (d + 2)))


@_memo(256)
def _ln2_fixed(wp: int) -> tuple[int, int]:
    """2^wp ln 2 as (value, err), |value - 2^wp ln 2| <= err; one entry per working
    precision.  The Machin-like sum runs at wp + 16 bits and is floored to wp, so
    err is 2 while the sum's count stays below 2^16 ulps (up to about 14,000 bits)."""
    v = err = 0
    for c, q in _LN2_MACHIN:
        s, e = _atanh_fixed(1, q, wp + 16)
        v += c * s
        err += abs(c) * e
    return v >> 16, (err >> 16) + 2


def _log_interval(n: int, wp: int, cut: int) -> tuple[int, int]:
    """2^wp ln n for an integer n >= 1 as (value, err), |value - 2^wp ln n| <= err.

    n = 2^e m with m in [sqrt(1/2), sqrt(2)), so ln n = 2 atanh(z) + e ln 2 with
    z = (n - 2^e) / (n + 2^e) and |z| < 3 - 2 sqrt(2); ``cut`` is that of
    ``_atanh_fixed``."""
    e = n.bit_length()
    if n * n < 1 << (2 * e - 1):
        e -= 1
    p = n - (1 << e)
    S, err = _atanh_fixed(abs(p), n + (1 << e), wp, cut) if p else (0, 0)
    L2, err2 = _ln2_fixed(wp)
    return (2 * S if p > 0 else -2 * S) + e * L2, 2 * err + e * err2


# one entry per (n, prec), about 0.3 kB.  A repeat is mostly ln N, asked by both twist
# arguments of a degree at one precision, so it comes soon: the cold 96-row table makes
# 2,392 repeats of 6,753 calls, and 2,333 of them hit at this size
_LOG_FIXED_MAX = 256


@_memo(_LOG_FIXED_MAX)
def _log_fixed(n: int, prec: int) -> int:
    """floor(2^prec ln n), exactly, for an integer n >= 1.

    Ziv's method: ln n, counted to within err ulps at prec + g bits, fixes the
    floor when both ends of the interval floor to the same integer; otherwise g
    doubles.  Series terms below 2^-(prec + g/2) are bounded, not summed, so the
    interval narrows as g grows, and since ln n is irrational for n > 1 some g
    succeeds.
    """
    g = _LOG_GUARD
    while True:
        v, err = _log_interval(n, prec + g, g // 2)
        low = (v - err) >> g
        if low == (v + err) >> g:
            return low
        g *= 2


@_memo(256)
def _half_ln_2pi(prec: int) -> int:
    # floor(2^prec ln(2 pi) / 2) within _LOG_ULPS; one entry per working precision, of
    # which the default 96-row table meets one
    return to_fixed(mpf_log(mpf_shift(mpf_pi(prec + 8), 1), prec + 8), prec - 1)


# one entry per distinct (argument, digits), about 0.4 kB each: the default 96-row
# table, the largest consumer, asks for 2,251 of them in 3,000 calls
_LN_GAMMA_MAX = 4096


@_memo(_LN_GAMMA_MAX)
def _ln_gamma_fixed(q: Fraction, digits: int) -> tuple[int, int, int, int]:
    """ln Gamma(q) for rational q > 0 in units of 2^-prec: (value, round_err, rem, prec).

    |value - 2^prec ln Gamma(q)| <= round_err + rem, rem being the Stirling
    remainder bound and round_err * 2^-prec < 2^-(bits(digits) + 30).
    """
    a, D = q.numerator, q.denominator
    try:
        xf = a / D
    except OverflowError:
        raise DomainError(f"ln_gamma argument near 2^{a.bit_length() - D.bit_length()} is "
                          f"beyond the float range (about {sys.float_info.max:.1e})") from None
    m = max(0, int(math.ceil(max(10.0, 0.4 * digits + 6) - xf)))
    A = a + m * D
    J = _stirling_order(xf + m, digits)
    if J is None:
        raise PrecisionError(f"ln_gamma at {digits} digits needs more Stirling terms than "
                             f"_STIRLING_ORDER_MAX = {_STIRLING_ORDER_MAX}")
    # ulps from the logs and the two floor divisions; (y - 1/2) amplifies the
    # error of ln y = ln A - ln D, and the Stirling sum adds J more
    eD = _LOG_ULPS if D > 1 else 0
    lead_err = -(-abs(2 * A - D) * (_LOG_ULPS + eD) // (2 * D)) + 1
    round_err = lead_err + 1 + _LOG_ULPS + _LOG_ULPS * (m > 0) + m * eD
    prec = _bits(digits) + 30 + (round_err + J).bit_length()
    LA, LD = _log_fixed(A, prec), _log_fixed(D, prec)
    S, rem = _stirling_sum(A, D, J, prec)
    value = ((2 * A - D) * (LA - LD) // (2 * D)        # (y - 1/2) ln y
             - (A << prec) // D                         # - y
             + _half_ln_2pi(prec) + S
             - _log_fixed(math.prod(range(a, A, D)), prec) + m * LD)   # - ln(R / D^m)
    return value, round_err + J, rem, prec


def ln_gamma(x: Rational, digits: int = 30) -> BoundedReal:
    """ln Gamma(x) for x > 0 with absolute error <= 10^-digits.

    Exact rational x = a/D is raised to y = x + m = A/D past ~0.4*digits
    and evaluated in fixed point (see the module docstring) as

        (y - 1/2) ln y - y + ln(2 pi)/2 + Stirling sum - ln(R / D^m),

    R = prod_{i<m} (a + iD) being the exact integer rising factorial.  The
    remainder bound is the first omitted Stirling term, which is valid for
    all real positive arguments.  Raises PrecisionError when the bound
    exceeds 10^-digits, or when the order passes ``_STIRLING_ORDER_MAX``
    (above 1,339 digits).
    """
    _check_digits(digits)
    q = _param(x)
    if q.numerator <= 0:
        raise DomainError(f"ln_gamma requires a positive argument, got {Fraction(q)}")
    value, round_err, rem, prec = _ln_gamma_fixed(q, digits)
    return _certified(value, round_err + rem, prec, digits, "ln_gamma", relative=False)


# ulps charged to the fixed-point exp.  mpmath evaluates it at 8 more bits than the
# integer part and prec need, so even 256 ulps there are 1 ulp at prec; the floor to
# prec adds less than one more
_EXP_ULPS = 2
# integer bits of the largest e^x that gamma_quotient exponentiates: mpf_exp works at
# prec + ib bits, and Gamma(5000) (ib about 56,000) took 0.2-0.35 s, Gamma(20000) 5.7 s
_EXP_INT_BITS_MAX = 1 << 16


def gamma_quotient(numerators: Sequence[Rational], denominators: Sequence[Rational],
                   digits: int = 30) -> BoundedReal:
    """prod Gamma(a_i) / prod Gamma(b_j) for positive rational arguments.

    The log-gammas, read exactly as integers, are summed with their net
    multiplicities w into x = sum w v and eps = sum |w| e, and exponentiated
    once in fixed point at 2^-prec, prec = bits(digits) + 40: the value is
    floor(2^prec e^x) within ``_EXP_ULPS``, and |e^L - e^x| <= e^x eps (1 + eps)
    for |L - x| <= eps < 1, rounded up.  Raises PrecisionError unless eps < 1,
    e^x needs at most ``_EXP_INT_BITS_MAX`` integer bits and err <= 10^-digits (1 + |value|)."""
    _check_digits(digits)
    nums = [_param(a) for a in numerators]
    args = nums + [_param(b) for b in denominators]
    keys = [(a.numerator, a.denominator) for a in args]
    for (an, _), a in zip(keys, args):
        if an <= 0:
            raise DomainError(f"gamma_quotient argument {Fraction(a)} <= 0")
    # each distinct argument, keyed on its int pair, is evaluated once with its net
    # multiplicity
    weights = Counter(keys[:len(nums)])
    weights.subtract(keys[len(nums):])
    arg = dict(zip(keys, args))
    # x = sum w v within eps = sum |w| e, exactly: S and E over 2^p, p the largest
    # precision of the log-gammas (each a ball mid 2^exp within rad 2^exp)
    logs = [(w, ln_gamma(arg[key], digits + 12)) for key, w in weights.items() if w]
    p = max([-v.exp for _, v in logs], default=0)
    S = sum([w * v.mid << (p + v.exp) for w, v in logs])
    E = sum([abs(w) * v.rad << (p + v.exp) for w, v in logs])
    if E >> p:
        raise PrecisionError(f"gamma quotient log bound {_nstr(E, -p, 3)} >= 1")
    prec = _bits(digits) + 40
    # e^x < 2^ib, since log2(e) < 3/2
    ib = max(1, (3 * ((S >> p) + 1) + 1) // 2)
    if ib > _EXP_INT_BITS_MAX:
        raise PrecisionError(f"gamma quotient needs up to {ib} integer bits, above "
                             f"{_EXP_INT_BITS_MAX}")
    value = to_fixed(mpf_exp(from_man_exp(S, -p), prec + ib + 8, round_floor), prec)
    err = -(-(value + _EXP_ULPS) * E * ((1 << p) + E) >> 2 * p) + _EXP_ULPS
    return _certified(value, err, prec, digits, "gamma quotient")


# ---------------------------------------------------------------------------
# unit-argument hypergeometric series with rigorous tail
# ---------------------------------------------------------------------------

def _poly_mul(A, B):
    # ascending coefficient lists; the accumulator starts at int 0 so int inputs stay ints
    if not A or not B:
        return []
    out = [0] * (len(A) + len(B) - 1)
    for i, a in enumerate(A):
        if a:
            for j, b in enumerate(B):
                if b:
                    out[i + j] += a * b
    return out


def _trim(a: list) -> list:
    # drop trailing zero coefficients in place
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_sub(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return _trim(out)


def _poly_from_factors(params, D, d):
    # D^d prod (1 + a x): integer coefficients when D clears every denominator
    out = [D ** (d - len(params))]
    for a in params:
        out = _poly_mul(out, [D, D * a.numerator // a.denominator])
    return out


def _alternate(a):
    # (-1)^j a_j
    return [-c if j % 2 else c for j, c in enumerate(a)]


def _series_polys(uppers, lowers):
    # P = D^d prod (1 + a x) over the uppers and Q the same over the lowers and 1, D
    # clearing every denominator: integer coefficients, Q[0] = D^d
    D = math.lcm(*(x.denominator for x in uppers + lowers))
    d = max(len(uppers), len(lowers) + 1)
    return _poly_from_factors(uppers, D, d), _poly_from_factors(lowers + [1], D, d)


def _margin(P, Q) -> tuple[int, int]:
    # sum(lowers) - sum(uppers) = (Q_1 - Q_0 - P_1) / Q_0 in lowest terms, Q_0 = D^d > 0
    # (P_1 is 0 without uppers)
    n = Q[1] - Q[0] - (P[1] if len(P) > 1 else 0)
    g = math.gcd(n, Q[0])
    return n // g, Q[0] // g


# one record per series, keyed on its exact (uppers, lowers): its partial-sum half and
# its tail-solve half, each an immutable tuple at the most terms or the highest order
# asked so far (None until asked).  A twist 3F2 holds 20 kB of term ratios and 6-7 kB
# of solve at 62 digits (M = 248, K = 36), 40 kB and 15-16 kB at 126.
# An all-k sweep of N = 4..9 keeps 13 series live
_SERIES_MAX = 16
_SERIES = OrderedDict()
_SERIES_LOCK = threading.Lock()


def _series_key(uppers, lowers) -> tuple:
    # the exact parameters as int pairs: a key of Fractions costs more to hash and compare
    return (tuple([(a.numerator, a.denominator) for a in uppers]),
            tuple([(b.numerator, b.denominator) for b in lowers]))


def _series_half(key, i: int):
    """Half i (0: partial sum, 1: tail solve) of the series' record, or None;
    a read marks the record used."""
    with _SERIES_LOCK:
        record = _SERIES.get(key)
        if record is None:
            return None
        _SERIES.move_to_end(key)
        return record[i]


def _store_half(key, i: int, half: tuple) -> None:
    # replace half i with a longer one, never mutated in place: a concurrent extension
    # of the same series may have stored more; then evict the least recently used
    with _SERIES_LOCK:
        record = list(_SERIES.get(key, (None, None)))
        if record[i] is None or len(record[i][0]) < len(half[0]):
            record[i] = half
            _SERIES[key] = tuple(record)
        _SERIES.move_to_end(key)
        while len(_SERIES) > _SERIES_MAX:
            _SERIES.popitem(last=False)


def _solve_tail_series(uppers, lowers, K, polys=None):
    """Coefficients v_k = V[k] / L of W(n) = n V(1/n) for the tail recurrence.

    Writing the functional equation q V = x q + p (1+x) V(x/(1+x)) order
    by order gives a triangular linear system: the unknown v_m enters
    the x^{m+1} equation with coefficient (s + m), s the convergence
    margin, via C[k][j] = q_{j-k} - [p (1+x)^{1-k}]_{j-k}.  Here P and Q
    are D^d p and D^d q (``_series_polys``), so Q[0] = D^d and every C is an
    integer over D^d; the solution is kept over the one common denominator L.

    The solve at order K is an exact prefix of every higher one (see the
    module docstring): the series' record divides it out of the highest
    solve or continues that one, so (V, L) is the same integers whatever was
    asked before.  ``polys`` is (P, Q, s) when the caller has built them already, s
    the margin as ``_margin``'s (numerator, denominator).
    """
    key = _series_key(uppers, lowers)
    solve = _series_half(key, 1)
    if solve is None or len(solve[0]) <= K:
        if polys is None:
            P, Q = _series_polys(uppers, lowers)
            polys = P, Q, _margin(P, Q)
        solve = _tail_solve_steps(*polys, K, *(solve or ((), (), ())))
        _store_half(key, 1, solve)
    Valt, factors, _ = solve
    if len(factors) > K + 1:
        later = math.prod(factors[K + 1:])
        Valt = [x // later for x in Valt[:K + 1]]
    return _alternate(Valt), math.prod(factors[:K + 1])


def _tail_solve_steps(P, Q, s, K, Valt, factors, diag):
    """Steps len(factors)..K of the triangular solve, continuing from the alternating-sign
    coefficients ``Valt``, the factors f_m of the steps before and the anti-diagonal
    ``diag`` of the next step; new tuples (Valt, factors, diag).

    Rows and V are kept in alternating-sign form, c_j (-1)^j and v_k (-1)^k, in which
    dividing by (1+x) is a prefix sum: row k of [P (1+x)^{1-k}] is a_k, the prefix sums
    of a_{k-1}.  Step m reads row k only at j = m+1-k, so it needs one anti-diagonal,
    a_k(m) for k <= m, and Pascal's rule a_k(m+1) = a_k(m) + a_{k-1}(m) gives the next;
    ``diag`` ends with a_0[0], which every row starts with.  No entry depends on K.
    """
    Qalt = _alternate(Q)
    row = _alternate(_poly_mul(P, [1, 1]))     # a_0 = [P (1+x)]_j (-1)^j
    row += [0] * (K + 3 - len(row))
    sn, sd = s
    Valt, factors = list(Valt), list(factors)
    diag = list(diag) or [row[1], row[0]]
    L = math.prod(factors)
    for m in range(len(factors), K + 1):
        # R = L q_m - sum_{k<m} v_k C[k][m+1-k], the sum with every sign folded into
        # (-1)^m; C[k][m+1-k] = q_{m+1-k} - a_k(m), and q_j vanishes from j = len(Q) on
        lo = max(0, m + 2 - len(Q))
        acc = sum(map(mul, Valt[lo:], Qalt[m + 1 - lo:1:-1])) - sum(map(mul, Valt, diag))
        Lq = L * Qalt[m] if m < len(Q) else 0
        R = Lq + acc if m % 2 == 0 else -(Lq + acc)
        # v_m = (R / (L D^d)) / (s + m)
        num, den = sd * R, Q[0] * (sn + m * sd)
        g = math.gcd(num, den)
        f = den // g
        factors.append(f)
        if f > 1:
            L *= f
            Valt = [x * f for x in Valt]
        Valt.append(-(num // g) if m % 2 else num // g)
        diag = [row[m + 2], *map(add, diag[1:], diag), row[0]]
    return tuple(Valt), tuple(factors), tuple(diag)


def _defect_poly(P, Q, V, L, K):
    """Coefficients G_i of the defect polynomial scaled by L D^d,

        G = (1+x)^K (Q V - x L Q) - P sum_k V_k x^k (1+x)^{K+1-k},

    V having K + 1 >= 2 coefficients; as many as the product's length
    max(2K + len(Q), len(P) + K + 1).  G is evaluated exactly at x = 2^b by
    shifts and small-by-large products:
    |G_i| <= 2^{K+1} (|Q|_1 (|V|_1 + L) + |P|_1 |V|_1) < 2^(b-1).  So G_0 .. G_{K+1}
    all vanish exactly when the low b (K+2) bits of G do, which a solved V must
    give (AssertionError otherwise); the slots above are decoded one by one once
    2^(b-1) is added to each.
    """
    n = max(2 * K + len(Q), len(P) + K + 1)
    l1V = sum(map(abs, V))
    bound = (sum(map(abs, Q)) * (l1V + L) + sum(map(abs, P)) * l1V) << (K + 1)
    nb = (bound.bit_length() + 8) // 8          # bytes per slot, with room for the sign
    b, half, slot_bias = 8 * nb, 1 << (8 * nb - 1), bytes(nb - 1) + b"\x80"
    # (1+x)^K Q (V - x L), V - x L packed from its biased slots
    W = V[:]
    W[1] -= L
    X = (int.from_bytes(b"".join([(c + half).to_bytes(nb, "little") for c in W]), "little")
         - int.from_bytes(slot_bias * len(W), "little"))
    for _ in range(K):
        X += X << b
    G = 0
    for i, c in enumerate(Q):
        if c:
            G += c * X << (b * i)
    # sum_k V_k x^k (1+x)^{K-k} by Horner in (1+x) and x^k, times (1+x) P
    X = V[0]
    for k in range(1, len(V)):
        X += (X << b) + (V[k] << (b * k))
    X += X << b
    for i, c in enumerate(P):
        if c:
            G -= c * X << (b * i)
    low = b * (K + 2)
    if G & ((1 << low) - 1):
        raise AssertionError("tail series solve lost cancellation")
    n -= K + 2
    raw = ((G >> low) + int.from_bytes(slot_bias * n, "little")).to_bytes(n * nb, "little")
    return [0] * (K + 2) + [int.from_bytes(raw[i:i + nb], "little") - half
                            for i in range(0, n * nb, nb)]


def _tail_defect_majorant(P, Q, V, L, K, M):
    """(hn, hd) with H(M) = hn / hd bounding the defect numerator:
    |d(n)| <= H(M) n^{-K-1} for n >= M.  The defect polynomial is built
    scaled by L D^d, which clears the denominators of v, p and q."""
    G = _defect_poly(P, Q, V, L, K)
    # sum_j |h_j| M^-j over H = G[K+2:], over the common denominator M^J
    hn = 0
    for h in G[K + 2:]:
        hn = hn * M + abs(h)
    return hn, L * Q[0] * M ** (len(G) - K - 3)


def _ratio_eventually_below_one(p, q, M):
    # Q(n) - P(n) >= 0 for all n >= M, certified by nonnegative shifted coefficients;
    # prod (n + a) is the coefficient reversal of prod (1 + a x)
    D = _poly_sub(q[::-1], p[::-1])
    # shift: D(M + y) coefficients
    deg = len(D) - 1
    shifted = [0] * (deg + 1)
    for i, c in enumerate(D):
        if c == 0:
            continue
        for j in range(i + 1):
            shifted[j] += c * math.comb(i, j) * M ** (i - j)
    return all(c >= 0 for c in shifted)


def hyp_unit_sum(uppers: Sequence[Rational], lowers: Sequence[Rational],
                 digits: int = 30) -> BoundedReal:
    """Sum of the pF(p-1) series at argument 1 with a rigorous error bound.

    The p - 1 lower parameters exclude the implicit (1)_n, and any other count
    raises DomainError, as does digits < 1; the convergence margin
    sum(lowers) - sum(uppers) must be positive unless some upper parameter is a
    non-positive integer (terminating series, summed exactly).  Parameters are
    ints or Fractions (any other rational, a float, is read as a Fraction).
    Raises PrecisionError unless err <= 10^-digits (1 + |value|).
    """
    _check_digits(digits)
    uppers = [_param(u) for u in uppers]
    lowers = [_param(b) for b in lowers]
    for low in lowers:
        if low.denominator == 1 and low.numerator <= 0:
            raise DomainError(f"lower parameter {Fraction(low)} is a non-positive integer")
    if len(lowers) != len(uppers) - 1:
        raise DomainError(f"a unit-argument series pF(p-1) needs one lower parameter fewer "
                          f"than its uppers, got {len(uppers)} and {len(lowers)}")
    stops = [-a.numerator for a in uppers if a.denominator == 1 and a.numerator <= 0]
    if stops:
        return _fixed_point_sum(uppers, lowers, min(stops) + 1, digits)
    # the fastest measured (M, K) whose bounds are no wider than those of M = 24 digits
    return _hyp_unit_series(uppers, lowers, digits, 4 * digits, int(digits * 0.46) + 8)


def _hyp_unit_series(uppers: list[Rational], lowers: list[Rational], digits: int, M: int,
                     K: int) -> BoundedReal:
    """``hyp_unit_sum`` of a non-terminating series from M terms and a tail of order K;
    each failed attempt doubles M and raises K by half, continuing the tail solve.
    Raises DivergenceError unless the margin sum(lowers) - sum(uppers), read from P and
    Q, is positive."""
    P, Q = _series_polys(uppers, lowers)
    margin = _margin(P, Q)
    if margin[0] <= 0:
        raise DivergenceError(
            f"unit-argument series diverges: margin {Fraction(*margin)} <= 0 for "
            f"{_fractions(uppers)}; {_fractions(lowers)}")
    # all linear factors must be positive (and comfortably so for the
    # negative-parameter Q-majorization) from index M on; floor(-2x) = (-2 an) // ad
    floor_shift = max([0] + [(-2 * x.numerator) // x.denominator + 1
                             for x in uppers + lowers if x.numerator < 0])
    M = max(M, floor_shift + 2)
    negative_lowers = [(b.numerator, b.denominator) for b in lowers if b.numerator < 0]
    for _attempt in range(5):
        if _ratio_eventually_below_one(P, Q, M):
            V, L = _solve_tail_series(uppers, lowers, K, (P, Q, margin))
            hn, hd = _tail_defect_majorant(P, Q, V, L, K, M)
            # Q(n) >= n^deg * qn / qd for n >= M, qn / qd = prod (1 + b / M) over the
            # negative lowers in lowest terms (they shrink the product)
            qn = math.prod([M * bd + bn for bn, bd in negative_lowers])
            qd = math.prod([M * bd for _, bd in negative_lowers])
            g = math.gcd(qn, qd)
            # the exact W(M) = M V(1/M) = Wn / Wd, and E = |t_M| H(M) (M^{-K-1} + M^{-K}/K)
            Wn = 0
            for Vk in V:
                Wn = Wn * M + Vk
            result = _fixed_point_sum(uppers, lowers, M, digits,
                                      (Wn, L * M ** (K - 1), hn * (qd // g) * (K + M),
                                       hd * (qn // g) * K * M ** (K + 1)))
            if result is not None:
                return result
        M *= 2
        K += K // 2
    raise PrecisionError(f"series tail bound did not reach 10^-{digits} "
                         f"for {_fractions(uppers)}; {_fractions(lowers)}")


def _term_ratios(ups, lows, start, stop):
    # num(n) = prod bd * prod (n ad + an) and den(n) = (n+1) prod ad * prod (n bd + bn)
    # for start <= n < stop, from the (numerator, denominator) pairs of the uppers and
    # lowers, each a chain of maps over one range per factor
    nums = repeat(math.prod([bd for _, bd in lows]), stop - start)
    for an, ad in ups:
        nums = map(mul, nums, range(an + start * ad, an + stop * ad, ad))
    den0 = math.prod([ad for _, ad in ups])
    dens = range((start + 1) * den0, (stop + 1) * den0, den0)
    for bn, bd in lows:
        dens = map(mul, dens, range(bn + start * bd, bn + stop * bd, bd))
    return list(nums), list(dens)


def _partial_sum(uppers, lowers, terms, prec):
    """Fixed-point sum of t_n over n < terms, in units of 2^-prec.

    Returns (S, S_err, T, T_err): |S - 2^prec sum t_n| <= S_err and
    |T - 2^prec t_terms| <= T_err.  Each step is T = T * num // den with
    the integer term ratio num/den; floor division is off by less than
    one ulp, so the error E of T obeys E' = ceil(E |num| / |den|) + 1, computed as
    (E |num| - 1) // |den| + 2.

    The ratios do not read prec, so the series' record keeps them for the most terms
    asked so far, and more terms extend them from the stored end; one loop then steps
    S, S_err, T and E over the first ``terms``.
    """
    key = _series_key(uppers, lowers)
    nums, dens = _series_half(key, 0) or ((), ())
    if len(nums) < terms:
        more_nums, more_dens = _term_ratios(*key, len(nums), terms)
        nums, dens = nums + tuple(more_nums), dens + tuple(more_dens)
        _store_half(key, 0, (nums, dens))
    nums, dens = nums[:terms], dens[:terms]
    # the E chain needs |num| and |den|, which are num and den unless a parameter is
    # negative
    mags = nums, dens
    if any(x < 0 for x, _ in key[0] + key[1]):
        mags = map(abs, nums), map(abs, dens)
    S = S_err = E = 0
    T = 1 << prec
    for num, den, anum, aden in zip(nums, dens, *mags):
        S += T
        S_err += E
        T = T * num // den
        E = (E * anum - 1) // aden + 2
    return S, S_err, T, E


# terms of the longest partial sum.  hyp_unit_sum([-(k + 1/2), 1/3], [1/2], 10), whose
# floor shift asks for 2k + 3 terms, certified in 0.13 s at k = 10^4, 0.39 s at 16,000
# and 2.2 s at 32,765 (65,533 terms) on a shared 2-vCPU box; uncapped, k = 10^5 took 12 s
# to fail and k = 10^6 ran out of a 2 GB address space after 20 s.  The default schedule
# (M = 4 digits) reaches the cap only past 16,000 digits
_SERIES_TERMS_MAX = 1 << 16


def _fixed_point_sum(uppers, lowers, terms: int, digits: int,
                     tail: Optional[tuple[int, int, int, int]] = None) -> Optional[BoundedReal]:
    """The first ``terms`` terms in fixed point, plus for a non-terminating series its
    tail t_terms Wn / Wd within E = |t_terms| En / Ed, ``tail = (Wn, Wd, En, Ed)``;
    None when 2 E misses 10^-digits.  One rerun, as the module docstring says.  Raises
    PrecisionError, before any term is formed, when terms is above _SERIES_TERMS_MAX."""
    if terms > _SERIES_TERMS_MAX:
        raise PrecisionError(f"series needs {_nstr(terms, 0, 3)} terms, above "
                             f"{_SERIES_TERMS_MAX}")
    # guard bits for the ~terms^2 ulps that floor division may accumulate
    prec = _bits(digits) + 46 + terms.bit_length()
    while True:
        S, err, T, T_err = _partial_sum(uppers, lowers, terms, prec)
        E = 0
        if tail is not None:
            Wn, Wd, En, Ed = tail
            S += T * Wn // Wd
            err += -(-T_err * abs(Wn) // Wd) + 1
            E = -(-(abs(T) + T_err) * En // Ed)
            if 2 * E * 10 ** digits > 1 << prec:
                return None
        rounding = err * 10 ** digits
        try:
            return _certified(S, err + E, prec, digits,
                              lambda: f"series {_fractions(uppers)}; {_fractions(lowers)}")
        except PrecisionError:
            if prec > rounding.bit_length():
                raise
        prec = rounding.bit_length() + 1


def _round_product(factors: Sequence[BoundedReal], prec: int) -> BoundedReal:
    """The product of two or more bounded reals, formed exactly, its value
    rounded once, to nearest (ties up), at 2^-prec.

    The exact product carries the propagated bound prod (|x_i| + e_i) -
    prod |x_i|; the exact rounding residual joins it, and that sum is
    rounded up to prec significant bits, so no other rounding is charged.
    """
    p = math.prod(factors)
    s = max(0, -p.exp - prec)        # bits of the product below 2^-prec
    r = (p.mid + (1 << s >> 1)) >> s
    err, t = _ceil_bits(p.rad + abs(p.mid - (r << s)), prec)
    low = min(s, t)
    return _ball(r << (s - low), err << (t - low), p.exp + low)


def _gamma_hyp(gnum, gden, uppers, lowers, digits: int) -> BoundedReal:
    """Gamma[gnum; gden] * pF(p-1)(uppers; lowers; 1), the closed form of every
    twist term, arc integral and Dixon member: both factors are
    certified with six guard digits, and their product is rounded once at
    2^-(bits(digits) + 40)."""
    _check_digits(digits)
    return _round_product([gamma_quotient(gnum, gden, digits + 6),
                           hyp_unit_sum(uppers, lowers, digits + 6)], _bits(digits) + 40)


# ---------------------------------------------------------------------------
# Euler-type double integral over the ordered simplex (quadrature oracle)
# ---------------------------------------------------------------------------

def euler_double_integral(a1: Rational, b1: Rational, a2: Rational, b2: Rational) -> BoundedReal:
    """integral of u^{a1-1}(1-u)^{b1-1} v^{a2-1}(1-v)^{b2-1} over 0<=u<=v<=1.

    Pure quadrature (Gauss-Jacobi after endpoint-singularity splitting),
    independent of every series evaluation in this module; the error is
    an a-posteriori order-doubling estimate, oracle-grade rather than
    proved.  The domain is split at v=1/2 and the inner integral near
    v=1 is rewritten through its complement so that every piece has
    power singularities only at coordinate endpoints:

      I = A(a1,b1,a2,b2) + B(a1,b1) C(a2,b2) - A(b1,a1,b2,a2),
      A(a1,b1,a2,b2) = int_0^{1/2} v^{a1+a2-1}(1-v)^{b2-1} int_0^1 w^{a1-1}(1-vw)^{b1-1} dw dv,
      C(a2,b2) = int_{1/2}^1 v^{a2-1}(1-v)^{b2-1} dv.

    A is the ordered integral over u <= v <= 1/2 (u = vw).  B(a1,b1) C covers
    u in [0,1], v in [1/2,1]; the subtracted part, u > v >= 1/2, is A with the
    exponents swapped under (u, v) -> (1-v, 1-u).  B(a1,b1) is the normaliser
    the Gauss-Jacobi rules already carry, from libm's lgamma.
    """
    fr = [Fraction(x) for x in (a1, b1, a2, b2)]
    for x in fr:
        if not (0 < x <= 1):
            raise DomainError(f"exponent parameter {x} outside (0, 1]")
    from . import _quadrature
    return BoundedReal(*_quadrature.simplex_beta_integral(*fr))


# ---------------------------------------------------------------------------
# Dixon's ten-expression family
# ---------------------------------------------------------------------------

@dataclass
class DixonMember:
    index: int                    # 1-based position in the family
    value: Optional[BoundedReal]  # None when skipped
    skipped: bool
    margin: Fraction


def _dixon_table(a1: Fraction, b1: Fraction, a2: Fraction, b2: Fraction):
    s = a1 + b1 + a2 + b2
    one = Fraction(1)
    return [
        # (gamma numerators, gamma denominators, 3F2 uppers, 3F2 lowers)
        ([a1, b2, a1 + a2], [a1 + 1, a1 + a2 + b2],
         [a1, one - b1, a1 + a2], [a1 + 1, a1 + a2 + b2]),
        ([a1, b2, b1 + b2], [b2 + 1, a1 + b1 + b2],
         [one - a2, b2, b1 + b2], [b2 + 1, a1 + b1 + b2]),
        ([a1, b2, a1 + a2, b1 + b2], [a1 + 1, a2 + b2, a1 + b1 + b2],
         [a1, one - a2, a1 + b1], [a1 + 1, a1 + b1 + b2]),
        ([a1, b2, a1 + a2, b1 + b2], [b2 + 1, a1 + b1, a1 + a2 + b2],
         [one - b1, b2, a2 + b2], [b2 + 1, a1 + a2 + b2]),
        ([a1, a1 + a2, b1 + b2], [a1 + 1, s],
         [a1 + a2, a1 + b1, one], [a1 + 1, s]),
        ([a1 + a2, b2, b1 + b2], [b2 + 1, s],
         [a2 + b2, b1 + b2, one], [b2 + 1, s]),
        ([a1, b2, a1 + a2, b1 + b2], [one - a2, a1 + a2 + b2, s],
         [a1 + a2, a2 + b2, s - 1], [a1 + a2 + b2, s]),
        ([a1, b2, a1 + a2, b1 + b2], [one - b1, a1 + b1 + b2, s],
         [a1 + b1, b1 + b2, s - 1], [a1 + b1 + b2, s]),
        ([a1, b2, a1 + a2, b1 + b2], [a1 + 1, b2 + 1, s - 1],
         [one - a2, one - b1, one], [a1 + 1, b2 + 1]),
        ([a1, b2, a1 + a2, b1 + b2], [a1 + a2 + b2, a1 + b1 + b2],
         [a1, b2, s - 1], [a1 + a2 + b2, a1 + b1 + b2]),
    ]


def dixon_family(a1: Rational, b1: Rational, a2: Rational, b2: Rational,
                 digits: int = 20) -> list[DixonMember]:
    """The ten analytically equal closed forms for the simplex integral.

    Each member is evaluated only when its own 3F2 converges (positive
    margin) and its gamma arguments are positive; others are returned
    skipped.  The tenth, most symmetric member always converges (margin
    exactly 1) and is the production closed form elsewhere.
    """
    fr = [Fraction(x) for x in (a1, b1, a2, b2)]
    for x in fr:
        if not (0 < x < 1):
            raise DomainError(f"parameter {x} outside (0, 1)")
    out = []
    for i, (gnum, gden, fup, flo) in enumerate(_dixon_table(*fr), start=1):
        margin = sum(flo) - sum(fup)
        if margin <= 0 or any(g <= 0 for g in gnum + gden):
            out.append(DixonMember(i, None, True, margin))
            continue
        out.append(DixonMember(i, _gamma_hyp(gnum, gden, fup, flo, digits), False, margin))
    return out
