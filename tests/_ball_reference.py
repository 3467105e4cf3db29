"""The mpf versions of ``specfun``'s bounded classes, ``_certified`` and
``_round_product``.

``specfun`` now keeps a ``BoundedReal`` as three Python ints (mid, rad, exp)
and a ``BoundedComplex`` as four (re, im, rad, exp), and runs their
arithmetic on them; these are the classes and functions it replaced, kept
verbatim as references that must give the same values and bounds, bit for
bit.  The quotient and the ``Fraction`` operand, which ``specfun`` dropped,
stay here as they were.  ``_exact_fixed`` reads mpfs
as integers over one power of two for the integer references that use it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import mpmath
from mpmath import mp
from mpmath.libmp import (fhalf, from_float, from_int, from_man_exp, fzero, mpf_abs, mpf_add,
                          mpf_div, mpf_le, mpf_mul, mpf_neg, mpf_pos, mpf_shift, mpf_sign,
                          mpf_sqrt, mpf_sub, round_ceiling, round_floor, round_nearest, to_int)

from fermatvol.specfun import PrecisionError


def _finite(raw: tuple) -> bool:
    # of a raw mpf tuple: inf and nan are the only ones with mantissa 0 and a nonzero exponent
    return bool(raw[1]) or not raw[2]


def _exact_fixed(*xs: mpmath.mpf, prec: int = 0) -> tuple[list[int], int]:
    """Finite mpfs read exactly as integers over one power of two:
    x_i = n_i * 2^-p with p >= prec."""
    pairs = []
    for x in xs:
        sign, man, exp, _ = raw = x._mpf_
        if not _finite(raw):
            raise ValueError(f"{x} is not a finite number")
        pairs.append((-int(man) if sign else int(man), exp))
    prec = max([prec] + [-exp for _, exp in pairs])
    return [man << (prec + exp) for man, exp in pairs], prec


def _fixed_mpf(x: int, prec: int) -> mpmath.mpf:
    # x * 2^-prec, exactly (the mantissa is not rounded to the ambient precision)
    return mp.make_mpf(from_man_exp(x, -prec))


def _exact_mpf(x) -> tuple:
    # the raw mpf of an mpf, int or float, exactly: never rounded to the ambient precision
    if isinstance(x, mpmath.mpf):
        return x._mpf_
    if isinstance(x, int):
        return from_int(x)
    if isinstance(x, float):
        return from_float(x)
    raise TypeError(f"expected an mpf, int or float, got {type(x).__name__}")


# significant bits of a rounded-up bound, whatever mp.prec is.  A bound that is a sum
# is formed exactly and then rounded by mpf_pos: mpf_add's own rounding can miss the
# ceiling when the larger operand has more bits than the target precision
_BOUND_PREC = 64


class BoundedReal:
    """A real value with a conservative absolute error bound.

    Value and bound are binary fractions.  Sums, differences and products
    are exact on them.  A quotient rounds its value to nearest at the
    ambient mpmath precision and adds the exact residual to its bound,
    which is rounded up once.  The constructor keeps an mpf, int or float
    value or bound exactly and refuses any other type with ``TypeError``
    (``_coerce`` reads a ``Fraction``).
    """

    __slots__ = ("value", "err")

    def __init__(self, value, err=0):
        self.value = value if isinstance(value, mpmath.mpf) else mp.make_mpf(_exact_mpf(value))
        self.err = err if isinstance(err, mpmath.mpf) else mp.make_mpf(_exact_mpf(err))
        if not _finite(self.value._mpf_):
            raise ValueError(f"invalid value {value!r}")
        if self.err._mpf_[0] or not _finite(self.err._mpf_):  # the sign bit: err < 0
            raise ValueError(f"invalid error bound {err!r}")

    def __add__(self, other):
        other = _coerce(other)
        return BoundedReal(mpmath.fadd(self.value, other.value, exact=True),
                           mpmath.fadd(self.err, other.err, exact=True))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return BoundedReal(mpmath.fsub(self.value, other.value, exact=True),
                           mpmath.fadd(self.err, other.err, exact=True))

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        other = _coerce(other)
        a, ea, b, eb = self.value._mpf_, self.err._mpf_, other.value._mpf_, other.err._mpf_
        # (|a| + e_a)(|b| + e_b) - |a b|
        return _real(mpf_mul(a, b),
                     mpf_add(mpf_mul(mpf_abs(a), eb), mpf_mul(mpf_add(mpf_abs(b), eb), ea)))

    __rmul__ = __mul__

    def __neg__(self):
        return _real(mpf_neg(self.value._mpf_), self.err._mpf_)

    def __truediv__(self, other):
        other = _coerce(other)
        a, ea, b, eb = self.value._mpf_, self.err._mpf_, other.value._mpf_, other.err._mpf_
        lo = mpf_sub(mpf_abs(b), eb)
        if mpf_sign(lo) <= 0:
            raise ZeroDivisionError("divisor interval contains zero")
        v = mpf_div(a, b, mp.prec, round_nearest)
        # |(a + da)/(b + db) - v| <= (|a - v b| + e_a + |v| e_b) / (|b| - e_b)
        num = mpf_add(mpf_add(mpf_abs(mpf_sub(a, mpf_mul(v, b))), ea), mpf_mul(mpf_abs(v), eb))
        return _real(v, mpf_div(num, lo, _BOUND_PREC, round_ceiling))

    def agrees_with(self, other: "BoundedReal") -> bool:
        other = _coerce(other)
        gap = mpf_abs(mpf_sub(self.value._mpf_, other.value._mpf_))
        return mpf_le(gap, mpf_add(self.err._mpf_, other.err._mpf_))

    def __repr__(self):
        return f"BoundedReal({mpmath.nstr(self.value, 20)}, err<={mpmath.nstr(self.err, 3)})"


def _real(value: tuple, err: tuple) -> BoundedReal:
    # from raw mpfs, kept exactly
    return BoundedReal(mp.make_mpf(value), mp.make_mpf(err))


def _coerce(x) -> BoundedReal:
    if isinstance(x, BoundedReal):
        return x
    if isinstance(x, Fraction):
        return _coerce(x.numerator) / x.denominator
    return BoundedReal(x)


class BoundedComplex:
    """Complex value with an absolute (radius) error bound.

    The parts and the bound are binary fractions.  Sums, differences,
    products and conjugates keep the parts exact; a product's bound is
    rounded up once from moduli rounded up at ``_BOUND_PREC`` bits.  The
    constructor keeps an mpc value exactly, and an mpf, int or float one
    as (x, 0); any other type raises ``TypeError``.
    """

    __slots__ = ("value", "err")

    def __init__(self, value, err=0):
        self.value = (value if isinstance(value, mpmath.mpc)
                      else mp.make_mpc((_exact_mpf(value), fzero)))
        self.err = err if isinstance(err, mpmath.mpf) else mp.make_mpf(_exact_mpf(err))
        if not all(map(_finite, self.value._mpc_)):
            raise ValueError(f"invalid value {value!r}")
        if self.err._mpf_[0] or not _finite(self.err._mpf_):  # the sign bit: err < 0
            raise ValueError(f"invalid error bound {err!r}")

    def __add__(self, other):
        other = _coerce_c(other)
        (ar, ai), (br, bi) = self.value._mpc_, other.value._mpc_
        return _complex(mpf_add(ar, br), mpf_add(ai, bi), mpf_add(self.err._mpf_, other.err._mpf_))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_c(other)
        (ar, ai), (br, bi) = self.value._mpc_, other.value._mpc_
        return _complex(mpf_sub(ar, br), mpf_sub(ai, bi), mpf_add(self.err._mpf_, other.err._mpf_))

    def __mul__(self, other):
        other = _coerce_c(other)
        (ar, ai), (br, bi) = self.value._mpc_, other.value._mpc_
        ea, eb = self.err._mpf_, other.err._mpf_
        # |a| e_b + (|b| + e_b) e_a, exact from the moduli and then rounded up
        err = mpf_add(mpf_mul(_modulus_up(ar, ai), eb),
                      mpf_mul(mpf_add(_modulus_up(br, bi), eb), ea))
        return _complex(mpf_sub(mpf_mul(ar, br), mpf_mul(ai, bi)),
                        mpf_add(mpf_mul(ar, bi), mpf_mul(ai, br)),
                        mpf_pos(err, _BOUND_PREC, round_ceiling))

    __rmul__ = __mul__

    def __neg__(self):
        re, im = self.value._mpc_
        return _complex(mpf_neg(re), mpf_neg(im), self.err._mpf_)

    def conjugate(self) -> "BoundedComplex":
        re, im = self.value._mpc_
        return _complex(re, mpf_neg(im), self.err._mpf_)

    def agrees_with(self, other: "BoundedComplex") -> bool:
        other = _coerce_c(other)
        (ar, ai), (br, bi) = self.value._mpc_, other.value._mpc_
        dr, di = mpf_sub(ar, br), mpf_sub(ai, bi)
        e = mpf_add(self.err._mpf_, other.err._mpf_)
        return mpf_le(mpf_add(mpf_mul(dr, dr), mpf_mul(di, di)), mpf_mul(e, e))

    def __repr__(self):
        return f"BoundedComplex({mpmath.nstr(self.value, 20)}, err<={mpmath.nstr(self.err, 3)})"


def _modulus_up(re: tuple, im: tuple) -> tuple:
    # sqrt of the exact re^2 + im^2, correctly rounded up (mpf_hypot rounds the sum first)
    return mpf_sqrt(mpf_add(mpf_mul(re, re), mpf_mul(im, im)), _BOUND_PREC, round_ceiling)


def _complex(re: tuple, im: tuple, err: tuple) -> BoundedComplex:
    # from raw mpfs, kept exactly
    return BoundedComplex(mp.make_mpc((re, im)), mp.make_mpf(err))


def _coerce_c(x) -> BoundedComplex:
    if isinstance(x, BoundedComplex):
        return x
    if isinstance(x, (BoundedReal, int, Fraction)):
        r = _coerce(x)
        return _complex(r.value._mpf_, fzero, r.err._mpf_)
    return BoundedComplex(x, 0)


def _certified(value: int, err: int, prec: int, digits: int, what: str,
               relative: bool = True) -> BoundedReal:
    """value within err, both in ulps of 2^-prec, once the ``digits`` contract holds on
    the exact integers: err <= 10^-digits (1 + |value|), or 10^-digits when not
    ``relative``; PrecisionError otherwise.  The one exit; see the module docstring."""
    if err * 10 ** digits > (1 << prec) + (abs(value) if relative else 0):
        raise PrecisionError(f"{what} bound {mpmath.nstr(_fixed_mpf(err, prec), 3)} above "
                             f"10^-{digits}" + (" (1 + |value|)" if relative else ""))
    return BoundedReal(_fixed_mpf(value, prec), _fixed_mpf(err, prec))


def _round_product(factors: Sequence[BoundedReal], prec: int) -> BoundedReal:
    """The product of two or more bounded reals, formed exactly, its value
    rounded once, to nearest (ties up), at 2^-prec.

    The exact product carries the propagated bound prod (|x_i| + e_i) -
    prod |x_i|; the exact rounding residual joins it, and that sum is
    rounded up to prec significant bits, so no other rounding is charged.
    """
    p = math.prod(factors)
    r = from_man_exp(to_int(mpf_add(mpf_shift(p.value._mpf_, prec), fhalf), round_floor), -prec)
    err = mpf_add(p.err._mpf_, mpf_abs(mpf_sub(p.value._mpf_, r)))
    return _real(r, mpf_pos(err, prec, round_ceiling))


