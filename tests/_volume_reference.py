"""The harmonic-volume path's embedding and arc-integral set-up as it was on mpmath
objects and ``Fraction`` keys.

``cyclotomic._root`` now forms its angle from raw ``mpf_pi``, ``mpf_mul_int`` and
``mpf_div`` and makes one ``mpf_cos_sin`` call; ``cyclotomic.embed`` multiplies an
integer coefficient by ``mpf_mul_int`` and builds its ball from the raw parts; and
``fermat.delta_iterated_integral`` keys its memo on the integer numerators over N.
``root``, ``embed`` and ``delta_iterated_integral`` are the code they replaced: the
angle under ``mp.workprec`` with separate ``mpmath.cos`` and ``mpmath.sin``, every
coefficient through ``mpf_div`` and ``mpc_mul_mpf`` into an mpc sum, and the closed
form's parameter lists summed and sorted as ``Fraction``s.  They must give the same
raw tuples and the same balls.
"""

import math

import mpmath
from mpmath import mp
from mpmath.libmp import (fone, from_float, from_int, fzero, mpc_add, mpc_mul_mpf, mpf_add,
                          mpf_div, mpf_mul_int, mpf_shift, round_nearest)

from fermatvol.specfun import BoundedComplex, _bits, _gamma_hyp


def root(n, r, wp):
    """exp(2 pi i r / n) at wp bits, as a raw mpc."""
    with mp.workprec(wp):
        ang = 2 * mp.pi * r / n
        return mp.mpc(mpmath.cos(ang), mpmath.sin(ang))._mpc_


def embed(a, sigma, digits=30):
    """sum_j c_j exp(2 pi i h j / n) with the bound (size + 1) (phi(n) + 8) 2^(4 - wp)."""
    if sigma.n != a.n:
        raise ValueError(f"modulus mismatch: element {a.n}, embedding {sigma.n}")
    if digits < 10:
        raise ValueError("digits >= 10 required")
    n, h, den = a.n, sigma.h, a.den
    size = sum(map(abs, a.num)) / den + 1
    wp = _bits(digits) + int(math.log2(size + 1)) + 24
    total = (fzero, fzero)
    for j, c in enumerate(a.num):
        if c:
            g = math.gcd(c, den)
            x = mpf_div(from_int(c // g, wp, round_nearest), from_int(den // g), wp, round_nearest)
            total = mpc_add(total, mpc_mul_mpf(root(n, h * j % n, wp), x, wp, round_nearest),
                            wp, round_nearest)
    err = mpf_mul_int(mpf_add(from_float(size), fone, wp, round_nearest), len(a.num) + 8,
                      wp, round_nearest)
    return BoundedComplex(mp.make_mpc(total), mp.make_mpf(mpf_shift(err, 4 - wp)))


def closed_form_lists(idx1, idx2):
    """The four sorted ``Fraction`` parameter tuples of the arc integral's closed form."""
    a1, b1 = idx1.alpha, idx1.beta
    a2, b2 = idx2.alpha, idx2.beta
    return (tuple(sorted([a1 + a2, b1 + b2, a1 + b1, a2 + b2])),
            tuple(sorted([a2, b1, a1 + a2 + b2, a1 + b1 + b2])),
            tuple(sorted([a1, b2, a1 + a2 + b1 + b2 - 1])),
            tuple(sorted([a1 + a2 + b2, a1 + b1 + b2])))


def delta_iterated_integral(curve, idx1, idx2, digits=30):
    """The arc integral's closed form on its ``Fraction`` lists, uncached."""
    return _gamma_hyp(*closed_form_lists(idx1, idx2), digits)
