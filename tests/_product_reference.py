"""Integer version of ``specfun._round_product``.

``specfun`` multiplies the factors with ``BoundedReal`` ``*``, which is
exact, and rounds the product once; this is the loop over integers over one
power of two that it replaced, kept as a reference that must return the same
value and bound, bit for bit.
"""

from mpmath import mp
from mpmath.libmp import from_man_exp, round_ceiling

from fermatvol.specfun import BoundedReal, _fixed_mpf

from _ball_reference import _exact_fixed


def round_product(factors, prec):
    ns, p = _exact_fixed(*[y for f in factors for y in (f.value, f.err)], prec=prec)
    v = lo = hi = 1
    for x, e in zip(ns[0::2], ns[1::2]):
        v *= x
        lo *= abs(x)
        hi *= abs(x) + e
    s = len(factors) * p - prec
    r = (v + (1 << (s - 1))) >> s
    err = hi - lo + abs(v - (r << s))
    return BoundedReal(_fixed_mpf(r, prec),
                       mp.make_mpf(from_man_exp(err, -len(factors) * p, prec, round_ceiling)))
