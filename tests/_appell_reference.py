"""Truncated Appell F3 double series at (1, 1), for cross-checks.

``specfun.appell_f3_unit`` sums F3 in closed form as a gamma quotient times
one unit-argument 3F2; this is the plain double sum it collapses, evaluated
in mpmath at the ambient precision.
"""

from fractions import Fraction

from mpmath import mp


def _to_mpf(q):
    if isinstance(q, Fraction):
        return mp.mpf(q.numerator) / q.denominator
    return mp.mpf(q)


def appell_f3_partial_sum(alpha, alpha2, beta, beta2, gamma, mmax, nmax):
    """Truncated double series over [0,mmax) x [0,nmax)."""
    al, al2, be, be2, ga = (_to_mpf(x) for x in (alpha, alpha2, beta, beta2, gamma))
    total = mp.mpf(0)
    um = mp.mpf(1)          # (alpha,m)(beta,m)/m!
    gam_m = mp.mpf(1)       # (gamma, m)
    for m in range(mmax):
        un = mp.mpf(1)      # (alpha',n)(beta',n)/n!
        gam_mn = gam_m      # (gamma, m+n)
        for n in range(nmax):
            total += um * un / gam_mn
            gam_mn *= ga + m + n
            un = un * (al2 + n) * (be2 + n) / (n + 1)
        gam_m *= ga + m
        um = um * (al + m) * (be + m) / (m + 1)
    return total
