"""Appell F3 at (1, 1), in closed form and as a truncated double series.

``appell_f3_unit`` sums F3 in closed form as a gamma quotient times one
unit-argument 3F2, through the package's certified ``_gamma_hyp``;
``appell_f3_partial_sum`` is the plain double sum it collapses, evaluated
in mpmath at the ambient precision.  The tests use the pair to cross-check
the series engine and the simplex quadrature oracle.
"""

from fractions import Fraction

from mpmath import mp

from fermatvol.specfun import BoundedReal, DivergenceError, DomainError, _gamma_hyp


def appell_f3_unit(alpha, alpha2, beta, beta2, gamma, digits=30) -> BoundedReal:
    """Appell F3(alpha, alpha', beta, beta', gamma; 1, 1).

    The inner single-variable series is a Gauss 2F1 at 1 and is summed
    in closed form, which collapses the double series to a single
    unit-argument 3F2 (the m-sum over (alpha, beta) is closed first):

        F3 = Gamma[gamma, gamma-a-b; gamma-a, gamma-b]
             * 3F2(a', b', gamma-a-b; gamma-a, gamma-b; 1).

    Direct summation of the double series cannot certify 10^-digits for
    sub-unit margins; the reduction is exact, so the reported bound is
    the series engine's bound times the gamma-quotient interval.
    """
    s1, s2 = gamma - alpha - beta, gamma - alpha2 - beta2
    if s1 <= 0 or s2 <= 0:
        raise DivergenceError(f"F3 at (1,1) requires positive margins, got {s1}, {s2}")
    for val in (gamma, gamma - alpha, gamma - beta):
        if val <= 0:
            raise DomainError(f"gamma-quotient argument {val} <= 0")
    return _gamma_hyp([gamma, s1], [gamma - alpha, gamma - beta],
                      [alpha2, beta2, s1], [gamma - alpha, gamma - beta], digits)


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
