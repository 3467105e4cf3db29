"""``Fraction`` version of ``fermatvol.cyclotomic``, and the maps only tests use.

``cyclotomic`` stores an element as integer numerators over one common
denominator and runs the ring operations, the trace and the inverse on
Python ints; ``RefCyclo`` and the functions beside it are the ``Fraction``
loops it replaced, kept as references that must give equal elements and
bit-identical embeddings.  ``galois``, ``is_rational`` and ``rational_value``
act on a ``CycloElem``'s integers; no certified value needs them.
"""

import math
from fractions import Fraction

import mpmath
from mpmath import mp

from fermatvol.cyclotomic import CycloElem, _elem, euler_phi, mobius
from fermatvol.specfun import BoundedComplex, _bits, _poly_mul, _poly_sub, _trim


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def cyclotomic_polynomial(n):
    """Phi_n by one exact division of x^n - 1 over Q."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    den = [1]
    for d in _divisors(n):
        if d < n:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    quot, rem = poly_divmod_q([Fraction(c) for c in num], den)
    assert not rem and all(q.denominator == 1 for q in quot)
    return tuple(int(q) for q in quot)


def reduce_mod_phi(n, coeffs):
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    cs = list(coeffs)
    for i in range(len(cs) - 1, deg - 1, -1):
        c = cs[i]
        if c:
            for j in range(deg + 1):
                cs[i - deg + j] -= c * phi[j]
    return cs[:deg]


def ext_gcd_mod(a, m):
    """(gcd_is_unit, a^{-1} mod m) over Q[x]; deg a < deg m."""
    r0, r1 = list(m), _trim(list(a))
    t0, t1 = [Fraction(0)], [Fraction(1)]
    while r1:
        q, r = poly_divmod_q(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
    if len(r0) != 1:
        return None, None
    lead = r0[0]
    return True, [t / lead for t in t0]


def poly_divmod_q(num, den):
    num = _trim(list(num))
    dn = len(den) - 1
    quot = [Fraction(0)] * max(1, len(num) - dn)
    while len(num) > dn:
        shift = len(num) - 1 - dn
        c = num[-1] / den[-1]
        quot[shift] = c
        for j in range(dn + 1):
            num[shift + j] -= c * den[j]
        _trim(num)
    return quot, num


class RefCyclo:
    """An element of Q(mu_n) as a tuple of phi(n) ``Fraction`` coefficients."""

    def __init__(self, n, coeffs):
        deg = euler_phi(n)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > deg:
            cs = reduce_mod_phi(n, cs)
        cs += [Fraction(0)] * (deg - len(cs))
        self.n = n
        self.coeffs = tuple(cs)

    def __add__(self, other):
        return RefCyclo(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return RefCyclo(self.n, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return RefCyclo(self.n, [-a for a in self.coeffs])

    def __mul__(self, other):
        return RefCyclo(self.n, _poly_mul(self.coeffs, other.coeffs))

    def inverse(self):
        if all(c == 0 for c in self.coeffs):
            raise ZeroDivisionError("inverse of zero in Q(mu_n)")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.n)]
        g, inv = ext_gcd_mod(list(self.coeffs), phi)
        assert g is not None
        return RefCyclo(self.n, inv)

    def galois(self, h):
        out = RefCyclo(self.n, [])
        for j, c in enumerate(self.coeffs):
            if c:
                k = h * j % self.n
                out = out + RefCyclo(self.n, [Fraction(0)] * k + [c])
        return out

    def abs_coeff_sum(self):
        return sum(abs(c) for c in self.coeffs)


def trace_to_rationals(a):
    n = a.n
    phin = euler_phi(n)
    out = Fraction(0)
    for j, c in enumerate(a.coeffs):
        if c:
            d = n // math.gcd(n, j)
            out += c * mobius(d) * Fraction(phin, euler_phi(d))
    return out


def embed(a, h, digits):
    size = float(a.abs_coeff_sum()) + 1
    wp = _bits(digits) + int(math.log2(size + 1)) + 24
    with mp.workprec(wp):
        total = mp.mpc(0)
        for j, c in enumerate(a.coeffs):
            if c:
                ang = 2 * mp.pi * ((h * j) % a.n) / a.n
                total += (mp.mpf(c.numerator) / c.denominator) * mp.mpc(mpmath.cos(ang), mpmath.sin(ang))
        err = (mp.mpf(size) + 1) * (len(a.coeffs) + 8) * mp.mpf(2) ** (4 - wp)
        return BoundedComplex(total, err)


def galois(a: CycloElem, h: int) -> CycloElem:
    """Apply sigma_h (xi -> xi^h) to a; h must be a unit mod n."""
    if math.gcd(h, a.n) != 1:
        raise ValueError(f"h={h} not a unit mod {a.n}")
    out = [0] * a.n
    for j, c in enumerate(a.num):
        out[h * j % a.n] += c
    return _elem(a.n, out, a.den)


def is_rational(a: CycloElem) -> bool:
    return not any(a.num[1:])


def rational_value(a: CycloElem) -> Fraction:
    if not is_rational(a):
        raise ValueError(f"{a!r} is not rational")
    return Fraction(a.num[0], a.den)
