"""Exact arithmetic in the N-th cyclotomic field Q(mu_N).

Elements are residues of rational polynomials in a fixed primitive root
xi modulo the N-th cyclotomic polynomial Phi_N, so equality is
canonical and the lattice identities downstream (pairings, the loop-sum
polynomials) can be tested for exact vanishing.  An element is stored as
phi(N) integer numerators over one positive denominator, in lowest
terms.  Phi_N is monic with integer coefficients, so the ring
operations, the trace and the inverse all run on Python ints; nothing
in this module rounds except ``embed``.

Complex embeddings send xi to exp(2*pi*i*h/N) for h coprime to N and
are evaluated on demand at a caller-chosen precision with a propagated
bound.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from mpmath.libmp import (fone, from_float, from_int, fzero, mpf_add, mpf_cos_sin, mpf_div,
                          mpf_mul, mpf_mul_int, mpf_pi, mpf_shift, round_nearest)

from . import _memo
from .specfun import BoundedComplex, DomainError, _bits, _cball, _poly_mul, _poly_sub, _trim

Rational = Union[int, Fraction]


def _prime_factors(n: int) -> tuple[int, ...]:
    """The prime factors of n, ascending, with multiplicity, by trial division."""
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return tuple(out + [n] if n > 1 else out)


def euler_phi(n: int) -> int:
    primes = set(_prime_factors(n))
    return n * math.prod(p - 1 for p in primes) // math.prod(primes)


def mobius(n: int) -> int:
    factors = _prime_factors(n)
    return 0 if len(set(factors)) < len(factors) else (-1) ** len(factors)


@_memo(None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending: x^n - 1 divided exactly by
    Phi_d for each proper divisor d, all monic integer polynomials."""
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            _, num, rem = _pseudo_divmod(num, cyclotomic_polynomial(d))
            if rem:
                raise AssertionError(f"Phi_{n}: nonzero remainder")
    return tuple(num)


@dataclass(frozen=True)
class EmbeddingIndex:
    """sigma_h : xi -> exp(2 pi i h / n), for h in (Z/nZ)^*."""
    h: int
    n: int

    def __post_init__(self):
        if not (0 < self.h < self.n) or math.gcd(self.h, self.n) != 1:
            raise ValueError(f"h={self.h} is not a unit residue mod {self.n}")

    @property
    def conjugate(self) -> "EmbeddingIndex":
        return EmbeddingIndex(self.n - self.h, self.n)


class CycloElem:
    """An element of Q(mu_n), reduced modulo Phi_n.

    ``num`` holds the phi(n) integer numerators of the coefficients of
    1, xi, ..., xi^(phi(n)-1) and ``den`` their positive common
    denominator, with gcd(den, *num) = 1 (``den`` is 1 for zero).
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs: Sequence[Rational]):
        if n < 1:
            raise ValueError("modulus must be positive")
        fs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(f.denominator for f in fs))
        _set(self, n, *_normal(n, [f.numerator * (den // f.denominator) for f in fs], den))

    def __setattr__(self, *a):
        raise AttributeError("CycloElem is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of 1, xi, ..., xi^(phi(n)-1) as ``Fraction``s."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "CycloElem":
        return cls(n, [])

    @classmethod
    def one(cls, n: int) -> "CycloElem":
        return cls(n, [1])

    @classmethod
    def from_rational(cls, n: int, q: Rational) -> "CycloElem":
        return cls(n, [q])

    # -- ring structure ------------------------------------------------
    def _check(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElem.from_rational(self.n, other)
        if not isinstance(other, CycloElem):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"modulus mismatch: {self.n} vs {other.n}")
        return other

    def _plus(self, other, op):
        a, b = self.den, other.den
        g = math.gcd(a, b)
        fa, fb = b // g, a // g
        return _elem(self.n, [op(x * fa, y * fb) for x, y in zip(self.num, other.num)], a * fa)

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, operator.sub)

    def __neg__(self):
        return _elem(self.n, [-c for c in self.num], self.den)

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return _elem(self.n, _poly_mul(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloElem":
        """Field inverse by the extended Euclidean algorithm on integer polynomials."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(mu_n)")
        found = _ext_gcd_int(self.num, cyclotomic_polynomial(self.n))
        if found is None:
            raise AssertionError("gcd(a, Phi_n) != 1 for a nonzero field element")
        t, c = found
        # num t = c mod Phi_n, so (num / den)^-1 = den t / c
        return _elem(self.n, [x * self.den for x in t], c)

    # -- predicates and maps --------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElem.from_rational(self.n, other)
        if not isinstance(other, CycloElem):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.n, self.num, self.den))

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            elif j == 1:
                terms.append(f"{c}*xi" if c != 1 else "xi")
            else:
                terms.append(f"{c}*xi^{j}" if c != 1 else f"xi^{j}")
        body = " + ".join(terms) if terms else "0"
        return f"CycloElem({self.n}: {body})"


def _set(x: CycloElem, n: int, num: tuple, den: int) -> CycloElem:
    object.__setattr__(x, "n", n)
    object.__setattr__(x, "num", num)
    object.__setattr__(x, "den", den)
    return x


def _elem(n: int, num: list[int], den: int) -> CycloElem:
    return _set(object.__new__(CycloElem), n, *_normal(n, num, den))


def _normal(n: int, num: list[int], den: int) -> tuple[tuple, int]:
    """num / den (den nonzero) reduced mod Phi_n, padded to phi(n) entries, in lowest
    terms with a positive denominator."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    if len(num) > n:
        # xi^n = 1: fold onto n slots first, then Phi_n needs only n - phi(n) steps
        folded = num[:n]
        for i in range(n, len(num)):
            folded[i % n] += num[i]
        num = folded
    if len(num) > deg:
        num = _pseudo_divmod(num, phi)[2]  # Phi_n is monic: s = 1
    num = num + [0] * (deg - len(num))
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return tuple(num), den


def _pseudo_divmod(num: list[int], den: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """(s, q, r) with s num = q den + r, s > 0 and deg r < deg den, over Z.

    The step that cancels a leading coefficient c scales by |lc(den)| / gcd(c, lc(den))
    only, so s stays 1 while lc(den) divides each c (den monic, say)."""
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    s = 1
    quot = [0] * (len(num) - dn)
    for shift in range(len(num) - 1 - dn, -1, -1):
        c = num[shift + dn]
        if not c:
            continue
        if c % lead:
            f = abs(lead) // math.gcd(c, lead)
            s *= f
            num = [x * f for x in num[:shift + dn + 1]]
            quot = [x * f for x in quot]
            c *= f
        c = quot[shift] = c // lead
        for j in range(dn):
            num[shift + j] -= c * den[j]
    return s, quot, _trim(num[:dn])


def _ext_gcd_int(a: Sequence[int], m: Sequence[int]):
    """(t, c) with t a = c mod m, c a nonzero integer, for integer polynomials
    with deg a < deg m; None when a and m have a common factor over Q.

    Each step keeps t_i a = r_i mod m over Z and divides the pair by the
    content of both, so no entry outgrows the subresultant that it divides."""
    r0, r1 = list(m), _trim(list(a))
    t0, t1 = [0], [1]
    while len(r1) > 1:
        s, q, r = _pseudo_divmod(r0, r1)
        t = _poly_sub([s * x for x in t0], _poly_mul(q, t1))
        g = math.gcd(*r, *t)
        r0, r1 = r1, [x // g for x in r]
        t0, t1 = t1, [x // g for x in t]
    if not r1:
        return None
    return t1, r1[0]


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def cyclo_from_power(n: int, j: int) -> CycloElem:
    """The class of xi^(j mod n)."""
    j %= n
    return _elem(n, [0] * j + [1], 1)


def one_minus_power(n: int, j: int) -> CycloElem:
    """Convenience: 1 - xi^j, the ubiquitous period-lattice factor."""
    j %= n
    num = [1] + [0] * j
    num[j] -= 1
    return _elem(n, num, 1)


# one entry per (n, residue, working precision), about 0.7 kB at 140 bits.  The working
# precision grows with an element's coefficients, so the volume benchmark's 24-triple
# pool (N = 11, 13) meets 90 keys, 3-4 precisions per degree; this holds every residue
# of N = 97 at ten precisions
_ROOTS_MAX = 1024


@_memo(_ROOTS_MAX)
def _root(n: int, r: int, wp: int) -> tuple:
    """exp(2 pi i r / n) at wp bits as a raw (cos, sin) pair: mpmath's 2 * pi * r / n and
    its cos and sin under workprec(wp), each step rounded to nearest at wp, with one
    cos-sin evaluation for both parts."""
    ang = mpf_div(mpf_mul_int(mpf_shift(mpf_pi(wp, round_nearest), 1), r, wp, round_nearest),
                  from_int(n), wp, round_nearest)
    return mpf_cos_sin(ang, wp, round_nearest)


def _man_exp(x: tuple) -> tuple[int, int]:
    # a finite raw mpf as (signed mantissa, exponent)
    sign, man, exp, _ = x
    return (-man if sign else man), exp


def embed(a: CycloElem, sigma: EmbeddingIndex, digits: int = 30) -> BoundedComplex:
    """Complex value sum_j c_j exp(2 pi i h j / n), |error| <= 10^-digits."""
    if sigma.n != a.n:
        raise ValueError(f"modulus mismatch: element {a.n}, embedding {sigma.n}")
    if digits < 10:
        raise ValueError("digits >= 10 required")
    n, h, den = a.n, sigma.h, a.den
    # the float of the exact sum of |coefficients|, correctly rounded
    total = sum(map(abs, a.num))
    try:
        size = total / den + 1
    except OverflowError:
        raise DomainError(f"embed: coefficient sum near 2^{total.bit_length() - den.bit_length()} "
                          f"is beyond the float range (about {sys.float_info.max:.1e})") from None
    wp = _bits(digits) + int(math.log2(size + 1)) + 24
    # the raw form of summing mpf(p) / q * root into mpc(0) under workprec(wp): the same
    # roundings to nearest, so the same bits.  An integer coefficient c has |c| < size
    # < 2^(wp - 24), so from_int(c) is exact and mpf_mul_int rounds the product once, as
    # mpf_mul by from_int(c) would
    rnd = round_nearest
    re = im = fzero
    for j, c in enumerate(a.num):
        if c:
            cos, sin = _root(n, h * j % n, wp)
            g = math.gcd(c, den)
            if g == den:
                cx, sx = mpf_mul_int(cos, c // g, wp, rnd), mpf_mul_int(sin, c // g, wp, rnd)
            else:
                x = mpf_div(from_int(c // g, wp, rnd), from_int(den // g), wp, rnd)
                cx, sx = mpf_mul(cos, x, wp, rnd), mpf_mul(sin, x, wp, rnd)
            re, im = mpf_add(re, cx, wp, rnd), mpf_add(im, sx, wp, rnd)
    # (size + 1) (phi(n) + 8) 2^(4 - wp)
    err = mpf_mul_int(mpf_add(from_float(size), fone, wp, rnd), len(a.num) + 8, wp, rnd)
    (x, e), (y, f), (r, g) = _man_exp(re), _man_exp(im), _man_exp(mpf_shift(err, 4 - wp))
    exp = min(e, f, g, 0)
    return _cball(x << (e - exp), y << (f - exp), r << (g - exp), exp)


def trace_to_rationals(a: CycloElem) -> Fraction:
    """Exact field trace to Q (sum of all Galois conjugates).

    Tr(xi^j) = mu(d) * phi(n)/phi(d) with d = n / gcd(n, j), so the
    trace is a coefficient-weighted sum of Mobius data, no numerics.
    """
    n = a.n
    phin = euler_phi(n)
    out = 0
    for j, c in enumerate(a.num):
        if c:
            d = n // math.gcd(n, j)
            out += c * mobius(d) * (phin // euler_phi(d))
    return Fraction(out, a.den)


def embedding_indices(n: int) -> list[EmbeddingIndex]:
    return [EmbeddingIndex(h, n) for h in range(1, n) if math.gcd(h, n) == 1]
