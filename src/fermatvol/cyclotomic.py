"""Exact arithmetic in the N-th cyclotomic field Q(mu_N).

Elements are residues of rational polynomials in a fixed primitive root
xi modulo the N-th cyclotomic polynomial Phi_N, so equality is
canonical and the lattice identities downstream (pairings, the loop-sum
polynomials) can be tested for exact vanishing.  Coefficients are
``fractions.Fraction`` throughout; nothing in this module rounds.

Complex embeddings send xi to exp(2*pi*i*h/N) for h coprime to N and
are evaluated on demand at a caller-chosen precision with a propagated
bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

import mpmath
from mpmath import mp

from .specfun import BoundedComplex, _bits, _poly_mul, _poly_sub, _trim

Rational = Union[int, Fraction]


def euler_phi(n: int) -> int:
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def mobius(n: int) -> int:
    if n == 1:
        return 1
    out = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending, computed by exact division
    of x^n - 1 by the product of Phi_d over proper divisors d."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    den = [1]
    for d in _divisors(n):
        if d < n:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    quot, rem = _poly_divmod_q([Fraction(c) for c in num], den)
    if any(q.denominator != 1 for q in quot):
        raise AssertionError("non-exact integer polynomial division")
    if rem:
        raise AssertionError(f"Phi_{n}: nonzero remainder")
    # ints, not Fractions: _reduce_mod_phi multiplies by these on every construction
    return tuple(int(q) for q in quot)


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
    """An element of Q(mu_n), reduced modulo Phi_n."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Sequence[Rational]):
        if n < 1:
            raise ValueError("modulus must be positive")
        deg = euler_phi(n)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > deg:
            cs = _reduce_mod_phi(n, cs)
        cs += [Fraction(0)] * (deg - len(cs))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("CycloElem is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "CycloElem":
        return cls(n, [])

    @classmethod
    def one(cls, n: int) -> "CycloElem":
        return cls(n, [1])

    @classmethod
    def from_rational(cls, n: int, q: Rational) -> "CycloElem":
        return cls(n, [Fraction(q)])

    # -- ring structure ------------------------------------------------
    def _check(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElem.from_rational(self.n, other)
        if not isinstance(other, CycloElem):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"modulus mismatch: {self.n} vs {other.n}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloElem(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloElem(self.n, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return CycloElem(self.n, [-a for a in self.coeffs])

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloElem(self.n, _poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "CycloElem":
        """Field inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(mu_n)")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.n)]
        g, inv = _ext_gcd_mod(list(self.coeffs), phi)
        if g is None:
            raise AssertionError("gcd(a, Phi_n) != 1 for a nonzero field element")
        return CycloElem(self.n, inv)

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = CycloElem.one(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates and maps --------------------------------------------
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def galois(self, h: int) -> "CycloElem":
        """Apply sigma_h (xi -> xi^h); h must be a unit mod n."""
        if math.gcd(h, self.n) != 1:
            raise ValueError(f"h={h} not a unit mod {self.n}")
        out = CycloElem.zero(self.n)
        for j, c in enumerate(self.coeffs):
            if c:
                out = out + cyclo_from_power(self.n, h * j) * c
        return out

    def abs_coeff_sum(self) -> Fraction:
        return sum(abs(c) for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElem.from_rational(self.n, other)
        if not isinstance(other, CycloElem):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.coeffs))

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


def _reduce_mod_phi(n: int, coeffs: list[Fraction]) -> list[Fraction]:
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    cs = list(coeffs)
    for i in range(len(cs) - 1, deg - 1, -1):
        c = cs[i]
        if c:
            for j in range(deg + 1):
                cs[i - deg + j] -= c * phi[j]
    return cs[:deg]


def _ext_gcd_mod(a: list[Fraction], m: list[Fraction]):
    """Return (gcd_is_unit, a^{-1} mod m) over Q[x]; deg a < deg m."""
    r0, r1 = list(m), _trim(list(a))
    t0, t1 = [Fraction(0)], [Fraction(1)]
    while r1:
        q, r = _poly_divmod_q(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
    if len(r0) != 1:
        return None, None
    lead = r0[0]
    return True, [t / lead for t in t0]


def _poly_divmod_q(num, den):
    # num: Fraction coefficients; den: trimmed, Fraction or int coefficients
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


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def cyclo_from_power(n: int, j: int) -> CycloElem:
    """The class of xi^(j mod n)."""
    j %= n
    return CycloElem(n, [Fraction(0)] * j + [Fraction(1)])


def one_minus_power(n: int, j: int) -> CycloElem:
    """Convenience: 1 - xi^j, the ubiquitous period-lattice factor."""
    return CycloElem.one(n) - cyclo_from_power(n, j)


def embed(a: CycloElem, sigma: EmbeddingIndex, digits: int = 30) -> BoundedComplex:
    """Complex value sum_j c_j exp(2 pi i h j / n), |error| <= 10^-digits."""
    if sigma.n != a.n:
        raise ValueError(f"modulus mismatch: element {a.n}, embedding {sigma.n}")
    if digits < 10:
        raise ValueError("digits >= 10 required")
    size = float(a.abs_coeff_sum()) + 1
    wp = _bits(digits) + int(math.log2(size + 1)) + 24
    with mp.workprec(wp):
        total = mp.mpc(0)
        for j, c in enumerate(a.coeffs):
            if c:
                ang = 2 * mp.pi * ((sigma.h * j) % a.n) / a.n
                total += (mp.mpf(c.numerator) / c.denominator) * mp.mpc(mpmath.cos(ang), mpmath.sin(ang))
        err = (mp.mpf(size) + 1) * (len(a.coeffs) + 8) * mp.mpf(2) ** (4 - wp)
        return BoundedComplex(total, err)


def trace_to_rationals(a: CycloElem) -> Fraction:
    """Exact field trace to Q (sum of all Galois conjugates).

    Tr(xi^j) = mu(d) * phi(n)/phi(d) with d = n / gcd(n, j), so the
    trace is a coefficient-weighted sum of Mobius data, no numerics.
    """
    n = a.n
    phin = euler_phi(n)
    out = Fraction(0)
    for j, c in enumerate(a.coeffs):
        if c:
            d = n // math.gcd(n, j)
            out += c * mobius(d) * Fraction(phin, euler_phi(d))
    return out


def embedding_indices(n: int) -> list[EmbeddingIndex]:
    return [EmbeddingIndex(h, n) for h in range(1, n) if math.gcd(h, n) == 1]
