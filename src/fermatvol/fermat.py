r"""Fermat-curve periods, iterated integrals and harmonic volume.

The degree-N Fermat curve carries an action of two commuting order-N
rotations; homology is cyclic over the group ring on an explicit loop
built from the real arc delta between the two affine branch points, and
the second-kind forms are indexed by pairs (a,b) with a, b, a+b nonzero
mod N.  With forms normalized so that rotated copies of delta have unit
periods up to root-of-unity factors, every iterated integral of length
two over the loop orbit decomposes into an exact cyclotomic part plus a
single transcendental, the ordered integral over delta itself.  This
module keeps the two strictly separate: cyclotomic parts live in
``CycloElem`` (exact), delta-integrals are ``DeltaLinear`` placeholders
until the final embedding step evaluates them as closed-form values
(gamma quotient times a unit-argument 3F2).

The loop integrals enter as closed displays (``kappa_exact`` and its
rotations).  They follow from the composition rules of iterated
integrals under path concatenation, inversion and conjugation; the
tests recompose each loop from arc segments by those rules and compare.

Only configurations where the two leading forms are simultaneously
holomorphic at the chosen embedding are evaluated; there the harmonic
correction form vanishes and the volume is the bare iterated integral.
Mixed configurations are rejected rather than approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _memo
from .cyclotomic import (CycloElem, EmbeddingIndex, cyclo_from_power, embed,
                         one_minus_power)
from .specfun import BoundedComplex, BoundedReal, DomainError, _gamma_hyp


class EtaNotZeroError(ValueError):
    """Configuration requires the harmonic correction form, unsupported here."""


@dataclass(frozen=True)
class FermatCurve:
    n: int

    def __post_init__(self):
        if self.n < 4:
            raise DomainError("degree must be at least 4")

    @property
    def genus(self) -> int:
        return (self.n - 1) * (self.n - 2) // 2


@dataclass(frozen=True)
class FermatIndex:
    """A pair (a,b) with a, b, a+b nonzero mod n, labeling a form class; a and b
    are kept reduced into 1..n-1."""
    n: int
    a: int
    b: int

    def __post_init__(self):
        object.__setattr__(self, "a", self.a % self.n)
        object.__setattr__(self, "b", self.b % self.n)
        if self.a == 0 or self.b == 0 or (self.a + self.b) % self.n == 0:
            raise ValueError(f"({self.a},{self.b}) not in the index set mod {self.n}")

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.a, self.n)

    @property
    def beta(self) -> Fraction:
        return Fraction(self.b, self.n)

    def is_holomorphic(self) -> bool:
        return self.a + self.b < self.n

    def __neg__(self) -> "FermatIndex":
        return FermatIndex(self.n, -self.a, -self.b)

    def scaled(self, h: int) -> "FermatIndex":
        n = self.n
        if math.gcd(h, n) != 1:
            raise ValueError(f"scaling by non-unit {h} mod {n}")
        # a unit keeps a, b and a + b nonzero mod n, so the twist needs no other check
        x = object.__new__(FermatIndex)
        vars(x).update(n=n, a=h * self.a % n, b=h * self.b % n)
        return x


def _twisted_holomorphic(idx: FermatIndex, h: int) -> bool:
    # idx.scaled(h).is_holomorphic() for a unit h, from the ints
    n = idx.n
    return h * idx.a % n + h * idx.b % n < n


def index_set(n: int) -> list[FermatIndex]:
    out = []
    for a in range(1, n):
        for b in range(1, n):
            if (a + b) % n:
                out.append(FermatIndex(n, a, b))
    return out


def _check_degree(curve: FermatCurve, *indices) -> None:
    """Form and embedding indices must have the curve's degree."""
    for idx in indices:
        if idx.n != curve.n:
            raise ValueError(f"{idx} is not an index of degree {curve.n}")


# ---------------------------------------------------------------------------
# exact carriers: c0 + c1 * (integral over delta)
# ---------------------------------------------------------------------------

class DeltaLinear:
    """c0 + c1 * I, I the (formal) ordered double integral over the arc."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0: CycloElem, c1: CycloElem):
        if c0.n != c1.n:
            raise ValueError("modulus mismatch")
        self.c0 = c0
        self.c1 = c1

    @classmethod
    def constant(cls, c: CycloElem) -> "DeltaLinear":
        return cls(c, CycloElem.zero(c.n))

    def __add__(self, other):
        if isinstance(other, CycloElem):
            other = DeltaLinear.constant(other)
        return DeltaLinear(self.c0 + other.c0, self.c1 + other.c1)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, CycloElem):
            other = DeltaLinear.constant(other)
        return DeltaLinear(self.c0 - other.c0, self.c1 - other.c1)

    def __neg__(self):
        return DeltaLinear(-self.c0, -self.c1)

    def __mul__(self, scalar):
        # scalar: CycloElem, int, or Fraction; products of two nonconstant
        # DeltaLinear values would leave the linear model and are a bug.
        if isinstance(scalar, DeltaLinear):
            if not scalar.c1.is_zero():
                raise TypeError("product of two delta-linear values")
            scalar = scalar.c0
        return DeltaLinear(self.c0 * scalar, self.c1 * scalar)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, DeltaLinear) and self.c0 == other.c0 and self.c1 == other.c1

    def __repr__(self):
        return f"DeltaLinear(const={self.c0!r}, delta_coeff={self.c1!r})"


# ---------------------------------------------------------------------------
# closed-form displays
# ---------------------------------------------------------------------------

def kappa_exact(curve: FermatCurve, idx1: FermatIndex, idx2: FermatIndex) -> DeltaLinear:
    """(1-xi^{a+c})(1-xi^{b+d}) * I_delta + (1-xi^b)(xi^{a+c}+xi^{c+d}-xi^c-xi^d)."""
    _check_degree(curve, idx1, idx2)
    n = curve.n
    a, b = idx1.a, idx1.b
    c, d = idx2.a, idx2.b
    c1 = one_minus_power(n, a + c) * one_minus_power(n, b + d)
    c0 = one_minus_power(n, b) * (cyclo_from_power(n, a + c) + cyclo_from_power(n, c + d)
                                  - cyclo_from_power(n, c) - cyclo_from_power(n, d))
    return DeltaLinear(c0, c1)


def _kappa_rs_terms(curve: FermatCurve, idx1: FermatIndex, idx2: FermatIndex) -> tuple:
    """(coefficient, u, v) terms, each coefficient * xi^{ur+vs}, of the kappa^{r,s} display
    xi^{(a+c)r+(b+d)s} kappa - xi^{ar+bs} p1 (1-xi^{ds}) + xi^{cr+ds} p2 (1-xi^{bs}).
    Each coefficient is a function of no arguments, so a caller builds only the terms
    it keeps."""
    n = curve.n
    a, b = idx1.a, idx1.b
    c, d = idx2.a, idx2.b

    def p(x, y, sign):
        # sign (1-xi^x)(1-xi^y), a constant of the display
        return lambda: DeltaLinear.constant(one_minus_power(n, x) * one_minus_power(n, y) * sign)
    return ((lambda: kappa_exact(curve, idx1, idx2), a + c, b + d),
            (p(a, b, -1), a, b), (p(a, b, 1), a, b + d), (p(c, d, 1), c, d),
            (p(c, d, -1), c, b + d))


# one entry per distinct closed form and digits, a 0.5-0.6 kB key of ints and a 0.2 kB ball:
# oracle-test --n 15, the largest the CLI admits, asks for 10,647 distinct forms in its
# 33,124 pairs
_CLOSED_FORMS_MAX = 16_384


@_memo(_CLOSED_FORMS_MAX)
def _closed_form_cached(n: int, gnum: tuple, gden: tuple, uppers: tuple, lowers: tuple,
                        digits: int) -> BoundedReal:
    # _gamma_hyp on the parameter tuples x / n, whose Fractions are built only on a miss
    return _gamma_hyp(*(tuple(Fraction(x, n) for x in xs) for xs in (gnum, gden, uppers, lowers)),
                      digits)


def delta_iterated_integral(curve: FermatCurve, idx1: FermatIndex, idx2: FermatIndex,
                            digits: int = 30) -> BoundedReal:
    """The ordered double integral of the normalized form pair over the arc,
    as gamma quotient times unit-argument 3F2 (the symmetric closed form).

    The closed form is an exact function of its four parameter multisets
    (the gamma quotient and the series multiply exact integers), so it is
    memoised on N, their numerators over N, sorted, and ``digits``.  The
    change of variables (u, v) -> (1-v, 1-u) maps (a1, b1, a2, b2) to
    (b2, a2, b1, a1) with the same multisets, so ``oracle-test`` evaluates
    72 distinct forms for its 144 pairs at N = 5.
    """
    _check_degree(curve, idx1, idx2)
    n = curve.n
    a1, b1, a2, b2 = idx1.a, idx1.b, idx2.a, idx2.b
    return _closed_form_cached(n, tuple(sorted((a1 + a2, b1 + b2, a1 + b1, a2 + b2))),
                               tuple(sorted((a2, b1, a1 + a2 + b2, a1 + b1 + b2))),
                               tuple(sorted((a1, b2, a1 + a2 + b1 + b2 - n))),
                               tuple(sorted((a1 + a2 + b2, a1 + b1 + b2))), digits)


def _evaluate_delta_linear(curve, ex: DeltaLinear, idx1, idx2,
                           sigma: EmbeddingIndex, digits: int) -> BoundedComplex:
    h = sigma.h
    i_delta = delta_iterated_integral(curve, idx1.scaled(h), idx2.scaled(h), digits + 4)
    return embed(ex.c1, sigma, digits + 4) * i_delta + embed(ex.c0, sigma, digits + 4)


# ---------------------------------------------------------------------------
# triple configurations and the volume
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TripleConfig:
    """Three form indices plus the flags controlling which identities apply."""
    indices: tuple[FermatIndex, FermatIndex, FermatIndex]
    sums_to_zero: bool
    pairwise_parallel_holo: bool
    strong_holo: bool
    holo_twists: tuple[int, ...]   # units h with the first two twists holomorphic

    @property
    def n(self) -> int:
        return self.indices[0].n


def assumption_check(curve: FermatCurve,
                     idx1: FermatIndex, idx2: FermatIndex, idx3: FermatIndex) -> TripleConfig:
    """Compute the configuration flags for a form triple.

    * sums_to_zero: the three index pairs sum to (0,0) mod N.
    * pairwise_parallel_holo: for every unit h the first two twisted
      indices are holomorphic together or not at all.
    * strong_holo: the same statement over all three indices.
    """
    _check_degree(curve, idx1, idx2, idx3)
    n = curve.n
    sums = ((idx1.a + idx2.a + idx3.a) % n == 0) and ((idx1.b + idx2.b + idx3.b) % n == 0)
    pairwise = True
    strong = True
    twists = []
    for h in range(1, n):
        if math.gcd(h, n) != 1:
            continue
        flags = [_twisted_holomorphic(idx, h) for idx in (idx1, idx2, idx3)]
        if flags[0] != flags[1]:
            pairwise = False
        if len(set(flags)) != 1:
            strong = False
        if flags[0] and flags[1]:
            twists.append(h)
    return TripleConfig((idx1, idx2, idx3), sums, pairwise, strong, tuple(twists))


def _require_supported(curve: FermatCurve, t: TripleConfig) -> None:
    _check_degree(curve, *t.indices)
    if not (t.sums_to_zero and t.pairwise_parallel_holo):
        raise EtaNotZeroError("triple must sum to zero with parallel holomorphy")


@_memo(512)
def _sigma_exact_parts_cached(n: int, a1: int, b1: int, a2: int, b2: int,
                              a3: int, b3: int) -> DeltaLinear:
    terms = _kappa_rs_terms(FermatCurve(n), FermatIndex(n, a1, b1), FermatIndex(n, a2, b2))
    total = sum((build() for build, u, v in terms if (u + a3) % n == 0 and (v + b3) % n == 0),
                DeltaLinear.constant(CycloElem.zero(n)))
    return total * (n * n) * one_minus_power(n, -(a3 + b3)).inverse()


def harmonic_volume_exact_parts(curve: FermatCurve, t: TripleConfig) -> DeltaLinear:
    """The weighted loop sum divided by (1 - xi^{-(a3+b3)}), kept exact.

    Over the N^2 loops (r,s), xi^{(u+a3)r+(v+b3)s} sums to N^2 if u + a3 = v + b3
    = 0 mod N and to 0 otherwise, so only those ``_kappa_rs_terms`` survive, and only
    they are built.  For a zero-sum triple that is the kappa term alone (u + a3 is -c or
    -a for the others, nonzero mod N), and the delta coefficient is
    N^2 (1-xi^{-a3})(1-xi^{-b3})/(1-xi^{-(a3+b3)}); the tests check the result against
    the literal loop.
    """
    _check_degree(curve, *t.indices)
    i1, i2, i3 = t.indices
    return _sigma_exact_parts_cached(curve.n, i1.a, i1.b, i2.a, i2.b, i3.a, i3.b)


# one entry per (triple, embedding, digits), about 2.6 kB with a 0.34 kB ball.  A loop
# over the embeddings of one triple meets each conjugate pair within phi(N) calls, and this
# holds the 264 components of the volume benchmark's 24-triple pool three times over
_SIGMA_MAX = 1024


@_memo(_SIGMA_MAX)
def harmonic_volume_sigma(curve: FermatCurve, t: TripleConfig,
                          sigma: EmbeddingIndex, digits: int = 30) -> BoundedComplex:
    """The sigma-component of the volume at the form triple.

    Requires the zero-sum and parallel-holomorphy assumptions; at
    embeddings whose twist makes the first two forms antiholomorphic the
    value is the conjugate of the conjugate-embedding value.  Mixed
    configurations would need the nonzero correction form and raise.
    """
    _require_supported(curve, t)
    _check_degree(curve, sigma)
    i1, i2, _ = t.indices
    h = sigma.h
    holo1 = _twisted_holomorphic(i1, h)
    holo2 = _twisted_holomorphic(i2, h)
    if holo1 != holo2:
        raise EtaNotZeroError(f"twist h={h} mixes holomorphy types")
    if not holo1:
        return harmonic_volume_sigma(curve, t, sigma.conjugate, digits).conjugate()
    ex = harmonic_volume_exact_parts(curve, t)
    return _evaluate_delta_linear(curve, ex, i1, i2, sigma, digits)


def harmonic_volume_trace(curve: FermatCurve, t: TripleConfig,
                          digits: int = 30) -> BoundedReal:
    """N^2 times the sum of arc integrals over holomorphic twists.

    This is the real representative of the traced volume at the
    denominator-cleared tensor; the embedded exact parts contribute an
    integer in total (a tested identity), so modulo 1 this is the whole
    invariant.
    """
    _require_supported(curve, t)
    n = curve.n
    i1, i2, _ = t.indices
    return sum(delta_iterated_integral(curve, i1.scaled(h), i2.scaled(h), digits + 4)
               for h in t.holo_twists) * (n * n)


def harmonic_volume_trace_exact_defect(curve: FermatCurve, t: TripleConfig) -> Fraction:
    """Exact rational: trace of the cleared exact parts over all embeddings.

    The traced volume equals the trace display plus this number; the
    underlying identity forces it to be a rational integer.  Supported
    triples only, as for ``harmonic_volume_sigma``.
    """
    from .cyclotomic import trace_to_rationals
    _require_supported(curve, t)
    i1, i2, i3 = t.indices
    n = curve.n
    ex = harmonic_volume_exact_parts(curve, t)
    clear = (one_minus_power(n, -i3.a) * one_minus_power(n, -i3.b)).inverse()
    # delta-linear part: the delta coefficient pairs off over conjugate
    # embeddings into the trace display; only the constant survives here.
    return trace_to_rationals(ex.c0 * clear)
