r"""Loop periods, path records and named triples that check ``fermatvol.fermat``.

``fermat`` evaluates the harmonic volume from closed displays: ``kappa_exact``
for the generating loop and ``_kappa_rs_terms`` for its (r,s)-rotations.  This
module rebuilds those displays from the arc data instead.  Length-two iterated
integrals compose under path concatenation, inversion and conjugation, and
``PathData`` implements those rules abstractly, so each loop is recomposed from
rotated copies of the arc delta and compared with the display.  The exact
intersection pairing, the example and Klein triples and the traced Klein value
serve the cross-module tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from fermatvol.ceresa import _certify
from fermatvol.cyclotomic import (CycloElem, EmbeddingIndex, cyclo_from_power,
                                  one_minus_power)
from fermatvol.fermat import (DeltaLinear, FermatCurve, FermatIndex, TripleConfig,
                              _evaluate_delta_linear, _kappa_rs_terms,
                              assumption_check, harmonic_volume_trace, kappa_exact)
from fermatvol.specfun import BoundedComplex, BoundedReal


@dataclass(frozen=True)
class LoopIndex:
    r: int
    s: int


def period_integral(curve: FermatCurve, idx: FermatIndex, loop: LoopIndex) -> CycloElem:
    """Exact period of the normalized form over the (r,s)-rotated loop:
    xi^{ar+bs} (1 - xi^a)(1 - xi^b)."""
    n = curve.n
    return (cyclo_from_power(n, idx.a * loop.r + idx.b * loop.s)
            * one_minus_power(n, idx.a) * one_minus_power(n, idx.b))


@dataclass
class PathData:
    """Single and double integrals of an ordered form pair along a path.

    ``s1``, ``s2`` are the single integrals of the first and second form
    (exact cyclotomic values); ``dbl`` is the length-two integral of the
    ordered pair, linear in the formal delta-integral.
    """
    s1: CycloElem
    s2: CycloElem
    dbl: DeltaLinear

    def concat(self, other: "PathData") -> "PathData":
        # composition rule for gamma . gamma'
        return PathData(self.s1 + other.s1, self.s2 + other.s2,
                        self.dbl + DeltaLinear.constant(self.s1 * other.s2) + other.dbl)

    def inverse(self) -> "PathData":
        # inversion rule: the two contributions sum to the single-product
        return PathData(-self.s1, -self.s2,
                        DeltaLinear.constant(self.s1 * self.s2) - self.dbl)

    def conjugated_by(self, arc: "PathData") -> "PathData":
        # conjugation of a loop by a path from the base point
        corr = arc.s2 * self.s1 - arc.s1 * self.s2
        return PathData(self.s1, self.s2, self.dbl + DeltaLinear.constant(corr))

    def pushforward(self, f1: CycloElem, f2: CycloElem) -> "PathData":
        # rotating a path multiplies each form's integrals by its eigenvalue
        return PathData(self.s1 * f1, self.s2 * f2, self.dbl * (f1 * f2))


def delta_path_data(curve: FermatCurve, idx1: FermatIndex, idx2: FermatIndex,
                    r: int = 0, s: int = 0) -> PathData:
    """Path record of the (r,s)-rotated arc; singles are unit periods times
    eigenvalues, the double is the formal delta-integral times its eigenvalue."""
    n = curve.n
    base = PathData(CycloElem.one(n), CycloElem.one(n),
                    DeltaLinear(CycloElem.zero(n), CycloElem.one(n)))
    return base.pushforward(cyclo_from_power(n, idx1.a * r + idx1.b * s),
                            cyclo_from_power(n, idx2.a * r + idx2.b * s))


def kappa_path_data(curve: FermatCurve, idx1: FermatIndex, idx2: FermatIndex) -> PathData:
    """The generating loop recomposed from four arc segments."""
    d00 = delta_path_data(curve, idx1, idx2, 0, 0)
    d01 = delta_path_data(curve, idx1, idx2, 0, 1)
    d11 = delta_path_data(curve, idx1, idx2, 1, 1)
    d10 = delta_path_data(curve, idx1, idx2, 1, 0)
    return d00.concat(d01.inverse()).concat(d11).concat(d10.inverse())


def kappa_rs_path_data(curve: FermatCurve, loop: LoopIndex,
                       idx1: FermatIndex, idx2: FermatIndex) -> PathData:
    """Based representative of the rotated loop class, recomposed."""
    n = curve.n
    r, s = loop.r % n, loop.s % n
    d00 = delta_path_data(curve, idx1, idx2, 0, 0)
    d0s = delta_path_data(curve, idx1, idx2, 0, s)
    kap = kappa_path_data(curve, idx1, idx2).pushforward(
        cyclo_from_power(n, idx1.a * r + idx1.b * s),
        cyclo_from_power(n, idx2.a * r + idx2.b * s))
    return d00.concat(d0s.inverse()).concat(kap).concat(d0s).concat(d00.inverse())


def kappa_rs_exact(curve: FermatCurve, loop: LoopIndex,
                   idx1: FermatIndex, idx2: FermatIndex) -> DeltaLinear:
    """The (r,s)-rotated loop integral: the ``_kappa_rs_terms`` display at (r, s)."""
    n = curve.n
    return sum((build() * cyclo_from_power(n, u * loop.r + v * loop.s)
                for build, u, v in _kappa_rs_terms(curve, idx1, idx2)),
               DeltaLinear.constant(CycloElem.zero(n)))


def kappa_iterated_integral(curve: FermatCurve, idx1: FermatIndex, idx2: FermatIndex,
                            sigma: EmbeddingIndex, digits: int = 30) -> BoundedComplex:
    """Loop integral at the embedding sigma: exact part embedded, delta part
    evaluated at the twisted indices."""
    ex = kappa_exact(curve, idx1, idx2)
    return _evaluate_delta_linear(curve, ex, idx1, idx2, sigma, digits)


def kappa_rs_iterated_integral(curve: FermatCurve, loop: LoopIndex,
                               idx1: FermatIndex, idx2: FermatIndex,
                               sigma: EmbeddingIndex, digits: int = 30) -> BoundedComplex:
    ex = kappa_rs_exact(curve, loop, idx1, idx2)
    return _evaluate_delta_linear(curve, ex, idx1, idx2, sigma, digits)


def example_triple(curve: FermatCurve) -> TripleConfig:
    """(1,-2), (-2,1), (1,1): valid for every degree N >= 4."""
    n = curve.n
    return assumption_check(curve, FermatIndex(n, 1, -2), FermatIndex(n, -2, 1),
                            FermatIndex(n, 1, 1))


def klein_triple() -> TripleConfig:
    """(1,2), (2,4), (4,1) at N = 7, the Klein-quartic pullback triple."""
    curve = FermatCurve(7)
    return assumption_check(curve, FermatIndex(7, 1, 2), FermatIndex(7, 2, 4),
                            FermatIndex(7, 4, 1))


def phi_pairing(curve: FermatCurve, idx1: FermatIndex, idx2: FermatIndex) -> CycloElem:
    """Exact intersection pairing of the eigenclass pair:
    N^2 (1-xi^a)(1-xi^b)/(1-xi^{a+b}) when idx2 = -idx1, else zero."""
    n = curve.n
    if idx2 != -idx1:
        return CycloElem.zero(n)
    num = one_minus_power(n, idx1.a) * one_minus_power(n, idx1.b) * (n * n)
    return num * one_minus_power(n, idx1.a + idx1.b).inverse()


def klein_trace_route(k: int, digits: int = 30) -> BoundedReal:
    """``klein_value(k)`` through the traced harmonic volume over twists {1, 2, 4}."""
    curve = FermatCurve(7)
    t = klein_triple()
    prefactor = math.factorial(k) * 2 * 49 ** (k - 1)
    return _certify(7, k, prefactor, digits,
                    lambda inner: [harmonic_volume_trace(curve, t, inner)]).value
