import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from fermatvol import cyclotomic
from fermatvol.cyclotomic import (CycloElem, EmbeddingIndex, cyclo_from_power,
                                  cyclotomic_polynomial, embed,
                                  embedding_indices, euler_phi, mobius,
                                  one_minus_power, trace_to_rationals)
from fermatvol.specfun import DomainError, clear_caches

import _cyclo_reference as cyclo_reference
import _volume_reference as volume_reference

F = Fraction


def rand_elem(rng, n, span=6):
    return CycloElem(n, [F(rng.randint(-span, span), rng.randint(1, 4))
                         for _ in range(euler_phi(n))])


# ----------------------------------------------------- cyclotomic polynomials

def test_phi_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_phi_105_has_coefficient_minus_two():
    # first index with a coefficient outside {-1, 0, 1}
    assert cyclotomic_polynomial(105)[7] == -2


def test_phi_degree_is_totient():
    for n in (7, 8, 9, 10, 12, 15, 99):
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


def test_totient_and_mobius():
    assert [euler_phi(n) for n in (1, 4, 7, 12, 99)] == [1, 2, 6, 4, 60]
    assert [mobius(n) for n in (1, 2, 4, 6, 30, 12)] == [1, -1, 0, 1, -1, 0]


# ------------------------------------------------------------- constructors

def test_from_power_trivial():
    assert cyclo_from_power(4, 0) == CycloElem.one(4)
    assert cyclo_from_power(4, 2) == CycloElem.from_rational(4, -1)


def test_from_power_reduction_mod_phi5():
    # x^4 mod (x^4+x^3+x^2+x+1) = -1-x-x^2-x^3
    assert cyclo_from_power(5, 4) == CycloElem(5, [-1, -1, -1, -1])


def test_modulus_mismatch_raises():
    with pytest.raises(ValueError):
        cyclo_from_power(4, 1) + cyclo_from_power(5, 1)


# ---------------------------------------------------------------- ring laws

def test_prime_product_of_one_minus_powers():
    # prod_{j=1}^{4} (1 - xi^j) = 5 at n=5
    prod = CycloElem.one(5)
    for j in range(1, 5):
        prod = prod * one_minus_power(5, j)
    assert prod == CycloElem.from_rational(5, 5)


def test_inverse_law():
    # elements with zero top coefficients exercise the trimming in the ext-gcd
    for n in (5, 7, 8, 9, 12, 15):
        for x in (one_minus_power(n, 1), cyclo_from_power(n, 2) + 3,
                  CycloElem.from_rational(n, F(2, 3))):
            assert x * x.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        CycloElem.zero(7).inverse()


@pytest.mark.parametrize("n", [4, 5, 7, 12])
def test_ring_axioms_random(n):
    rng = random.Random(n)
    for _ in range(6):
        a, b, c = (rand_elem(rng, n) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_power_and_periodicity():
    xi = cyclo_from_power(9, 1)
    xi3 = xi * xi * xi
    assert xi3 * xi3 * xi3 == CycloElem.one(9)
    assert cyclo_from_power(9, 13) == cyclo_from_power(9, 4)


# --------------------------------------------------------------- embeddings

def test_embed_fourth_root_is_i():
    v = embed(cyclo_from_power(4, 1), EmbeddingIndex(1, 4), 30)
    assert abs(v.value - mp.mpc(0, 1)) <= v.err


def test_embed_golden_ratio_identity():
    # xi + xi^-1 at n=5 embeds to 2cos(2pi/5) = (sqrt(5)-1)/2
    x = cyclo_from_power(5, 1) + cyclo_from_power(5, 4)
    v = embed(x, EmbeddingIndex(1, 5), 35)
    with mp.workdps(50):
        ref = (mpmath.sqrt(5) - 1) / 2
        assert abs(v.value - ref) <= v.err
        assert abs(v.value.imag) <= v.err


def test_embed_conjugate_pairs():
    rng = random.Random(11)
    for n in (5, 8, 9):
        x = rand_elem(rng, n)
        for h in range(1, n):
            if math.gcd(h, n) != 1:
                continue
            a = embed(x, EmbeddingIndex(h, n), 30)
            b = embed(x, EmbeddingIndex(n - h, n), 30)
            assert a.agrees_with(b.conjugate())


def test_embed_is_multiplicative():
    rng = random.Random(3)
    for n in (5, 7):
        a, b = rand_elem(rng, n), rand_elem(rng, n)
        for sig in embedding_indices(n):
            with mp.workprec(250):
                va = embed(a, sig, 30)
                vb = embed(b, sig, 30)
                vab = embed(a * b, sig, 30)
                assert vab.agrees_with(va * vb)


def test_embed_respects_equality():
    # elements built from polynomials differing by Phi_n embed identically
    n = 5
    big = CycloElem(n, [F(2), F(0), F(1), F(0), F(1)])  # reduced from degree 4
    same = CycloElem(n, [F(1), F(-1), F(0), F(-1)])
    assert big == same
    for sig in embedding_indices(n):
        va, vb = embed(big, sig, 30), embed(same, sig, 30)
        assert va.agrees_with(vb)


def test_root_matches_workprec_route():
    # the raw angle and one mpf_cos_sin give the raw tuple of mpmath's 2 pi r / n, cos and
    # sin under workprec, bit for bit, for every residue of n = 3..59 at four precisions
    for wp in (120, 140, 163, 200):
        for n in range(3, 60):
            for r in range(n):
                assert cyclotomic._root.__wrapped__(n, r, wp) == volume_reference.root(n, r, wp)


def test_embed_integer_coefficients_call_no_mpf_div(monkeypatch):
    # with the roots cached, an integer coefficient is multiplied into the root's parts
    # by mpf_mul_int, and only a coefficient with a denominator divides
    sigma = EmbeddingIndex(5, 13)
    whole = CycloElem(13, [3, -7, 0, 10 ** 30, 1, 1, 0, 0, -2, 5, 0, 9])
    mixed = CycloElem(13, [F(1, 3), 2, 0, -4, F(5, 6)] + [0] * 7)
    clear_caches()
    for a in (whole, mixed):
        embed(a, sigma, 30)
    divisions = []
    div = cyclotomic.mpf_div
    monkeypatch.setattr(cyclotomic, "mpf_div", lambda *args: divisions.append(args) or div(*args))
    for a, dividing in ((whole, 0), (mixed, 2)):
        got, want = embed(a, sigma, 30), volume_reference.embed(a, sigma, 30)
        assert len(divisions) == dividing
        assert (got.re, got.im, got.rad, got.exp) == (want.re, want.im, want.rad, want.exp)
        divisions.clear()


def test_embed_coefficient_sum_beyond_float_range():
    # the working precision is read from the float of the coefficient sum; past the float
    # range that is a DomainError, and up to it the float size and the bits are as before
    with pytest.raises(DomainError, match="beyond the float range"):
        embed(CycloElem(5, [10 ** 400, 1]), EmbeddingIndex(1, 5), 30)
    with pytest.raises(DomainError, match="float range"):
        embed(CycloElem(5, [F(10 ** 320, 7), 10 ** 309]), EmbeddingIndex(2, 5), 30)
    for coeffs in ([10 ** 308, 1], [F(10 ** 309, 7), -1, 3], [-(2 ** 1023), 2 ** 1022]):
        a = CycloElem(5, coeffs)
        got, want = embed(a, EmbeddingIndex(3, 5), 30), volume_reference.embed(
            a, EmbeddingIndex(3, 5), 30)
        assert (got.re, got.im, got.rad, got.exp) == (want.re, want.im, want.rad, want.exp)


def test_embedding_index_validation():
    with pytest.raises(ValueError):
        EmbeddingIndex(2, 4)
    with pytest.raises(ValueError):
        EmbeddingIndex(0, 5)


# -------------------------------------------------------------------- trace

def test_trace_of_one():
    assert trace_to_rationals(CycloElem.one(5)) == 4


def test_trace_of_root_at_primes():
    for p in (5, 7, 11, 13):
        assert trace_to_rationals(cyclo_from_power(p, 1)) == -1


def test_trace_resolvent_identity():
    # 1/(1-xi) + 1/(1-xi^{-1}) = 1, so the trace at n=7 is phi(7) = 6
    n = 7
    x = one_minus_power(n, 1).inverse() + one_minus_power(n, -1).inverse()
    assert x == CycloElem.one(n)  # even exactly
    assert trace_to_rationals(x) == 6


def test_trace_matches_galois_sum_and_numerics():
    rng = random.Random(5)
    for n in (5, 8, 12):
        x = rand_elem(rng, n)
        tr = trace_to_rationals(x)
        # exact Galois-conjugate sum
        acc = CycloElem.zero(n)
        for h in range(1, n):
            if math.gcd(h, n) == 1:
                acc = acc + cyclo_reference.galois(x, h)
        assert acc == CycloElem.from_rational(n, tr)
        # numeric embedding sum
        with mp.workprec(220):
            num = sum(embed(x, sig, 30).value for sig in embedding_indices(n))
            assert abs(num - mp.mpf(tr.numerator) / tr.denominator) < mp.mpf(10) ** -25


# ----------------------------------------------- the Fraction reference

_BIG_FRACTION = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 12)


@st.composite
def _elements(draw):
    # two elements of one field with Fraction coefficients, from zero to beyond
    # deg Phi_n (so the constructor reduces), with some coefficients left at 0
    n = draw(st.integers(3, 40))
    coeff = st.one_of(st.just(F(0)), st.integers(-5, 5).map(F), _BIG_FRACTION)
    cs = st.lists(coeff, max_size=euler_phi(n) + 4)
    h = draw(st.sampled_from([h for h in range(1, n) if math.gcd(h, n) == 1]))
    return n, draw(cs), draw(cs), h, draw(st.integers(10, 60))


def _same(x: CycloElem, ref: cyclo_reference.RefCyclo) -> bool:
    return x.n == ref.n and x.coeffs == ref.coeffs


@settings(max_examples=150, deadline=None)
@given(_elements())
@example((12, [F(1, 3), F(0), F(2, 5), F(0), F(1), F(0), F(-7, 10 ** 12)], [F(0)] * 5 + [F(3)],
          5, 10))
def test_matches_fraction_reference(case):
    n, ca, cb, h, digits = case
    a, b = CycloElem(n, ca), CycloElem(n, cb)
    ra, rb = cyclo_reference.RefCyclo(n, ca), cyclo_reference.RefCyclo(n, cb)
    assert _same(a, ra) and _same(b, rb)
    assert a.den > 0 and math.gcd(a.den, *a.num) == 1
    for got, want in ((a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra),
                      (cyclo_reference.galois(a, h), ra.galois(h))):
        assert _same(got, want)
    for x, rx in ((a, ra), (b, rb)):
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert _same(x.inverse(), rx.inverse())
    assert trace_to_rationals(a) == cyclo_reference.trace_to_rationals(ra)
    # == and hash on the canonical form, whichever way an element was built
    twin = CycloElem(n, list(ca) + [F(0)] * 3) + b - b
    assert twin == a and hash(twin) == hash(a)
    assert (a == b) == (ra.coeffs == rb.coeffs)
    got, want = embed(a, EmbeddingIndex(h, n), digits), cyclo_reference.embed(ra, h, digits)
    assert (got.value._mpc_, got.err._mpf_) == (want.value._mpc_, want.err._mpf_)


def test_cyclotomic_polynomial_matches_fraction_division():
    for n in range(1, 106):
        assert cyclotomic_polynomial(n) == cyclo_reference.cyclotomic_polynomial(n)


def test_inverse_of_every_product_of_two_one_minus_powers():
    # (1 - xi^a)(1 - xi^b) for every a, b not divisible by n, n <= 40
    for n in range(2, 41):
        for a in range(1, n):
            x_a = one_minus_power(n, a)
            for b in range(a, n):
                x = x_a * one_minus_power(n, b)
                assert x * x.inverse() == 1
    for n in (1, 2, 12, 40):
        with pytest.raises(ZeroDivisionError):
            CycloElem.zero(n).inverse()
