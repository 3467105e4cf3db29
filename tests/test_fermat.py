import math
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp
from mpmath.libmp import mpf_neg

from fermatvol import fermat, specfun
from fermatvol.cyclotomic import (CycloElem, EmbeddingIndex, cyclo_from_power,
                                  embed, one_minus_power, trace_to_rationals)
from fermatvol.fermat import (DeltaLinear, EtaNotZeroError, FermatCurve,
                              FermatIndex, assumption_check,
                              delta_iterated_integral, harmonic_volume_exact_parts,
                              harmonic_volume_sigma, harmonic_volume_trace,
                              harmonic_volume_trace_exact_defect, index_set,
                              kappa_exact, _sigma_exact_parts_cached)
from fermatvol.specfun import BoundedComplex, clear_caches

import _volume_reference as volume_reference
from _fermat_reference import (LoopIndex, delta_path_data, example_triple,
                               kappa_iterated_integral, kappa_path_data,
                               kappa_rs_exact, kappa_rs_iterated_integral,
                               kappa_rs_path_data, klein_triple, period_integral,
                               phi_pairing)

F = Fraction


# ------------------------------------------------------------- basic types

def test_genus():
    assert FermatCurve(4).genus == 3
    assert FermatCurve(7).genus == 15
    with pytest.raises(ValueError):
        FermatCurve(3)


def test_angle_rep():
    # an index keeps its residues reduced into 1..n-1
    assert FermatIndex(5, 3, 1).a == 3
    assert FermatIndex(5, -1, 2).a == 4
    assert FermatIndex(7, 1, -2).b == 5
    with pytest.raises(ValueError):
        FermatIndex(5, 10, 1)


def test_index_set_membership():
    with pytest.raises(ValueError):
        FermatIndex(5, 0, 1)
    with pytest.raises(ValueError):
        FermatIndex(5, 2, 3)  # a+b = 0 mod 5
    assert len(index_set(5)) == 12  # 4*4 minus the 4 anti-diagonal pairs


def test_holomorphic_examples():
    assert FermatIndex(4, 1, 1).is_holomorphic()
    assert not FermatIndex(4, 3, 3).is_holomorphic()
    assert FermatIndex(7, 2, 4).is_holomorphic()


@pytest.mark.parametrize("n", [5, 7, 8])
def test_exactly_one_of_pair_holomorphic(n):
    for idx in index_set(n):
        assert idx.is_holomorphic() != (-idx).is_holomorphic()


# ----------------------------------------------------------------- periods

def test_period_at_origin_loop():
    curve = FermatCurve(5)
    idx = FermatIndex(5, 2, 1)
    got = period_integral(curve, idx, LoopIndex(0, 0))
    assert got == one_minus_power(5, 2) * one_minus_power(5, 1)


def test_period_embeds_to_minus_2i():
    # degree 4, (a,b)=(1,1): (1-xi)^2 embeds at h=1 to (1-i)^2 = -2i
    curve = FermatCurve(4)
    v = embed(period_integral(curve, FermatIndex(4, 1, 1), LoopIndex(0, 0)),
              EmbeddingIndex(1, 4), 30)
    assert abs(v.value - mp.mpc(0, -2)) <= v.err


def test_period_loop_translation():
    curve = FermatCurve(7)
    idx = FermatIndex(7, 3, 2)
    for (r, s, rp, sp) in [(0, 0, 1, 2), (2, 5, 3, 4)]:
        lhs = period_integral(curve, idx, LoopIndex(r + rp, s + sp))
        rhs = (cyclo_from_power(7, idx.a * rp + idx.b * sp)
               * period_integral(curve, idx, LoopIndex(r, s)))
        assert lhs == rhs


def test_period_loop_periodicity():
    curve = FermatCurve(6)
    idx = FermatIndex(6, 1, 2)
    assert period_integral(curve, idx, LoopIndex(7, 1)) == \
        period_integral(curve, idx, LoopIndex(1, 1))


# ------------------------------------------------- composition of integrals

def test_inversion_rule():
    curve = FermatCurve(5)
    d = delta_path_data(curve, FermatIndex(5, 1, 2), FermatIndex(5, 2, 1), 1, 3)
    total = d.dbl + d.inverse().dbl
    assert total == DeltaLinear.constant(d.s1 * d.s2)


def test_conjugation_with_silent_arc():
    curve = FermatCurve(5)
    gamma = kappa_path_data(curve, FermatIndex(5, 1, 2), FermatIndex(5, 2, 1))
    silent = delta_path_data(curve, FermatIndex(5, 1, 2), FermatIndex(5, 2, 1))
    zero_arc = silent.pushforward(CycloElem.zero(5), CycloElem.zero(5))
    assert gamma.conjugated_by(zero_arc).dbl == gamma.dbl


def test_concat_is_chen_rule():
    curve = FermatCurve(5)
    a = delta_path_data(curve, FermatIndex(5, 1, 2), FermatIndex(5, 2, 1), 0, 0)
    b = delta_path_data(curve, FermatIndex(5, 1, 2), FermatIndex(5, 2, 1), 1, 1)
    joined = a.concat(b)
    assert joined.dbl == a.dbl + DeltaLinear.constant(a.s1 * b.s2) + b.dbl


@pytest.mark.parametrize("n,pair", [
    (5, ((1, 2), (2, 1))),
    (5, ((1, -2), (-2, 1))),
    (7, ((1, 2), (2, 4))),
    (7, ((3, 5), (6, 2))),
    (8, ((1, 3), (5, 1))),
])
def test_kappa_recomposition_matches_display(n, pair):
    # the generating-loop double integral, rebuilt from arc segments by the
    # composition rules, equals the closed display exactly
    curve = FermatCurve(n)
    idx1, idx2 = FermatIndex(n, *pair[0]), FermatIndex(n, *pair[1])
    rebuilt = kappa_path_data(curve, idx1, idx2)
    assert rebuilt.dbl == kappa_exact(curve, idx1, idx2)
    assert rebuilt.s1 == period_integral(curve, idx1, LoopIndex(0, 0))
    assert rebuilt.s2 == period_integral(curve, idx2, LoopIndex(0, 0))


@pytest.mark.parametrize("rs", [(0, 0), (1, 0), (0, 1), (2, 3), (4, 4)])
def test_kappa_rs_recomposition_matches_display(rs):
    n = 5
    curve = FermatCurve(n)
    idx1, idx2 = FermatIndex(n, 1, -2), FermatIndex(n, -2, 1)
    loop = LoopIndex(*rs)
    rebuilt = kappa_rs_path_data(curve, loop, idx1, idx2)
    assert rebuilt.dbl == kappa_rs_exact(curve, loop, idx1, idx2)


def test_kappa_rs_at_origin_is_kappa():
    curve = FermatCurve(7)
    idx1, idx2 = FermatIndex(7, 1, 2), FermatIndex(7, 2, 4)
    assert kappa_rs_exact(curve, LoopIndex(0, 0), idx1, idx2) == \
        kappa_exact(curve, idx1, idx2)


def test_kappa_rs_periodicity():
    curve = FermatCurve(5)
    idx1, idx2 = FermatIndex(5, 1, 3), FermatIndex(5, 3, 1)
    assert kappa_rs_exact(curve, LoopIndex(2, 3), idx1, idx2) == \
        kappa_rs_exact(curve, LoopIndex(7, 8), idx1, idx2)


def test_kappa_pure_cyclotomic_when_twists_cancel():
    # (a+c, b+d) = (0,0) kills the delta coefficient
    curve = FermatCurve(5)
    idx1 = FermatIndex(5, 1, 2)
    ex = kappa_exact(curve, idx1, -idx1)
    assert ex.c1.is_zero()
    assert not ex.c0.is_zero()


def test_kappa_example_delta_coefficient():
    # degree 4, (a,b)=(1,-2), (c,d)=(-2,1): coefficient (1-xi^{-1})^2
    curve = FermatCurve(4)
    ex = kappa_exact(curve, FermatIndex(4, 1, -2), FermatIndex(4, -2, 1))
    assert ex.c1 == one_minus_power(4, -1) * one_minus_power(4, -1)


# ------------------------------------------------------------ delta values

def test_delta_iterated_integral_example_value():
    # degree 5, (1,-2),(-2,1): Gamma(4/5)^4/Gamma(3/5)^2 * 3F2(1/5,1/5,3/5;1,1)
    curve = FermatCurve(5)
    v = delta_iterated_integral(curve, FermatIndex(5, 1, -2), FermatIndex(5, -2, 1), 30)
    with mp.workdps(45):
        ref = (mpmath.gamma(mp.mpf(4) / 5) ** 4 / mpmath.gamma(mp.mpf(3) / 5) ** 2
               * mpmath.hyp3f2(mp.mpf(1) / 5, mp.mpf(1) / 5, mp.mpf(3) / 5, 1, 1, 1))
        assert abs(v.value - ref) <= v.err + mp.mpf(10) ** -40


def _closed_form_lists(i1, i2):
    # the closed form's four parameter lists, in delta_iterated_integral's own order
    a1, b1, a2, b2 = i1.alpha, i1.beta, i2.alpha, i2.beta
    return ([a1 + a2, b1 + b2, a1 + b1, a2 + b2], [a2, b1, a1 + a2 + b2, a1 + b1 + b2],
            [a1, b2, a1 + a2 + b1 + b2 - 1], [a1 + a2 + b2, a1 + b1 + b2])


def test_delta_symmetric_under_tenth_expression_symmetry():
    # swapping (a1,b1,a2,b2) -> (b2,a2,b1,a1) fixes the closed form; the swapped pair
    # shares the memo entry, so it is evaluated from its own unsorted lists
    curve = FermatCurve(7)
    i1, i2 = FermatIndex(7, 2, 3), FermatIndex(7, 3, 5)
    j1 = FermatIndex(7, i2.b, i2.a)
    j2 = FermatIndex(7, i1.b, i1.a)
    a = delta_iterated_integral(curve, i1, i2, 25)
    b = specfun._gamma_hyp(*_closed_form_lists(j1, j2), 25)
    assert a.agrees_with(b)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_delta_memo_equals_unsorted_closed_form(n):
    # the memo sorts each parameter list; the closed form multiplies exact integers, so
    # every ordered pair, the first or a repeated evaluation of its form, has the value
    # and bound of _gamma_hyp on the unsorted lists, bit for bit
    curve = FermatCurve(n)
    clear_caches()
    for i1 in index_set(n):
        for i2 in index_set(n):
            got = delta_iterated_integral(curve, i1, i2, 20)
            want = specfun._gamma_hyp(*_closed_form_lists(i1, i2), 20)
            assert (got.value._mpf_, got.err._mpf_) == (want.value._mpf_, want.err._mpf_)


def test_delta_memo_keys_on_digits():
    # a 30-digit and a 40-digit request are two entries, each at its own digits
    curve = FermatCurve(5)
    i1, i2 = FermatIndex(5, 1, 2), FermatIndex(5, 3, 1)
    clear_caches()
    lo = delta_iterated_integral(curve, i1, i2, 30)
    hi = delta_iterated_integral(curve, i1, i2, 40)
    assert fermat._closed_form_cached.cache_info().currsize == 2
    want = specfun._gamma_hyp(*_closed_form_lists(i1, i2), 40)
    assert (hi.value._mpf_, hi.err._mpf_) == (want.value._mpf_, want.err._mpf_)
    assert hi.err < mp.mpf(10) ** -40 and hi.err < lo.err / 10 ** 9


@pytest.mark.parametrize("which", range(4))
def test_delta_memo_keys_on_every_multiset(which):
    # on the arc integrals any three multisets fix the fourth, so only forms outside
    # them show a key that drops one: moving one numerator over N of one list by 1 (the
    # largest, so the key stays sorted) is a new entry
    lists = [tuple(sorted(int(7 * x) for x in xs)) for xs in
             _closed_form_lists(FermatIndex(7, 2, 3), FermatIndex(7, 3, 5))]
    moved = list(lists)
    moved[which] = lists[which][:-1] + (lists[which][-1] + 1,)
    clear_caches()
    fermat._closed_form_cached(7, *lists, 25)
    got = fermat._closed_form_cached(7, *moved, 25)
    assert fermat._closed_form_cached.cache_info().currsize == 2
    want = specfun._gamma_hyp(*[tuple(F(x, 7) for x in xs) for xs in moved], 25)
    assert (got.value._mpf_, got.err._mpf_) == (want.value._mpf_, want.err._mpf_)


def test_delta_memo_hit_does_no_fraction_arithmetic(monkeypatch, count_fractions):
    # the memo key is N and the integer numerators over N: a miss builds each parameter
    # once as Fraction(x, N), and a hit, a twisted index included, computes, compares and
    # builds no Fraction
    curve = FermatCurve(7)
    i1, i2 = FermatIndex(7, 2, 3), FermatIndex(7, 3, 5)
    clear_caches()
    used, built = count_fractions()
    first = delta_iterated_integral(curve, i1, i2, 25)
    assert used == Counter()
    assert built == [(x, 7) for x in (5, 5, 8, 8, 3, 3, 10, 10, 2, 5, 6, 10, 10)]
    built.clear()
    again = delta_iterated_integral(curve, i1.scaled(1), i2, 25)
    monkeypatch.undo()
    assert used == Counter() and built == []
    assert again is first
    want = specfun._gamma_hyp(*volume_reference.closed_form_lists(i1, i2), 25)
    assert (first.mid, first.rad, first.exp) == (want.mid, want.rad, want.exp)


def test_twists_match_validated_index():
    # scaled(h) builds its twist unchecked, and _twisted_holomorphic reads the twist's
    # holomorphy from the ints: both agree with the validated FermatIndex(n, ha, hb) for
    # every index and unit of N = 4..13
    for n in range(4, 14):
        for idx in index_set(n):
            for h in range(1, n):
                if math.gcd(h, n) == 1:
                    want = FermatIndex(n, h * idx.a, h * idx.b)
                    assert idx.scaled(h) == want
                    assert fermat._twisted_holomorphic(idx, h) == want.is_holomorphic()
    with pytest.raises(ValueError, match="non-unit 2 mod 6"):
        FermatIndex(6, 1, 2).scaled(2)


@pytest.mark.parametrize("n,forms", [(5, 72), (6, 180), (7, 375)])
def test_oracle_test_evaluates_each_form_once(n, forms, capsys):
    # (a1, b1, a2, b2) and (b2, a2, b1, a1) share one closed form; a run from a cleared
    # memo evaluates each distinct form once, and the memo holds all of N = 15's 10,647
    from fermatvol import cli
    clear_caches()
    cli.main(["oracle-test", "--n", str(n)])
    capsys.readouterr()
    info = fermat._closed_form_cached.cache_info()
    pairs = ((n - 1) * (n - 2)) ** 2
    assert (info.currsize, info.misses, info.hits) == (forms, forms, pairs - forms)
    assert info.maxsize >= 10_647


def test_kappa_iterated_integral_via_recomposition_numeric():
    # evaluate both the display and the recomposed path record at an embedding
    n = 5
    curve = FermatCurve(n)
    idx1, idx2 = FermatIndex(n, 1, 1), FermatIndex(n, 2, 1)
    sig = EmbeddingIndex(1, n)
    with mp.workprec(250):
        disp = kappa_iterated_integral(curve, idx1, idx2, sig, 30)
        path = kappa_path_data(curve, idx1, idx2)
        i_delta = delta_iterated_integral(curve, idx1, idx2, 30)
        rebuilt = (embed(path.dbl.c1, sig, 30) * BoundedComplex(i_delta.value, i_delta.err)
                   + embed(path.dbl.c0, sig, 30))
        assert disp.agrees_with(rebuilt)


# ---------------------------------------------------------------- pairings

def test_phi_pairing_matched():
    curve = FermatCurve(4)
    got = phi_pairing(curve, FermatIndex(4, 1, 1), FermatIndex(4, -1, -1))
    ref = one_minus_power(4, 1) * one_minus_power(4, 1) * 16 * one_minus_power(4, 2).inverse()
    assert got == ref


def test_phi_pairing_otherwise_zero():
    curve = FermatCurve(7)
    assert phi_pairing(curve, FermatIndex(7, 1, 1), FermatIndex(7, 1, 2)).is_zero()


def test_phi_pairing_antisymmetric():
    curve = FermatCurve(7)
    i1 = FermatIndex(7, 2, 3)
    assert phi_pairing(curve, i1, -i1) == -phi_pairing(curve, -i1, i1)


def test_phi_pairing_conjugate_embedding():
    curve = FermatCurve(5)
    i1 = FermatIndex(5, 1, 2)
    val = phi_pairing(curve, i1, -i1)
    for h in (1, 2):
        a = embed(val, EmbeddingIndex(h, 5), 30)
        b = embed(val, EmbeddingIndex(5 - h, 5), 30)
        assert a.agrees_with(b.conjugate())


# ----------------------------------------------------------- configurations

def test_example_triple_flags():
    for n in (5, 7, 9, 12):
        t = example_triple(FermatCurve(n))
        assert t.sums_to_zero and t.pairwise_parallel_holo and t.strong_holo
        expected = tuple(h for h in range(1, (n + 1) // 2)
                         if math.gcd(h, n) == 1 and h < n / 2)
        assert t.holo_twists == expected


def test_klein_triple_flags():
    t = klein_triple()
    assert t.sums_to_zero and t.strong_holo
    assert t.holo_twists == (1, 2, 4)


def test_nonzero_sum_triple():
    curve = FermatCurve(5)
    t = assumption_check(curve, FermatIndex(5, 1, 1), FermatIndex(5, 1, 2),
                         FermatIndex(5, 1, 1))
    assert not t.sums_to_zero


# ------------------------------------------------------------------ volume

def weighted_loop_sum(n, i1, i2, a3, b3):
    """Reference for the exact parts: sum over all N^2 loops (r,s) of
    xi^{a3 r + b3 s} kappa^{r,s}, evaluated loop by loop."""
    curve = FermatCurve(n)
    total = DeltaLinear.constant(CycloElem.zero(n))
    for r in range(n):
        for s in range(n):
            w = cyclo_from_power(n, a3 * r + b3 * s)
            total = total + kappa_rs_exact(curve, LoopIndex(r, s), i1, i2) * w
    return total


@pytest.mark.parametrize("n,t1,t2,t3", [
    # zero-sum triples: the kappa term survives
    (4, (1, 1), (1, 2), (2, 1)),
    (5, (1, 2), (3, 1), (1, 2)),
    (6, (2, 1), (5, 3), (5, 2)),
    (7, (3, 5), (1, 1), (3, 1)),
    (8, (6, 1), (7, 5), (3, 2)),
    (9, (6, 6), (8, 8), (4, 4)),
    (12, (11, 10), (11, 8), (2, 6)),
    # not zero-sum: each of the correction terms (-p1, a, b), (p1, a, b+d), (p2, c, d)
    # and (-p2, c, b+d) survives somewhere, and at the last triple none does
    (4, (2, 1), (1, 1), (2, 3)),
    (5, (4, 3), (4, 4), (1, 3)),
    (6, (5, 4), (3, 4), (3, 2)),
    (7, (2, 4), (4, 1), (3, 2)),
    (8, (5, 7), (7, 3), (3, 1)),
    (9, (2, 2), (5, 8), (7, 8)),
    (12, (1, 8), (6, 3), (6, 9)),
    (5, (1, 1), (1, 2), (1, 1)),
])
def test_exact_parts_equal_loop_sum(n, t1, t2, t3):
    # the character-orthogonality sum over the display terms is the literal loop
    i1, i2 = FermatIndex(n, *t1), FermatIndex(n, *t2)
    a3, b3 = t3
    loop = weighted_loop_sum(n, i1, i2, a3, b3)
    assert _sigma_exact_parts_cached(n, i1.a, i1.b, i2.a, i2.b, a3, b3) == \
        loop * one_minus_power(n, -(a3 + b3)).inverse()


def test_exact_parts_delta_coefficient_collapses():
    # the weighted loop sum's delta coefficient must equal
    # N^2 (1-xi^{-a3})(1-xi^{-b3}) / (1-xi^{-(a3+b3)})
    for n in (5, 7):
        curve = FermatCurve(n)
        t = example_triple(curve)
        i3 = t.indices[2]
        ex = harmonic_volume_exact_parts(curve, t)
        expected = (one_minus_power(n, -i3.a) * one_minus_power(n, -i3.b) * (n * n)
                    * one_minus_power(n, -(i3.a + i3.b)).inverse())
        assert ex.c1 == expected


def test_harmonic_volume_sigma_leading_term():
    n = 5
    curve = FermatCurve(n)
    t = example_triple(curve)
    sig = EmbeddingIndex(1, n)
    with mp.workprec(250):
        m = harmonic_volume_sigma(curve, t, sig, 30)
        ex = harmonic_volume_exact_parts(curve, t)
        i1, i2 = t.indices[0], t.indices[1]
        i_delta = delta_iterated_integral(curve, i1, i2, 30)
        lead = embed(ex.c1, sig, 30) * BoundedComplex(i_delta.value, i_delta.err)
        rest = embed(ex.c0, sig, 30)
        assert m.agrees_with(lead + rest)


def test_harmonic_volume_sigma_conjugate():
    n = 5
    curve = FermatCurve(n)
    t = example_triple(curve)
    with mp.workprec(250):
        m1 = harmonic_volume_sigma(curve, t, EmbeddingIndex(1, n), 25)
        m4 = harmonic_volume_sigma(curve, t, EmbeddingIndex(4, n), 25)
        assert m4.agrees_with(m1.conjugate())


def _n11_triple():
    # (4,5), (2,4), (5,2) at N = 11: zero sum, parallel holomorphy at h = 1, 3, 6, 7, 9
    curve = FermatCurve(11)
    return curve, assumption_check(curve, FermatIndex(11, 4, 5), FermatIndex(11, 2, 4),
                                   FermatIndex(11, 5, 2))


def _bits_of(z: BoundedComplex):
    return z.value.real._mpf_, z.value.imag._mpf_, z.err._mpf_


def test_harmonic_volume_sigma_evaluates_each_conjugate_pair_once(monkeypatch):
    # the antiholomorphic component is the memoised holomorphic one, conjugated
    curve, t = _n11_triple()
    calls = []

    def counted(*args):
        calls.append(args)
        return delta_iterated_integral(*args)

    monkeypatch.setattr(fermat, "delta_iterated_integral", counted)
    clear_caches()
    values = {h: harmonic_volume_sigma(curve, t, EmbeddingIndex(h, 11), 30)
              for h in range(1, 11)}
    assert len(calls) == len(t.holo_twists) == 5
    for h in t.holo_twists:
        re, im, err = _bits_of(values[h])
        assert _bits_of(values[11 - h]) == (re, mpf_neg(im), err)


def test_harmonic_volume_sigma_independent_of_call_history():
    # a warm cache never answers a 20-digit request with a 30-digit entry; the tail
    # solves and partial sums of the 30-digit series answer the 20-digit ones by their
    # exact prefix
    curve, t = _n11_triple()
    sigmas = [EmbeddingIndex(h, 11) for h in range(1, 11)]
    clear_caches()
    for sig in sigmas:
        harmonic_volume_sigma(curve, t, sig, 30)
    warm = [_bits_of(harmonic_volume_sigma(curve, t, sig, 20)) for sig in sigmas]
    clear_caches()
    cold = [_bits_of(harmonic_volume_sigma(curve, t, sig, 20)) for sig in sigmas]
    assert warm == cold
    assert cold != [_bits_of(harmonic_volume_sigma(curve, t, sig, 30)) for sig in sigmas]


def test_harmonic_volume_sigma_independent_of_ambient_precision():
    # every bounded operation on the way is exact or rounds at its own precision
    curve, t = _n11_triple()
    sigmas = [EmbeddingIndex(h, 11) for h in range(1, 11)]
    runs = []
    for prec in (20, 400):
        clear_caches()
        with mp.workprec(prec):
            runs.append([_bits_of(harmonic_volume_sigma(curve, t, sig, 30)) for sig in sigmas])
    assert runs[0] == runs[1]


def test_harmonic_volume_sigma_rejects_mixed():
    # degree 7 triple (1,1),(1,2),(5,4): at h=3 the first two twists split
    curve = FermatCurve(7)
    t = assumption_check(curve, FermatIndex(7, 1, 1), FermatIndex(7, 1, 2),
                         FermatIndex(7, 5, 4))
    assert t.sums_to_zero and not t.pairwise_parallel_holo
    with pytest.raises(EtaNotZeroError):
        harmonic_volume_sigma(curve, t, EmbeddingIndex(1, 7), 20)


def test_weighted_loop_sum_reproduces_sigma():
    # direct double loop over kappa^{r,s} values vs the assembled closed form
    n = 5
    curve = FermatCurve(n)
    t = example_triple(curve)
    i1, i2, i3 = t.indices
    h = 1
    sig = EmbeddingIndex(h, n)
    with mp.workprec(300):
        z = lambda j: mpmath.expjpi(mp.mpf(2 * ((h * j) % n)) / n)
        total = mp.mpc(0)
        err = mp.mpf(0)
        for r in range(n):
            for s in range(n):
                val = kappa_rs_iterated_integral(curve, LoopIndex(r, s), i1, i2, sig, 30)
                total += z(i3.a * r + i3.b * s) * val.value
                err += val.err
        direct = BoundedComplex(total / (1 - z(-(i3.a + i3.b))), 4 * err)
        closed = harmonic_volume_sigma(curve, t, sig, 30)
        assert closed.agrees_with(direct)


@pytest.mark.parametrize("n", [5, 8, 9])
def test_trace_exact_defect_is_integer_example(n):
    curve = FermatCurve(n)
    t = example_triple(curve)
    defect = harmonic_volume_trace_exact_defect(curve, t)
    assert defect.denominator == 1


def test_trace_exact_defect_is_integer_klein():
    defect = harmonic_volume_trace_exact_defect(FermatCurve(7), klein_triple())
    assert defect.denominator == 1


def test_trace_is_real_sum_of_conjugate_sigmas():
    # summing the cleared sigma values over all units has vanishing imaginary
    # part and matches the trace display modulo the exact integer defect
    n = 5
    curve = FermatCurve(n)
    t = example_triple(curve)
    i3 = t.indices[2]
    clear = (one_minus_power(n, -i3.a) * one_minus_power(n, -i3.b)).inverse()
    with mp.workprec(300):
        total = mp.mpc(0)
        err = mp.mpf(0)
        for h in (1, 2, 3, 4):
            sig = EmbeddingIndex(h, n)
            m = harmonic_volume_sigma(curve, t, sig, 30)
            c = embed(clear, sig, 30)
            total += m.value * c.value
            err += m.err * (abs(c.value) + c.err) + c.err * abs(m.value)
        assert abs(total.imag) <= err + mp.mpf(10) ** -20
        tr = harmonic_volume_trace(curve, t, 30)
        gap = total.real - tr.value
        assert abs(gap - mpmath.nint(gap)) <= err + tr.err + mp.mpf(10) ** -20


@pytest.mark.parametrize("n,t1,t2,t3", [
    (5, (1, 1), (1, 2), (2, 1)),    # does not sum to zero
    (7, (1, 1), (1, 2), (5, 4)),    # not parallel-holomorphic: h = 3 splits the first two
])
def test_every_volume_requires_supported_triple(n, t1, t2, t3):
    curve = FermatCurve(n)
    t = assumption_check(curve, *(FermatIndex(n, a, b) for a, b in (t1, t2, t3)))
    assert not (t.sums_to_zero and t.pairwise_parallel_holo)
    with pytest.raises(EtaNotZeroError):
        harmonic_volume_sigma(curve, t, EmbeddingIndex(1, n), 20)
    with pytest.raises(EtaNotZeroError):
        harmonic_volume_trace(curve, t, 20)
    with pytest.raises(EtaNotZeroError):
        harmonic_volume_trace_exact_defect(curve, t)


def test_indices_of_another_degree_raise():
    # N = 5 indices read on the degree-7 curve gave sigma 0 (true 20.307...i), trace 49
    # (true 25), defect 0 (true -150) and exact parts DeltaLinear(0, 0) with no error
    idxs = [FermatIndex(5, a, b) for a, b in ((1, 1), (1, 1), (3, 3))]
    t = assumption_check(FermatCurve(5), *idxs)
    wrong = FermatCurve(7)
    calls = [lambda: assumption_check(wrong, *idxs),
             lambda: harmonic_volume_sigma(wrong, t, EmbeddingIndex(1, 7), 20),
             lambda: harmonic_volume_trace(wrong, t, 20),
             lambda: harmonic_volume_trace_exact_defect(wrong, t),
             lambda: delta_iterated_integral(wrong, idxs[0], idxs[1], 20),
             lambda: kappa_exact(wrong, idxs[0], idxs[1]),
             lambda: harmonic_volume_exact_parts(wrong, t)]
    for call in calls:
        with pytest.raises(ValueError, match="not an index of degree 7") as info:
            call()
        assert not isinstance(info.value, EtaNotZeroError)
    # an embedding of another degree: h = 3 mod 7 sent the antiholomorphic branch to its
    # conjugate and back until RecursionError
    right = FermatCurve(5)
    for h in (1, 3):
        with pytest.raises(ValueError, match="not an index of degree 5"):
            harmonic_volume_sigma(right, t, EmbeddingIndex(h, 7), 20)


def test_trace_requires_assumption():
    curve = FermatCurve(5)
    t = assumption_check(curve, FermatIndex(5, 1, 1), FermatIndex(5, 1, 2),
                         FermatIndex(5, 2, 1))
    with pytest.raises(EtaNotZeroError):
        harmonic_volume_trace(curve, t, 20)


@pytest.mark.parametrize("n,t1,t2,t3", [
    (5, (1, 1), (1, 2), (1, 1)),
    (7, (1, 2), (2, 3), (1, 1)),
    (5, (1, 3), (2, 1), (2, 2)),
])
def test_volume_vanishes_mod_integers_without_zero_sum(n, t1, t2, t3):
    # when the triple does not sum to zero (first two not mutually inverse),
    # the weighted loop sum has no transcendental part and its constant part
    # is an algebraic integer, so the volume vanishes modulo the lattice
    i1, i2 = FermatIndex(n, *t1), FermatIndex(n, *t2)
    a3, b3 = t3
    assert ((i1.a + i2.a + a3) % n, (i1.b + i2.b + b3) % n) != (0, 0)
    assert i2 != -i1
    m = weighted_loop_sum(n, i1, i2, a3, b3) * one_minus_power(n, -(a3 + b3)).inverse()
    assert m.c1.is_zero()
    assert all(c.denominator == 1 for c in m.c0.coeffs)
