import itertools
import math
import random
from fractions import Fraction

import pytest

from _extalg_reference import (Multivector, WedgeWord, ceresa_eval_k,
                               ceresa_eval_k_bruteforce, chained_matchings,
                               det_exact, perm_sign, pi_pq, v_pairing,
                               v_pairing_bruteforce, wedge_pairing)
from fermatvol.cyclotomic import CycloElem, euler_phi

F = Fraction


def rand_cyclo(rng, n=5):
    return CycloElem(n, [F(rng.randint(-3, 3)) for _ in range(euler_phi(n))])


# ----------------------------------------------------------------- wedges

def test_wedge_word_canonicalization():
    w = WedgeWord.make(("b", "a"))
    assert w.factors == ("a", "b") and w.sign == -1
    assert WedgeWord.make(("a", "a")) is None


def test_multivector_cancellation():
    m = Multivector(2)
    m.add_word(("a", "b"), F(1))
    m.add_word(("b", "a"), F(1))  # equals -(a^b), cancels
    assert m.terms == {}


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((2, 0, 1)) == 1


# ----------------------------------------------------------------- shuffles

def test_pi_11_two_terms():
    out = pi_pq(("f1", "f2"), 1, 1)
    assert out == [(1, ("f1",), ("f2",)), (-1, ("f2",), ("f1",))]


def test_pi_21_signs():
    out = pi_pq(("f1", "f2", "f3"), 2, 1)
    table = {(l, r): s for s, l, r in out}
    assert table[(("f1", "f2"), ("f3",))] == 1
    assert table[(("f1", "f3"), ("f2",))] == -1
    assert table[(("f2", "f3"), ("f1",))] == 1


def test_pi_pq_term_count():
    out = pi_pq(tuple(range(7)), 3, 4)
    assert len(out) == math.comb(7, 3)


@pytest.mark.parametrize("p,q", [(1, 2), (2, 2), (3, 2)])
def test_pi_pq_against_full_group_filter(p, q):
    word = tuple(range(p + q))
    expected = []
    for perm in itertools.permutations(range(p + q)):
        if all(perm[i] < perm[i + 1] for i in range(p - 1)) and \
           all(perm[p + i] < perm[p + i + 1] for i in range(q - 1)):
            expected.append((perm_sign(perm),
                             tuple(word[i] for i in perm[:p]),
                             tuple(word[i] for i in perm[p:])))
    assert sorted(pi_pq(word, p, q)) == sorted(expected)


def test_pi_pq_rewedge_recovers_binomial_multiple():
    # re-multiplying each split and summing gives binom(p+q, p) * identity
    p, q = 2, 2
    word = ("f1", "f2", "f3", "f4")
    total = Multivector(4)
    for sign, left, right in pi_pq(word, p, q):
        total.add_word(left + right, F(sign))
    assert total.terms == {word: F(math.comb(4, 2))}


def test_pi_pq_length_mismatch():
    with pytest.raises(ValueError):
        pi_pq(("a", "b"), 2, 1)


# ------------------------------------------------------------- determinants

def test_wedge_pairing_identity_matrix():
    pair = lambda a, b: F(1) if a == b else F(0)
    assert wedge_pairing(("x", "y"), ("x", "y"), pair) == 1
    assert wedge_pairing(("x", "y"), ("y", "x"), pair) == -1  # column swap


def test_wedge_pairing_column_swap_negates():
    rng = random.Random(1)
    entries = {}
    def pair(a, b):
        key = (a, b)
        if key not in entries:
            entries[key] = rand_cyclo(rng)
        return entries[key]
    rows = ("a1", "a2", "a3")
    v1 = wedge_pairing(rows, ("p", "q", "r"), pair)
    v2 = wedge_pairing(rows, ("q", "p", "r"), pair)
    assert v1 == -v2


def test_det_against_permutation_expansion():
    rng = random.Random(2)
    m = [[rand_cyclo(rng) for _ in range(3)] for _ in range(3)]
    ref = None
    for perm in itertools.permutations(range(3)):
        term = m[0][perm[0]] * m[1][perm[1]] * m[2][perm[2]] * perm_sign(perm)
        ref = term if ref is None else ref + term
    assert det_exact(m) == ref


def test_wedge_pairing_grade_mismatch():
    with pytest.raises(ValueError):
        wedge_pairing(("a",), ("x", "y"), lambda a, b: F(1))


# --------------------------------------------------------------- matchings

def test_chained_matchings_count():
    # (2m)! / (2^m m!) perfect matchings on 2m points
    for m in (1, 2, 3, 4):
        got = len(list(chained_matchings(range(2 * m))))
        assert got == math.factorial(2 * m) // (2 ** m * math.factorial(m))


def test_v_pairing_k2():
    pair = lambda a, b: F(7) if (a, b) == ("f1", "f2") else F(99)
    assert v_pairing(2, ("f1", "f2"), pair) == 14  # 2! * <f1,f2>


def test_v_pairing_k3_signed_sum():
    vals = {("f1", "f2"): F(2), ("f3", "f4"): F(3),
            ("f1", "f3"): F(5), ("f2", "f4"): F(7),
            ("f1", "f4"): F(11), ("f2", "f3"): F(13)}
    pair = lambda a, b: vals[(a, b)]
    # 3! * (<12><34> - <13><24> + <14><23>)
    assert v_pairing(3, ("f1", "f2", "f3", "f4"), pair) == 6 * (6 - 35 + 143)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_v_pairing_matches_bruteforce(k):
    rng = random.Random(k)
    labels = tuple(f"f{i}" for i in range(2 * (k - 1)))
    vals = {}
    def pair(a, b):
        key = (a, b) if a <= b else (b, a)
        if key not in vals:
            vals[key] = rand_cyclo(rng)
        return vals[key] if a <= b else -vals[key]
    assert v_pairing(k, labels, pair) == v_pairing_bruteforce(k, labels, pair)


def test_v_pairing_alternating():
    rng = random.Random(9)
    labels = ("f1", "f2", "f3", "f4")
    vals = {}
    def pair(a, b):
        key = (a, b) if a <= b else (b, a)
        if key not in vals:
            vals[key] = rand_cyclo(rng)
        return vals[key] if a <= b else -vals[key]
    v1 = v_pairing(3, labels, pair)
    v2 = v_pairing(3, ("f2", "f1", "f3", "f4"), pair)
    assert v1 == -v2


def test_v_pairing_arity():
    with pytest.raises(ValueError):
        v_pairing(3, ("a", "b"), lambda a, b: F(1))


# ------------------------------------------------------------ k-fold value

def test_ceresa_k1_is_phi1():
    phi1 = lambda t: F(42) if t == ("f1", "f2", "f3") else F(0)
    assert ceresa_eval_k(1, ("f1", "f2", "f3"), phi1, lambda a, b: F(0)) == 42


def test_ceresa_collapses_to_single_term():
    # pairings vanish except the designated chain <f4,f5> = <f6,f7> = N^2
    k, nn = 3, 25
    labels = tuple(f"f{i}" for i in range(1, 2 * k + 2))
    chain = {("f4", "f5"), ("f6", "f7")}
    def pair(a, b):
        if (a, b) in chain:
            return F(nn)
        if (b, a) in chain:
            return F(-nn)
        return F(0)
    phi1 = lambda t: F(17) if t == ("f1", "f2", "f3") else F(5)
    got = ceresa_eval_k(k, labels, phi1, pair)
    assert got == 17 * nn ** (k - 1)


@pytest.mark.parametrize("k", [2, 3])
def test_ceresa_matches_bruteforce_exact_cyclotomic(k):
    rng = random.Random(10 + k)
    labels = tuple(range(2 * k + 1))
    pairs = {}
    def pair(a, b):
        key = (a, b) if a <= b else (b, a)
        if key not in pairs:
            pairs[key] = rand_cyclo(rng)
        return pairs[key] if a <= b else -pairs[key]
    heads = {}
    def phi1(t):
        if t not in heads:
            heads[t] = rand_cyclo(rng)
        return heads[t]
    assert ceresa_eval_k(k, labels, phi1, pair) == \
        ceresa_eval_k_bruteforce(k, labels, phi1, pair)


def test_ceresa_arity():
    with pytest.raises(ValueError):
        ceresa_eval_k(2, ("a", "b", "c"), lambda t: F(1), lambda a, b: F(1))
