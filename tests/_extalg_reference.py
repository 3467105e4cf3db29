"""Exterior-algebra combinatorics over exact coefficients, for the tests.

No certified value in ``fermatvol`` calls these sums; the tests use them
to check the k-dependence of ``f_value`` and ``klein_value`` and the
permutation identities behind it.  The three permutation sums, the
(p,q)-shuffle expansion, the chained-matching pairing of the
degree-2(k-1) power class, and the constrained sum evaluating the
k-fold invariant through the k=1 functional, are generated directly
(never by filtering the full symmetric group, which the brute-force
references at the end do as an oracle for small grades).
Coefficients are generic: anything with +, *, unary minus and integer
multiples works, so the same code runs over Q(mu_N) elements in exact
identities and over bounded complex values in the analytic assembly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence


def perm_sign(perm: Sequence[int]) -> int:
    """Sign via inversion count; perm is a one-line list of distinct ints."""
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv & 1 else 1


@dataclass(frozen=True)
class WedgeWord:
    """An ordered wedge of distinct basis labels with a bookkeeping sign.

    Canonicalization sorts the labels and absorbs the permutation parity
    into the sign; a repeated label collapses the word to zero.
    """
    factors: tuple
    sign: int = 1

    @classmethod
    def make(cls, labels: Iterable[Hashable], sign: int = 1):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            return None  # contains a repeat, word is zero
        order = sorted(range(len(labels)), key=lambda i: _label_key(labels[i]))
        sorted_labels = tuple(labels[i] for i in order)
        return cls(sorted_labels, sign * perm_sign(order))

    @property
    def grade(self) -> int:
        return len(self.factors)


def _label_key(label):
    return (repr(type(label)), repr(label))


class Multivector:
    """Formal sum of canonical wedge words with ring coefficients."""

    def __init__(self, n_grade: int, terms: dict | None = None):
        self.grade = n_grade
        self.terms: dict = {}
        for word, coeff in (terms or {}).items():
            self._accumulate(word, coeff)

    def _accumulate(self, word: tuple, coeff):
        if len(word) != self.grade:
            raise ValueError(f"grade mismatch: word {len(word)} in grade-{self.grade} multivector")
        if word in self.terms:
            self.terms[word] = self.terms[word] + coeff
        else:
            self.terms[word] = coeff
        if _is_exact_zero(self.terms[word]):
            del self.terms[word]

    def add_word(self, labels: Iterable[Hashable], coeff) -> "Multivector":
        w = WedgeWord.make(labels)
        if w is not None:
            self._accumulate(w.factors, coeff * w.sign if w.sign != 1 else coeff)
        return self

    def __add__(self, other: "Multivector") -> "Multivector":
        if other.grade != self.grade:
            raise ValueError("grade mismatch")
        out = Multivector(self.grade, dict(self.terms))
        for w, c in other.terms.items():
            out._accumulate(w, c)
        return out

    def __eq__(self, other):
        return isinstance(other, Multivector) and self.grade == other.grade \
            and self.terms == other.terms

    def __repr__(self):
        return f"Multivector(grade={self.grade}, {len(self.terms)} terms)"


def _is_exact_zero(c) -> bool:
    try:
        return c == 0
    except TypeError:
        return False


# ---------------------------------------------------------------------------
# shuffle expansion
# ---------------------------------------------------------------------------

def pi_pq(word: Sequence[Hashable], p: int, q: int):
    """(p,q)-shuffle expansion of a (p+q)-wedge.

    Returns a list of (sign, left_labels, right_labels) over the
    binomial(p+q, p) splits with both sides kept in the word's order.
    """
    labels = tuple(word)
    if len(labels) != p + q:
        raise ValueError(f"word length {len(labels)} != p+q = {p + q}")
    out = []
    for left_pos in itertools.combinations(range(p + q), p):
        left_set = set(left_pos)
        right_pos = [i for i in range(p + q) if i not in left_set]
        perm = list(left_pos) + right_pos
        out.append((perm_sign(perm),
                    tuple(labels[i] for i in left_pos),
                    tuple(labels[i] for i in right_pos)))
    return out


# ---------------------------------------------------------------------------
# determinant pairing
# ---------------------------------------------------------------------------

def wedge_pairing(homology_word: Sequence[Hashable], cohomology_word: Sequence[Hashable],
                  pair_fn: Callable):
    """det( pair_fn(alpha_i, phi_j) ), exact over the coefficient ring."""
    rows = tuple(homology_word)
    cols = tuple(cohomology_word)
    if len(rows) != len(cols):
        raise ValueError("grade mismatch in wedge pairing")
    matrix = [[pair_fn(a, f) for f in cols] for a in rows]
    return det_exact(matrix)


def det_exact(matrix):
    """Laplace expansion with column-subset memoization (grades <= ~10)."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    memo: dict = {}

    def minor(row: int, cols: tuple):
        if row == n:
            return 1
        key = cols
        if key in memo:
            return memo[key]
        acc = None
        sign = 1
        for idx, c in enumerate(cols):
            entry = matrix[row][c]
            sub = minor(row + 1, cols[:idx] + cols[idx + 1:])
            term = entry * sub if sign > 0 else -(entry * sub)
            acc = term if acc is None else acc + term
            sign = -sign
        memo[key] = acc
        return acc

    return minor(0, tuple(range(n)))


# ---------------------------------------------------------------------------
# constrained permutation sums
# ---------------------------------------------------------------------------

def chained_matchings(indices: Sequence[int]) -> Iterator[tuple[tuple[int, int], ...]]:
    """Perfect matchings of the index list with the chain ordering:
    within each pair i<j, and pairs sorted by their smaller element.

    Generated by repeatedly pairing the smallest unused index with any
    larger unused one, which enumerates each admissible permutation
    exactly once.
    """
    idx = sorted(indices)

    def rec(remaining: tuple):
        if not remaining:
            yield ()
            return
        first, rest = remaining[0], remaining[1:]
        for i, partner in enumerate(rest):
            for tail in rec(rest[:i] + rest[i + 1:]):
                yield ((first, partner),) + tail

    return rec(tuple(idx))


def v_pairing(k: int, labels: Sequence[Hashable], pair_fn: Callable):
    """k! times the signed chained-matching sum over 2(k-1) labels.

    The permutation sign is taken on the flattened one-line arrangement
    (s(1), s(2), ..., s(2k-2)).
    """
    labels = tuple(labels)
    if len(labels) != 2 * (k - 1):
        raise ValueError(f"expected 2(k-1) = {2 * (k - 1)} labels, got {len(labels)}")
    if k == 1:
        return math.factorial(1)  # empty product: the integer 1 (times 1!)
    acc = None
    for matching in chained_matchings(range(len(labels))):
        flat = [i for pair in matching for i in pair]
        sign = perm_sign(flat)
        prod = None
        for (i, j) in matching:
            val = pair_fn(labels[i], labels[j])
            prod = val if prod is None else prod * val
        term = prod if sign > 0 else -prod
        acc = term if acc is None else acc + term
    return acc * math.factorial(k)


def ceresa_eval_k(k: int, labels: Sequence[Hashable],
                  phi1_fn: Callable, pair_fn: Callable):
    """Constrained-permutation sum reducing the k-fold functional to k=1.

    Over 2k+1 labels: choose s(1)<s(2)<s(3) for the degree-3 functional,
    chain-match the remaining 2(k-1) positions, and weight by the sign
    of the full arrangement.  The k! normalization is NOT included; the
    degree-k invariant cleared by k! equals k! times this sum.
    """
    labels = tuple(labels)
    if len(labels) != 2 * k + 1:
        raise ValueError(f"expected 2k+1 = {2 * k + 1} labels, got {len(labels)}")
    acc = None
    all_pos = range(len(labels))
    for triple in itertools.combinations(all_pos, 3):
        rest = [i for i in all_pos if i not in triple]
        head = phi1_fn((labels[triple[0]], labels[triple[1]], labels[triple[2]]))
        if _is_exact_zero(head):
            continue
        for matching in chained_matchings(rest):
            flat = list(triple) + [i for pair in matching for i in pair]
            sign = perm_sign(flat)
            prod = head
            for (i, j) in matching:
                prod = prod * pair_fn(labels[i], labels[j])
            term = prod if sign > 0 else -prod
            acc = term if acc is None else acc + term
    return acc


# ---------------------------------------------------------------------------
# brute-force references (exported for the oracle tests)
# ---------------------------------------------------------------------------

def v_pairing_bruteforce(k: int, labels: Sequence[Hashable], pair_fn: Callable):
    """Filter all of S_{2(k-1)} by the stated ordering constraints."""
    labels = tuple(labels)
    m = 2 * (k - 1)
    if k == 1:
        return math.factorial(1)
    acc = None
    for perm in itertools.permutations(range(m)):
        if any(perm[2 * i] > perm[2 * i + 1] for i in range(k - 1)):
            continue
        if any(perm[2 * i] > perm[2 * i + 2] for i in range(k - 2)):
            continue
        sign = perm_sign(perm)
        prod = None
        for i in range(k - 1):
            val = pair_fn(labels[perm[2 * i]], labels[perm[2 * i + 1]])
            prod = val if prod is None else prod * val
        term = prod if sign > 0 else -prod
        acc = term if acc is None else acc + term
    return acc * math.factorial(k)


def ceresa_eval_k_bruteforce(k: int, labels, phi1_fn, pair_fn):
    """Filter all of S_{2k+1} by the stated ordering constraints."""
    labels = tuple(labels)
    m = 2 * k + 1
    acc = None
    for perm in itertools.permutations(range(m)):
        if not (perm[0] < perm[1] < perm[2]):
            continue
        if any(perm[2 * i + 1] > perm[2 * i + 2] for i in range(1, k)):
            continue
        if any(perm[2 * i + 1] > perm[2 * i + 3] for i in range(1, k - 1)):
            continue
        sign = perm_sign(perm)
        prod = phi1_fn((labels[perm[0]], labels[perm[1]], labels[perm[2]]))
        for i in range(1, k):
            prod = prod * pair_fn(labels[perm[2 * i + 1]], labels[perm[2 * i + 2]])
        term = prod if sign > 0 else -prod
        acc = term if acc is None else acc + term
    return acc
