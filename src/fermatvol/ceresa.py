r"""Top-level invariant values, non-integrality verdicts and table output.

The quantity evaluated everywhere below is

    f(N,k) = k! * 2 * N^{2k} * sum_{0 < h < N/2, gcd(h,N)=1}
             Gamma(1-h/N)^4 / Gamma(1-2h/N)^2
             * 3F2(h/N, h/N, 1-2h/N; 1, 1; 1),

whose distance from the nearest integer certifies that k! times the
degree-k cycle is nontrivial modulo algebraic equivalence.  The terms
of the inner sum are k-independent and cached; their sum, the factorial
and power prefactor, the fractional part and the multiples are exact
integer arithmetic applied last, and the working precision is escalated
automatically so the prefactor never eats the requested fractional
accuracy.

Verdicts are deliberately conservative: ``non-integral`` requires the
distance to the nearest integer to exceed ten times the certified error
bound, anything less is ``inconclusive``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Union

import mpmath

from . import _memo
from .specfun import (BoundedReal, DomainError, PrecisionError, _bits, _certified,
                      _check_digits, _fixed_mpf, _gamma_hyp, _round_product, gamma_quotient,
                      hyp_unit_sum)

MARGIN_FACTOR = 10  # non-integrality requires distance > MARGIN_FACTOR * err


@dataclass
class CeresaResult:
    n: int
    k: int
    value: BoundedReal
    frac: mpmath.mpf
    int_distance: mpmath.mpf
    err: mpmath.mpf
    h_terms: int
    verdict: str  # "non-integral" | "inconclusive"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "value": mpmath.nstr(self.value.value, 40),
            "frac": mpmath.nstr(self.frac, 30),
            "int_distance": mpmath.nstr(self.int_distance, 30),
            "err": mpmath.nstr(self.err, 6),
            "h_terms": self.h_terms,
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def csv_row(self) -> str:
        return (f"{self.n},{self.k},{mpmath.nstr(self.frac, 17)},"
                f"{mpmath.nstr(self.err, 6)},{self.verdict}")

    def frac_6digits(self) -> str:
        return mpmath.nstr(self.frac, 6)


@dataclass
class RowFailure:
    n: int
    k: int
    message: str


def verdict_for(int_distance, err) -> str:
    """The margin rule: certify non-integrality only with 10x headroom."""
    return "non-integral" if int_distance > MARGIN_FACTOR * err else "inconclusive"


def genus(n: int) -> int:
    return (n - 1) * (n - 2) // 2


def admissible_k(n: int) -> range:
    return range(1, genus(n) - 1)


def holomorphic_twists(n: int) -> list[int]:
    return [h for h in range(1, (n - 1) // 2 + 1) if math.gcd(h, n) == 1]


def _bucket(digits: int) -> int:
    return 10 * math.ceil(digits / 10)


def _prefactor(n: int, k: int) -> int:
    return math.factorial(k) * 2 * n ** (2 * k)


def _decimal_len(p: int) -> int:
    """len(str(p)), counted from bit_length, so Python's int-to-str digit limit
    never applies."""
    n = abs(p)
    # floor((b - 1) log10 2) + 1 is within one of the true count; fix it exactly
    d = int((n.bit_length() - 1) * 0.30102999566398120) + 1 if n else 1
    while n >= 10 ** d:
        d += 1
    while d > 1 and n < 10 ** (d - 1):
        d -= 1
    return d + (p < 0)


def _inner_digits(prefactor: int, digits: int) -> int:
    """Digits of the inner sum such that at least ``digits`` fractional digits
    (with a floor of 8, per the margin rule's needs) survive the exact prefactor."""
    return _bucket(max(digits, 8) + _decimal_len(prefactor) + 10)


@_memo(4096)
def _h_term(n: int, h: int, digits: int) -> BoundedReal:
    # h/N, 1 - h/N and 1 - 2h/N, each built once from its ints
    hn, a, b = Fraction(h, n), Fraction(n - h, n), Fraction(n - 2 * h, n)
    return _gamma_hyp([a] * 4, [b] * 2, [hn, hn, b], [1, 1], digits)


def _certify(n: int, k: int, prefactor: int, digits: int,
             terms: Callable[[int], list[BoundedReal]]) -> CeresaResult:
    """prefactor * sum of terms with certified error, fractional part and verdict.

    ``terms(inner_digits)`` returns the terms of the inner sum, each certified
    to the inner precision that ``_inner_digits`` escalates.  Their values and
    bounds are binary fractions, so the sum, the product with the integer
    prefactor, the fractional part and the distance to the nearest integer
    are exact.  Raises PrecisionError when the bound exceeds 10^-digits, and
    DomainError when digits < 1.
    """
    _check_digits(digits)
    parts = terms(_inner_digits(prefactor, digits))
    total = sum(parts)
    v, e, prec = total.mid * prefactor, total.rad * prefactor, -total.exp
    value = _certified(v, e, prec, digits, "certified", relative=False)
    frac = v % (1 << prec)
    dist = min(frac, (1 << prec) - frac)
    return CeresaResult(n=n, k=k, value=value, frac=_fixed_mpf(frac, prec),
                        int_distance=_fixed_mpf(dist, prec), err=value.err,
                        h_terms=len(parts), verdict=verdict_for(dist, e))


def f_value(n: int, k: int, digits: int = 30) -> CeresaResult:
    """f(N,k) with certified error, fractional part and verdict; at least
    ``digits`` fractional digits survive the prefactor k! * 2 * N^{2k}."""
    if n < 4:
        raise DomainError("degree must be at least 4")
    if not (1 <= k <= genus(n) - 2):
        raise DomainError(f"k={k} outside [1, {genus(n) - 2}] for N={n}")
    return _certify(n, k, _prefactor(n, k), digits,
                    lambda inner: [_h_term(n, h, inner) for h in holomorphic_twists(n)])


def _row(args) -> Union[CeresaResult, RowFailure]:
    n, k, digits = args
    try:
        return f_value(n, k, digits)
    except Exception as exc:  # report, never silently skip a row
        return RowFailure(n, k, f"{type(exc).__name__}: {exc}")


def table1(n_values: Iterable[int], k: int = 1, digits: int = 30,
           threads: int = 1) -> list[Union[CeresaResult, RowFailure]]:
    """Fractional parts of f(N,k) for the given degrees, ascending.

    Rows are independent work items; results are sorted by degree so the
    output is identical for any thread count.  The worker count is capped
    at the number of rows and of CPUs.
    """
    ns = sorted(set(n_values))
    jobs = [(n, k, digits) for n in ns]
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_row, jobs))
    else:
        rows = [_row(j) for j in jobs]
    rows.sort(key=lambda r: r.n)
    return rows


@dataclass
class ScanResult:
    n: int
    k: int
    m_max: int
    verified_up_to: int
    first_inconclusive: Optional[int]
    err_per_unit: mpmath.mpf

    @property
    def all_verified(self) -> bool:
        return self.first_inconclusive is None

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n, "k": self.k, "m_max": self.m_max,
            "verified_up_to": self.verified_up_to,
            "first_inconclusive": self.first_inconclusive,
            "err_per_unit": mpmath.nstr(self.err_per_unit, 6),
        }, sort_keys=True)


def multiples_scan(n: int, k: int, m_max: int, digits: int = 30) -> ScanResult:
    """Verify that m * f(N,k) stays non-integral for 1 <= m <= m_max.

    With m times the base bound, m fails the 10x margin rule exactly when some
    p/m lies in [frac - c, frac + c], c = MARGIN_FACTOR * err, so the first failing
    m is the least denominator there: a continued-fraction descent (Concrete
    Mathematics, section 4.5) finds it exactly in O(log 1/c) steps, whatever m_max.
    """
    if m_max < 1:
        raise DomainError("m_max must be at least 1")
    base = f_value(n, k, digits)
    ball = BoundedReal(base.frac, base.err)     # frac and err as ints over 2^prec
    step, unit, prec = ball.mid, ball.rad, -ball.exp
    if 10 * m_max * unit >= 1 << prec:
        raise PrecisionError(
            f"m_max * err = {mpmath.nstr(m_max * base.err, 3)} >= 0.1; raise digits")
    # [ln/ld, hn/hd] is this level's interval, whose y maps back to denominator
    # q1 * y + q0; unless it holds its least integer t >= ln/ld, y = t - 1 + 1/y'
    c = MARGIN_FACTOR * unit
    ln, ld, hn, hd = step - c, 1 << prec, step + c, 1 << prec
    q0, q1 = 1, 0
    while (t := -(-ln // ld)) * hd > hn:
        ln, ld, hn, hd = hd, hn - (t - 1) * hd, ld, ln - (t - 1) * ld
        q0, q1 = q1, (t - 1) * q1 + q0
    first = q1 * t + q0
    return ScanResult(n=n, k=k, m_max=m_max, verified_up_to=min(first - 1, m_max),
                      first_inconclusive=first if first <= m_max else None,
                      err_per_unit=base.err)


# ---------------------------------------------------------------------------
# Klein quartic value
# ---------------------------------------------------------------------------

def klein_value(k: int, digits: int = 30) -> CeresaResult:
    """k! * 2 * 7^{2k} (G[3/7,6/7;2/7]^2 + G[5/7,6/7;4/7]^2 + G[3/7,5/7;1/7]^2)
    * 3F2(1/7, 2/7, 4/7; 1, 1; 1), the degree-7 value at the quartic triple.

    Note: this closed form, the traced harmonic volume over twists {1,2,4}
    (``harmonic_volume_trace``) and plain mpmath gamma/hyp3f2 at 60-120 dps all
    give the k=13 fractional part 0.0703575612...; the acceptance suite
    checks it against the mpmath evaluation.  The previously reported
    0.96275 is not a value of this formula and is not reproduced.
    """
    if not (1 <= k <= 13):
        raise DomainError(f"k={k} outside [1, 13]")
    return _certify(7, k, _prefactor(7, k), digits, _klein_terms)


def _klein_terms(inner: int) -> list[BoundedReal]:
    s7 = Fraction(1, 7)
    gs = [gamma_quotient([x * s7, y * s7], [z * s7], inner + 6)
          for (x, y, z) in ((3, 6, 2), (5, 6, 4), (3, 5, 1))]
    f = hyp_unit_sum([s7, 2 * s7, 4 * s7], [1, 1], inner + 6)
    return [_round_product([g, g, f], _bits(inner) + 40) for g in gs]

