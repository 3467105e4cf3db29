"""Coefficient-list versions of the series engine's exact-integer kernels.

``specfun`` evaluates the defect polynomial packed into one integer, trims
the rows of the tail solve and precomputes the term ratios of the partial
sum; these are the straightforward loops it replaced, kept as references
that must return the same integers.  ``log_fixed`` is the mpmath formula that
``specfun._log_fixed`` replaced.

``ln_gamma``, ``gamma_quotient``, ``hyp_unit_sum``, ``_hyp_unit_series`` and
``h_term`` are the set-up that wraps the kernels as it was on Fractions: every
parameter made a Fraction, the margin summed and compared as a Fraction, the
floor shift through ``float``, ``qscale`` a product of Fractions and the gamma
weights keyed on Fractions.  ``specfun`` now reads each parameter's numerator and
denominator instead; these must give the same balls and the same exceptions.
The one edit is that the margin reaches ``_solve_tail_series`` as its
(numerator, denominator) pair, the form the tail solve now takes.
"""

import math
from collections import Counter
from fractions import Fraction

import mpmath
from mpmath.libmp import from_int, from_man_exp, mpf_exp, mpf_log, round_floor, to_fixed

from fermatvol.specfun import (_EXP_INT_BITS_MAX, _EXP_ULPS, _STIRLING_ORDER_MAX,
                               DivergenceError, DomainError, PrecisionError, _bits, _certified,
                               _fixed_mpf, _fixed_point_sum,
                               _ln_gamma_fixed, _poly_mul, _ratio_eventually_below_one,
                               _round_product, _series_polys, _solve_tail_series,
                               _tail_defect_majorant)


def log_fixed(n, prec):
    """floor(2^prec ln n) by mpmath's floor-rounded log at 8 or more guard bits."""
    lp = prec + n.bit_length().bit_length() + 8
    return to_fixed(mpf_log(from_int(n), lp, round_floor), prec)


def solve_tail_series(P, Q, s, K):
    """(V, L) of ``specfun._solve_tail_series`` with full-width rows of C."""
    width = K + 2
    Qx = Q + [0] * (width - len(Q))
    # [P (1+x)^{1-k}]_i for i < K+2: start from P (1+x), then divide by (1+x) per row
    row = _poly_mul(P, [1, 1])
    row += [0] * (width - len(row))
    C = []
    for _ in range(K):
        C.append([qc - pc for qc, pc in zip(Qx, row)])
        prev = 0
        for i in range(width):
            prev = row[i] - prev
            row[i] = prev
    sn, sd = s.numerator, s.denominator
    V = []
    L = 1
    for m in range(K + 1):
        R = L * Qx[m]
        for k in range(m):
            R -= V[k] * C[k][m + 1 - k]
        # v_m = (R / (L D^d)) / (s + m)
        num, den = sd * R, Q[0] * (sn + m * sd)
        g = math.gcd(num, den)
        f = den // g
        if f > 1:
            L *= f
            V = [x * f for x in V]
        V.append(num // g)
    return V, L


def defect_poly(P, Q, V, L, K):
    """G = (1+x)^K (Q V - x L Q) - P sum_k V_k x^k (1+x)^{K+1-k} by list products."""
    pwK = [math.comb(K, i) for i in range(K + 1)]
    G = _poly_mul(pwK, _poly_mul(Q, V))
    sub = _poly_mul(Q, [L * c for c in pwK])          # times x
    acc = [0] * (K + 2)                                # sum_k V_k x^k (1+x)^{K+1-k}
    for k, Vk in enumerate(V):
        if Vk == 0:
            continue
        for i in range(K + 2 - k):
            acc[k + i] += Vk * math.comb(K + 1 - k, i)
    sub2 = _poly_mul(P, acc)
    G += [0] * (max(len(sub) + 1, len(sub2)) - len(G))
    for i, c in enumerate(sub):
        G[i + 1] -= c
    for i, c in enumerate(sub2):
        G[i] -= c
    return G


def tail_defect_majorant(P, Q, V, L, K, M):
    """(hn, hd) of ``specfun._tail_defect_majorant`` from ``defect_poly``."""
    G = defect_poly(P, Q, V, L, K)
    if any(G[:K + 2]):
        raise AssertionError("tail series solve lost cancellation")
    hn = 0
    for h in G[K + 2:]:
        hn = hn * M + abs(h)
    return hn, L * Q[0] * M ** (len(G) - K - 3)


def partial_sum(uppers, lowers, terms, prec):
    """(S, S_err, T, T_err) of ``specfun._partial_sum``, the ratio built per step."""
    ups = [(a.numerator, a.denominator) for a in uppers]
    lows = [(b.numerator, b.denominator) for b in lowers]
    num0 = math.prod(bd for _, bd in lows)
    den0 = math.prod(ad for _, ad in ups)
    T = 1 << prec
    S = S_err = E = 0
    for n in range(terms):
        S += T
        S_err += E
        num, den = num0, (n + 1) * den0
        for an, ad in ups:
            num *= n * ad + an
        for bn, bd in lows:
            den *= n * bd + bn
        T = T * num // den
        E = -(-E * abs(num) // abs(den)) + 1
    return S, S_err, T, E


def stirling_order(y, digits):
    """J of ``specfun._stirling_order``, every term recomputed per J up to the cap."""
    target = -(digits + 4) * math.log(10)
    log2, log2pi, logy = math.log(2), math.log(2 * math.pi), math.log(y)
    for J in range(1, _STIRLING_ORDER_MAX + 1):
        n = 2 * J + 2
        logB = log2 + math.lgamma(n + 1) - n * log2pi
        logbound = logB - math.log((n) * (n - 1)) - (n - 1) * logy
        if logbound <= target:
            return J
    return None


def _rational(x):
    # an argument as a Fraction, without re-wrapping one that already is
    return x if isinstance(x, Fraction) else Fraction(x)


def ln_gamma(x, digits=30):
    q = _rational(x)
    if q <= 0:
        raise DomainError(f"ln_gamma requires a positive argument, got {q}")
    value, round_err, rem, prec = _ln_gamma_fixed(q, digits)
    return _certified(value, round_err + rem, prec, digits, "ln_gamma", relative=False)


def gamma_quotient(numerators, denominators, digits=30):
    nums = [_rational(a) for a in numerators]
    dens = [_rational(b) for b in denominators]
    for a in nums + dens:
        if a <= 0:
            raise DomainError(f"gamma_quotient argument {a} <= 0")
    # each distinct argument is evaluated once, with its net multiplicity
    weights = Counter(nums)
    weights.subtract(dens)
    # x = sum w v within eps = sum |w| e, exactly: S and E over 2^p, p the largest
    # precision of the log-gammas (each a ball mid 2^exp within rad 2^exp)
    logs = [(w, ln_gamma(a, digits + 12)) for a, w in weights.items() if w]
    p = max([-v.exp for _, v in logs], default=0)
    S = sum([w * v.mid << (p + v.exp) for w, v in logs])
    E = sum([abs(w) * v.rad << (p + v.exp) for w, v in logs])
    if E >> p:
        raise PrecisionError(f"gamma quotient log bound {mpmath.nstr(_fixed_mpf(E, p), 3)} >= 1")
    prec = _bits(digits) + 40
    # e^x < 2^ib, since log2(e) < 3/2
    ib = max(1, (3 * ((S >> p) + 1) + 1) // 2)
    if ib > _EXP_INT_BITS_MAX:
        raise PrecisionError(f"gamma quotient needs up to {ib} integer bits, above "
                             f"{_EXP_INT_BITS_MAX}")
    value = to_fixed(mpf_exp(from_man_exp(S, -p), prec + ib + 8, round_floor), prec)
    err = -(-(value + _EXP_ULPS) * E * ((1 << p) + E) >> 2 * p) + _EXP_ULPS
    return _certified(value, err, prec, digits, "gamma quotient")


def hyp_unit_sum(uppers, lowers, digits=30):
    uppers = [_rational(u) for u in uppers]
    lowers = [_rational(l) for l in lowers]
    for low in lowers:
        if low <= 0 and low.denominator == 1:
            raise DomainError(f"lower parameter {low} is a non-positive integer")
    stops = [-int(u) for u in uppers if u <= 0 and u.denominator == 1]
    if stops:
        return _fixed_point_sum(uppers, lowers, min(stops) + 1, digits)
    margin = sum(lowers) - sum(uppers)
    if margin <= 0:
        raise DivergenceError(
            f"unit-argument series diverges: margin {margin} <= 0 for {uppers}; {lowers}")
    # the fastest measured (M, K) whose bounds are no wider than those of M = 24 digits
    return _hyp_unit_series(uppers, lowers, margin, digits, 4 * digits, int(digits * 0.46) + 8)


def _hyp_unit_series(uppers, lowers, margin, digits, M, K):
    # all linear factors must be positive (and comfortably so for the
    # negative-parameter Q-majorization) from index M on
    floor_shift = max([0] + [int(math.floor(-2 * float(x))) + 1
                             for x in uppers + lowers if x < 0])
    M = max(M, floor_shift + 2)
    P, Q = _series_polys(uppers, lowers)
    for _attempt in range(5):
        if _ratio_eventually_below_one(P, Q, M):
            V, L = _solve_tail_series(uppers, lowers, K,
                                      (P, Q, (margin.numerator, margin.denominator)))
            hn, hd = _tail_defect_majorant(P, Q, V, L, K, M)
            # Q(n) >= n^deg * qscale for n >= M (negative lowers shrink the product)
            qscale = math.prod([1 + b / M for b in lowers if b < 0])
            # the exact W(M) = M V(1/M) = Wn / Wd, and E = |t_M| H(M) (M^{-K-1} + M^{-K}/K)
            Wn = 0
            for Vk in V:
                Wn = Wn * M + Vk
            result = _fixed_point_sum(uppers, lowers, M, digits,
                                      (Wn, L * M ** (K - 1), hn * qscale.denominator * (K + M),
                                       hd * qscale.numerator * K * M ** (K + 1)))
            if result is not None:
                return result
        M *= 2
        K += K // 2
    raise PrecisionError(f"series tail bound did not reach 10^-{digits} "
                         f"for {uppers}; {lowers}")


def h_term(n, h, digits):
    """``ceresa._h_term`` on Fraction arithmetic, through the functions above."""
    hn = Fraction(h, n)
    gnum, gden, uppers = [1 - hn] * 4, [1 - 2 * hn] * 2, [hn, hn, 1 - 2 * hn]
    return _round_product([gamma_quotient(gnum, gden, digits + 6),
                           hyp_unit_sum(uppers, [1, 1], digits + 6)], _bits(digits) + 40)
