"""Coefficient-list versions of the series engine's exact-integer kernels.

``specfun`` evaluates the defect polynomial packed into one integer, trims
the rows of the tail solve and precomputes the term ratios of the partial
sum; these are the straightforward loops it replaced, kept as references
that must return the same integers.  ``log_fixed`` is the mpmath formula that
``specfun._log_fixed`` replaced.
"""

import math

from mpmath.libmp import from_int, mpf_log, round_floor, to_fixed

from fermatvol.specfun import _poly_mul


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
    """J of ``specfun._stirling_order``, every term recomputed per J."""
    target = -(digits + 4) * math.log(10)
    log2, log2pi, logy = math.log(2), math.log(2 * math.pi), math.log(y)
    for J in range(1, 260):
        n = 2 * J + 2
        logB = log2 + math.lgamma(n + 1) - n * log2pi
        logbound = logB - math.log((n) * (n - 1)) - (n - 1) * logy
        if logbound <= target:
            return J
    return None
