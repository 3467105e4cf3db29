"""Gauss-Jacobi quadrature for the ordered-simplex beta-type integral.

Every sub-integral produced by the splitting in
``specfun.euler_double_integral`` has algebraic singularities only at
coordinate endpoints, absorbed exactly into Jacobi weights; the
remaining factors are analytic on the closed interval, so fixed-order
Gauss-Jacobi converges geometrically.  Accuracy is estimated a
posteriori by doubling the order until two consecutive levels agree.

This module deliberately avoids hypergeometric series, gamma functions
and incomplete-beta routines: nodes and weights come from the
Golub-Welsch eigenvalue method (scipy), keeping the oracle independent
of the closed forms it is used to check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import mp
from scipy.special import roots_jacobi

_TOL = 1e-12        # stop doubling once two consecutive orders agree this well
_DOUBLINGS = 4      # order-doubling budget per sub-integral
# oracle-test --n 15, the largest the CLI admits, can ask for at most 221 exponent keys
# x 5 orders = 1,105 distinct rules (2.6 MB of nodes and weights), so this holds its
# whole working set and still bounds the cache for callers passing arbitrary rationals
_RULES_MAX = 2048


@lru_cache(maxsize=_RULES_MAX)
def _jacobi_01(n: int, left_exp: float, right_exp: float):
    """Nodes/weights on [0,1] for weight x^left_exp * (1-x)^right_exp.

    Cached, so every caller shares the arrays; they are read-only."""
    # scipy convention: weight (1-x)^alpha (1+x)^beta on [-1, 1]
    x, w = roots_jacobi(n, right_exp, left_exp)
    nodes = (x + 1.0) / 2.0
    weights = w * 0.5 ** (left_exp + right_exp + 1.0)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _converge(eval_at, start_order, max_doublings, tol):
    order = start_order
    prev = eval_at(order)
    best_err = None
    for _ in range(max_doublings):
        order *= 2
        cur = eval_at(order)
        err = abs(cur - prev)
        prev = cur
        best_err = err
        if err <= tol:
            break
    return prev, (best_err if best_err is not None else abs(prev))


def simplex_beta_integral(a1: Fraction, b1: Fraction, a2: Fraction, b2: Fraction):
    """See specfun.euler_double_integral for the decomposition."""
    from .specfun import BoundedReal  # local import avoids a cycle

    fa1, fb1, fa2, fb2 = float(a1), float(b1), float(a2), float(b2)
    n0 = 24

    # region A: 0 <= v <= 1/2, u = v w
    def region_a(order):
        wn, ww = _jacobi_01(order, fa1 - 1.0, 0.0)

        def outer(vs):
            vals = np.empty_like(vs)
            for i, v in enumerate(vs):
                inner = np.dot(ww, (1.0 - v * wn) ** (fb1 - 1.0))
                vals[i] = (1.0 - v) ** (fb2 - 1.0) * inner
            return vals

        # v = t/2 with weight v^{a1+a2-1}: jacobian 1/2, scale (1/2)^{a1+a2-1}
        tn, tw = _jacobi_01(order, fa1 + fa2 - 1.0, 0.0)
        vs = tn / 2.0
        scale = 0.5 ** (fa1 + fa2)
        return scale * float(np.dot(tw, outer(vs)))

    # full beta B(a1, b1) by pure quadrature: integrand 1 under the Jacobi weight
    def full_beta(order):
        _, w = _jacobi_01(order, fa1 - 1.0, fb1 - 1.0)
        return float(np.sum(w))

    # C: second beta factor restricted to [1/2, 1]
    def region_c(order):
        # v = 1 - t/2, weight (1-v)^{b2-1} = (t/2)^{b2-1}
        tn, tw = _jacobi_01(order, fb2 - 1.0, 0.0)
        vs = 1.0 - tn / 2.0
        scale = 0.5 ** fb2
        return scale * float(np.dot(tw, vs ** (fa2 - 1.0)))

    # D: complement correction over [1/2, 1]
    def region_d(order):
        zn, zw = _jacobi_01(order, fb1 - 1.0, 0.0)

        def g(one_minus_v):
            return np.dot(zw, (1.0 - one_minus_v * zn) ** (fa1 - 1.0))

        tn, tw = _jacobi_01(order, fb1 + fb2 - 1.0, 0.0)
        one_minus_vs = tn / 2.0
        vals = np.array([(1.0 - omv) ** (fa2 - 1.0) * g(omv) for omv in one_minus_vs])
        scale = 0.5 ** (fb1 + fb2)
        return scale * float(np.dot(tw, vals))

    va, ea = _converge(region_a, n0, _DOUBLINGS, _TOL)
    vb, eb = _converge(full_beta, n0, _DOUBLINGS, _TOL)
    vc, ec = _converge(region_c, n0, _DOUBLINGS, _TOL)
    vd, ed = _converge(region_d, n0, _DOUBLINGS, _TOL)

    total = va + vb * vc - vd
    scale = abs(va) + abs(vb * vc) + abs(vd) + 1.0
    err = 10.0 * (ea + eb * abs(vc) + ec * abs(vb) + ed) + 1e-14 * scale
    return BoundedReal(mp.mpf(total), mp.mpf(err))
