"""Gauss-Jacobi quadrature for the ordered-simplex beta-type integral.

Every sub-integral produced by the splitting in
``specfun.euler_double_integral`` has algebraic singularities only at
coordinate endpoints, absorbed exactly into Jacobi weights; the
remaining factors are analytic on the closed interval, so fixed-order
Gauss-Jacobi converges geometrically.  Accuracy is estimated a
posteriori by doubling the order until two consecutive levels agree.

This module deliberately avoids hypergeometric series, gamma functions
and incomplete-beta routines: nodes and weights come from a numpy
Golub-Welsch builder (G. H. Golub and J. H. Welsch, Math. Comp. 23,
1969), and the Beta values that normalise them, B(a1, b1) among them,
from libm's ``math.lgamma``, keeping the oracle independent of the
closed forms it is used to check.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import _memo

_ORDER0 = 24        # the first order of every sub-integral
_TOL = 1e-12        # stop doubling once two consecutive orders agree this well
_DOUBLINGS = 4      # order-doubling budget per sub-integral
# oracle-test --n 15, the largest the CLI admits, can ask for at most 39 exponent keys
# x 5 orders = 195 distinct rules (0.46 MB of nodes and weights), so this holds its
# whole working set and still bounds the cache for callers passing arbitrary rationals
_RULES_MAX = 2048


def _jacobi_ratio(n: int, a: float, b: float, x):
    """P_n^{(a,b)}(x) / P_n^{(a,b)}(1) by the forward recurrence on the
    differences d_k = p_k - p_{k-1}, which stays accurate near both endpoints."""
    if n == 0:
        return np.ones_like(x)
    d = (a + b + 2.0) * (x - 1.0) / (2.0 * (a + 1.0))
    p = d + 1.0
    for k in range(1, n):
        t = 2.0 * k + a + b
        d = (t * (t + 1.0) * (t + 2.0) * (x - 1.0) * p + 2.0 * k * (k + b) * (t + 2.0) * d) \
            / (2.0 * (k + a + 1.0) * (k + a + b + 1.0) * t)
        p = p + d
    return p


def _gauss_jacobi(n: int, a: float, b: float):
    """Nodes/weights on [-1,1] for weight (1-x)^a * (1+x)^b, a, b > -1.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix, polished by one Newton step on P_n.  The weights are
    proportional to 1 / (P_{n-1}(x) P_n'(x)), log-normalised against overflow,
    and scaled to sum to mu0 = 2^(a+b+1) B(a+1, b+1)."""
    k = np.arange(1.0, n)
    t = 2.0 * k + a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (t * (t + 2.0))
    off = 2.0 / t * np.sqrt((k + a) * (k + b) / (t + 1.0))
    # this factor is 1 at k = 1, where its formula is 0/0 when a + b = -1
    off[1:] *= np.sqrt(k[1:] * (k[1:] + a + b) / (t[1:] - 1.0))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    # P_n' = (n + a + b + 1)/2 P_{n-1}^{(a+1,b+1)}, and the ratio of their values at 1 is
    # P_n(1) / P_{n-1}^{(a+1,b+1)}(1) = (a + 1)/n
    dy = _jacobi_ratio(n - 1, a + 1.0, b + 1.0, x)
    x = x - 2.0 * (a + 1.0) / (n * (n + a + b + 1.0)) * _jacobi_ratio(n, a, b, x) / dy
    fm = _jacobi_ratio(n - 1, a, b, x)
    for v in (fm, dy):
        logs = np.log(np.abs(v))
        v /= np.exp((logs.max() + logs.min()) / 2.0)
    w = 1.0 / (fm * dy)
    mu0 = math.exp((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
                   + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
    return x, w * (mu0 / w.sum())


@_memo(_RULES_MAX)
def _jacobi_01(n: int, left_exp: float, right_exp: float):
    """Nodes/weights on [0,1] for weight x^left_exp * (1-x)^right_exp.

    Cached, so every caller shares the arrays; they are read-only."""
    x, w = _gauss_jacobi(n, right_exp, left_exp)
    nodes = (x + 1.0) / 2.0
    weights = w * 0.5 ** (left_exp + right_exp + 1.0)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _kernel_sums(xs, nodes, weights, power: float):
    """sum_j weights[j] * (1 - xs[i] * nodes[j])^power for every i, as one matrix product."""
    return (1.0 - np.outer(xs, nodes)) ** power @ weights


def _converge(eval_at):
    """(value, error estimate): double the order from _ORDER0 until two consecutive
    levels agree within _TOL, at most _DOUBLINGS times; the estimate is their last gap."""
    order = _ORDER0
    prev = eval_at(order)
    for _ in range(_DOUBLINGS):
        order *= 2
        cur = eval_at(order)
        err = abs(cur - prev)
        prev = cur
        if err <= _TOL:
            break
    return prev, err


@_memo(_RULES_MAX)
def _region_c(fa2: float, fb2: float) -> tuple[float, float]:
    """The second beta factor restricted to [1/2, 1], converged.

    Cached, since it depends on one exponent pair only."""
    def at(order):
        # v = 1 - t/2, weight (1-v)^{b2-1} = (t/2)^{b2-1}
        tn, tw = _jacobi_01(order, fb2 - 1.0, 0.0)
        vs = 1.0 - tn / 2.0
        scale = 0.5 ** fb2
        return scale * float(np.dot(tw, vs ** (fa2 - 1.0)))
    return _converge(at)


@_memo(_RULES_MAX)
def _region(fa1: float, fb1: float, fa2: float, fb2: float) -> tuple[float, float]:
    """Region A, 0 <= v <= 1/2 with u = v w, converged; region D is this at (b1, a1, b2, a2).

    Cached, since the pair (a1,b1)x(a2,b2) and its swap (b1,a1)x(b2,a2) ask for the
    same two regions; ``oracle-test`` at N <= 8 asks for at most 1,764 distinct ones."""
    def at(order):
        wn, ww = _jacobi_01(order, fa1 - 1.0, 0.0)
        # v = t/2 with weight v^{a1+a2-1}: jacobian 1/2, scale (1/2)^{a1+a2-1}
        tn, tw = _jacobi_01(order, fa1 + fa2 - 1.0, 0.0)
        vs = tn / 2.0
        inner = _kernel_sums(vs, wn, ww, fb1 - 1.0)
        scale = 0.5 ** (fa1 + fa2)
        return scale * float(np.dot(tw, (1.0 - vs) ** (fb2 - 1.0) * inner))
    return _converge(at)


def simplex_beta_integral(a1: Fraction, b1: Fraction, a2: Fraction,
                          b2: Fraction) -> tuple[float, float]:
    """(value, error estimate); see specfun.euler_double_integral for the decomposition."""
    fa1, fb1, fa2, fb2 = float(a1), float(b1), float(a2), float(b2)
    va, ea = _region(fa1, fb1, fa2, fb2)
    vb = math.exp(math.lgamma(fa1) + math.lgamma(fb1) - math.lgamma(fa1 + fb1))
    vc, ec = _region_c(fa2, fb2)
    vd, ed = _region(fb1, fa1, fb2, fa2)

    total = va + vb * vc - vd
    scale = abs(va) + abs(vb * vc) + abs(vd) + 1.0
    err = 10.0 * (ea + ec * vb + ed) + 1e-14 * scale
    return total, err
