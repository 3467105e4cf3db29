"""The linear multiples scan that ``ceresa.multiples_scan`` replaced.

``multiples_scan`` finds the first failing multiple as the smallest
denominator of a fraction within the margin of ``frac``; this loop walks
m = 1, 2, ... instead, accumulating the fractional part of m * frac exactly
in the units ``frac`` and ``err`` share, and is kept as the reference that
must return the same first failing m.
"""

from fermatvol.ceresa import MARGIN_FACTOR

from _ball_reference import _exact_fixed


def first_inconclusive(frac, err, m_max):
    """The least m <= m_max with dist(m * frac, Z) <= MARGIN_FACTOR * m * err, else None."""
    (step, unit), prec = _exact_fixed(frac, err)
    one = 1 << prec
    cur, bound = 0, 0
    for m in range(1, m_max + 1):
        cur = (cur + step) % one
        bound += MARGIN_FACTOR * unit
        if not bound < cur < one - bound:  # m * frac within the bound of an integer
            return m
    return None
