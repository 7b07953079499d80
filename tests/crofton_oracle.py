"""The facet-slack line rule that Crofton's line case used before it drew
through the projection kernel.

A unit direction u lies in C when it meets C's equalities to within 1e-7
and every facet slack a.u is below -1e-7, on C's integer facet normals; a
direction whose largest slack, for u or for -u, is within 1e-7 of 0 is
ambiguous.  The rule shares no code with `conevol.volumes`, so the tests
hold the kernel's decision against it direction by direction.
"""

import numpy as np

MARGIN = 1e-7


def line_hit(c, u):
    """(hit, ok) per row of the unit directions u: whether the line through
    u meets C beyond 0, and whether the slacks decide it."""
    facets = np.array([[float(x) for x in a] for a in c.inequalities]).reshape(-1, c.d)
    eqs = np.array([[float(x) for x in e] for e in c.equalities]).reshape(-1, c.d)
    on_span = np.all(np.abs(u @ eqs.T) < MARGIN, axis=1)
    s = u @ facets.T
    top_plus = np.max(s, axis=1, initial=-np.inf)
    top_minus = np.max(-s, axis=1, initial=-np.inf)
    hit = ((top_plus < -MARGIN) | (top_minus < -MARGIN)) & on_span
    ok = (np.abs(top_plus) >= MARGIN) & (np.abs(top_minus) >= MARGIN)
    return hit, ok
