"""The allocating ProjectionKernel.classify that the workspace version replaced.

This body allocates its margin matrix, slot maxima and projector gather
afresh for every row chunk, and shares no buffer with
`conevol.volumes`.  It issues the same matrix product on the same chunk
boundaries and the same reductions as the kernel's own classify, so the
tests require the two to agree bit for bit, not within a tolerance.
"""

import numpy as np

from conevol.volumes import REL_TOL


def classify(kern, g):
    """(face_index, pnorm2, ok, (m1, m2)) of each row of g under kern."""
    b = g.shape[0]
    nf = len(kern.bases)
    best = np.empty(b, dtype=np.intp)
    m1 = np.empty(b)
    m2 = np.empty(b)
    pnorm2 = np.empty(b)
    for lo in range(0, b, kern._chunk):
        hi = min(lo + kern._chunk, b)
        gc = g[lo:hi]
        cols = np.arange(hi - lo)
        s = kern._w @ gc.T
        s[kern._pad] = -np.inf
        s = s.reshape(kern._slots, nf, hi - lo).max(axis=0)
        k = np.argmin(s, axis=0)
        m1[lo:hi] = -s[k, cols]
        s[k, cols] = np.inf
        m2[lo:hi] = -s.min(axis=0)
        best[lo:hi] = k
        pg = np.einsum("ri,rij->rj", gc, kern.projectors[k])
        pnorm2[lo:hi] = np.einsum("rj,rj->r", pg, gc)
    tol = REL_TOL * np.maximum(np.linalg.norm(g, axis=1), 1.0)
    ok = (m1 > tol) & (m2 < -tol)
    return best, pnorm2, ok, (m1, m2)
