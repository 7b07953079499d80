"""The rational double description and RREF that the integer core replaced.

Everything here works on ``fractions.Fraction`` throughout and shares no
arithmetic with the integer routines of `conevol.exactlin`: the tests
compare `rref`, `kernel`, `cone_from_inequalities` and
`cone_from_generators` against these references, which must agree exactly.
"""

from fractions import Fraction
from math import gcd

from conevol.cone import Cone
from conevol.exactlin import Subspace, dot, mat, vec

ZERO = Fraction(0)


def rref(rows):
    """Gauss–Jordan elimination with division by each pivot."""
    work = [list(vec(r)) for r in rows]
    if not work:
        return ()
    ncols = len(work[0])
    pivot_row = 0
    for col in range(ncols):
        pr = next((r for r in range(pivot_row, len(work)) if work[r][col] != 0), None)
        if pr is None:
            continue
        work[pivot_row], work[pr] = work[pr], work[pivot_row]
        pv = work[pivot_row][col]
        work[pivot_row] = [x / pv for x in work[pivot_row]]
        piv = work[pivot_row]
        for r in range(len(work)):
            if r != pivot_row and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], piv)]
        pivot_row += 1
        if pivot_row == len(work):
            break
    return tuple(tuple(r) for r in work[:pivot_row])


def kernel(rows, dim):
    r = rref(rows)
    pivots = [next(j for j, a in enumerate(row) if a != 0) for row in r]
    basis = []
    for f in (j for j in range(dim) if j not in pivots):
        x = [ZERO] * dim
        x[f] = Fraction(1)
        for i, p in enumerate(pivots):
            x[p] = -r[i][f]
        basis.append(tuple(x))
    return Subspace(dim, rref(basis))


def primitive(v):
    denom = 1
    for a in v:
        denom = denom * a.denominator // gcd(denom, a.denominator)
    ints = [int(a * denom) for a in v]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    if g == 0:
        return tuple(ZERO for _ in v)
    return tuple(Fraction(a, g) for a in ints)


def _shift(r, v0, s, s0):
    return tuple(a - (s / s0) * b for a, b in zip(r, v0))


def _canon_rays(rays, lin):
    out = []
    seen = set()
    for r in rays:
        rr = primitive(lin.reduce(r))
        if any(rr) and rr not in seen:
            seen.add(rr)
            out.append(rr)
    return tuple(sorted(out))


def _dd_step(rays, lin_rows, a, t):
    """One rational DD step: returns (lineality, plus half, minus half)."""
    hit = next((i for i, row in enumerate(lin_rows) if dot(a, row) != 0), None)
    if hit is not None:
        v0 = lin_rows[hit]
        s0 = dot(a, v0)
        lin_rows = rref([_shift(row, v0, dot(a, row), s0)
                         for i, row in enumerate(lin_rows) if i != hit])
        lin_sub = Subspace(len(a), lin_rows)
        on = [(primitive(lin_sub.reduce(_shift(r, v0, dot(a, r), s0))), z | (1 << t))
              for r, z in rays]
        up = primitive(lin_sub.reduce(v0))
        down = tuple(-x for x in up)
        if s0 < 0:
            up, down = down, up
        prev = (1 << t) - 1
        return lin_rows, on + [(up, prev)], on + [(down, prev)]
    plus, zero, minus = [], [], []
    for idx, (r, z) in enumerate(rays):
        s = dot(a, r)
        if s > 0:
            plus.append((idx, r, z, s))
        elif s < 0:
            minus.append((idx, r, z, s))
        else:
            zero.append((r, z | (1 << t)))
    seen = {r for r, _ in zero}
    for ip, rp, zp, sp in plus:
        for im, rm, zm, sm in minus:
            common = zp & zm
            if all(i3 in (ip, im) or common & z3 != common
                   for i3, (_, z3) in enumerate(rays)):
                w = primitive(tuple(sp * x - sm * y for x, y in zip(rm, rp)))
                if w not in seen:
                    seen.add(w)
                    zero.append((w, common | (1 << t)))
    return (lin_rows,
            [(r, z) for _, r, z, _ in plus] + zero,
            [(r, z) for _, r, z, _ in minus] + zero)


def _lift(y, basis):
    out = [ZERO] * len(basis[0])
    for yi, row in zip(y, basis):
        out = [a + yi * b for a, b in zip(out, row)]
    return tuple(out)


def _dd(ineqs, eq_rows, d):
    amb = kernel(eq_rows, d)
    if amb.dim == 0:
        return (), Subspace(d, ())
    basis = amb.basis
    cons = []
    for a in ineqs:
        ap = primitive(tuple(dot(row, a) for row in basis))
        if any(ap) and ap not in cons:
            cons.append(ap)
    lin_rows = tuple(tuple(Fraction(int(i == j)) for j in range(amb.dim))
                     for i in range(amb.dim))
    rays = []
    for t, a in enumerate(cons):
        lin_rows, _, rays = _dd_step(rays, lin_rows, a, t)
    lin = Subspace(d, rref([_lift(row, basis) for row in lin_rows]))
    return _canon_rays([_lift(r, basis) for r, _ in rays], lin), lin


def _from_vrep(rays, lin, d):
    gens = _canon_rays(mat(rays), lin)
    prays, plin = _dd(gens, lin.basis, d)
    return Cone(d, prays, plin.basis, gens, lin, d - plin.dim, lin.dim)


def cone_from_inequalities(normals, d, equalities=()):
    rays, lin = _dd(mat(normals), mat(equalities), d)
    return _from_vrep(rays, lin, d)


def cone_from_generators(rays, lineality, d):
    prays, plin = _dd(mat(rays), mat(lineality), d)
    rrays, rlin = _dd(prays, plin.basis, d)
    return Cone(d, prays, plin.basis, rrays, rlin, d - plin.dim, rlin.dim)
