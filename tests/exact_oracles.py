"""The rational double description, RREF, simplex and projection that the
integer core replaced.

Everything here works on ``fractions.Fraction`` throughout and shares no
arithmetic with the integer routines of `conevol.exactlin`: the tests
compare `rref`, `kernel`, `cone_from_inequalities`, `cone_from_generators`,
`lp_strictly_feasible` and `canonical_decomposition` against these
references, which must agree exactly.  Subspaces are carried as RREF rows
and converted only where a `Cone` or `Subspace` is returned: an RREF row
times the lcm of its denominators is the coprime integer row, with a
positive pivot, that the package stores.
"""

from fractions import Fraction
from math import gcd
from typing import Sequence

from conevol.cone import Cone
from conevol.exactlin import Subspace, dot, mat, rat, vec

Mat = tuple[tuple[Fraction, ...], ...]
Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


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
    return subspace(kernel_rref(rows, dim), dim)


def kernel_rref(rows, dim):
    r = rref(rows)
    pivots = [next(j for j, a in enumerate(row) if a != 0) for row in r]
    basis = []
    for f in (j for j in range(dim) if j not in pivots):
        x = [ZERO] * dim
        x[f] = Fraction(1)
        for i, p in enumerate(pivots):
            x[p] = -r[i][f]
        basis.append(tuple(x))
    return rref(basis)


def subspace(rref_rows, dim):
    """The package's Subspace of the span of RREF rows: its integer echelon."""
    return Subspace(dim, _ints(primitive(r) for r in rref_rows))


def _ints(rows):
    """Rows of integral Fractions as tuples of ints."""
    return tuple(tuple(int(x) for x in r) for r in rows)


def reduce(rref_rows, v):
    """v modulo the span of RREF rows: every pivot coordinate eliminated."""
    w = list(vec(v))
    for row in rref_rows:
        p = next(j for j, a in enumerate(row) if a != 0)
        if w[p] != 0:
            f = w[p]
            w = [a - f * b for a, b in zip(w, row)]
    return tuple(w)


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
        rr = primitive(reduce(lin, r))
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
        on = [(primitive(reduce(lin_rows, _shift(r, v0, dot(a, r), s0))), z | (1 << t))
              for r, z in rays]
        up = primitive(reduce(lin_rows, v0))
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
    """(extreme rays, RREF rows of the lineality space)."""
    basis = kernel_rref(eq_rows, d)
    if not basis:
        return (), ()
    cons = []
    for a in ineqs:
        ap = primitive(tuple(dot(row, a) for row in basis))
        if any(ap) and ap not in cons:
            cons.append(ap)
    lin_rows = tuple(tuple(Fraction(int(i == j)) for j in range(len(basis)))
                     for i in range(len(basis)))
    rays = []
    for t, a in enumerate(cons):
        lin_rows, _, rays = _dd_step(rays, lin_rows, a, t)
    lin = rref([_lift(row, basis) for row in lin_rows])
    return _canon_rays([_lift(r, basis) for r, _ in rays], lin), lin


def _from_vrep(rays, lin, d):
    gens = _canon_rays(mat(rays), lin)
    prays, plin = _dd(gens, lin, d)
    return Cone(d, _ints(prays), subspace(plin, d).basis, _ints(gens), subspace(lin, d))


def cone_from_inequalities(normals, d, equalities=()):
    rays, lin = _dd(mat(normals), mat(equalities), d)
    return _from_vrep(rays, lin, d)


def cone_from_generators(rays, lineality, d):
    prays, plin = _dd(mat(rays), mat(lineality), d)
    rrays, rlin = _dd(prays, plin, d)
    return Cone(d, _ints(prays), subspace(plin, d).basis, _ints(rrays), subspace(rlin, d))


# ---------------------------------------------------------------------------
# Rational simplex (Bland's rule) and Gram projection.


def _pivot(tab: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    pv = tab[row][col]
    tab[row] = [x / pv for x in tab[row]]
    piv = tab[row]
    for r in range(len(tab)):
        if r != row and tab[r][col] != 0:
            f = tab[r][col]
            tab[r] = [a - f * b for a, b in zip(tab[r], piv)]
    basis[row] = col


def _optimize(tab: list[list[Fraction]], basis: list[int], cost: list[Fraction]) -> Fraction:
    """Run primal simplex (Bland's rule) to optimality; returns the optimum.

    tab holds m constraint rows [coeffs..., rhs] in canonical form for the
    current basis; cost holds the objective coefficients (maximization).
    Bland's smallest-index rule guarantees termination without perturbation.
    """
    m = len(tab)
    ncols = len(cost)
    # reduced cost row: r_j = cost_j - cost_B . column_j, rhs = objective value
    z = list(cost) + [ZERO]
    for i in range(m):
        cb = cost[basis[i]]
        if cb != 0:
            z = [a - cb * b for a, b in zip(z, tab[i])]
    while True:
        enter = next((j for j in range(ncols) if z[j] > 0), None)
        if enter is None:
            return -z[ncols]
        leave = None
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][ncols] / a
                key = (ratio, basis[i])
                if best is None or key < best:
                    best = key
                    leave = i
        if leave is None:
            raise ArithmeticError("unbounded LP")
        _pivot(tab, basis, leave, enter)
        f = z[enter]
        z = [a - f * b for a, b in zip(z, tab[leave])]


def simplex_max(a_rows: Sequence[Sequence[Fraction]], b: Sequence[Fraction],
                c: Sequence[Fraction]) -> Fraction | None:
    """Maximize c.x subject to A x <= b, x >= 0, exactly.

    Returns the optimum, or None if infeasible.  Raises ArithmeticError on
    an unbounded objective.  Two-phase tableau method with Bland's rule.
    """
    m = len(a_rows)
    n = len(c)
    nslack = m
    neg = [i for i in range(m) if b[i] < 0]
    nart = len(neg)
    ncols = n + nslack + nart
    tab: list[list[Fraction]] = []
    art_at = {}
    k = 0
    for i in range(m):
        row = [rat(x) for x in a_rows[i]] + [ZERO] * (nslack + nart) + [rat(b[i])]
        row[n + i] = ONE
        if b[i] < 0:
            row = [-x for x in row]
            row[n + nslack + k] = ONE
            art_at[i] = n + nslack + k
            k += 1
        tab.append(row)
    basis = [art_at.get(i, n + i) for i in range(m)]
    if nart:
        cost1 = [ZERO] * ncols
        for j in range(n + nslack, ncols):
            cost1[j] = -ONE
        opt1 = _optimize(tab, basis, cost1)
        if opt1 != 0:
            return None
        # pivot any artificial still in the basis out on a nonartificial column
        for i in range(m):
            if basis[i] >= n + nslack:
                col = next((j for j in range(n + nslack) if tab[i][j] != 0), None)
                if col is not None:
                    _pivot(tab, basis, i, col)
        # drop the artificial columns (rhs stays at the end)
        for row in tab:
            del row[n + nslack:ncols]
        ncols = n + nslack
        if any(bv >= ncols for bv in basis):
            keep = [i for i in range(m) if basis[i] < ncols]
            tab = [tab[i] for i in keep]
            basis = [basis[i] for i in keep]
    cost2 = [rat(x) for x in c] + [ZERO] * (len(tab[0]) - 1 - n if tab else nslack)
    return _optimize(tab, basis, cost2)


def rational_lp_strictly_feasible(strict: Sequence[Sequence[Fraction]], ambient_dim: int) -> bool:
    """Exact test for existence of x with <a_i, x> > 0 for all given a_i.

    Maximizes t subject to <a_i, x> >= t and -1 <= x_j <= 1 by rational
    simplex; the open system is feasible iff the optimum is positive.  An
    empty constraint list is vacuously feasible (witnessed by x = 0).
    """
    normals = [vec(a) for a in strict]
    for a in normals:
        if len(a) != ambient_dim:
            raise ValueError("normal length does not match ambient dimension")
    if not normals:
        return True
    d = ambient_dim
    # variables: u_1..u_d = x + 1 in [0, 2], then t+ and t-
    n = d + 2
    a_rows = []
    b = []
    for a in normals:
        # t - <a, u - 1> <= 0
        a_rows.append([-x for x in a] + [ONE, -ONE])
        b.append(-sum(a, ZERO))
    for j in range(d):
        row = [ZERO] * n
        row[j] = ONE
        a_rows.append(row)
        b.append(Fraction(2))
    c = [ZERO] * d + [ONE, -ONE]
    opt = simplex_max(a_rows, b, c)
    assert opt is not None  # x = 0, t = 0 is always feasible
    return opt > 0


def solve(a_rows: Mat, b: Vec) -> Vec | None:
    """Solve the square system A x = b; None if A is singular."""
    n = len(a_rows)
    aug = [list(row) + [rhs] for row, rhs in zip(a_rows, b)]
    for col in range(n):
        pr = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pr is None:
            return None
        aug[col], aug[pr] = aug[pr], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(aug[r][n] for r in range(n))


def project_off(basis: Mat, v: Vec) -> Vec:
    """Orthogonal projection of v onto the complement of span(basis rows)."""
    if not basis:
        return vec(v)
    gram = tuple(tuple(dot(r, s) for s in basis) for r in basis)
    rhs = tuple(dot(r, v) for r in basis)
    w = solve(gram, rhs)
    assert w is not None  # basis rows are independent
    out = list(vec(v))
    for wi, row in zip(w, basis):
        out = [a - wi * b for a, b in zip(out, row)]
    return tuple(out)


def canonical_decomposition(c):
    """C = L + C/L with C/L cone-generated by the generators projected off L."""
    lin = c.lineality
    if lin.dim == 0:
        return lin, c
    proj = [project_off(lin.rref, g) for g in c.generators]
    return lin, cone_from_generators(proj, (), c.d)
