"""Exact rational linear algebra and LP feasibility primitives.

All combinatorial layers of the package run over arbitrary-precision
rationals (``fractions.Fraction``); floating point enters only in the Monte
Carlo modules.  Vectors are tuples of Fractions, matrices are tuples of row
vectors.  Subspaces are kept canonical: the basis is the unique reduced row
echelon form of the row space, so subspace equality is basis equality and
subspaces can be used as dictionary keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction.

    Raises ValueError for anything else (floats, booleans, a zero
    denominator), so malformed input files are reported as input errors.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValueError("boolean is not a rational")
    if isinstance(x, float):
        raise ValueError("floats are not accepted in the exact layer")
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise ValueError(f"cannot interpret {x!r} as a rational")


def vec(xs: Iterable) -> Vec:
    return tuple(rat(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> Mat:
    out = tuple(vec(r) for r in rows)
    if out:
        width = len(out[0])
        for r in out:
            if len(r) != width:
                raise ValueError("inconsistent row width")
    return out


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), ZERO)


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vscale(u: Vec, s: Fraction) -> Vec:
    return tuple(a * s for a in u)


def is_zero(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


def unit_vec(i: int, dim: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(dim))


def primitive(v: Sequence[Fraction]) -> Vec:
    """Scale by a positive rational to the coprime-integer representative.

    Keeps the direction (rays must not be flipped); the zero vector maps to
    itself.
    """
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


def sign_canonical(v: Sequence[Fraction]) -> Vec:
    """Primitive representative with positive leading nonzero entry.

    Canonical form for objects defined only up to a nonzero scalar
    (hyperplane normals).
    """
    p = primitive(v)
    for a in p:
        if a < 0:
            return tuple(-x for x in p)
        if a > 0:
            return p
    return p


def rref(rows: Iterable[Sequence]) -> Mat:
    """Unique reduced row echelon form; zero rows are dropped.

    The row space is preserved, so rref is a canonical form for it.
    """
    work = [list(vec(r)) for r in rows]
    if not work:
        return ()
    ncols = len(work[0])
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, len(work)):
            if work[r][col] != 0:
                pr = r
                break
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


def rank(rows: Iterable[Sequence]) -> int:
    return len(rref(rows))


def pivot_columns(rref_rows: Mat) -> tuple[int, ...]:
    cols = []
    for row in rref_rows:
        for j, a in enumerate(row):
            if a != 0:
                cols.append(j)
                break
    return tuple(cols)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace identified by the RREF basis of its row space."""

    dim_ambient: int
    basis: Mat  # rows in reduced row echelon form; () is the zero subspace

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[Fraction]) -> bool:
        return is_zero(self.reduce(v))

    def reduce(self, v: Sequence[Fraction]) -> Vec:
        """Canonical representative of v modulo the subspace.

        Eliminates the pivot coordinates; v is in the subspace iff the
        result is zero.
        """
        w = list(vec(v))
        for row in self.basis:
            p = next(j for j, a in enumerate(row) if a != 0)
            if w[p] != 0:
                f = w[p]
                w = [a - f * b for a, b in zip(w, row)]
        return tuple(w)


def subspace_from_rows(rows: Iterable[Sequence], dim: int) -> Subspace:
    basis = rref(rows)
    if basis and len(basis[0]) != dim:
        raise ValueError("row width does not match ambient dimension")
    return Subspace(dim, basis)


def full_space(dim: int) -> Subspace:
    return Subspace(dim, tuple(unit_vec(i, dim) for i in range(dim)))


def zero_subspace(dim: int) -> Subspace:
    return Subspace(dim, ())


def kernel(rows: Iterable[Sequence], dim: int) -> Subspace:
    """The subspace {x : rows . x = 0} in R^dim."""
    r = rref(rows)
    if r and len(r[0]) != dim:
        raise ValueError("row width does not match ambient dimension")
    pivots = pivot_columns(r)
    pivot_set = set(pivots)
    free = [j for j in range(dim) if j not in pivot_set]
    basis = []
    for f in free:
        x = [ZERO] * dim
        x[f] = ONE
        for i, p in enumerate(pivots):
            x[p] = -r[i][f]
        basis.append(tuple(x))
    return Subspace(dim, rref(basis))


def orthogonal_complement(s: Subspace) -> Subspace:
    """All vectors orthogonal to the subspace."""
    return kernel(s.basis, s.dim_ambient)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    if a.dim_ambient != b.dim_ambient:
        raise ValueError("ambient dimensions differ")
    rows = orthogonal_complement(a).basis + orthogonal_complement(b).basis
    return kernel(rows, a.dim_ambient)


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


# ---------------------------------------------------------------------------
# Exact simplex (Bland's rule) and the strict-feasibility test.


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


def lp_strictly_feasible(strict: Sequence[Sequence[Fraction]], ambient_dim: int) -> bool:
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
