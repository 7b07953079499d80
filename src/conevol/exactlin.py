"""Exact rational linear algebra and LP feasibility primitives.

All combinatorial layers of the package run over exact arithmetic; floating
point enters only in the Monte Carlo modules.  At the API, vectors are
tuples of ``fractions.Fraction`` and matrices are tuples of row vectors.
Subspaces are kept canonical: the basis is the unique reduced row echelon
form of the row space, so subspace equality is basis equality and
subspaces can be used as dictionary keys.

Inside, the elimination behind `rref` and `kernel`, the double description
steps of `cone` and the chamber insertion of `arrangement` run on coprime
Python ``int`` vectors: a rational vector is scaled by the lcm of its
denominators, and a basis is kept as an echelon of integer rows that are
positive multiples of the RREF rows (fraction-free Gauss–Jordan, each new
row divided by its content).  Positive scaling changes no sign and no
direction, and ``Fraction`` values are formed only where results leave
these routines.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
IntVec = tuple[int, ...]
Echelon = list[tuple[int, IntVec]]  # (pivot column, row) pairs by pivot

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


def is_zero(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


def unit_vec(i: int, dim: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(dim))


def primitive(v: Sequence[Fraction]) -> Vec:
    """Scale by a positive rational to the coprime-integer representative.

    Keeps the direction (rays must not be flipped); the zero vector maps to
    itself.
    """
    return tuple(map(Fraction, _prim(_int_vec(v))))


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
    return _rref_rows(_echelon(_int_vec(r) for r in rows))


def rank(rows: Iterable[Sequence]) -> int:
    return len(rref(rows))


# ---------------------------------------------------------------------------
# The integer core: coprime int vectors, positive multiples of rational ones.


def _int_vec(v: Sequence) -> list[int]:
    """v scaled by the lcm of its denominators: a positive integer multiple."""
    xs = [x if type(x) is int or type(x) is Fraction else rat(x) for x in v]
    den = lcm(*[x.denominator for x in xs])
    if den == 1:
        return [x.numerator for x in xs]
    return [x.numerator * (den // x.denominator) for x in xs]


def _int_mat(rows: Mat) -> list[list[int]]:
    """Rational rows scaled by one common positive denominator."""
    den = lcm(*[x.denominator for r in rows for x in r])
    return [[x.numerator * (den // x.denominator) for x in r] for r in rows]


def _prim(v: Sequence[int]) -> IntVec:
    """v divided by the gcd of its entries; the zero vector stays zero."""
    g = gcd(*v)
    return tuple(v) if g <= 1 else tuple(x // g for x in v)


def _idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _ireduce(w: Sequence[int], ech: Echelon) -> list[int]:
    """A positive multiple of w reduced modulo the echelon's row space.

    Each step is w <- c w - w[p] row with pivot entry c > 0; the result is
    zero at every pivot column, and zero iff w lies in the row space.
    """
    w = list(w)
    for p, row in ech:
        f = w[p]
        if f:
            c = row[p]
            w = [c * x - f * y for x, y in zip(w, row)]
    return w


def _echelon(rows: Iterable[Sequence[int]]) -> Echelon:
    """Fraction-free Gauss–Jordan elimination of integer rows.

    Returns (pivot, row) pairs sorted by pivot: each row is coprime, a
    positive multiple of the matching RREF row, and zero at every other
    pivot column.  Each new row is reduced, divided by its content, and then
    cleared from the rows before it.
    """
    ech: Echelon = []
    for r in rows:
        w = _ireduce(r, ech)
        p = next((j for j, x in enumerate(w) if x), None)
        if p is None:
            continue
        w = _prim(w if w[p] > 0 else [-x for x in w])
        c = w[p]
        for i, (q, row) in enumerate(ech):
            f = row[p]
            if f:
                ech[i] = (q, _prim([c * x - f * y for x, y in zip(row, w)]))
        ech.append((p, w))
    ech.sort()
    return ech


def _rref_rows(ech: Echelon) -> Mat:
    """The RREF rows of an echelon: each row divided by its pivot entry."""
    return tuple(
        tuple(map(Fraction, row)) if row[p] == 1 else tuple(Fraction(x, row[p]) for x in row)
        for p, row in ech
    )


def _rational(rows: Iterable[Sequence[int]]) -> Mat:
    return tuple(tuple(map(Fraction, r)) for r in rows)


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
    ech = _echelon(_int_vec(r) for r in rows)
    if ech and len(ech[0][1]) != dim:
        raise ValueError("row width does not match ambient dimension")
    # x_f = e_f - sum_i (row_i[f] / c_i) e_{p_i}, scaled by m = lcm(c_i)
    m = lcm(*(row[p] for p, row in ech))
    pivots = {p for p, _ in ech}
    basis = []
    for f in range(dim):
        if f in pivots:
            continue
        x = [0] * dim
        x[f] = m
        for p, row in ech:
            x[p] = -row[f] * (m // row[p])
        basis.append(x)
    return Subspace(dim, _rref_rows(_echelon(basis)))


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
