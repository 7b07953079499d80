"""Exact linear algebra: row reduction, kernels, double description and
strict feasibility.

All combinatorial layers of the package run over exact arithmetic; floating
point enters only in the Monte Carlo modules.  At the API, vectors are
tuples of ``fractions.Fraction`` and matrices are tuples of row vectors.
Subspaces are kept canonical: the basis is the unique reduced row echelon
form of the row space, so subspace equality is basis equality and
subspaces can be used as dictionary keys.

Inside, the elimination behind `rref` and `kernel`, the double description
that `cone` and `arrangement` share, and strict feasibility run on coprime
Python ``int`` vectors: a rational vector is scaled by the lcm of its
denominators, and a basis is kept as an echelon of integer rows that are
positive multiples of the RREF rows (fraction-free Gauss–Jordan, each new
row divided by its content).  Positive scaling changes no sign and no
direction, and ``Fraction`` values are formed only where results leave
these routines.

`_dd` converts {x : ineqs.x <= 0, eq_rows.x = 0} to extreme rays plus a
lineality space by the double description method (Fukuda–Prodon),
processing one halfspace at a time.  A step has two halves.  `_lin_cut`
splits off the lineality direction the hyperplane crosses; it depends only
on the hyperplane, so chamber enumeration computes it once for all
chambers.  `_dd_step` then partitions the rays into +/0/− by sign and joins
adjacent +/− pairs, where the combinatorial adjacency test is applied
modulo the current lineality space, which keeps the working cone pointed in
the quotient.  `_dd_step` returns both closed halves of the cut; conversion
keeps the <= 0 half, and chamber enumeration in `arrangement` keeps every
half that is not flat on the hyperplane.  Invariant: every integer vector
is a positive multiple of the rational vector the same algorithm would hold
over ``Fraction``, and every lineality row a positive multiple of its RREF
row.  Signs, zero sets, adjacency decisions and primitive representatives
are therefore unchanged, and so is every ray order and every output.

`lp_strictly_feasible` decides whether rows a_i admit an x with every
<a_i, x> > 0 by the same double description, so one exact engine answers
every feasibility question of the cone layer: Farkas checks and
transversality of faces.
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


# ---------------------------------------------------------------------------
# Double description on integer vectors.


def _canon_rays(rays, lin: Echelon) -> list[IntVec]:
    out = []
    seen = set()
    for r in rays:
        rr = _prim(_ireduce(r, lin))
        if any(rr) and rr not in seen:
            seen.add(rr)
            out.append(rr)
    return sorted(out)


def _onto(r: Sequence[int], u: Sequence[int], s0: int, a: IntVec) -> Sequence[int]:
    """Project r along u onto <a, x> = 0, where s0 = <a, u> > 0: the positive
    multiple s0 r - <a, r> u of r - (<a, r> / s0) u."""
    s = _idot(a, r)
    return [s0 * x - s * y for x, y in zip(r, u)] if s else r


def _lin_cut(lin: Echelon, a: IntVec):
    """The lineality half of a DD step, shared by every cone cut by <a, x> = 0.

    Returns (lineality, cut).  cut is None when the lineality lies inside
    the hyperplane.  Otherwise a lineality direction u with <a, u> > 0
    crosses it: the new lineality is the old one projected along u onto the
    hyperplane, and cut = (u, <a, u>, ray) with ray the image of u modulo the
    new lineality, which becomes a ray on the + side and, negated, on the -.
    """
    for i, (_, v) in enumerate(lin):
        s0 = _idot(a, v)
        if s0:
            break
    else:
        return lin, None
    u = v if s0 > 0 else tuple(-x for x in v)
    s0 = abs(s0)
    new_lin = _echelon(_onto(row, u, s0, a) for k, (_, row) in enumerate(lin) if k != i)
    return new_lin, (u, s0, _prim(_ireduce(u, new_lin)))


def _dd_step(rays, lin: Echelon, cut, a: IntVec, t: int):
    """The ray half of a DD step: cut lin + cone(rays) by <a, x> = 0.

    Rays are (vector, zero-set bitmask) pairs, taken modulo lin, the
    lineality that `_lin_cut` returned for the same hyperplane along with
    cut.  Returns (plus, minus): the ray lists of the closed halves
    <a, x> >= 0 and <a, x> <= 0.  Bit t is set exactly on the rays lying
    on the hyperplane, so a half whose rays all carry bit t lies inside it.
    """
    bit = 1 << t
    if cut is not None:
        # every ray is moved along u onto the hyperplane; ±u, modulo the new
        # lineality, is one new ray on each side
        u, s0, up = cut
        on = [(_prim(_ireduce(_onto(r, u, s0, a), lin)), z | bit) for r, z in rays]
        down = tuple(-x for x in up)
        return on + [(up, bit - 1)], on + [(down, bit - 1)]
    # lineality is inside the hyperplane; split the pointed part
    plus, zero, minus = [], [], []
    for idx, (r, z) in enumerate(rays):
        s = _idot(a, r)
        if s > 0:
            plus.append((idx, r, z, s))
        elif s < 0:
            minus.append((idx, r, z, s))
        else:
            zero.append((r, z | bit))
    # a new ray lies on the hyperplane: it can only repeat a zero or new ray
    seen = {r for r, _ in zero}
    for ip, rp, zp, sp in plus:
        for im, rm, zm, sm in minus:
            common = zp & zm
            adjacent = True
            for i3, (_, z3) in enumerate(rays):
                if i3 != ip and i3 != im and common & z3 == common:
                    adjacent = False
                    break
            if adjacent:
                w = _prim([sp * x - sm * y for x, y in zip(rm, rp)])
                if w not in seen:
                    seen.add(w)
                    zero.append((w, common | bit))
    return (
        [(r, z) for _, r, z, _ in plus] + zero,
        [(r, z) for _, r, z, _ in minus] + zero,
    )


def _unit_echelon(m: int) -> Echelon:
    return [(i, tuple(int(j == i) for j in range(m))) for i in range(m)]


def _dd(ineqs, eq_rows, d: int) -> tuple[Mat, Subspace]:
    """Double description: V-representation of {x : ineqs.x <= 0, eq_rows.x = 0}.

    Returns (extreme rays, lineality subspace), both canonicalized.  The
    basis of {eq_rows.x = 0} is scaled to integers by one common positive
    denominator, so coordinates in it change by a global positive scalar
    only.
    """
    amb = kernel(eq_rows, d)
    if amb.dim == 0:
        return (), zero_subspace(d)
    basis = _int_mat(amb.basis)
    cons = []
    seen = set()
    for a in ineqs:
        a = _int_vec(a)
        ap = _prim([_idot(row, a) for row in basis])
        if any(ap) and ap not in seen:
            seen.add(ap)
            cons.append(ap)

    lin = _unit_echelon(amb.dim)
    rays: list[tuple[IntVec, int]] = []
    for t, a in enumerate(cons):
        lin, cut = _lin_cut(lin, a)
        _, rays = _dd_step(rays, lin, cut, a, t)

    lin_ambient = _echelon(_lift(row, basis) for _, row in lin)
    rays = _canon_rays([_lift(r, basis) for r, _ in rays], lin_ambient)
    return _rational(rays), Subspace(d, _rref_rows(lin_ambient))


def _lift(y, basis) -> tuple:
    """Map coordinates in a subspace basis back to ambient space."""
    return tuple(sum(map(mul, y, col)) for col in zip(*basis))


def lp_strictly_feasible(strict: Sequence[Sequence[Fraction]], ambient_dim: int) -> bool:
    """Exact test for existence of x with <a_i, x> > 0 for all given a_i.

    Runs the double description of the closed cone {x : <a_i, x> >= 0}.  Its
    lineality space is orthogonal to every a_i, so a_i is positive somewhere
    on the cone iff it is positive on an extreme ray, and then the sum of the
    extreme rays satisfies every strict inequality at once.  A zero row is
    never satisfied; an empty list is vacuously feasible (witnessed by x = 0).
    """
    normals = [vec(a) for a in strict]
    for a in normals:
        if len(a) != ambient_dim:
            raise ValueError("normal length does not match ambient dimension")
    rays, _ = _dd([tuple(-x for x in a) for a in normals], (), ambient_dim)
    return all(any(dot(a, r) > 0 for r in rays) for a in normals)
