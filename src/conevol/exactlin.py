"""Exact linear algebra on integer rows: echelons, kernels, double
description and strict feasibility.

All combinatorial layers of the package run over exact arithmetic; floating
point enters only in the Monte Carlo modules.  Vectors are tuples of Python
``int`` and matrices are tuples of rows.  Rational input ('3/4', Fractions)
is parsed once, at the API, and each row scaled by the lcm of its
denominators; rays, normals and spans are direction data, and positive
scaling changes no sign, no zero set and no direction.

A subspace is kept as its integer echelon: coprime rows with a positive
pivot, sorted by pivot column, each a positive multiple of the matching row
of the reduced row echelon form (RREF) and zero at every other pivot
column.  That echelon is unique, so subspace equality is basis equality and
subspaces can be used as dictionary keys.  `Subspace.rref` forms the
``Fraction`` RREF from it on demand, for JSON and for callers that need
rational values; `rref` does the same for any rows.  Elimination is
fraction-free Gauss–Jordan (after Bareiss): each new row is reduced,
divided by its content, and then cleared from the rows before it.

`_dd` converts {x : ineqs.x <= 0, eq_rows.x = 0} to extreme rays plus a
lineality space by the double description method (Fukuda–Prodon),
processing one halfspace at a time.  A step has two halves.  `_lin_cut`
splits off the lineality direction the hyperplane crosses; it depends only
on the hyperplane, so chamber enumeration computes it once for all
chambers.  `_dd_step` then partitions the rays into +/0/− by sign and joins
adjacent +/− pairs, where the combinatorial adjacency test is applied
modulo the current lineality space, which keeps the working cone pointed in
the quotient; a pair sharing fewer than (pointed dimension − 2) tight rows
cannot span a 2-face and is skipped before that test.  `_dd_step` returns
both closed halves of the cut; conversion keeps the <= 0 half, and chamber
enumeration in `arrangement` keeps every half that is not flat on the
hyperplane.  Invariant: every integer vector is a positive multiple of the
rational vector the same algorithm would hold over ``Fraction``, and every
lineality row a positive multiple of its RREF row.  Signs, zero sets,
adjacency decisions and primitive representatives are therefore unchanged,
and so is every ray order and every output.

`lp_strictly_feasible` decides whether rows a_i admit an x with every
<a_i, x> > 0 by the same double description, so one exact engine answers
every feasibility question of the cone layer: Farkas checks and
transversality of faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import and_, mul
from typing import Iterable, Iterator, Sequence

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]
Echelon = list[tuple[int, Vec]]  # (pivot column, row) pairs by pivot
RatMat = tuple[tuple[Fraction, ...], ...]  # parsed input and RREF rows


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


def vec(xs: Iterable) -> tuple[Fraction, ...]:
    return tuple(rat(x) for x in xs)


def mat(rows: Iterable[Iterable]) -> RatMat:
    out = tuple(vec(r) for r in rows)
    if out:
        width = len(out[0])
        for r in out:
            if len(r) != width:
                raise ValueError("inconsistent row width")
    return out


def dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def rref(rows: Iterable[Sequence]) -> RatMat:
    """Unique reduced row echelon form; zero rows are dropped.

    The row space is preserved, so rref is a canonical form for it.
    """
    return _rref_rows(_echelon(map(_int_vec, rows)))


def rank(rows: Iterable[Sequence]) -> int:
    return len(_echelon(map(_int_vec, rows)))


# ---------------------------------------------------------------------------
# The integer core: coprime int vectors, positive multiples of rational ones.


def _int_vec(v: Sequence) -> list[int]:
    """A rational row, parsed by `rat`, scaled by the lcm of its
    denominators: a positive integer multiple."""
    xs = [x if type(x) is int or type(x) is Fraction else rat(x) for x in v]
    den = lcm(*[x.denominator for x in xs])
    if den == 1:
        return [x.numerator for x in xs]
    return [x.numerator * (den // x.denominator) for x in xs]


def _int_rows(rows: Iterable[Sequence], d: int, what: str = "row") -> list[list[int]]:
    """Rational rows parsed by `_int_vec`, each of length d.  A string, a
    number or a dict is not a list, so "12" is rejected, not read digit by
    digit."""
    if not _is_list(rows):
        raise ValueError(f"{what} rows must be a list of rows, got {rows!r}")
    out = []
    for r in rows:
        if not _is_list(r):
            raise ValueError(f"each {what} must be a list of numbers, got {r!r}")
        out.append(_int_vec(r))
        if len(out[-1]) != d:
            raise ValueError(f"{what} length does not match ambient dimension")
    return out


def _is_list(x) -> bool:
    return isinstance(x, Iterable) and not isinstance(x, (str, bytes, dict))


def _prim(v: Sequence[int]) -> Vec:
    """v divided by the gcd of its entries; the zero vector stays zero."""
    g = gcd(*v)
    return tuple(v) if g <= 1 else tuple(x // g for x in v)


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


def _rref_rows(ech: Echelon) -> RatMat:
    """The RREF rows of an echelon: each row divided by its pivot entry."""
    return tuple(
        tuple(map(Fraction, row)) if row[p] == 1 else tuple(Fraction(x, row[p]) for x in row)
        for p, row in ech
    )


def _common_scale(ech: Echelon) -> list[list[int]]:
    """The RREF rows of an echelon times one common positive integer, the
    lcm of the pivot entries: the integer rows of least common scale."""
    m = lcm(*(row[p] for p, row in ech))
    return [[x * (m // row[p]) for x in row] for p, row in ech]


@dataclass(frozen=True)
class Subspace:
    """A linear subspace identified by the integer echelon of its row space:
    coprime rows with a positive pivot, sorted by pivot, each a positive
    multiple of its RREF row.  The RREF is derived, never stored."""

    dim_ambient: int
    basis: Mat  # the integer echelon; () is the zero subspace

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def echelon(self) -> Echelon:
        return [(next(j for j, x in enumerate(row) if x), row) for row in self.basis]

    @property
    def rref(self) -> RatMat:
        """The canonical RREF basis, each echelon row divided by its pivot."""
        return _rref_rows(self.echelon)

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.dim_ambient:
            raise ValueError(f"vector in R^{len(v)}, subspace of R^{self.dim_ambient}")
        return not any(_ireduce(v, self.echelon))


def _span(rows: Iterable[Sequence[int]], dim: int) -> Subspace:
    return Subspace(dim, tuple(row for _, row in _echelon(rows)))


def subspace_from_rows(rows: Iterable[Sequence], dim: int) -> Subspace:
    return _span(_int_rows(rows, dim), dim)


def full_space(dim: int) -> Subspace:
    return Subspace(dim, tuple(row for _, row in _unit_echelon(dim)))


def kernel(rows: Iterable[Sequence], dim: int) -> Subspace:
    """The subspace {x : rows . x = 0} in R^dim."""
    return _kernel(_echelon(_int_rows(rows, dim)), dim)


def _kernel(ech: Echelon, dim: int) -> Subspace:
    """{x : rows . x = 0} for the rows of an echelon of width dim."""
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
    return _span(basis, dim)


def orthogonal_complement(s: Subspace) -> Subspace:
    """All vectors orthogonal to the subspace."""
    return _kernel(s.echelon, s.dim_ambient)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    if a.dim_ambient != b.dim_ambient:
        raise ValueError("ambient dimensions differ")
    rows = orthogonal_complement(a).basis + orthogonal_complement(b).basis
    return _kernel(_echelon(rows), a.dim_ambient)


# ---------------------------------------------------------------------------
# Double description on integer vectors.


def _canon_rays(rays, lin: Echelon) -> Mat:
    """The distinct nonzero rays reduced modulo lin, primitive and sorted."""
    return tuple(sorted({v for v in (_prim(_ireduce(r, lin)) for r in rays) if any(v)}))


def _onto(r: Sequence[int], u: Sequence[int], s0: int, a: Vec) -> Sequence[int]:
    """Project r along u onto <a, x> = 0, where s0 = <a, u> > 0: the positive
    multiple s0 r - <a, r> u of r - (<a, r> / s0) u."""
    s = dot(a, r)
    return [s0 * x - s * y for x, y in zip(r, u)] if s else r


def _lin_cut(lin: Echelon, a: Vec):
    """The lineality half of a DD step, shared by every cone cut by <a, x> = 0.

    Returns (lineality, cut).  cut is None when the lineality lies inside
    the hyperplane.  Otherwise a lineality direction u with <a, u> > 0
    crosses it: the new lineality is the old one projected along u onto the
    hyperplane, and cut = (u, <a, u>, ray) with ray the image of u modulo the
    new lineality, which becomes a ray on the + side and, negated, on the -.
    """
    for i, (_, v) in enumerate(lin):
        s0 = dot(a, v)
        if s0:
            break
    else:
        return lin, None
    u = v if s0 > 0 else tuple(-x for x in v)
    s0 = abs(s0)
    new_lin = _echelon(_onto(row, u, s0, a) for k, (_, row) in enumerate(lin) if k != i)
    return new_lin, (u, s0, _prim(_ireduce(u, new_lin)))


def _dd_step(rays, lin: Echelon, cut, a: Vec, t: int):
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
        s = dot(a, r)
        if s > 0:
            plus.append((idx, r, z, s))
        elif s < 0:
            minus.append((idx, r, z, s))
        else:
            zero.append((r, z | bit))
    # a new ray lies on the hyperplane: it can only repeat a zero or new ray
    seen = {r for r, _ in zero}
    # adjacent rays share at least (pointed dimension - 2) tight rows
    need = len(rays[0][0]) - len(lin) - 2 if rays else 0
    for ip, rp, zp, sp in plus:
        for im, rm, zm, sm in [q for q in minus if (zp & q[2]).bit_count() >= need]:
            common = zp & zm
            if all(common & z3 != common or i3 == ip or i3 == im
                   for i3, (_, z3) in enumerate(rays)):
                w = _prim([sp * x - sm * y for x, y in zip(rm, rp)])
                if w not in seen:
                    seen.add(w)
                    zero.append((w, common | bit))
    return (
        [(r, z) for _, r, z, _ in plus] + zero,
        [(r, z) for _, r, z, _ in minus] + zero,
    )


def _maximal(masks: Sequence[int], full: int) -> list[int]:
    """Indices of the inclusion-maximal masks other than full, one per
    distinct mask: with the zero sets of rows on a cone's extreme rays, and
    full the set of all the rays, the rows that cut out facets."""
    kept: list[int] = []
    for t in sorted(range(len(masks)), key=lambda t: -masks[t].bit_count()):
        if masks[t] != full and not any(masks[t] & masks[f] == masks[t] for f in kept):
            kept.append(t)
    return kept


def _bits(m: int) -> Iterator[int]:
    """The indices of the set bits of m, in increasing order."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _transpose(masks: Sequence[int], n: int) -> list[int]:
    """For each element a < n, the bitset of the i whose masks[i] holds a."""
    cols = [0] * n
    for i, m in enumerate(masks):
        for a in _bits(m):
            cols[a] |= 1 << i
    return cols


def _up_sets(masks: Sequence[int], n: int) -> list[int]:
    """For each i, the bitset of the j with masks[i] ⊆ masks[j], for masks
    over n elements: the AND of the transposed rows of masks[i]'s elements."""
    cols, every = _transpose(masks, n), (1 << len(masks)) - 1
    return [reduce(and_, (cols[a] for a in _bits(m)), every) for m in masks]


def _unit_echelon(m: int) -> Echelon:
    return [(i, tuple(int(j == i) for j in range(m))) for i in range(m)]


def _dd(ineqs, eq_rows, d: int) -> tuple[Mat, Subspace]:
    """Double description: V-representation of {x : ineqs.x <= 0, eq_rows.x = 0}
    for integer rows.

    Returns (extreme rays, lineality subspace), both canonicalized; facets
    and implicit equalities follow from incidence, with no conversion back.
    The cone is converted in the coordinates of the integer echelon of
    {eq_rows.x = 0}; a coordinate that changes by a positive factor changes
    no sign, zero set or direction, so the result does not depend on the
    scale of that basis.
    """
    basis = _kernel(_echelon(eq_rows), d).basis
    # the distinct nonzero constraints in basis coordinates, in input order
    cons = [c for c in dict.fromkeys(_prim([dot(row, a) for row in basis]) for a in ineqs)
            if any(c)]

    lin = _unit_echelon(len(basis))
    rays: list[tuple[Vec, int]] = []
    for t, a in enumerate(cons):
        lin, cut = _lin_cut(lin, a)
        _, rays = _dd_step(rays, lin, cut, a, t)

    lin_ambient = _echelon(_lift(row, basis) for _, row in lin)
    rays = _canon_rays([_lift(r, basis) for r, _ in rays], lin_ambient)
    return rays, Subspace(d, tuple(row for _, row in lin_ambient))


def _lift(y, basis) -> tuple:
    """Map coordinates in a subspace basis back to ambient space."""
    return tuple(sum(map(mul, y, col)) for col in zip(*basis))


def lp_strictly_feasible(strict: Sequence[Sequence], ambient_dim: int) -> bool:
    """Exact test for existence of x with <a_i, x> > 0 for all given a_i.

    Runs the double description of the closed cone {x : <a_i, x> >= 0}.  Its
    lineality space is orthogonal to every a_i, so a_i is positive somewhere
    on the cone iff it is positive on an extreme ray, and then the sum of the
    extreme rays satisfies every strict inequality at once.  A zero row is
    never satisfied; an empty list is vacuously feasible (witnessed by x = 0).
    """
    normals = _int_rows(strict, ambient_dim, "normal")
    rays, _ = _dd([[-x for x in a] for a in normals], (), ambient_dim)
    return all(any(dot(a, r) > 0 for r in rays) for a in normals)
