"""Polyhedral cones: dual representations, face lattices, polarity.

Cones are stored with both representations in canonical form, as rows of
Python ``int``:

* generators: the extreme rays, reduced modulo the lineality space
  (pivot coordinates of the lineality basis eliminated), made primitive
  (coprime entries) and sorted;
* inequalities: the facet normals, which are exactly the extreme rays of
  the polar cone, canonicalized the same way modulo lin(C)^perp;
* equalities: the integer echelon of lin(C)^perp, and lineality the
  `Subspace` of lin(C), also held as its integer echelon.

Equality of cones is therefore equality of canonical data, and the
dimensions are derived from it.  A cone builds its face lattice on the
first `face_lattice` call and holds it.  A face is an index set into its
parent's two representations: the generators it contains and the
inequalities active on it.  Its own cone is built only when read, and then
held by the face.  The normal face F -> C° ∩ lin(F)^perp swaps the two
index sets, as `polar` swaps the two representations, because the polar's
generators are the parent's inequalities in order.

A DD, `exactlin._dd`, runs only where one representation is unknown: the
two constructors, `intersect`, Minkowski sums, tangent and rotated cones,
and strict feasibility.  The rest is read from incidence: input rows tight
on every extreme ray are equalities, and the others with maximal zero sets
on the rays are facets (`exactlin._maximal`, as for chambers); on the
polar, the same rule finds the extreme rays.  Face cones, products,
coordinate factors and pointed parts are assembled from rows the cone
holds, with no DD.  Rational input is parsed once, by the constructors;
the JSON wire format writes the equalities and the lineality as their
``Fraction`` RREF (`Subspace.rref`), so files are the same whatever the
stored scale.

Strict feasibility, `exactlin.lp_strictly_feasible`, runs on the same
double description.  `transverse` asks it whether relint(F) ∩ relint(G) is
nonempty, with the strict rows read off the parents' inequalities, so no
face cone is built; `farkas_check` asks it for the primal side of the
Farkas equivalence.

`congruence_key` reads the signed squared cosines between a cone's
generators, projected onto lin(C)^perp, in a canonical order: cones with
equal keys are congruent, so they have equal intrinsic volumes.  A cone
holds the cosine table of its generators on first use, and a face is
keyed from its parent's table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from math import factorial, gcd, prod

from .exactlin import (
    Mat,
    Subspace,
    Vec,
    _bits,
    _canon_rays,
    _dd,
    _echelon,
    _int_rows,
    _maximal,
    _prim,
    _span,
    _up_sets,
    dot,
    lp_strictly_feasible,
    orthogonal_complement,
    subspace_intersection,
    vec,
)


class InvariantViolation(RuntimeError):
    """A structural identity that must hold by construction failed."""


@dataclass(frozen=True)
class Cone:
    """Polyhedral cone {x : <a, x> <= 0 for a in inequalities, <e, x> = 0}."""

    d: int
    inequalities: Mat
    equalities: Mat
    generators: Mat
    lineality: Subspace

    @property
    def dim(self) -> int:
        return self.d - len(self.equalities)

    @property
    def lineality_dim(self) -> int:
        return self.lineality.dim

    @property
    def is_pointed(self) -> bool:
        return self.lineality_dim == 0

    @property
    def is_subspace(self) -> bool:
        return self.dim == self.lineality_dim

    @property
    def span(self) -> Subspace:
        return orthogonal_complement(Subspace(self.d, self.equalities))

    @cached_property
    def _face_lattice(self) -> FaceLattice:
        return _build_face_lattice(self)

    @cached_property
    def _cosine_table(self) -> tuple[list[list[int]], list[tuple[int, int]]]:
        return _build_cosine_table(self)

    def contains(self, x) -> bool:
        x = vec(x)
        if len(x) != self.d:
            raise ValueError(f"point in R^{len(x)}, cone in R^{self.d}")
        return all(dot(e, x) == 0 for e in self.equalities) and all(
            dot(a, x) <= 0 for a in self.inequalities
        )


@dataclass(frozen=True)
class Face:
    """The face of parent spanned by the generators in gen_mask, with the
    inequalities in active tight on it."""

    parent: Cone
    span: Subspace
    gen_mask: int
    active: frozenset[int]

    @property
    def dim(self) -> int:
        return self.span.dim

    @cached_property
    def cone(self) -> Cone:
        # F's extreme rays are the parent's generators in it
        p = self.parent
        return _from_incidence(p.inequalities, p.equalities,
                               _masked(p.generators, self.gen_mask), p.lineality, p.d)


@dataclass(frozen=True)
class FaceLattice:
    cone: Cone
    faces: tuple[Face, ...]
    f_vector: tuple[int, ...]
    leq_masks: tuple[int, ...]  # bit j of leq_masks[i] set iff faces[i] <= faces[j]

    def leq(self, i: int, j: int) -> bool:
        return bool(self.leq_masks[i] >> j & 1)

    @property
    def euler_sum(self) -> int:
        return sum((-1) ** k * f for k, f in enumerate(self.f_vector))

    def face_of_cone(self, c: Cone) -> Face:
        if c.lineality == self.cone.lineality:
            for f in self.faces:
                if _masked(self.cone.generators, f.gen_mask) == c.generators:
                    return f
        raise ValueError("cone is not a face of the lattice")


def _masked(rows: Mat, mask: int) -> Mat:
    """The rows whose bits are set in mask, in order."""
    return tuple(r for i, r in enumerate(rows) if mask >> i & 1)


def _zero_sets(rows, rays) -> list[int]:
    """Per row, the bitmask of the rays it is tight on."""
    return [sum(1 << k for k, r in enumerate(rays) if not dot(a, r)) for a in rows]


def _from_incidence(rows, eqs, rays: Mat, lin: Subspace, d: int) -> Cone:
    """C = lin + cone(rays), rays its canonical extreme rays, where C is
    {x : rows.x <= 0, eqs.x = 0} with the rows tight on every ray made
    equalities; those rows and eqs span span(C)^perp, and `_maximal` picks
    the facets among the other rows."""
    full = (1 << len(rays)) - 1
    zero = _zero_sets(rows, rays)
    perp = _echelon([*eqs, *(a for a, z in zip(rows, zero) if z == full)])
    return Cone(d=d, inequalities=_canon_rays([rows[t] for t in _maximal(zero, full)], perp),
                equalities=tuple(row for _, row in perp), generators=rays, lineality=lin)


def cone_from_inequalities(normals, d: int, equalities=()) -> Cone:
    """Cone {x : <a, x> <= 0 for all a}: one double description, facets
    read from incidence."""
    normals = _int_rows(normals, d, "normal")
    eqs = _int_rows(equalities, d, "equality")
    if not all(map(any, normals)):
        raise ValueError("zero normal encodes no constraint")
    return _from_incidence(normals, eqs, *_dd(normals, eqs, d), d)


def cone_from_generators(rays, lineality=(), d: int | None = None) -> Cone:
    """Cone generated by rays plus a lineality space: one double description
    of the polar, whose facets, read from incidence, are C's extreme rays."""
    if d is None:
        raise ValueError("ambient dimension d is required")
    rays = _int_rows(rays, d, "vector")
    lin_rows = _int_rows(lineality, d, "vector")
    return polar(_from_incidence(rays, lin_rows, *_dd(rays, lin_rows, d), d))


def subspace_cone(s: Subspace) -> Cone:
    return Cone(d=s.dim_ambient, inequalities=(), equalities=orthogonal_complement(s).basis,
                generators=(), lineality=s)


def polar(c: Cone) -> Cone:
    """Polar cone {x : <x, y> <= 0 for all y in C}.

    With canonical dual representations this is an exact swap of the two
    sides, which makes the involution property structural.
    """
    return Cone(d=c.d, inequalities=c.generators, equalities=c.lineality.basis,
                generators=c.inequalities, lineality=Subspace(c.d, c.equalities))


def face_lattice(c: Cone) -> FaceLattice:
    """All faces of the cone, graded by dimension.

    Faces are intersections of facet-incidence sets of extreme rays: the
    meet-closure of the facet masks enumerates every face once.  Each face
    is the index set of its generators and of its active facets, with the
    span of those generators plus the lineality space; no face cone is
    built.  Faces sort by (dim, selected generators), which are the face
    cone's canonical generators, so the interval below a face, in this
    order, is the face's own lattice.  The order is read off the generator
    masks as bitsets (`exactlin._up_sets`).  A cone builds its lattice once
    and holds it, with the face cones read from it.
    """
    return c._face_lattice


def _build_face_lattice(c: Cone) -> FaceLattice:
    gens = c.generators
    facet_masks = _zero_sets(c.inequalities, gens)
    full = (1 << len(gens)) - 1
    masks = {full}
    frontier = [full]
    while frontier:
        m = frontier.pop()
        for fm in facet_masks:
            nm = m & fm
            if nm not in masks:
                masks.add(nm)
                frontier.append(nm)

    faces = []
    for msk in masks:
        span = _span(_masked(gens, msk) + c.lineality.basis, c.d)
        active = frozenset(
            i for i, fm in enumerate(facet_masks) if msk & fm == msk
        )
        faces.append(Face(c, span, msk, active))
    faces.sort(key=lambda f: (f.dim, _masked(gens, f.gen_mask)))
    fvec = [0] * (c.d + 1)
    for f in faces:
        fvec[f.dim] += 1
    leq = _up_sets([f.gen_mask for f in faces], len(gens))
    return FaceLattice(c, tuple(faces), tuple(fvec), tuple(leq))


def normal_face(c: Cone, f: Face) -> Face:
    """The face N_F C = C° ∩ lin(F)^perp of the polar cone, of dimension
    d - dim F: the normals active on F, tight on the generators in F."""
    if f.parent != c:
        raise ValueError("face does not belong to this cone")
    normals = tuple(c.inequalities[i] for i in sorted(f.active))
    span = _span(normals + c.equalities, c.d)
    return Face(polar(c), span, sum(1 << i for i in f.active),
                frozenset(i for i in range(len(c.generators)) if f.gen_mask >> i & 1))


def canonical_decomposition(c: Cone) -> tuple[Subspace, Cone]:
    """Split C = L + C/L with L the lineality space and C/L pointed: C/L is
    C ∩ L^perp, generated by C's generators projected onto L^perp."""
    lin = c.lineality
    if lin.dim == 0:
        return lin, c
    rays = _canon_rays(_perp_rows(c.generators, lin), [])
    return lin, _from_incidence(c.inequalities, c.equalities + lin.basis, rays,
                                Subspace(c.d, ()), c.d)


def intersect(c: Cone, other: Cone) -> Cone:
    if c.d != other.d:
        raise ValueError("ambient dimensions differ")
    rows = c.inequalities + other.inequalities
    eqs = c.equalities + other.equalities
    return _from_incidence(rows, eqs, *_dd(rows, eqs, c.d), c.d)


def minkowski_sum(c: Cone, other: Cone) -> Cone:
    if c.d != other.d:
        raise ValueError("ambient dimensions differ")
    return cone_from_generators(
        c.generators + other.generators,
        c.lineality.basis + other.lineality.basis,
        c.d,
    )


def product(c: Cone, other: Cone) -> Cone:
    """Direct product C x D in R^(d_C + d_D), the inverse of
    `coordinate_factors`: the factors' canonical rows padded, generators
    and inequalities merged in order, the echelons concatenated."""
    d = c.d + other.d

    def both(left, right):
        return [r + (0,) * other.d for r in left] + [(0,) * c.d + r for r in right]

    return Cone(d=d, inequalities=tuple(sorted(both(c.inequalities, other.inequalities))),
                equalities=tuple(both(c.equalities, other.equalities)),
                generators=tuple(sorted(both(c.generators, other.generators))),
                lineality=Subspace(d, tuple(both(c.lineality.basis, other.lineality.basis))))


def coordinate_factors(c: Cone) -> list[tuple[tuple[int, ...], Cone]]:
    """C's finest split into a product of cones on blocks of coordinates:
    (columns, factor) per block, by first column; one block of every
    coordinate when C does not split.  A product's canonical rows each lie
    in one block, so a factor's rows are C's rows on its block, restricted."""
    label = list(range(c.d))  # the least coordinate of each coordinate's block
    for row in c.generators + c.lineality.basis:
        joined = {label[i] for i, x in enumerate(row) if x}
        label = [min(joined) if b in joined else b for b in label]

    def factor(cols):
        def on(rows):
            return tuple(tuple(r[i] for i in cols) for r in rows if any(r[i] for i in cols))
        return Cone(d=len(cols), inequalities=on(c.inequalities), equalities=on(c.equalities),
                    generators=on(c.generators),
                    lineality=Subspace(len(cols), on(c.lineality.basis)))

    blocks = [tuple(i for i in range(c.d) if label[i] == b) for b in sorted(set(label))]
    return [(cols, factor(cols)) for cols in blocks]


def farkas_check(c: Cone, l: Subspace) -> bool:
    """Whether relint(C) and the subspace L are disjoint.

    Evaluates both sides of the Farkas equivalence and raises if they
    disagree.  The dual certificate is a properly separating functional:
    h in polar(C) ∩ L^perp that does not vanish on all of C.  (Without the
    properness requirement the dual side is vacuously nonzero whenever
    lin(C) + L is a proper subspace, e.g. for C = {0}.)
    """
    if l.dim_ambient != c.d:
        raise ValueError("ambient dimensions differ")
    # primal: does some x in lin(C) ∩ L satisfy every facet strictly?  A
    # subspace C has no facets, so 0 does; in lin(C) ∩ L = {0} no facet can
    s = subspace_intersection(c.span, l)
    strict = [tuple(-dot(row, a) for row in s.basis) for a in c.inequalities]
    primal_empty = not lp_strictly_feasible(strict, s.dim)
    dual_cone = intersect(polar(c), subspace_cone(orthogonal_complement(l)))
    # lineality of the dual cone always sits inside lin(C)^perp; only a
    # generator outside lin(C)^perp certifies proper separation
    lin_c_perp = Subspace(c.d, c.equalities)
    dual_nontrivial = any(
        not lin_c_perp.contains(g) for g in dual_cone.generators
    )
    if primal_empty != dual_nontrivial:
        raise InvariantViolation(
            f"Farkas sides disagree: primal_empty={primal_empty}, "
            f"dual_nontrivial={dual_nontrivial}"
        )
    return primal_empty


def transverse(f: Face, g: Face) -> bool:
    """Whether two faces intersect transversely (relints meet, dims add).

    relint(F) is span F with every parent inequality not active on F strict,
    so the test reads the parents' rows and builds no face cone.
    """
    if f.parent.d != g.parent.d:
        raise ValueError("ambient dimensions differ")
    d = f.parent.d
    # dims add iff span F + span G = R^d, since dim(U ∩ W) = dim U + dim W
    # - dim(U + W); one echelon rejects most pairs before the intersection
    if len(_echelon(f.span.basis + g.span.basis)) != d:
        return False
    s = subspace_intersection(f.span, g.span)
    strict = [
        tuple(-dot(row, a) for row in s.basis)
        for face in (f, g)
        for i, a in enumerate(face.parent.inequalities)
        if i not in face.active
    ]
    # on s = {0} this holds iff both faces are subspaces (no strict rows)
    return lp_strictly_feasible(strict, s.dim)


# ---------------------------------------------------------------------------
# Congruence

# cell-respecting generator orders `_canonical_cosines` may search; a cone
# with more is keyed by itself
_KEY_BUDGET = 720


def _perp_rows(rows: Mat, lin: Subspace) -> list[Vec]:
    """Positive multiples of the rows' orthogonal projections onto lin^perp,
    as integer vectors: each lineality direction of an orthogonal integer
    basis b is taken out by x <- (b.b) x - (x.b) b."""
    basis: list[Vec] = []

    def project(v):
        for b in basis:
            v = _prim([dot(b, b) * x - dot(v, b) * y for x, y in zip(v, b)])
        return v

    for row in lin.basis:
        basis.append(project(row))
    return [project(r) for r in rows]


def _build_cosine_table(c: Cone) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Per pair of generators x, y of C, projected onto lin(C)^perp, the
    signed squared cosine sign(x.y) (x.y)^2 / (|x|^2 |y|^2) as a reduced
    (numerator, denominator) pair.  The pairs are held as codes, their ranks
    among the table's distinct pairs, which the table returns in order: a
    code order is the pair order, so searches compare small ints."""
    u = _perp_rows(c.generators, c.lineality)
    norms = [dot(x, x) for x in u]
    m = len(u)
    pairs = [[(1, 1)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i):
            g = dot(u[i], u[j])
            num, den = g * abs(g), norms[i] * norms[j]
            h = gcd(num, den)
            pairs[i][j] = pairs[j][i] = (num // h, den // h)
    values = sorted({p for row in pairs for p in row})
    code = {p: k for k, p in enumerate(values)}
    return [[code[p] for p in row] for row in pairs], values


def _canonical_cosines(table, idx: list[int]):
    """The cosine table on the generators idx, in canonical form under
    simultaneous permutation of rows and columns, or None past the budget.

    Generators are split into cells by the sorted multiset of their rows and
    the cells ordered by it; only orders that keep each cell in its place
    are searched.  The form is the least sequence of rows below the
    diagonal over those orders, built one position at a time from every
    partial order that is still least, and read back as pairs."""
    codes, values = table
    row_of = {i: sorted(codes[i][j] for j in idx) for i in idx}.__getitem__
    cells = [list(cell) for _, cell in groupby(sorted(idx, key=row_of), key=row_of)]
    if prod(factorial(len(cell)) for cell in cells) > _KEY_BUDGET:
        return None
    partial = [()]
    form = []
    for cell in cells:
        for _ in cell:
            least, grown = None, []
            for p in partial:
                for v in cell:
                    if v in p:
                        continue
                    row = [codes[v][s] for s in p]
                    if least is None or row < least:
                        least, grown = row, [p + (v,)]
                    elif row == least:
                        grown.append(p + (v,))
            form.append(tuple(values[k] for k in least))
            partial = grown
    return tuple(form)


def congruence_key(c: Cone | Face) -> tuple:
    """A key that two cones share only if an orthogonal map carries one onto
    the other, so they have the same intrinsic volumes.

    The key is (d, dim C, dim lin(C), the canonical cosine table of C's
    generators projected onto lin(C)^perp).  Equal tables give an isometry
    between the pointed parts that maps generator to generator, and any
    isometry between the lineality spaces and between the remaining
    complements completes it.  The key is sound but not complete: a cone
    whose table is past the search budget is keyed by the cone itself.  A
    face is keyed from its parent's table, so its cone is not built."""
    if isinstance(c, Face):
        parent = c.parent
        idx = list(_bits(c.gen_mask))
    else:
        parent, idx = c, list(range(len(c.generators)))
    form = _canonical_cosines(parent._cosine_table, idx)
    if form is None:
        form = c.cone if isinstance(c, Face) else c
    return (parent.d, c.dim, parent.lineality_dim, form)


# ---------------------------------------------------------------------------
# JSON wire format


def rational_to_json(x):
    """An int, or a Fraction as an int or a 'p/q' string."""
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def matrix_to_json(rows):
    return [[rational_to_json(x) for x in row] for row in rows]


def cone_to_json(c: Cone) -> dict:
    """Canonical H-representation, equalities in RREF; parsing it back
    reproduces the cone."""
    return {
        "d": c.d,
        "inequalities": matrix_to_json(c.inequalities),
        "equalities": matrix_to_json(Subspace(c.d, c.equalities).rref),
    }


def _json_dim(d) -> int:
    """The ambient dimension 'd' of an input file: an int >= 1."""
    if type(d) is not int or d < 1:  # also rejects bool, a subclass of int
        raise ValueError(f"ambient dimension 'd' must be a positive integer, got {d!r}")
    return d


def _json_object(obj, what: str) -> dict:
    """The top-level value of an input file, which must be a JSON object."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} JSON must be an object, got {type(obj).__name__}")
    return obj


def cone_from_json(obj: dict) -> Cone:
    """Build a cone from its JSON form; exactly one representation given."""
    if "d" not in _json_object(obj, "cone"):
        raise ValueError("cone JSON requires the ambient dimension 'd'")
    d = _json_dim(obj["d"])
    has_h = "inequalities" in obj or "equalities" in obj
    has_v = "generators" in obj or "lineality" in obj
    if has_h == has_v:
        raise ValueError("give exactly one of the H- or V-representation")
    if has_h:
        return cone_from_inequalities(obj.get("inequalities", []), d,
                                      obj.get("equalities", []))
    return cone_from_generators(obj.get("generators", []), obj.get("lineality", []), d)
