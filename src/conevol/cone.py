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

Equality of cones is therefore equality of canonical data.  A face is an
index set into its parent's two representations: the generators it
contains and the inequalities active on it.  Its own cone is built only
when read.  The normal face F -> C° ∩ lin(F)^perp swaps the two index
sets, as `polar` swaps the two representations, because the polar's
generators are the parent's inequalities in order.  Conversion between the
representations is the double description `exactlin._dd`.  Rational input
is parsed once, by the constructors; the JSON wire format writes the
equalities and the lineality as their ``Fraction`` RREF
(`Subspace.rref`), so files are the same whatever the stored scale.

Strict feasibility, `exactlin.lp_strictly_feasible`, runs on the same
double description.  `transverse` asks it whether relint(F) ∩ relint(G) is
nonempty, with the strict rows read off the parents' inequalities, so no
face cone is built; `farkas_check` asks it for the primal side of the
Farkas equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exactlin import (
    Mat,
    Subspace,
    _canon_rays,
    _dd,
    _echelon,
    _int_rows,
    _span,
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
    dim: int
    lineality_dim: int

    @property
    def is_pointed(self) -> bool:
        return self.lineality_dim == 0

    @property
    def is_subspace(self) -> bool:
        return self.dim == self.lineality_dim

    @property
    def span(self) -> Subspace:
        return orthogonal_complement(Subspace(self.d, self.equalities))

    def contains(self, x) -> bool:
        x = vec(x)
        return all(dot(e, x) == 0 for e in self.equalities) and all(
            dot(a, x) <= 0 for a in self.inequalities
        )


@dataclass(frozen=True)
class Face:
    """The face of parent spanned by the generators in gen_mask, with the
    inequalities in active tight on it."""

    parent: Cone
    span: Subspace
    dim: int
    gen_mask: int
    active: frozenset[int]

    @cached_property
    def cone(self) -> Cone:
        p = self.parent
        return _from_vrep(_masked(p.generators, self.gen_mask), p.lineality, p.d)


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


def _from_vrep(rays, lin: Subspace, d: int) -> Cone:
    gens = _canon_rays(rays, lin.echelon)
    prays, plin = _dd(gens, lin.basis, d)
    return Cone(
        d=d,
        inequalities=prays,
        equalities=plin.basis,
        generators=gens,
        lineality=lin,
        dim=d - plin.dim,
        lineality_dim=lin.dim,
    )


def cone_from_inequalities(normals, d: int, equalities=()) -> Cone:
    """Cone {x : <a, x> <= 0 for all a} via double description."""
    normals = _int_rows(normals, d, "normal")
    eqs = _int_rows(equalities, d, "equality")
    if not all(map(any, normals)):
        raise ValueError("zero normal encodes no constraint")
    rays, lin = _dd(normals, eqs, d)
    return _from_vrep(rays, lin, d)


def cone_from_generators(rays, lineality=(), d: int | None = None) -> Cone:
    """Cone generated by rays plus a lineality space; H-rep via the polar."""
    if d is None:
        raise ValueError("ambient dimension d is required")
    rays = _int_rows(rays, d, "vector")
    lin_rows = _int_rows(lineality, d, "vector")
    prays, plin = _dd(rays, lin_rows, d)  # V-rep of the polar cone
    rrays, rlin = _dd(prays, plin.basis, d)  # back to C = (C°)°
    return Cone(
        d=d,
        inequalities=prays,
        equalities=plin.basis,
        generators=rrays,
        lineality=rlin,
        dim=d - plin.dim,
        lineality_dim=rlin.dim,
    )


def subspace_cone(s: Subspace) -> Cone:
    return _from_vrep((), s, s.dim_ambient)


def polar(c: Cone) -> Cone:
    """Polar cone {x : <x, y> <= 0 for all y in C}.

    With canonical dual representations this is an exact swap of the two
    sides, which makes the involution property structural.
    """
    return Cone(
        d=c.d,
        inequalities=c.generators,
        equalities=c.lineality.basis,
        generators=c.inequalities,
        lineality=Subspace(c.d, c.equalities),
        dim=c.d - c.lineality_dim,
        lineality_dim=c.d - c.dim,
    )


def face_lattice(c: Cone) -> FaceLattice:
    """All faces of the cone, graded by dimension.

    Faces are intersections of facet-incidence sets of extreme rays: the
    meet-closure of the facet masks enumerates every face once.  Each face
    is the index set of its generators and of its active facets, with the
    span of those generators plus the lineality space; no face cone is
    built.  Faces sort by (dim, selected generators), which are the face
    cone's canonical generators, so the interval below a face, in this
    order, is the face's own lattice.
    """
    gens = c.generators
    n = len(gens)
    facet_masks = []
    for a in c.inequalities:
        mask = 0
        for i, r in enumerate(gens):
            if not dot(a, r):
                mask |= 1 << i
        facet_masks.append(mask)
    full = (1 << n) - 1
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
        faces.append(Face(c, span, span.dim, msk, active))
    faces.sort(key=lambda f: (f.dim, _masked(gens, f.gen_mask)))
    fvec = [0] * (c.d + 1)
    for f in faces:
        fvec[f.dim] += 1
    leq = []
    for f in faces:
        bits = 0
        for j, g in enumerate(faces):
            if f.gen_mask & g.gen_mask == f.gen_mask:
                bits |= 1 << j
        leq.append(bits)
    return FaceLattice(c, tuple(faces), tuple(fvec), tuple(leq))


def normal_face(c: Cone, f: Face) -> Face:
    """The face N_F C = C° ∩ lin(F)^perp of the polar cone, of dimension
    d - dim F: the normals active on F, tight on the generators in F."""
    if f.parent != c:
        raise ValueError("face does not belong to this cone")
    normals = tuple(c.inequalities[i] for i in sorted(f.active))
    span = _span(normals + c.equalities, c.d)
    return Face(polar(c), span, span.dim, sum(1 << i for i in f.active),
                frozenset(i for i in range(len(c.generators)) if f.gen_mask >> i & 1))


def canonical_decomposition(c: Cone) -> tuple[Subspace, Cone]:
    """Split C = L + C/L with L the lineality space and C/L pointed."""
    lin = c.lineality
    if lin.dim == 0:
        return lin, c
    # C/L is C ∩ L^perp: the same inequalities, with lin(C) cut out
    rays, plin = _dd(c.inequalities, c.equalities + lin.basis, c.d)
    return lin, _from_vrep(rays, plin, c.d)


def intersect(c: Cone, other: Cone) -> Cone:
    if c.d != other.d:
        raise ValueError("ambient dimensions differ")
    rays, lin = _dd(
        c.inequalities + other.inequalities,
        c.equalities + other.equalities,
        c.d,
    )
    return _from_vrep(rays, lin, c.d)


def minkowski_sum(c: Cone, other: Cone) -> Cone:
    if c.d != other.d:
        raise ValueError("ambient dimensions differ")
    return cone_from_generators(
        c.generators + other.generators,
        c.lineality.basis + other.lineality.basis,
        c.d,
    )


def product(c: Cone, other: Cone) -> Cone:
    """Direct product C x D in R^(d_C + d_D) (block coordinates)."""
    d = c.d + other.d
    pad_l = lambda v: v + (0,) * other.d
    pad_r = lambda v: (0,) * c.d + v
    gens = [pad_l(g) for g in c.generators] + [pad_r(g) for g in other.generators]
    lin = [pad_l(v) for v in c.lineality.basis] + [pad_r(v) for v in other.lineality.basis]
    return cone_from_generators(gens, lin, d)


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


def cone_from_json(obj: dict) -> Cone:
    """Build a cone from its JSON form; exactly one representation given."""
    if "d" not in obj:
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
