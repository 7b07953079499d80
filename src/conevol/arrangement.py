"""Central hyperplane arrangements: lattices, polynomials, regions.

Hyperplanes are stored as primitive integer normals with positive leading
entry (H and -H define the same hyperplane).  The intersection lattice is
built by breadth-first closure under single-hyperplane intersection on
integer echelons: a flat X is keyed by the echelon of X^perp, the span of
the normals of the hyperplanes containing it, and one kernel of that
echelon gives the flat's subspace, itself an integer echelon.  Flats are
sorted by their RREF (`Subspace.rref`), read as integers at one common
scale, not by the echelon, which orders some flats with fractional RREF
entries differently; a flat's coordinates, for restrictions and regions,
are its RREF rows scaled by one common integer.  Flats are ordered by their
defining sets as bitsets (`exactlin._up_sets`), and the Möbius recursion
takes y in index order, bottom-up; characteristic polynomials carry exact
integer coefficients.  An arrangement builds its lattice once and holds
it, with no reference back;
the level polynomials chi_{A,0..d} come from one pass over the Möbius
table.  Chambers are
enumerated by incremental insertion on V-representations with the
double-description step that converts cones between representations: its
lineality half `exactlin._lin_cut` runs once per hyperplane, its ray half
`exactlin._dd_step` once per chamber.  Inserting a hyperplane splits exactly
the chambers with generators strictly on both sides, decided by exact signs
on integer vectors.  Regions of dimension j are the chambers of the
restrictions to j-flats, lifted back to ambient coordinates; flats whose
restricted arrangements are equal share one insertion.  A region is built
with its sign vector and flat; its cone is built from the insertion data
on first read, with no second double description: its rays and zero-set
bitmasks give the generators and the facets, and the flat gives the
lineality and the equalities.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .cone import Cone, InvariantViolation, _json_dim, _json_object, matrix_to_json
from .exactlin import (
    Mat,
    Subspace,
    Vec,
    _bits,
    _common_scale,
    _dd_step,
    _echelon,
    _int_rows,
    _ireduce,
    _kernel,
    _lift,
    _lin_cut,
    _maximal,
    _prim,
    _transpose,
    _unit_echelon,
    _up_sets,
    dot,
    full_space,
)


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial with exact integer coefficients,
    lowest degree first, trailing zeros trimmed."""

    coeffs: tuple[int, ...]

    @staticmethod
    def of(seq) -> "Polynomial":
        cs = [int(c) for c in seq]
        while cs and cs[-1] == 0:
            cs.pop()
        return Polynomial(tuple(cs))

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def from_roots(roots) -> "Polynomial":
        out = Polynomial.of([1])
        for r in roots:
            out = out * Polynomial.of([-int(r), 1])
        return out

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial.of(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial.of([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial.of(out)

    __rmul__ = __mul__

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0


@dataclass(frozen=True)
class BiPolynomial:
    """Polynomial in (s, t) with integer coefficients, stored sparse."""

    terms: tuple[tuple[int, int, int], ...]  # sorted (s_deg, t_deg, coeff)

    @staticmethod
    def from_dict(d: dict) -> "BiPolynomial":
        return BiPolynomial(
            tuple(sorted((i, j, int(c)) for (i, j), c in d.items() if c != 0))
        )

    def as_dict(self) -> dict:
        return {(i, j): c for i, j, c in self.terms}

    def coefficient(self, s_deg: int, t_deg: int) -> int:
        return self.as_dict().get((s_deg, t_deg), 0)

    def __mul__(self, other: "BiPolynomial") -> "BiPolynomial":
        out: dict = {}
        for i1, j1, c1 in self.terms:
            for i2, j2, c2 in other.terms:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return BiPolynomial.from_dict(out)

    def __call__(self, s, t):
        return sum(c * s**i * t**j for i, j, c in self.terms)


@dataclass(frozen=True)
class Arrangement:
    d: int
    normals: Mat  # primitive, positive leading entry, sorted, deduplicated

    @cached_property
    def _lattice(self) -> IntersectionLattice:
        return IntersectionLattice(self)


@dataclass(frozen=True)
class Flat:
    subspace: Subspace
    defining_set: frozenset[int]

    @property
    def dim(self) -> int:
        return self.subspace.dim


@dataclass(frozen=True, eq=False)
class Region:
    """A chamber of the restriction to a flat, in ambient coordinates.

    The sign vector and the flat are built with the region; the cone is
    built from the chamber insertion on its first read and then held.  The
    regions of one flat share the per-flat part of that build, and flats
    whose restrictions are equal share each chamber's facets, so reading
    every cone does the work of building them all at once.  A first read
    from two threads at once may build the cone twice, with equal results.
    Regions compare by sign vector, flat and cone, and hash by sign vector
    and flat, so a comparison builds cones only where those two agree.
    """

    sign_vector: tuple[int, ...]  # over the arrangement's normals; 0 = contained
    flat: Flat
    _lift: _FlatLift = field(repr=False)
    _chamber: _Chamber = field(repr=False)

    @cached_property
    def cone(self) -> Cone:
        return self._lift.cone(self._chamber)

    def __eq__(self, other):
        if not isinstance(other, Region):
            return NotImplemented
        return (self.sign_vector == other.sign_vector and self.flat == other.flat
                and self.cone == other.cone)

    def __hash__(self):
        return hash((self.sign_vector, self.flat))


def _sign_canon(v: Vec) -> Vec:
    """The one of ±v whose leading nonzero entry is positive."""
    return max(v, tuple(-x for x in v))


def arrangement(normals, d: int) -> Arrangement:
    canon = []
    seen = set()
    for a in _int_rows(normals, d, "normal"):
        if not any(a):
            raise ValueError("zero normal does not define a hyperplane")
        s = _sign_canon(_prim(a))
        if s not in seen:
            seen.add(s)
            canon.append(s)
    return Arrangement(d, tuple(sorted(canon)))


class IntersectionLattice:
    """Flats of an arrangement ordered by reverse inclusion, with Möbius table.

    flats[0] is R^d (the least element); flats are sorted by decreasing
    dimension then canonical basis.  No reference to the arrangement is kept.
    """

    def __init__(self, arr: Arrangement):
        d = arr.d
        normals = arr.normals
        # closure under single-hyperplane intersection, keyed by the echelon
        # of X^perp, which is spanned by the normals of the hyperplanes
        # containing the flat X: a hyperplane contains X iff its normal
        # reduces to zero, and each distinct flat needs one kernel
        defining: dict[tuple, frozenset[int]] = {}
        found = {()}
        work = [()]
        while work:
            key = work.pop()
            rows = [row for _, row in key]
            inside = []
            cuts = set()  # normals modulo X^perp, up to sign: one per new flat
            for i, n in enumerate(normals):
                w = _ireduce(n, key)
                if not any(w):
                    inside.append(i)
                else:
                    cuts.add(_sign_canon(_prim(w)))
            for w in cuts:
                nk = tuple(_echelon(rows + [w]))
                if nk not in found:
                    found.add(nk)
                    work.append(nk)
            defining[key] = frozenset(inside)
        flats = [Flat(_kernel(key, d), ds) for key, ds in defining.items()]
        # sorted by RREF: entry x/p of an echelon row with pivot entry p is
        # x * (m // p) at the one positive scale m, so integers keep the order
        m = math.lcm(*(row[p] for f in flats for p, row in f.subspace.echelon))
        flats.sort(key=lambda f: (-f.dim, [[x * (m // row[p]) for x in row]
                                           for p, row in f.subspace.echelon]))
        self.flats: tuple[Flat, ...] = tuple(flats)
        # a flat is the intersection of the hyperplanes containing it, so
        # flat_y lies in flat_x iff every hyperplane defining x defines y
        self._below = _up_sets([sum(1 << i for i in f.defining_set) for f in flats],
                               len(normals))  # _below[x]: the y with flat_y in flat_x
        above = _transpose(self._below, len(flats))  # above[y]: the x with flat_y in flat_x
        # flats run by decreasing dimension, so index order is bottom-up:
        # mu(x, z) is known for every z strictly between x and y
        self.mobius: dict[tuple[int, int], int] = {}
        for x, below in enumerate(self._below):
            mu = {x: 1}
            for y in _bits(below ^ (1 << x)):
                mu[y] = -sum(mu[z] for z in _bits((below & above[y]) ^ (1 << y)))
            self.mobius.update(((x, y), m) for y, m in mu.items())

    def leq(self, x: int, y: int) -> bool:
        """x precedes y in the reverse-inclusion order (flat_y inside flat_x)."""
        return bool(self._below[x] >> y & 1)

    @property
    def ell(self) -> tuple[int, ...]:
        counts = [0] * (self.flats[0].dim + 1)
        for f in self.flats:
            counts[f.dim] += 1
        return tuple(counts)

    def mu(self, x: int, y: int) -> int:
        return self.mobius.get((x, y), 0)

    @cached_property
    def levels(self) -> tuple[Polynomial, ...]:
        """chi_{A,0..d} in one pass over the Möbius table, whose pairs are
        the flats y inside x: mu(x, y) t^{dim y} adds to chi_{A,dim x}."""
        d = self.flats[0].dim
        coeffs = [[0] * (d + 1) for _ in range(d + 1)]
        for (x, y), m in self.mobius.items():
            coeffs[self.flats[x].dim][self.flats[y].dim] += m
        return tuple(Polynomial.of(c) for c in coeffs)


def intersection_lattice(a: Arrangement) -> IntersectionLattice:
    """The arrangement's lattice, built on the first call and held by it."""
    return a._lattice


def char_poly(a: Arrangement) -> Polynomial:
    """chi(t) = sum over flats of mu(R^d, L) t^{dim L}: the level-d
    polynomial, since R^d is the only d-flat."""
    return intersection_lattice(a).levels[a.d]


def level_char_poly(a: Arrangement, j: int) -> Polynomial:
    """j-th level characteristic polynomial: Möbius sums from the j-flats."""
    if not 0 <= j <= a.d:
        raise ValueError("level out of range")
    return intersection_lattice(a).levels[j]


def bivariate_poly(a: Arrangement) -> BiPolynomial:
    """X(s, t) = sum_j s^j chi_{A,j}(t)."""
    levels = enumerate(intersection_lattice(a).levels)
    return BiPolynomial.from_dict({(j, k): c for j, p in levels for k, c in enumerate(p.coeffs)})


def restriction(a: Arrangement, flat) -> Arrangement:
    """The arrangement {H ∩ L : H not containing L} in coordinates of L.

    Coordinates come from the canonical RREF basis of L, scaled by one
    common integer; lattice-level and polynomial outputs do not depend on
    this choice.
    """
    sub = flat.subspace if isinstance(flat, Flat) else flat
    if sub.dim_ambient != a.d:
        raise ValueError(f"flat in R^{sub.dim_ambient}, arrangement in R^{a.d}")
    restricted, _ = _restrict(a.normals, _common_scale(sub.echelon))
    return Arrangement(sub.dim, tuple(restricted))


def _restrict(normals: Mat, basis) -> tuple[list[Vec], list]:
    """Restrict integer normals to the span of the basis rows.

    Returns the restricted normals, sign-canonical, deduplicated and sorted
    as `arrangement` keeps them, and for each ambient normal either
    (t, orientation), its projection being a positive multiple of
    orientation * restricted[t], or None if its hyperplane contains the span.
    """
    proj = []
    for n in normals:
        p = _prim([dot(row, n) for row in basis])
        o = next(((x > 0) - (x < 0) for x in p if x), 0)
        proj.append((p if o >= 0 else tuple(-x for x in p), o))
    restricted = sorted({p for p, o in proj if o})
    index = {p: t for t, p in enumerate(restricted)}
    return restricted, [(index[p], o) if o else None for p, o in proj]


# ---------------------------------------------------------------------------
# Chambers and lower-dimensional regions


def _ambient_flat(d: int) -> Flat:
    return Flat(full_space(d), frozenset())


def _chamber_rays(normals: list[Vec], m: int):
    """Chambers of the hyperplanes with these normals in R^m as raw
    V-representations: (common lineality, [(rays, signs)]).

    Rays are (integer vector, zero-set bitmask) pairs, not canonicalized:
    bit t is set iff the ray lies on hyperplane t.  Each chamber is the cone
    the rays span plus the lineality echelon shared by every chamber, on
    side signs[t] of hyperplane t.  The lineality half of each insertion is
    computed once for all chambers.
    """
    lin = _unit_echelon(m)
    chams: list[tuple[list, tuple[int, ...]]] = [([], ())]
    for t, nrm in enumerate(normals):
        lin, cut = _lin_cut(lin, nrm)
        next_chams = []
        for rays, signs in chams:
            plus, minus = _dd_step(rays, lin, cut, nrm, t)
            # a half is a new chamber iff it has a ray strictly off the hyperplane
            for side, sign in ((plus, 1), (minus, -1)):
                if any(not z >> t & 1 for _, z in side):
                    next_chams.append((side, signs + (sign,)))
        chams = next_chams
    return lin, chams


def _ray_signs(normals, rays, lin=()) -> tuple[int, ...]:
    """Signs of cone(rays) + span(lin) against each normal, 0 = contained.

    Raises InvariantViolation if the cone crosses a hyperplane: a lineality
    vector off it, or rays strictly on both sides.
    """
    for v in lin:
        if any(_sides(normals, v)):
            raise InvariantViolation("region lineality crosses a hyperplane")
    return _signs_of(len(normals), [_sides(normals, r) for r in rays])


def _sides(normals, v) -> tuple[int, int]:
    """Bitmasks of the normals with positive and with negative product with v."""
    pos = neg = 0
    for t, n in enumerate(normals):
        s = dot(n, v)
        if s > 0:
            pos |= 1 << t
        elif s < 0:
            neg |= 1 << t
    return pos, neg


def _signs_of(n: int, sides) -> tuple[int, ...]:
    """Sign vector over n normals of the cone spanned by rays with these
    `_sides` masks; raises InvariantViolation if rays lie strictly on both
    sides of a hyperplane."""
    pos = neg = 0
    for p, q in sides:
        pos |= p
        neg |= q
    if pos & neg:
        raise InvariantViolation("region straddles a hyperplane")
    return tuple((pos >> t & 1) - (neg >> t & 1) for t in range(n))


def _facets(rays, n: int) -> list[int]:
    """The hyperplanes among n that carry a facet of the chamber: those whose
    zero set on the rays is inclusion-maximal.

    Every face of a chamber is cut out by the hyperplanes it lies on, and a
    facet spans its hyperplane, so no two hyperplanes share a facet.
    """
    return _maximal(_transpose([z for _, z in rays], n), (1 << len(rays)) - 1)


@dataclass(eq=False)
class _Chamber:
    """A chamber of a restricted arrangement in its own coordinates: its
    rays as (integer vector, zero-set bitmask) pairs and its side of each
    restricted hyperplane."""

    rays: list[tuple[Vec, int]]
    signs: tuple[int, ...]

    @cached_property
    def facets(self) -> list[int]:
        return _facets(self.rays, len(self.signs))


def _restricted_chambers(restricted: list[Vec], j: int):
    """The chambers of a restricted arrangement in its own coordinates R^j:
    (lineality echelon, [_Chamber]).

    A pure function of the restricted normals, so flats whose restrictions
    are equal share it.  Runs one chamber insertion and checks that the
    lineality lies on every hyperplane and that each chamber's rays give its
    insertion signs: the sign vectors every caller reads rest on both.  A
    chamber's facets are found on the first read of a cone over it.
    """
    lin_ech, chams = _chamber_rays(restricted, j)
    _ray_signs(restricted, (), [v for _, v in lin_ech])  # lineality on every hyperplane
    sides: dict[Vec, tuple[int, int]] = {}  # chambers share rays
    out = []
    for rays, signs in chams:
        for r, _ in rays:
            if r not in sides:
                sides[r] = _sides(restricted, r)
        if _signs_of(len(restricted), [sides[r] for r, _ in rays]) != signs:
            raise InvariantViolation("chamber rays disagree with their insertion signs")
        out.append(_Chamber(rays, signs))
    return lin_ech, out


class _FlatLift:
    """Lifts the chambers of a flat's restriction to ambient cones, with no
    second double description: rays are lifted and canonicalized modulo the
    lifted lineality, and the facet normal of restricted hyperplane t is an
    ambient normal of t, pointed away from the chamber and canonicalized
    modulo X^perp, which gives the equalities.  X^perp is spanned by the
    normals of the hyperplanes containing X.

    The flat's regions share one lift.  Its state is built on the first cone
    read of any of them, and chambers share rays and facets, so each
    canonical row is formed once per flat.
    """

    def __init__(self, normals: Mat, flat: Flat, basis, where, lin_ech):
        self.normals = normals
        self.flat = flat
        self.basis = basis
        self.where = where
        self.lin_ech = lin_ech
        self.gen_rows: dict[Vec, Vec] = {}
        self.facet_rows: dict[tuple[int, int], Vec] = {}

    @cached_property
    def frame(self):
        """(lifted lineality echelon, lineality, X^perp echelon, equalities,
        one ambient normal per restricted hyperplane, oriented like it)."""
        lin_amb = _echelon(_lift(v, self.basis) for _, v in self.lin_ech)
        lin = Subspace(self.flat.subspace.dim_ambient, tuple(row for _, row in lin_amb))
        perp = _echelon(self.normals[i] for i in sorted(self.flat.defining_set))
        facing: dict[int, list[int]] = {}
        for n, w in zip(self.normals, self.where):
            if w and w[0] not in facing:
                facing[w[0]] = [w[1] * x for x in n]
        return lin_amb, lin, perp, tuple(row for _, row in perp), facing

    def cone(self, cham: _Chamber) -> Cone:
        lin_amb, lin, perp, equalities, facing = self.frame
        gen_rows, facet_rows = self.gen_rows, self.facet_rows
        for r, _ in cham.rays:
            if r not in gen_rows:
                gen_rows[r] = _prim(_ireduce(_lift(r, self.basis), lin_amb))
        facets = [(t, cham.signs[t]) for t in cham.facets]
        for t, s in facets:
            if (t, s) not in facet_rows:
                facet_rows[t, s] = _prim(_ireduce([-s * x for x in facing[t]], perp))
        return Cone(d=lin.dim_ambient, inequalities=tuple(sorted(facet_rows[k] for k in facets)),
                    equalities=equalities,
                    generators=tuple(sorted(gen_rows[r] for r, _ in cham.rays)), lineality=lin)


def _flat_regions(normals: Mat, flat: Flat, basis, where, lin_ech, chams) -> list[Region]:
    """The chambers of the restriction to the flat, as ambient regions.

    `basis`, `where` and the chamber data (`_restricted_chambers`) come from
    the restriction to the flat.  Each region's sign vector is read off its
    chamber's signs here; its cone is lifted on first read by one
    `_FlatLift` that the flat's regions share.
    """
    lift = _FlatLift(normals, flat, basis, where, lin_ech)
    return [Region(tuple(0 if w is None else c.signs[w[0]] * w[1] for w in where), flat, lift, c)
            for c in chams]


def _regions(normals: Mat, flats) -> list[Region]:
    """The regions of the flats, in the given flat order.

    Flats whose restricted normals are equal share one `_restricted_chambers`
    (the restriction is sorted, sign-canonical and deduplicated, so equal
    arrangements give equal tuples), and with it each chamber's facets; each
    flat then gets its own sign vectors and lift.
    """
    shared: dict[tuple, tuple] = {}
    out = []
    for flat in flats:
        basis = _common_scale(flat.subspace.echelon)
        restricted, where = _restrict(normals, basis)
        key = (flat.dim, tuple(restricted))
        if key not in shared:
            shared[key] = _restricted_chambers(restricted, flat.dim)
        out += _flat_regions(normals, flat, basis, where, *shared[key])
    return out


def chambers(a: Arrangement) -> list[Region]:
    """Closures of the connected components of the complement.

    Incremental insertion: each chamber carries its extreme rays (with
    on-hyperplane bitmasks) modulo the running common lineality, and each
    hyperplane is inserted by the double-description step
    (`exactlin._lin_cut`, then `exactlin._dd_step` per chamber) that also converts
    cones between representations.  A hyperplane splits a chamber iff both
    halves have a ray strictly off it.  The chambers are the regions of the
    ambient flat, built as in `regions_j`: one insertion, with each cone
    lifted on its first read.
    """
    return _regions(a.normals, [_ambient_flat(a.d)])


def regions_j(a: Arrangement, j: int, lattice=None) -> list[Region]:
    """All j-dimensional faces of chambers: chambers of restrictions to
    j-flats, with their rays mapped back to ambient coordinates.

    The cost is one chamber insertion per distinct restricted arrangement
    among the j-flats, plus one sign vector per region: on reflection
    families most flats of a level restrict to the same arrangement.  A
    region's cone, with its chamber's facets, is built on its first read;
    reading every cone adds one lift per flat.  The flat's RREF basis is
    scaled to integers by one common positive factor, so every lifted ray
    is a positive multiple of its rational lift.  `lattice` is unused: the
    only lattice a caller can pass is a's own."""
    if not 0 <= j <= a.d:
        raise ValueError("region dimension out of range")
    return _regions(a.normals, [f for f in intersection_lattice(a).flats if f.dim == j])


def zaslavsky_count(a: Arrangement, j: int, lattice=None) -> int:
    """r_j = (-1)^j chi_{A,j}(-1); `lattice` is unused, as in `regions_j`."""
    if not 0 <= j <= a.d:
        raise ValueError("level out of range")
    return (-1) ** j * intersection_lattice(a).levels[j](-1)


# ---------------------------------------------------------------------------
# Closed-form families


def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind by the standard recurrence."""
    if k < 0 or k > n:
        return 0
    row = [1]  # S(0, 0)
    for m in range(1, n + 1):
        new = [0] * (m + 1)
        for i in range(m + 1):
            prev = row[i] if i < len(row) else 0
            prev_lo = row[i - 1] if 1 <= i <= len(row) else 0
            new[i] = i * prev + prev_lo
        row = new
    return row[k]


def stirling2_assoc(n: int, m: int) -> int:
    """Partitions of n elements into m blocks, every block of size >= 2."""
    if m == 0:
        return 1 if n == 0 else 0
    if n < 2 * m:
        return 0
    return m * stirling2_assoc(n - 1, m) + (n - 1) * stirling2_assoc(n - 2, m - 1)


def stirling2_signed(d: int, j: int) -> int:
    """Type-B analogue: signed partitions of subsets, S_B(d, j)."""
    return sum(
        math.comb(d, i) * stirling2(i, j) * 2 ** (i - j) for i in range(j, d + 1)
    )


_FAMILIES = ("braid", "bc", "d", "generic")
_GENERIC_DRAWS = 1000  # the seeds of the tests, catalog and benchmark need at most 9


def named_family(family: str, d: int, n: int | None = None, seed: int = 0) -> Arrangement:
    """Materialize a named arrangement family.

    braid: x_i = x_j; bc: x_i = ±x_j and x_i = 0; d: x_i = ±x_j;
    generic: n random rational hyperplanes redrawn until every subset of at
    most d normals is linearly independent (genericity is verified, not
    assumed); ValueError if none of `_GENERIC_DRAWS` draws is generic.
    """
    family = family.lower()
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if d < 1:
        raise ValueError("dimension must be positive")
    if family == "d" and d < 2:
        raise ValueError("the D family requires dimension at least 2")
    if family != "generic":
        # braid: e_i - e_k; d adds e_i + e_k; bc adds e_i + e_k and e_i
        e = [[int(i == j) for j in range(d)] for i in range(d)]
        rows = []
        for i in range(d):
            if family == "bc":
                rows.append(e[i])
            for k in range(i + 1, d):
                rows.append([x - y for x, y in zip(e[i], e[k])])
                if family != "braid":
                    rows.append([x + y for x, y in zip(e[i], e[k])])
        return arrangement(rows, d)
    # generic
    if n is None:
        raise ValueError("generic family requires n")
    if n < d:
        raise ValueError("generic family requires n >= d")
    if d == 1 and n > 1:
        raise ValueError("R^1 has only one hyperplane through the origin")
    rng = random.Random(seed)
    for _ in range(_GENERIC_DRAWS):
        rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(n)]
        if any(not any(r) for r in rows):
            continue
        arr = arrangement(rows, d)
        if len(arr.normals) == n and is_generic(arr):
            return arr
    raise ValueError(f"no generic draw of {n} hyperplanes in R^{d} in {_GENERIC_DRAWS} tries")


def is_generic(a: Arrangement) -> bool:
    """Every subset of at most d normals is linearly independent."""
    from itertools import combinations

    n = len(a.normals)
    for k in range(2, min(n, a.d) + 1):
        for idx in combinations(range(n), k):
            if len(_echelon(a.normals[i] for i in idx)) < k:
                return False
    return True


def family_level_char(family: str, d: int, j: int) -> Polynomial:
    """Closed-form j-th level characteristic polynomial of a family.

    Count factors are the partition counts of the actual flats: Stirling
    numbers for the braid family, their type-B analogue (signed blocks)
    for bc, and for the d family a split by zero-block flats (bc-type
    restrictions) versus signed partitions with m blocks of size >= 2,
    whose restriction contributes (t - j - m + 1) * prod(t - 2i - 1).
    """
    family = family.lower()
    if not 0 <= j <= d:
        raise ValueError("level out of range")
    if family == "braid":
        return stirling2(d, j) * Polynomial.from_roots(range(j))
    if family == "bc":
        return stirling2_signed(d, j) * Polynomial.from_roots(
            [2 * i + 1 for i in range(j)]
        )
    if family == "d":
        if d < 2:
            raise ValueError("the D family requires dimension at least 2")
        zero_block = sum(
            math.comb(d, z) * stirling2(d - z, j) * 2 ** (d - z - j)
            for z in range(2, d + 1)
            if d - z >= j
        )
        out = zero_block * Polynomial.from_roots([2 * i + 1 for i in range(j)])
        for m in range(0, j + 1):
            count = math.comb(d, j - m) * stirling2_assoc(d - j + m, m) * 2 ** (d - j)
            if count == 0:
                continue
            fac = Polynomial.from_roots(
                [j + m - 1] + [2 * i + 1 for i in range(j - 1)]
            )
            out = out + count * fac
        return out
    raise ValueError(f"no closed form for family {family!r}")


def generic_level_char(n: int, d: int, j: int) -> Polynomial:
    """Level characteristic polynomial of a generic arrangement of n
    hyperplanes in R^d: binomial closed form, j >= 1."""
    if n < d:
        raise ValueError("generic arrangements require n >= d")
    if not 1 <= j <= d:
        raise ValueError("level out of range")
    lead = math.comb(n, d - j)
    coeffs = [0] * (j + 1)
    coeffs[0] = lead * math.comb(n - d + j - 1, j - 1) * (-1) ** j
    for k in range(1, j + 1):
        coeffs[k] = lead * math.comb(n - d + j, j - k) * (-1) ** (j - k)
    return Polynomial.of(coeffs)


def cover_efron_expected_iv(n: int, d: int) -> list[Fraction]:
    """Expected intrinsic volumes of a uniformly random chamber of a
    generic arrangement: (C(n-1,d-1), C(n,d-1), ..., C(n,0)) / r_d."""
    if n < d or d < 1:
        raise ValueError("requires n >= d >= 1")
    r_d = (-1) ** d * generic_level_char(n, d, d)(-1)
    out = [Fraction(math.comb(n - 1, d - 1), r_d)]
    for k in range(1, d + 1):
        out.append(Fraction(math.comb(n, d - k), r_d))
    return out


def harmonic(j: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, j + 1)), Fraction(0))


def expected_statdim_family(family: str, j: int) -> Fraction:
    """Expected statistical dimension of a uniform j-region: H_j for the
    braid family, H_j / 2 for bc."""
    if j < 1:
        raise ValueError("j must be positive")
    family = family.lower()
    if family == "braid":
        return harmonic(j)
    if family == "bc":
        return harmonic(j) / 2
    raise ValueError("closed form available for braid and bc only")


# ---------------------------------------------------------------------------
# Wire formats


def arrangement_to_json(a: Arrangement) -> dict:
    return {"d": a.d, "normals": matrix_to_json(a.normals)}


def arrangement_from_json(obj: dict) -> Arrangement:
    if "d" not in _json_object(obj, "arrangement") or "normals" not in obj:
        raise ValueError("arrangement JSON requires 'd' and 'normals'")
    return arrangement(obj["normals"], _json_dim(obj["d"]))


def parse_family_spec(spec: str) -> Arrangement:
    """Parse 'braid:4', 'bc:3', 'd:3', or 'generic:n=5,d=3,seed=1'."""
    if ":" not in spec:
        raise ValueError("family spec must look like 'name:params'")
    name, _, params = spec.partition(":")
    name = name.lower()
    if name in ("braid", "bc", "d"):
        return named_family(name, int(params))
    if name == "generic":
        kv = {}
        for part in params.split(","):
            k, eq, v = part.partition("=")
            k = k.strip()
            if not eq or k not in ("n", "d", "seed"):
                raise ValueError(f"generic spec key {k!r} is not one of n=, d=, seed=")
            if k in kv:
                raise ValueError(f"generic spec repeats key {k!r}")
            kv[k] = int(v)
        if "n" not in kv or "d" not in kv:
            raise ValueError("generic spec requires n= and d=")
        return named_family("generic", kv["d"], n=kv["n"], seed=kv.get("seed", 0))
    raise ValueError(f"unknown family {name!r}")
