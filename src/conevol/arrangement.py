"""Central hyperplane arrangements: lattices, polynomials, regions.

Hyperplanes are stored as primitive normals with positive leading entry
(H and -H define the same hyperplane).  The intersection lattice is built
by breadth-first closure under single-hyperplane intersection; the Möbius
function by the standard recursion; characteristic polynomials carry exact
integer coefficients.  Chambers are enumerated by incremental insertion on
V-representations with the double-description step that converts cones
between representations: its lineality half `cone._lin_cut` runs once per
hyperplane, its ray half `cone._dd_step` once per chamber.  Inserting a
hyperplane splits exactly the chambers with generators strictly on both
sides, decided by exact signs on integer vectors.  Regions of dimension j are the chambers of
the restrictions to j-flats, lifted back to ambient coordinates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .cone import (
    Cone,
    InvariantViolation,
    _dd_step,
    _from_vrep,
    _json_dim,
    _lift,
    _lin_cut,
    _unit_echelon,
)
from .exactlin import (
    Echelon,
    IntVec,
    Mat,
    Subspace,
    _echelon,
    _idot,
    _int_mat,
    _int_vec,
    _rref_rows,
    full_space,
    is_zero,
    kernel,
    mat,
    rref,
    sign_canonical,
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


@dataclass(frozen=True)
class Flat:
    subspace: Subspace
    defining_set: frozenset[int]

    @property
    def dim(self) -> int:
        return self.subspace.dim


@dataclass(frozen=True)
class Region:
    sign_vector: tuple[int, ...]  # over the arrangement's normals; 0 = contained
    cone: Cone
    flat: Flat


def arrangement(normals, d: int) -> Arrangement:
    rows = mat(normals)
    canon = []
    seen = set()
    for a in rows:
        if len(a) != d:
            raise ValueError("normal length does not match ambient dimension")
        if is_zero(a):
            raise ValueError("zero normal does not define a hyperplane")
        s = sign_canonical(a)
        if s not in seen:
            seen.add(s)
            canon.append(s)
    return Arrangement(d, tuple(sorted(canon)))


class IntersectionLattice:
    """Flats of an arrangement ordered by reverse inclusion, with Möbius table.

    flats[0] is R^d (the least element); flats are sorted by decreasing
    dimension then canonical basis.
    """

    def __init__(self, arr: Arrangement):
        self.arrangement = arr
        d = arr.d
        found: dict[Mat, Subspace] = {}
        start = full_space(d)
        found[start.basis] = start
        work = [((), start)]
        while work:
            rows, sub = work.pop()
            for n in arr.normals:
                nr = rref(rows + (n,))
                if len(nr) == len(rows):
                    continue  # hyperplane contains the flat
                ns = kernel(nr, d)
                if ns.basis not in found:
                    found[ns.basis] = ns
                    work.append((nr, ns))
        subs = sorted(found.values(), key=lambda s: (-s.dim, s.basis))
        normals = [_int_vec(n) for n in arr.normals]
        flats = []
        for s in subs:
            basis = [_int_vec(b) for b in s.basis]
            defining = frozenset(
                i
                for i, n in enumerate(normals)
                if not any(_idot(b, n) for b in basis)
            )
            flats.append(Flat(s, defining))
        self.flats: tuple[Flat, ...] = tuple(flats)
        n = len(flats)
        # a flat is the intersection of the hyperplanes containing it, so
        # flat_y lies in flat_x iff every hyperplane defining x defines y
        self._below = []  # _below[x] = bitmask of y with flat_y subseteq flat_x
        for fx in flats:
            bits = 0
            for y, fy in enumerate(flats):
                if fx.defining_set <= fy.defining_set:
                    bits |= 1 << y
            self._below.append(bits)
        self.mobius: dict[tuple[int, int], int] = {}
        for x in range(n):
            self.mobius[(x, x)] = 1
            order = sorted(
                (y for y in range(n) if y != x and self._below[x] >> y & 1),
                key=lambda y: -self.flats[y].dim,
            )
            for y in order:
                s = 0
                for z in [x] + order:
                    if z != y and self._below[z] >> y & 1:
                        s += self.mobius.get((x, z), 0)
                self.mobius[(x, y)] = -s

    def leq(self, x: int, y: int) -> bool:
        """x precedes y in the reverse-inclusion order (flat_y inside flat_x)."""
        return bool(self._below[x] >> y & 1)

    @property
    def ell(self) -> tuple[int, ...]:
        counts = [0] * (self.arrangement.d + 1)
        for f in self.flats:
            counts[f.dim] += 1
        return tuple(counts)

    def mu(self, x: int, y: int) -> int:
        return self.mobius.get((x, y), 0)


def intersection_lattice(a: Arrangement) -> IntersectionLattice:
    return IntersectionLattice(a)


def char_poly(a: Arrangement, lattice: IntersectionLattice | None = None) -> Polynomial:
    """chi(t) = sum over flats of mu(R^d, L) t^{dim L}."""
    lat = lattice or intersection_lattice(a)
    coeffs = [0] * (a.d + 1)
    for y, f in enumerate(lat.flats):
        coeffs[f.dim] += lat.mu(0, y)
    return Polynomial.of(coeffs)


def level_char_poly(a: Arrangement, j: int,
                    lattice: IntersectionLattice | None = None) -> Polynomial:
    """j-th level characteristic polynomial: Möbius sums from the j-flats."""
    if not 0 <= j <= a.d:
        raise ValueError("level out of range")
    lat = lattice or intersection_lattice(a)
    coeffs = [0] * (a.d + 1)
    for x, fx in enumerate(lat.flats):
        if fx.dim != j:
            continue
        for y, fy in enumerate(lat.flats):
            if lat.leq(x, y):
                coeffs[fy.dim] += lat.mu(x, y)
    return Polynomial.of(coeffs)


def bivariate_poly(a: Arrangement, lattice: IntersectionLattice | None = None) -> BiPolynomial:
    """X(s, t) = sum_j s^j chi_{A,j}(t)."""
    lat = lattice or intersection_lattice(a)
    out: dict = {}
    for j in range(a.d + 1):
        for k, c in enumerate(level_char_poly(a, j, lat).coeffs):
            if c:
                out[(j, k)] = out.get((j, k), 0) + c
    return BiPolynomial.from_dict(out)


def restriction(a: Arrangement, flat) -> Arrangement:
    """The arrangement {H ∩ L : H not containing L} in coordinates of L.

    Coordinates come from the canonical RREF basis of L; lattice-level and
    polynomial outputs do not depend on this choice.
    """
    sub = flat.subspace if isinstance(flat, Flat) else flat
    basis = _int_mat(sub.basis)
    normals = []
    for nrm in map(_int_vec, a.normals):
        proj = [_idot(row, nrm) for row in basis]
        if any(proj):
            normals.append(proj)
    return arrangement(normals, sub.dim)


# ---------------------------------------------------------------------------
# Chambers and lower-dimensional regions


def _ambient_flat(d: int) -> Flat:
    return Flat(full_space(d), frozenset())


def _chamber_rays(a: Arrangement) -> tuple[Echelon, list[tuple[list[IntVec], tuple[int, ...]]]]:
    """Chambers as raw V-representations: (common lineality, [(rays, signs)]).

    Rays are integer vectors, not canonicalized; each chamber is the cone
    they span plus the lineality echelon shared by every chamber.  The
    lineality half of each insertion is computed once for all chambers.
    """
    lin = _unit_echelon(a.d)
    chams: list[tuple[list, tuple[int, ...]]] = [([], ())]
    for t, nrm in enumerate(map(_int_vec, a.normals)):
        lin, cut = _lin_cut(lin, nrm)
        next_chams = []
        for rays, signs in chams:
            plus, minus = _dd_step(rays, lin, cut, nrm, t)
            # a half is a new chamber iff it has a ray strictly off the hyperplane
            for side, sign in ((plus, 1), (minus, -1)):
                if any(not z >> t & 1 for _, z in side):
                    next_chams.append((side, signs + (sign,)))
        chams = next_chams
    return lin, [([r for r, _ in rays], signs) for rays, signs in chams]


def chambers(a: Arrangement) -> list[Region]:
    """Closures of the connected components of the complement.

    Incremental insertion: each chamber carries its extreme rays (with
    on-hyperplane bitmasks) modulo the running common lineality, and each
    hyperplane is inserted by the double-description step
    (`cone._lin_cut`, then `cone._dd_step` per chamber) that also converts
    cones between representations.  A hyperplane splits a chamber iff both
    halves have a ray strictly off it.
    """
    lin_ech, chams = _chamber_rays(a)
    lin = Subspace(a.d, _rref_rows(lin_ech))
    flat0 = _ambient_flat(a.d)
    return [Region(signs, _from_vrep(rays, lin, a.d), flat0) for rays, signs in chams]


def _region_sign_vector(normals, cone: Cone) -> tuple[int, ...]:
    """Signs of the cone against each (integer) normal, 0 = contained."""
    gens = [_int_vec(g) for g in cone.generators]
    lin = [_int_vec(v) for v in cone.lineality.basis]
    signs = []
    for nrm in normals:
        if any(_idot(nrm, v) for v in lin):
            raise InvariantViolation("region lineality crosses a hyperplane")
        found = {s > 0 for s in (_idot(nrm, g) for g in gens) if s}
        if len(found) > 1:
            raise InvariantViolation("region straddles a hyperplane")
        signs.append((1 if found.pop() else -1) if found else 0)
    return tuple(signs)


def regions_j(a: Arrangement, j: int,
              lattice: IntersectionLattice | None = None) -> list[Region]:
    """All j-dimensional faces of chambers: chambers of restrictions to
    j-flats, with their rays mapped back to ambient coordinates.

    The flat's basis is scaled to integers by one common positive
    denominator, so every lifted ray is a positive multiple of its rational
    lift."""
    if not 0 <= j <= a.d:
        raise ValueError("region dimension out of range")
    lat = lattice or intersection_lattice(a)
    normals = [_int_vec(n) for n in a.normals]
    out = []
    for flat in lat.flats:
        if flat.dim != j:
            continue
        basis = _int_mat(flat.subspace.basis)
        flat_lin, chams = _chamber_rays(restriction(a, flat))
        lin = Subspace(a.d, _rref_rows(_echelon(_lift(v, basis) for _, v in flat_lin)))
        for rays, _ in chams:
            cone = _from_vrep([_lift(r, basis) for r in rays], lin, a.d)
            out.append(Region(_region_sign_vector(normals, cone), cone, flat))
    return out


def zaslavsky_count(a: Arrangement, j: int,
                    lattice: IntersectionLattice | None = None) -> int:
    """r_j = (-1)^j chi_{A,j}(-1): signed evaluation of the level polynomial."""
    if not 0 <= j <= a.d:
        raise ValueError("level out of range")
    return (-1) ** j * level_char_poly(a, j, lattice)(-1)


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


def named_family(family: str, d: int, n: int | None = None, seed: int = 0) -> Arrangement:
    """Materialize a named arrangement family.

    braid: x_i = x_j; bc: x_i = ±x_j and x_i = 0; d: x_i = ±x_j;
    generic: n random rational hyperplanes redrawn until every subset of at
    most d normals is linearly independent (genericity is verified, not
    assumed).
    """
    family = family.lower()
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if d < 1:
        raise ValueError("dimension must be positive")
    if family == "braid":
        rows = []
        for i in range(d):
            for k in range(i + 1, d):
                row = [0] * d
                row[i], row[k] = 1, -1
                rows.append(row)
        return arrangement(rows, d)
    if family == "bc":
        rows = []
        for i in range(d):
            row = [0] * d
            row[i] = 1
            rows.append(list(row))
            for k in range(i + 1, d):
                r1 = [0] * d
                r1[i], r1[k] = 1, -1
                r2 = [0] * d
                r2[i], r2[k] = 1, 1
                rows.extend([r1, r2])
        return arrangement(rows, d)
    if family == "d":
        if d < 2:
            raise ValueError("the D family requires dimension at least 2")
        rows = []
        for i in range(d):
            for k in range(i + 1, d):
                r1 = [0] * d
                r1[i], r1[k] = 1, -1
                r2 = [0] * d
                r2[i], r2[k] = 1, 1
                rows.extend([r1, r2])
        return arrangement(rows, d)
    # generic
    if n is None:
        raise ValueError("generic family requires n")
    if n < d:
        raise ValueError("generic family requires n >= d")
    rng = random.Random(seed)
    while True:
        rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(n)]
        if any(not any(r) for r in rows):
            continue
        arr = arrangement(rows, d)
        if len(arr.normals) == n and is_generic(arr):
            return arr


def is_generic(a: Arrangement) -> bool:
    """Every subset of at most d normals is linearly independent."""
    from itertools import combinations

    n = len(a.normals)
    for k in range(2, min(n, a.d) + 1):
        for idx in combinations(range(n), k):
            if len(rref([a.normals[i] for i in idx])) < k:
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
    from .cone import matrix_to_json

    return {"d": a.d, "normals": matrix_to_json(a.normals)}


def arrangement_from_json(obj: dict) -> Arrangement:
    if "d" not in obj or "normals" not in obj:
        raise ValueError("arrangement JSON requires 'd' and 'normals'")
    return arrangement(mat(obj["normals"]), _json_dim(obj["d"]))


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
            k, _, v = part.partition("=")
            kv[k.strip()] = int(v)
        if "n" not in kv or "d" not in kv:
            raise ValueError("generic spec requires n= and d=")
        return named_family("generic", kv["d"], n=kv["n"], seed=kv.get("seed", 0))
    raise ValueError(f"unknown family {name!r}")
