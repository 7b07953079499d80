"""Reference constructions that only the tests use.

`whitney_char_poly` is the independent oracle that the lattice-based
`char_poly` is compared against; `rational_lattice` is the rational closure
the integer `IntersectionLattice` replaced; `region_sign_vector` reads a
region's signs off its canonical cone; `arr_product` builds product
arrangements for the multiplicativity test.
"""

from conevol.arrangement import Arrangement, Polynomial, arrangement
from conevol.cone import Cone, InvariantViolation
from conevol.exactlin import dot, full_space, kernel, rank, rref


def whitney_char_poly(a: Arrangement) -> Polynomial:
    """Independent oracle: chi(t) = sum over subarrangements B of
    (-1)^{|B|} t^{d - rank(B)} (exponential in n; test sizes only)."""
    n = len(a.normals)
    coeffs = [0] * (a.d + 1)
    for mask in range(1 << n):
        rows = [a.normals[i] for i in range(n) if mask >> i & 1]
        r = len(rref(rows))
        coeffs[a.d - r] += (-1) ** bin(mask).count("1")
    return Polynomial.of(coeffs)


def arr_product(a: Arrangement, b: Arrangement) -> Arrangement:
    """Product arrangement in R^(d_a + d_b)."""
    rows = [n + (0,) * b.d for n in a.normals]
    rows += [(0,) * a.d + n for n in b.normals]
    return arrangement(rows, a.d + b.d)


def rational_lattice(a: Arrangement):
    """Intersection lattice by rational closure: one `rref` and one `kernel`
    per (flat, hyperplane) pair.

    Returns the flats as (subspace, defining set) pairs, sorted by
    (-dim, RREF basis), and the Möbius table over pairs x <= y, with the order
    read off subspace containment rather than defining sets.
    """
    d = a.d
    start = full_space(d)
    found = {start.basis: start}
    work = [((), start)]
    while work:
        rows, sub = work.pop()
        for n in a.normals:
            nr = rref(rows + (n,))
            if len(nr) == len(rows):
                continue  # hyperplane contains the flat
            ns = kernel(nr, d)
            if ns.basis not in found:
                found[ns.basis] = ns
                work.append((nr, ns))
    subs = sorted(found.values(), key=lambda s: (-s.dim, s.rref))
    flats = [
        (s, frozenset(i for i, n in enumerate(a.normals)
                      if all(dot(b, n) == 0 for b in s.basis)))
        for s in subs
    ]

    def within(y, x):  # flat y is a subspace of flat x
        return rank(subs[x].basis + subs[y].basis) == subs[x].dim

    mobius = {}
    for x in range(len(subs)):
        mobius[x, x] = 1
        below = [y for y in range(len(subs)) if y != x and within(y, x)]
        for y in sorted(below, key=lambda y: -subs[y].dim):
            mobius[x, y] = -sum(mobius[x, z] for z in [x] + below
                                if z != y and within(y, z))
    return flats, mobius


def region_sign_vector(normals, cone: Cone) -> tuple[int, ...]:
    """Signs of the cone against each normal, 0 = contained, from its
    canonical generators and lineality."""
    signs = []
    for nrm in normals:
        if any(dot(nrm, v) for v in cone.lineality.basis):
            raise InvariantViolation("region lineality crosses a hyperplane")
        found = {s > 0 for s in (dot(nrm, g) for g in cone.generators) if s}
        if len(found) > 1:
            raise InvariantViolation("region straddles a hyperplane")
        signs.append((1 if found.pop() else -1) if found else 0)
    return tuple(signs)
