import functools
import itertools
import json
import random
import time
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_oracles as oracle
from conevol.arrangement import chambers, parse_family_spec, regions_j
from conevol import cone as cone_module
from conevol.catalog import build_cones
from conevol.cone import (
    Cone,
    Face,
    InvariantViolation,
    canonical_decomposition,
    cone_from_generators,
    cone_from_inequalities,
    cone_from_json,
    cone_to_json,
    congruence_key,
    coordinate_factors,
    face_lattice,
    farkas_check,
    intersect,
    minkowski_sum,
    normal_face,
    polar,
    product,
    subspace_cone,
    transverse,
)
from conevol.exactlin import (
    dot,
    full_space,
    lp_strictly_feasible,
    mat,
    rank,
    subspace_from_rows,
    subspace_intersection,
    vec,
)
from conevol.identities import _index_below
from conevol.volumes import exact_iv, tangent_cone

ORTHANT2 = cone_from_inequalities([[-1, 0], [0, -1]], 2)
ORTHANT3 = cone_from_inequalities([[-1, 0, 0], [0, -1, 0], [0, 0, -1]], 3)
SQUARE = cone_from_generators([[1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1]], [], 3)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def brute_force_square_cone_faces():
    """Independent oracle: enumerate supporting hyperplanes from ray pairs
    and triples, count the distinct faces they cut out."""
    rays = [vec(r) for r in ([1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1])]

    def cross(u, v):
        return vec([
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        ])

    faces = set()
    # facets: normals from ray pairs that leave all rays on one side
    for u, v in itertools.combinations(rays, 2):
        n = cross(u, v)
        if all(x == 0 for x in n):
            continue
        sides = [dot(n, r) for r in rays]
        if all(s <= 0 for s in sides) or all(s >= 0 for s in sides):
            on = frozenset(i for i, s in enumerate(sides) if s == 0)
            faces.add(on)
    two_dim = {f for f in faces if len(f) >= 2}
    one_dim = {frozenset([i]) for i in range(4)}
    zero_dim = {frozenset()}
    top = {frozenset(range(4))}
    return zero_dim, one_dim, two_dim, top


def test_cone_from_inequalities_orthant():
    assert ORTHANT2.generators == mat([[0, 1], [1, 0]])
    assert ORTHANT2.dim == 2 and ORTHANT2.lineality_dim == 0


def test_cone_from_inequalities_full_space():
    c = cone_from_inequalities([], 3)
    assert c.dim == 3 and c.lineality_dim == 3 and c.generators == ()


def test_cone_from_inequalities_zero_cone():
    c = cone_from_inequalities([[-1, 0], [0, -1], [1, 1]], 2)
    assert c.dim == 0 and c.generators == ()


def test_cone_from_inequalities_rejects_zero_normal():
    with pytest.raises(ValueError):
        cone_from_inequalities([[0, 0]], 2)
    with pytest.raises(ValueError):
        cone_from_inequalities([[1, 0, 0]], 2)


def test_cone_from_generators_examples():
    assert cone_from_generators([[1, 0], [0, 1]], [], 2) == ORTHANT2
    line = cone_from_generators([], [[1, 0]], 2)
    assert line.is_subspace and line.dim == 1


def test_square_cone_f_vector_against_brute_force():
    zero, one, two, top = brute_force_square_cone_faces()
    fl = face_lattice(SQUARE)
    assert fl.f_vector == (len(zero), len(one), len(two), len(top))
    assert fl.f_vector == (1, 4, 4, 1)
    assert fl.euler_sum == 0


def test_redundant_generator_dropped():
    c = cone_from_generators(
        [[1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1], [3, 2, 2]], [], 3
    )
    assert c == SQUARE


def test_contains_rejects_wrong_dimension():
    for x in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match=f"R\\^{len(x)}.*R\\^2"):
            ORTHANT2.contains(x)
    assert ORTHANT2.contains([1, 2]) and not ORTHANT2.contains([-1, 2])


def test_face_lattice_orthant3():
    fl = face_lattice(ORTHANT3)
    assert fl.f_vector == (1, 3, 3, 1)


def test_face_lattice_line():
    line = cone_from_generators([], [[1, 0]], 2)
    fl = face_lattice(line)
    assert fl.f_vector == (0, 1, 0)
    assert fl.euler_sum == -1


def test_polar_examples():
    p = polar(ORTHANT2)
    assert sorted(p.generators) == sorted(mat([[-1, 0], [0, -1]]))
    s = cone_from_generators([], [[1, 0, 0]], 3)
    ps = polar(s)
    assert ps.is_subspace and ps.dim == 2 and ps.equalities == mat([[1, 0, 0]])
    ray = cone_from_generators([[1, 1]], [], 2)
    pr = polar(ray)
    assert pr.inequalities == mat([[1, 1]]) and pr.lineality_dim == 1
    assert polar(pr) == ray


def test_polar_involution_and_order_reversal_catalog():
    cones = [c for _, c in build_cones()]
    assert len(cones) >= 20
    for c in cones:
        assert polar(polar(c)) == c
    # order reversal spot check: face of orthant vs orthant
    ray = cone_from_generators([[1, 0]], [], 2)
    assert all(dot(a, g) <= 0 for a in polar(ORTHANT2).generators
               for g in ray.generators)


def test_euler_relation_catalog():
    for name, c in build_cones():
        fl = face_lattice(c)
        expected = (-1) ** c.dim if c.is_subspace else 0
        assert fl.euler_sum == expected, name


def test_double_description_round_trip_catalog():
    for name, c in build_cones():
        again = cone_from_generators(c.generators, c.lineality.basis, c.d)
        assert again == c, name
        back = cone_from_inequalities(c.inequalities, c.d, c.equalities) \
            if (c.inequalities or c.equalities) else cone_from_inequalities([], c.d)
        assert back == c, name


def test_normal_face_orthant2():
    fl = face_lattice(ORTHANT2)
    xray = next(f for f in fl.faces if f.dim == 1 and f.cone.generators == mat([[1, 0]]))
    nf = normal_face(ORTHANT2, xray)
    assert nf.cone.generators == mat([[0, -1]])


def test_normal_face_full_space():
    full = cone_from_inequalities([], 2)
    top = face_lattice(full).faces[-1]
    nf = normal_face(full, top)
    assert nf.dim == 0 and nf.cone.dim == 0


def test_normal_face_bijection_square_cone():
    fl = face_lattice(SQUARE)
    pl = face_lattice(polar(SQUARE))
    assert pl.f_vector == tuple(reversed(fl.f_vector))
    for f in fl.faces:
        nf = normal_face(SQUARE, f)
        assert nf.dim == 3 - f.dim
        assert normal_face(polar(SQUARE), nf).cone == f.cone


def test_normal_face_wrong_parent():
    f = face_lattice(ORTHANT2).faces[0]
    with pytest.raises(ValueError):
        normal_face(ORTHANT3, f)


def test_canonical_decomposition():
    lin, pointed = canonical_decomposition(SQUARE)
    assert lin.dim == 0 and pointed == SQUARE
    full = cone_from_inequalities([], 2)
    lin, pointed = canonical_decomposition(full)
    assert lin.dim == 2 and pointed.dim == 0
    halfplane = cone_from_inequalities([[0, -1]], 2)
    lin, pointed = canonical_decomposition(halfplane)
    assert lin.basis == mat([[1, 0]])
    assert pointed.generators == mat([[0, 1]])
    # direct sum reconstructs the cone
    assert minkowski_sum(subspace_cone(lin), pointed) == halfplane


def test_canonical_decomposition_matches_projection_route():
    # C ∩ lin(C)^perp by one double description against the generators
    # projected off lin(C) by a rational Gram solve
    rng = random.Random(17)
    with_lineality = []
    while len(with_lineality) < 40:
        d = rng.randint(2, 4)
        gens = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(0, d + 1))]
        lin = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(1, 2))]
        c = cone_from_generators([g for g in gens if any(g)], [v for v in lin if any(v)], d)
        if c.lineality_dim:
            with_lineality.append(c)
    for c in [c for _, c in build_cones()] + with_lineality:
        assert canonical_decomposition(c) == oracle.canonical_decomposition(c), c


def test_shifted_f_vector_of_lineality_cone():
    # f(L + C/L) is the f-vector of C/L shifted by dim L
    c = cone_from_generators([[1, 0, 0], [0, 1, 0]], [[0, 0, 1]], 3)
    lin, pointed = canonical_decomposition(c)
    f_c = face_lattice(c).f_vector
    f_p = face_lattice(pointed).f_vector
    assert f_c == (0,) * lin.dim + f_p[: c.d + 1 - lin.dim]


def test_intersect_and_minkowski():
    halfx = cone_from_inequalities([[1, 0]], 2)
    i = intersect(ORTHANT2, halfx)
    assert i.generators == mat([[0, 1]])
    ms = minkowski_sum(ORTHANT2, polar(ORTHANT2))
    assert ms.dim == 2 and ms.lineality_dim == 2


def test_intersect_polar_duality():
    rot = cone_from_generators([[0, 1], [-1, 0]], [], 2)
    assert polar(intersect(ORTHANT2, rot)) == minkowski_sum(polar(ORTHANT2), polar(rot))
    with pytest.raises(ValueError):
        intersect(ORTHANT2, ORTHANT3)


def test_product_cone():
    p = product(ORTHANT2, cone_from_generators([], [[1]], 1))
    assert p.d == 3 and p.lineality_dim == 1 and p.dim == 3


def test_farkas_examples():
    assert farkas_check(ORTHANT2, subspace_from_rows([[1, 1]], 2)) is False
    assert farkas_check(ORTHANT2, subspace_from_rows([[1, -1]], 2)) is True
    # dual witness for the separating case
    dual = intersect(polar(ORTHANT2), subspace_cone(subspace_from_rows([[1, 1]], 2)))
    assert any(all(x <= 0 for x in g) for g in dual.generators)
    zero = cone_from_inequalities([[-1, 0], [0, -1], [1, 1]], 2)
    assert farkas_check(zero, subspace_from_rows([[1, 0]], 2)) is False
    assert farkas_check(zero, full_space(2)) is False


def test_farkas_random_consistency():
    # the check itself raises if the primal and dual sides ever disagree
    rng = random.Random(5)
    for _ in range(60):
        d = rng.randint(1, 3)
        gens = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(0, 3))]
        gens = [g for g in gens if any(g)]
        c = cone_from_generators(gens, [], d)
        rows = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(0, 2))]
        l = subspace_from_rows([r for r in rows if any(r)], d)
        assert farkas_check(c, l) is _rational_relint_misses(c, l)


def _rational_relint_misses(c, l):
    """relint(C) ∩ L = ∅, by the rational simplex on lin(C) ∩ L."""
    s = subspace_intersection(c.span, l)
    if not c.inequalities:
        return False
    if s.dim == 0:
        return True
    strict = [tuple(-dot(row, a) for row in s.basis) for a in c.inequalities]
    return not oracle.rational_lp_strictly_feasible(strict, s.dim)


def test_transverse_full_spaces():
    full = cone_from_inequalities([], 2)
    top = face_lattice(full).faces[-1]
    assert transverse(top, top) is True


def test_transverse_axes_regression():
    # mandatory regression: both relints contain 0 and 1 + 1 - 2 = 0
    fx = face_lattice(cone_from_generators([], [[1, 0]], 2)).faces[0]
    fy = face_lattice(cone_from_generators([], [[0, 1]], 2)).faces[0]
    assert transverse(fx, fy) is True


def test_transverse_opposite_orthants():
    neg = cone_from_generators([[-1, 0], [0, -1]], [], 2)
    fo = face_lattice(ORTHANT2).faces[-1]
    fn = face_lattice(neg).faces[-1]
    assert transverse(fo, fn) is False


def _face_cone_transverse(f, g):
    """Transversality with the strict rows of the face cones themselves."""
    d = f.parent.d
    s = subspace_intersection(f.span, g.span)
    if f.dim + g.dim - d != s.dim:
        return False
    strict = [tuple(-dot(row, a) for row in s.basis)
              for cone in (f.cone, g.cone) for a in cone.inequalities]
    if s.dim == 0:
        return not strict
    return lp_strictly_feasible(strict, s.dim)


def test_transverse_builds_no_face_cone(monkeypatch):
    # every face pair of every catalog cone pair of equal d: transverse reads
    # the parents' rows only, and its verdict is the face-cone route's
    calls = []
    real = cone_module._from_incidence
    monkeypatch.setattr(cone_module, "_from_incidence", lambda *a: calls.append(a) or real(*a))
    cones = build_cones()
    transverse_pairs = 0
    for (na, a), (nb, b) in itertools.combinations_with_replacement(cones, 2):
        if a.d != b.d:
            continue
        fa, fb = face_lattice(a), face_lattice(b)
        for f in fa.faces:
            for g in fb.faces:
                calls.clear()
                got = transverse(f, g)
                assert calls == [], (na, nb)
                assert got is _face_cone_transverse(f, g), (na, nb, f.gen_mask, g.gen_mask)
                transverse_pairs += got
    assert transverse_pairs == 254


def test_fuzz_cone_invariants():
    rng = random.Random(42)
    for _ in range(30):
        d = rng.randint(1, 4)
        gens = [[rng.randint(-3, 3) for _ in range(d)]
                for _ in range(rng.randint(0, d + 2))]
        gens = [g for g in gens if any(g)]
        lin = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(0, 1))]
        lin = [v for v in lin if any(v)]
        c = cone_from_generators(gens, lin, d)
        assert polar(polar(c)) == c
        for g in c.generators:
            assert all(dot(a, g) <= 0 for a in c.inequalities)
            assert all(dot(e, g) == 0 for e in c.equalities)
        fl = face_lattice(c)
        assert fl.euler_sum == ((-1) ** c.dim if c.is_subspace else 0)
        pl = face_lattice(polar(c))
        assert pl.f_vector == tuple(reversed(fl.f_vector))
        for f in fl.faces:
            nf = normal_face(c, f)
            assert nf.dim == d - f.dim
            assert normal_face(polar(c), nf).cone == f.cone


def _assert_int_fields(c, name=None):
    for rows in (c.inequalities, c.generators, c.equalities, c.lineality.basis):
        assert type(rows) is tuple, name
        assert all(type(row) is tuple and all(type(x) is int for x in row) for row in rows), name


def test_catalog_fields_are_int_rows():
    for name, c in build_cones():
        fl = face_lattice(c)
        for cone in [c, polar(c)] + [f.cone for f in fl.faces]:
            _assert_int_fields(cone, name)
        for f in fl.faces:
            assert all(type(x) is int for row in f.span.basis for x in row), name


@st.composite
def _small_cone_inputs(draw, max_d=5):
    # drawn rows, then negated, scaled and summed copies of earlier ones, so
    # the incidence rule meets implicit equalities, parallel and redundant rows
    d = draw(st.integers(min_value=1, max_value=max_d))
    row = st.lists(st.integers(min_value=-3, max_value=3), min_size=d, max_size=d)
    rows = draw(st.lists(row.filter(any), max_size=d + 2))
    for _ in range(draw(st.integers(min_value=0, max_value=d if rows else 0))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        k = draw(st.sampled_from((-1, 2, 3)))
        new = draw(st.sampled_from(([k * x for x in a], [x + y for x, y in zip(a, b)])))
        if any(new):
            rows.append(new)
    return d, rows, draw(st.lists(row, max_size=1))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_small_cone_inputs())
def test_constructors_match_rational_oracle(case):
    # the second list serves as equalities of the H-representation and as
    # lineality of the V-representation
    d, rows, extra = case
    h = cone_from_inequalities(rows, d, extra)
    assert h == oracle.cone_from_inequalities(rows, d, extra)
    v = cone_from_generators(rows, extra, d)
    assert v == oracle.cone_from_generators(rows, extra, d)
    for c in (h, v):
        _assert_int_fields(c)
        assert polar(polar(c)) == c
        assert cone_from_inequalities(c.inequalities, d, c.equalities) == c
        assert cone_from_generators(c.generators, c.lineality.basis, d) == c
        fl = face_lattice(c)
        assert fl.euler_sum == ((-1) ** c.dim if c.is_subspace else 0)
        _check_index_set_faces(c, fl)


def _selected(c, mask):
    return tuple(g for i, g in enumerate(c.generators) if mask >> i & 1)


def _scan_face_of_cone(fl, c):
    # reference: match a face by building and comparing every face cone
    return next(f for f in fl.faces if f.cone == c)


def _scan_normal_face(c, f):
    # reference: find the polar face whose generators are F's active normals
    want = sum(1 << i for i in f.active)
    return next(g for g in face_lattice(polar(c)).faces if g.gen_mask == want)


def _check_index_set_faces(c, fl):
    """Index-set faces, swapped normal faces and the angle cones of
    McMullen's relations against the routes that rebuild every face cone
    and every sub-lattice."""
    faces = fl.faces
    assert list(faces) == sorted(faces, key=lambda f: (f.dim, f.cone.generators))
    # F <= G iff every generator of F is one of G's
    assert list(fl.leq_masks) == [
        sum(1 << gi for gi, g in enumerate(faces) if f.gen_mask & g.gen_mask == f.gen_mask)
        for f in faces
    ]
    for fi, f in enumerate(faces):
        assert f.cone == cone_from_generators(_selected(c, f.gen_mask), c.lineality.basis, c.d)
        nf, ref = normal_face(c, f), _scan_normal_face(c, f)
        assert nf == ref and nf.cone == ref.cone
        sub = face_lattice(f.cone)
        below = [g for gi, g in enumerate(faces) if fl.leq(gi, fi)]
        assert [(g.dim, g.span, g.cone) for g in below] == [
            (g.dim, g.span, g.cone) for g in sub.faces
        ]
        for gi, g in enumerate(faces):
            if not fl.leq(gi, fi):
                continue
            g_in_f = _scan_face_of_cone(sub, g.cone)
            assert sub.face_of_cone(g.cone) == g_in_f
            assert sub.faces[_index_below(fl, gi, fi)] == g_in_f
            # T_G F = F + lin G, from the generators of F and of G
            assert tangent_cone(f.cone, g_in_f) == cone_from_generators(
                _selected(c, f.gen_mask), _selected(c, g.gen_mask) + c.lineality.basis, c.d)
            # N_G F = N_G C + lin(F)^perp, from the normals active on G and on F
            on_g = [c.inequalities[i] for i in sorted(g.active)]
            on_f = [c.inequalities[i] for i in sorted(f.active)]
            assert normal_face(f.cone, g_in_f).cone == cone_from_generators(
                on_g, on_f + list(c.equalities), c.d)


def test_face_lattice_builds_no_face_cone(monkeypatch):
    calls = []
    real = cone_module._from_incidence
    monkeypatch.setattr(cone_module, "_from_incidence", lambda *a: calls.append(a) or real(*a))
    for name, c in build_cones():
        calls.clear()
        fl = face_lattice(c)
        assert calls == [], name
        assert fl.faces[-1].cone == c and len(calls) == 1, name


def test_one_double_description_per_cone(monkeypatch):
    # facets and extreme rays are read from incidence, so a constructor runs
    # one DD and a face cone none; products, their factors and pointed parts
    # are assembled from rows the cones already hold, so they run none
    calls = []
    real = cone_module._dd
    monkeypatch.setattr(cone_module, "_dd", lambda *a: calls.append(a) or real(*a))

    def runs(build):
        calls.clear()
        built = build()
        return len(calls), built

    n, half = runs(lambda: cone_from_inequalities([[0, -1, 0]], 3))
    assert n == 1 and half.lineality_dim == 2
    n, c = runs(lambda: cone_from_generators(SQUARE.generators, [], 3))
    assert n == 1 and c == SQUARE
    for build in (lambda: intersect(SQUARE, half), lambda: minkowski_sum(SQUARE, half)):
        assert runs(build)[0] == 1
    for build in (lambda: canonical_decomposition(half), lambda: product(ORTHANT2, SQUARE),
                  lambda: coordinate_factors(product(ORTHANT2, half))):
        assert runs(build)[0] == 0
    for k in (SQUARE, half, minkowski_sum(SQUARE, half)):
        fresh = cone_from_inequalities(k.inequalities, 3, k.equalities)
        faces = face_lattice(fresh).faces
        assert runs(lambda: [f.cone for f in faces])[0] == 0


@st.composite
def _small_cones(draw, max_d):
    """A cone of `_small_cone_inputs` in at most R^max_d, built from its
    H-representation, the second list its equalities, or from its
    V-representation, the second list its lineality."""
    d, rows, extra = draw(_small_cone_inputs(max_d))
    if draw(st.booleans()):
        return cone_from_inequalities(rows, d, extra)
    return cone_from_generators(rows, extra, d)


def _moved(c, order):
    """c with coordinate order[i] moved to position i, by one DD."""
    def rows(vs):
        return [[v[i] for i in order] for v in vs]
    return cone_from_generators(rows(c.generators), rows(c.lineality.basis), c.d)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_small_cones(3), _small_cones(2), st.randoms(use_true_random=False))
def test_assembled_cones_match_double_description(a, b, rnd):
    # products, coordinate factors and pointed parts are assembled from the
    # rows a cone holds; each equals the cone one DD builds from the padded,
    # restricted or projected rows
    d = a.d + b.d

    def padded(rows_a, rows_b):
        return [r + (0,) * b.d for r in rows_a] + [(0,) * a.d + r for r in rows_b]

    p = product(a, b)
    assert p == cone_from_generators(padded(a.generators, b.generators),
                                     padded(a.lineality.basis, b.lineality.basis), d)
    order = list(range(d))
    rnd.shuffle(order)
    moved = _moved(p, order)
    for c in (a, b, p, moved, polar(moved)):
        parts = coordinate_factors(c)
        assert sorted(i for cols, _ in parts for i in cols) == list(range(c.d))
        for cols, f in parts:
            def on(rows):
                return [[r[i] for i in cols] for r in rows if any(r[i] for i in cols)]
            assert f == cone_from_generators(on(c.generators), on(c.lineality.basis), len(cols))
        lin, pointed = canonical_decomposition(c)
        projected = [oracle.project_off(lin.rref, g) for g in c.generators]
        assert lin == c.lineality and pointed == cone_from_generators(projected, (), c.d)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_small_cones(3), _small_cones(2))
def test_split_inverts_product(a, b):
    # the split of C x D is C's factors, then D's on the shifted columns
    shifted = [(tuple(i + a.d for i in cols), f) for cols, f in coordinate_factors(b)]
    assert coordinate_factors(product(a, b)) == coordinate_factors(a) + shifted
    # the product of a cone's factors is the cone, coordinates in block order
    for c in (a, b):
        parts = coordinate_factors(c)
        assert functools.reduce(product, [f for _, f in parts]) == _moved(
            c, [i for cols, _ in parts for i in cols])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_small_cones(3), _small_cones(2), st.randoms(use_true_random=False))
def test_exact_iv_class_is_closed_under_polarity(a, b, rnd):
    # exact_iv has no polar route: it recognizes C exactly when it
    # recognizes C°, with the values reversed, exactly for Fractions and
    # within 1e-12 where a planar angle enters as a float
    order = list(range(a.d + b.d))
    rnd.shuffle(order)
    for c in (a, b, _moved(product(a, b), order)):
        ex, ex_polar = exact_iv(c), exact_iv(polar(c))
        assert (ex is None) == (ex_polar is None), c
        if ex is None:
            continue
        back = tuple(reversed(ex_polar.values))
        if all(type(v) is Fraction for v in ex.values + back):
            assert ex.values == back, c
        else:
            assert max(abs(float(x) - float(y)) for x, y in zip(ex.values, back)) <= 1e-12, c


def test_large_cone_round_trips():
    # 16 facets and 226 extreme rays in R^8: each direction is one DD
    c = cone_from_json(json.loads((FIXTURES / "cone-8d-16.json").read_text()))
    assert (len(c.inequalities), len(c.generators), c.dim) == (16, 226, 8)
    assert cone_from_generators(c.generators, (), 8) == c
    assert cone_from_inequalities(c.inequalities, 8, c.equalities) == c


def test_face_lattice_is_built_once_per_cone():
    c = cone_from_generators([[1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1]], [], 3)
    fl = face_lattice(c)
    cones = [f.cone for f in fl.faces]
    assert face_lattice(c) is fl
    # the faces, and the cones they built, are reused by later calls
    assert all(f.cone is k for f, k in zip(face_lattice(c).faces, cones))
    # an equal cone built separately builds its own, equal lattice
    twin = cone_from_inequalities(SQUARE.inequalities, 3)
    assert twin == c and face_lattice(twin) is not fl
    assert face_lattice(twin).faces == fl.faces


def test_dimensions_are_derived_not_stored():
    assert [f.name for f in fields(Cone)] == [
        "d", "inequalities", "equalities", "generators", "lineality"]
    assert "dim" not in {f.name for f in fields(Face)}
    for name, c in build_cones():
        assert c.dim == c.span.dim and c.lineality_dim == c.lineality.dim, name
        assert all(f.dim == f.cone.dim for f in face_lattice(c).faces), name


def test_json_round_trip():
    for _, c in build_cones():
        obj = cone_to_json(c)
        assert cone_from_json(obj) == c
    with pytest.raises(ValueError):
        cone_from_json({"d": 2})
    with pytest.raises(ValueError):
        cone_from_json({"d": 2, "inequalities": [], "generators": []})
    # rationals as strings
    c = cone_from_json({"d": 2, "inequalities": [["-1/2", 0], [0, "-3"]]})
    assert c == ORTHANT2


def test_face_lattice_bounds_and_order():
    # 0-hat is the lineality face, 1-hat is the cone itself
    for name, c in build_cones():
        fl = face_lattice(c)
        bottom, top = fl.faces[0], fl.faces[-1]
        assert top.cone == c, name
        assert bottom.dim == c.lineality_dim, name
        assert bottom.cone.is_subspace and bottom.cone.dim == c.lineality_dim, name
        # grading: every face leq the top, bottom leq every face
        for i in range(len(fl.faces)):
            assert fl.leq(0, i) and fl.leq(i, len(fl.faces) - 1), name


def test_polar_order_reversing_on_faces():
    # F <= C implies polar(C) <= polar(F), checked by generator containment
    def contains(big, small):
        return all(big.contains(g) for g in small.generators) and all(
            big.contains(v) for v in small.lineality.basis
        )

    for name, c in build_cones():
        if c.d > 3:
            continue
        fl = face_lattice(c)
        for f in fl.faces:
            assert contains(c, f.cone), name
            assert contains(polar(f.cone), polar(c)), name


def brute_force_extreme_rays(ineqs, d):
    """Independent double-description oracle for pointed full-dimensional
    cones: an extreme ray is the kernel line of some rank-(d-1) subset of
    active constraints, oriented into the cone."""
    from conevol.exactlin import kernel

    rays = set()
    for subset in itertools.combinations(range(len(ineqs)), d - 1):
        rows = [ineqs[i] for i in subset]
        if rank(rows) != d - 1:
            continue
        line = kernel(rows, d)
        if line.dim != 1:
            continue
        v = line.basis[0]  # coprime integer row
        for cand in (v, tuple(-x for x in v)):
            if all(dot(a, cand) <= 0 for a in ineqs):
                rays.add(cand)
    return sorted(rays)


def test_extreme_rays_against_brute_force_oracle():
    rng = random.Random(2024)
    checked = 0
    while checked < 25:
        d = rng.randint(2, 5)
        m = rng.randint(d, d + 6)
        ineqs = [vec([rng.randint(-3, 3) for _ in range(d)]) for _ in range(m)]
        ineqs = [a for a in ineqs if any(a)]
        if not ineqs:
            continue
        c = cone_from_inequalities(ineqs, d)
        if not c.is_pointed or c.dim != d:
            continue
        assert list(c.generators) == brute_force_extreme_rays(ineqs, d)
        checked += 1
    assert checked == 25


def test_extreme_rays_oracle_stress_instances():
    # a 6-dimensional cone with 12 facets and the cross-polytope cone
    cube6 = []
    for i in range(6):
        row = [0] * 6
        row[i] = -1
        cube6.append(row)
        row2 = [1 if j == 0 else 0 for j in range(6)]
        row2[i] = row2[i] + (-3 if i else 0)
        # skew the orthant: -x_i + x_{i+1 mod 6}/2 <= 0
        row3 = [0] * 6
        row3[i] = -2
        row3[(i + 1) % 6] = 1
        cube6.append(row3)
    c = cone_from_inequalities(cube6, 6)
    if c.is_pointed and c.dim == 6:
        assert list(c.generators) == brute_force_extreme_rays(
            [vec(r) for r in cube6], 6
        )
    cross = cone_from_generators(
        [[1, 1, 0, 0], [1, -1, 0, 0], [1, 0, 1, 0],
         [1, 0, -1, 0], [1, 0, 0, 1], [1, 0, 0, -1]], [], 4
    )
    assert list(cross.generators) == brute_force_extreme_rays(
        cross.inequalities, 4
    )


# ---------------------------------------------------------------------------
# Congruence keys

_PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17))


@st.composite
def _integer_orthogonal(draw, d):
    # a signed permutation times a rotation by a Pythagorean angle in one
    # coordinate plane, scaled to integers by the hypotenuse
    perm = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=d, max_size=d))
    q = [[signs[i] * int(perm[i] == j) for j in range(d)] for i in range(d)]
    if d == 1:
        return q
    a, b, h = draw(st.sampled_from(_PYTHAGOREAN))
    i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
    rot = [[h * int(r == s) for s in range(d)] for r in range(d)]
    rot[i][i], rot[i][j], rot[j][i], rot[j][j] = a, -b, b, a
    return [[sum(rot[r][t] * q[t][s] for t in range(d)) for s in range(d)] for r in range(d)]


def _image(q, c):
    """QC for an integer matrix Q whose rows are orthogonal with one norm."""
    def rows(vs):
        return [[dot(qr, v) for qr in q] for v in vs]
    return cone_from_generators(rows(c.generators), rows(c.lineality.basis), c.d)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_small_cone_inputs().flatmap(
    lambda case: st.tuples(st.just(case), _integer_orthogonal(case[0]))))
def test_congruence_key_is_orthogonally_invariant(drawn):
    # with and without lineality: the drawn second list is the lineality
    (d, rows, extra), q = drawn
    c = cone_from_generators(rows, extra, d)
    key = congruence_key(c)
    assert congruence_key(_image(q, c)) == key
    # C and -C are congruent
    assert congruence_key(_image([[-int(i == j) for j in range(d)] for i in range(d)], c)) == key
    # a face is keyed from its parent's rows, with the key of its own cone
    for f in face_lattice(c).faces:
        assert congruence_key(f) == congruence_key(f.cone)


def test_congruence_key_separates_catalog_pairs():
    named = dict(build_cones())
    assert congruence_key(named["wedge-45"]) != congruence_key(named["wedge-135"])
    assert congruence_key(named["braid-chamber-3d"]) != congruence_key(named["bc-chamber-3d"])
    assert congruence_key(named["orthant-2d"]) == congruence_key(named["rot-orthant-2d"])
    assert congruence_key(named["orthant-3d"]) == congruence_key(named["neg-orthant-3d"])


def test_equal_keys_have_equal_exact_volumes():
    # over the catalog cones and all their faces, cones sharing a key share
    # their closed-form intrinsic volumes wherever exact_iv knows them
    by_key = {}
    for _, c in build_cones():
        for f in face_lattice(c).faces:
            ex = exact_iv(f.cone)
            if ex is not None:
                by_key.setdefault(congruence_key(f), {})[f.cone] = ex.values
    assert all(len(set(cones.values())) == 1 for cones in by_key.values())
    # not vacuous: many keys are shared by different cones
    assert sum(len(cones) > 1 for cones in by_key.values()) >= 15


def test_congruence_key_budget():
    # 7 orthogonal generators are one cell with 7! orders, past the budget,
    # so the orthant keys by itself and a rotated copy gets another key;
    # at 6! orders the table is searched and the copies share a key
    for d, shared in ((6, True), (7, False)):
        orthant = cone_from_generators([[int(i == j) for j in range(d)] for i in range(d)], [], d)
        flipped = _image([[-int(i == j) for j in range(d)] for i in range(d)], orthant)
        assert (congruence_key(orthant) == congruence_key(flipped)) is shared
        assert (congruence_key(orthant)[3] == orthant) is not shared
    # every face of the 226-ray cone in R^8: the search never runs past the
    # budget, and the generator rows are read off one table of the parent
    c = cone_from_json(json.loads((FIXTURES / "cone-8d-16.json").read_text()))
    faces = face_lattice(c).faces
    t0 = time.perf_counter()
    keys = {congruence_key(f) for f in faces}
    assert time.perf_counter() - t0 < 10.0
    assert len(keys) <= len(faces)
    assert all(f.__dict__.get("cone") is None for f in faces)


def test_reflection_chambers_form_one_class():
    # the Weyl group permutes the chambers of braid, bc and d by orthogonal
    # maps, so each family's chambers share one key; braid's carry the
    # lineality line (1, ..., 1), which the key projects out
    for spec in ("braid:4", "bc:3", "d:4"):
        regs = chambers(parse_family_spec(spec))
        assert len({congruence_key(r.cone) for r in regs}) == 1, spec
    # every level of bc:4: {0}, the 80 rays and the 384 chambers are one
    # class each, and the 768 3-regions, on the 16 hyperplanes, fall into 4
    counts = [len({congruence_key(r.cone) for r in regions_j(parse_family_spec("bc:4"), j)})
              for j in range(5)]
    assert counts[0] == counts[1] == counts[4] == 1
    assert counts[3] == 4


def test_congruence_key_of_a_rotated_lineality_cone():
    # generators stored modulo a skew lineality line are not its orthogonal
    # complement's rays; the key reads their projections
    c = cone_from_generators([[1, 0, 0], [0, 1, 0]], [[1, 1, 1]], 3)
    rot = [[3, -4, 0], [4, 3, 0], [0, 0, 5]]
    assert congruence_key(_image(rot, c)) == congruence_key(c)
    assert congruence_key(_image([[0, 1, 0], [0, 0, 1], [1, 0, 0]], c)) == congruence_key(c)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_small_cone_inputs(), st.randoms(use_true_random=False))
def test_cosine_form_is_a_relabelling_of_the_table(case, rnd):
    # the form does not depend on the order the generators are given in,
    # and it is the table itself under some order, found here by brute force
    d, rows, extra = case
    c = cone_from_generators(rows, extra, d)
    codes, values = table = c._cosine_table
    idx = list(range(len(c.generators)))
    form = cone_module._canonical_cosines(table, idx)
    shuffled = idx[:]
    rnd.shuffle(shuffled)
    assert cone_module._canonical_cosines(table, shuffled) == form

    def lower(order):
        return tuple(tuple(values[codes[v][s]] for s in order[:t]) for t, v in enumerate(order))

    if form is not None and len(idx) <= 6:
        assert any(lower(p) == form for p in itertools.permutations(idx))


def test_cosine_form_decides_relabelling_of_small_tables():
    # on symmetric tables of 6 generators with two off-diagonal values
    # (graphs), every table is within the budget, so two forms are equal
    # exactly when some relabelling carries one table onto the other;
    # brute force over all 720 orders decides that
    rng = random.Random(5)
    values = [(0, 1), (1, 4), (1, 1)]

    def table(edges, m=6):
        codes = [[2 if i == j else int(frozenset((i, j)) in edges) for j in range(m)]
                 for i in range(m)]
        return codes, values

    def brute(t):
        codes = t[0]
        return min(tuple(codes[v][s] for t_, v in enumerate(p) for s in p[:t_])
                   for p in itertools.permutations(range(6)))

    pairs = [frozenset(p) for p in itertools.combinations(range(6), 2)]
    graphs = [frozenset(e for e in pairs if rng.random() < 0.5) for _ in range(40)]
    for g in graphs[:10]:  # relabelled copies
        perm = list(range(6))
        rng.shuffle(perm)
        graphs.append(frozenset(frozenset(perm[i] for i in e) for e in g))
    tables = [table(g) for g in graphs]
    forms = [cone_module._canonical_cosines(t, list(range(6))) for t in tables]
    canon = [brute(t) for t in tables]
    assert None not in forms
    for a in range(len(tables)):
        for b in range(a):
            assert (forms[a] == forms[b]) == (canon[a] == canon[b])
    assert all(forms[40 + k] == forms[k] for k in range(10))
