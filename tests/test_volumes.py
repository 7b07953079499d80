import functools
import gc
import math
import sys
import threading
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classify_oracle as oracle
from conevol import volumes
from conevol.arrangement import chambers
from conevol.catalog import build_arrangements, build_cones
from conevol.cone import (
    cone_from_generators,
    cone_from_inequalities,
    coordinate_factors,
    face_lattice,
    polar,
    product,
)
from conevol.exactlin import mat
from conevol.identities import verify_crofton_probability
from conevol.volumes import (
    REL_TOL,
    AmbiguousProjection,
    IVExact,
    ProductKernel,
    ProjectionKernel,
    SampleConfig,
    estimate_iv,
    exact_iv,
    external_angle,
    grassmann_angles,
    haar_rotation,
    internal_angle,
    iv_polynomial,
    moreau_project,
    solid_angle,
    statdim_mc,
    statistical_dimension,
    tangent_cone,
)

ORTHANT2 = cone_from_generators([[1, 0], [0, 1]], [], 2)
ORTHANT3 = cone_from_generators([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [], 3)
HALFPLANE = cone_from_inequalities([[0, -1]], 2)
WEDGE45 = cone_from_generators([[1, 0], [1, 1]], [], 2)
SQUARE = cone_from_generators([[1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1]], [], 3)
CATALOG = dict(build_cones())


def test_moreau_orthant_mixed_signs():
    p, q, face = moreau_project(ORTHANT2, [1.0, -1.0])
    assert np.allclose(p, [1, 0]) and np.allclose(q, [0, -1])
    assert face.dim == 1 and face.cone.generators == mat([[1, 0]])
    # the face is the cone's own lattice's object
    assert any(face is f for f in face_lattice(ORTHANT2).faces)


def test_moreau_interior_point():
    p, q, face = moreau_project(ORTHANT2, [2.0, 3.0])
    assert np.allclose(p, [2, 3]) and np.allclose(q, [0, 0])
    assert face.cone == ORTHANT2


def test_moreau_halfplane():
    p, q, face = moreau_project(HALFPLANE, [3.0, -2.0])
    assert np.allclose(p, [3, 0]) and np.allclose(q, [0, -2])
    assert face.cone.is_subspace and face.dim == 1


def test_moreau_identity_properties():
    rng = np.random.default_rng(9)
    for c in (ORTHANT3, WEDGE45, HALFPLANE, SQUARE):
        for x in rng.standard_normal((60, c.d)):
            p, q, _ = moreau_project(c, x)
            assert np.linalg.norm(p + q - x) < 1e-9
            assert abs(float(np.dot(p, q))) < 1e-9
            # q is in the polar cone
            for g in c.generators:
                assert np.dot(q, [float(v) for v in g]) < 1e-9


def test_estimate_subspace_exact():
    plane = cone_from_generators([], [[1, 0, 0], [0, 1, 0]], 3)
    est = estimate_iv(plane, SampleConfig(n_samples=1500, seed=7))
    assert est.values == (0.0, 0.0, 1.0, 0.0)


def test_estimate_orthant3_binomial():
    est = estimate_iv(ORTHANT3, SampleConfig(n_samples=100_000, seed=11))
    for k in range(4):
        exact = math.comb(3, k) / 8
        assert abs(est.values[k] - exact) <= 4 * est.std_errors[k]
    assert sum(est.face_hit_counts) == est.n_samples
    assert sum(F(h, est.n_samples) for h in est.face_hit_counts) == 1


def test_estimate_planar_wedge():
    # arc measure: v2 = (pi/4)/(2 pi) = 1/8, v1 = 1/2, v0 = 3/8
    est = estimate_iv(WEDGE45, SampleConfig(n_samples=50_000, seed=3))
    for k, exact in enumerate((0.375, 0.5, 0.125)):
        assert abs(est.values[k] - exact) <= 4 * est.std_errors[k]


def test_estimate_deterministic_and_worker_split():
    a = estimate_iv(ORTHANT3, SampleConfig(n_samples=30_000, seed=5))
    b = estimate_iv(ORTHANT3, SampleConfig(n_samples=30_000, seed=5))
    assert a.values == b.values and a.face_hit_counts == b.face_hit_counts
    c = estimate_iv(ORTHANT3, SampleConfig(n_samples=30_000, seed=5, workers=3))
    assert c.values != a.values  # different substream split
    d = estimate_iv(ORTHANT3, SampleConfig(n_samples=30_000, seed=5, workers=3))
    assert c.values == d.values


def test_orthogonal_invariance_signed_permutation():
    # swap axes and negate z: an exact orthogonal image of the square cone
    perm = cone_from_generators(
        [[0, 1, 0], [1, 1, 0], [1, 1, -1], [0, 1, -1]], [], 3
    )
    e1 = estimate_iv(SQUARE, SampleConfig(n_samples=50_000, seed=21))
    e2 = estimate_iv(perm, SampleConfig(n_samples=50_000, seed=22))
    for k in range(4):
        se = math.hypot(e1.std_errors[k], e2.std_errors[k])
        assert abs(e1.values[k] - e2.values[k]) <= 4 * se


def test_polarity_reverses_estimates():
    e1 = estimate_iv(SQUARE, SampleConfig(n_samples=50_000, seed=23))
    e2 = estimate_iv(polar(SQUARE), SampleConfig(n_samples=50_000, seed=24))
    for k in range(4):
        se = math.hypot(e1.std_errors[k], e2.std_errors[3 - k])
        assert abs(e1.values[k] - e2.values[3 - k]) <= 4 * se


def test_product_rule_estimates():
    prod = product(WEDGE45, WEDGE45)
    ep = estimate_iv(prod, SampleConfig(n_samples=60_000, seed=25))
    ex = exact_iv(WEDGE45)
    conv = np.convolve([float(v) for v in ex.values], [float(v) for v in ex.values])
    for k in range(5):
        assert abs(ep.values[k] - conv[k]) <= 4 * ep.std_errors[k] + 1e-12


def test_self_dual_symmetry():
    # the rotated orthant (1,1),(1,-1) is self-dual: C = -C°
    c = cone_from_generators([[1, 1], [1, -1]], [], 2)
    neg_polar = cone_from_generators([[-x for x in g] for g in polar(c).generators], [], 2)
    assert neg_polar == c
    est = estimate_iv(c, SampleConfig(n_samples=50_000, seed=26))
    assert abs(est.values[0] - est.values[2]) <= 4 * math.hypot(
        est.std_errors[0], est.std_errors[2]
    )


def test_exact_iv_orthants():
    ex = exact_iv(cone_from_generators(np.eye(4, dtype=int).tolist(), [], 4))
    assert ex.values == tuple(F(math.comb(4, k), 16) for k in range(5))


def test_exact_iv_product_with_subspace():
    c = cone_from_generators([[1, 0, 0], [0, 1, 0]], [[0, 0, 1]], 3)
    ex = exact_iv(c)
    assert ex.values == (F(0), F(1, 4), F(1, 2), F(1, 4))


def test_exact_iv_polar_route():
    assert exact_iv(polar(ORTHANT3)).values == tuple(
        F(math.comb(3, k), 8) for k in range(4)
    )


def test_exact_iv_ray_and_unsupported():
    ray = cone_from_generators([[1, 1]], [], 2)
    assert exact_iv(ray).values == (F(1, 2), F(1, 2), F(0))
    assert exact_iv(SQUARE) is None  # no closed form is claimed


def test_exact_iv_sums_to_one():
    for name, c in build_cones():
        ex = exact_iv(c)
        if ex is None:
            continue
        total = sum(float(v) for v in ex.values)
        assert abs(total - 1.0) < 1e-12, name
        assert all(float(v) >= -1e-15 for v in ex.values), name


def test_iv_polynomial():
    line = cone_from_generators([], [[1, 0]], 2)
    assert iv_polynomial(exact_iv(line)) == (0, 1, 0)
    # orthant2: (1 + t)^2 / 4
    ex = exact_iv(ORTHANT2)
    assert iv_polynomial(ex) == (F(1, 4), F(1, 2), F(1, 4))
    # multiplicative under products
    w = exact_iv(WEDGE45)
    pw = exact_iv(product(WEDGE45, WEDGE45))
    conv = np.convolve([float(v) for v in w.values], [float(v) for v in w.values])
    assert np.allclose([float(v) for v in pw.values], conv)


def test_statistical_dimension():
    plane = cone_from_generators([], [[1, 0, 0], [0, 1, 0]], 3)
    assert statistical_dimension(exact_iv(plane)) == 2
    assert statistical_dimension(exact_iv(ORTHANT3)) == F(3, 2)
    assert statistical_dimension(exact_iv(HALFPLANE)) == F(3, 2)


def test_statdim_mc_agreement():
    val, se = statdim_mc(ORTHANT3, SampleConfig(n_samples=60_000, seed=5))
    assert abs(val - 1.5) <= 4 * se


def test_grassmann_angles():
    h = grassmann_angles(exact_iv(ORTHANT2))
    assert abs(2 * float(h[2]) - 0.5) < 1e-12  # random line hits the quadrant
    # 2-subspace in R^3 always meets a random plane nontrivially
    plane = cone_from_generators([], [[1, 0, 0], [0, 1, 0]], 3)
    h = grassmann_angles(exact_iv(plane))
    assert 2 * float(h[2]) == 2.0
    # for subspaces the Crofton reading does not apply (see verify_crofton)


def test_grassmann_monte_carlo_oracle():
    # P(random line hits the quadrant) by direct simulation
    rng = np.random.default_rng(31)
    u = rng.standard_normal((40_000, 2))
    hits = np.logical_or((u >= 0).all(axis=1), (u <= 0).all(axis=1)).mean()
    assert abs(hits - 0.5) <= 4 * math.sqrt(0.25 / 40_000)


def test_tangent_cone_and_angles():
    fl = face_lattice(ORTHANT2)
    xray = next(f for f in fl.faces if f.dim == 1 and f.cone.generators == mat([[1, 0]]))
    t = tangent_cone(ORTHANT2, xray)
    assert t == cone_from_inequalities([[0, -1]], 2)
    assert abs(solid_angle(HALFPLANE) - 0.5) < 1e-12
    # orthant3 at a ray: beta(0, F) gamma(F, C) = v_F(C) = 1/8
    fl3 = face_lattice(ORTHANT3)
    xray3 = next(f for f in fl3.faces
                 if f.dim == 1 and f.cone.generators == mat([[1, 0, 0]]))
    gamma = external_angle(xray3, ORTHANT3)
    sub = face_lattice(xray3.cone)
    beta0 = internal_angle(sub.faces[0], xray3.cone)
    assert abs(beta0 - 0.5) < 1e-12
    assert abs(gamma - 0.25) < 1e-12
    assert abs(beta0 * gamma - 0.125) < 1e-12
    # the three rays together give v_1 = 3/8
    assert abs(3 * beta0 * gamma - 0.375) < 1e-12


def test_angle_polarity_swap():
    # polarity exchanges internal and external angles of the dual pair:
    # beta(F, C) = gamma(C_diamond, F_diamond) with X_diamond = N_X C
    from conevol.cone import normal_face

    fl = face_lattice(ORTHANT3)
    for f in fl.faces:
        fd = normal_face(ORTHANT3, f)
        sub = face_lattice(fd.cone)
        zero = sub.faces[0]  # C_diamond is the zero face of the polar pair
        assert abs(internal_angle(f, ORTHANT3)
                   - external_angle(zero, fd.cone)) < 1e-12
        assert abs(external_angle(f, ORTHANT3)
                   - internal_angle(zero, fd.cone)) < 1e-12


def test_tangent_cone_wrong_parent():
    f = face_lattice(ORTHANT2).faces[0]
    with pytest.raises(ValueError):
        tangent_cone(ORTHANT3, f)


def test_haar_orthogonality():
    rng = np.random.default_rng(0)
    for _ in range(100):
        q = haar_rotation(6, rng)
        assert np.linalg.norm(q.T @ q - np.eye(6)) < 1e-10
        assert abs(abs(np.linalg.det(q)) - 1) < 1e-10


def test_haar_d1_signs():
    rng = np.random.default_rng(1)
    plus = sum(1 for _ in range(10_000) if haar_rotation(1, rng)[0, 0] > 0)
    assert abs(plus - 5000) <= 4 * 50


def test_haar_sphere_uniformity():
    # Qx is uniform on the sphere: coordinate means vanish
    rng = np.random.default_rng(2)
    x = np.array([1.0, 0.0, 0.0])
    n = 30_000
    acc = np.zeros(3)
    for _ in range(n):
        acc += haar_rotation(3, rng) @ x
    assert np.all(np.abs(acc / n) <= 4 * math.sqrt(1 / 3 / n))


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(n_samples=0)
    with pytest.raises(ValueError):
        SampleConfig(workers=0)
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance_sigmas"):
            SampleConfig(tolerance_sigmas=tol)


def test_moreau_bulk_invariant_100k():
    # p + q = x and <p, q> = 0 within 1e-9 for 1e5 samples per cone, in the
    # kernel's own basis (the halfplane's is its one pointed coordinate)
    from conevol.volumes import _kernel_for

    rng = np.random.default_rng(40)
    for c in (ORTHANT3, SQUARE, HALFPLANE):
        kern = _kernel_for(c)
        g = rng.standard_normal((100_000, kern.d))
        idx, pn2, ok, _ = kern.classify(g)
        assert ok.mean() > 0.999
        for j in set(idx[ok]):
            rows = g[ok][idx[ok] == j]
            q_basis = kern.bases[j]
            p = (rows @ q_basis) @ q_basis.T if q_basis.shape[1] else np.zeros_like(rows)
            q = rows - p
            # p + q = x identically; orthogonality within 1e-9 relative scale
            inner = np.abs(np.einsum("ij,ij->i", p, q))
            assert np.all(inner <= 1e-9 * np.maximum(np.einsum("ij,ij->i", rows, rows), 1.0))


def test_equal_cones_share_one_kernel():
    # built separately: two cone objects, each with its own lattice
    a = cone_from_generators([[1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1]], [], 3)
    b = cone_from_inequalities(a.inequalities, 3)
    assert a == b and a is not b and face_lattice(a) is not face_lattice(b)
    assert volumes._kernel_for(a) is volumes._kernel_for(b)
    # the shared kernel's face index reads the caller's own lattice
    _, _, face = moreau_project(b, [1.0, 0.5, 0.25])
    assert face.parent is b and any(face is f for f in face_lattice(b).faces)


def test_kernel_cache_entry_lives_as_long_as_its_cone():
    gc.collect()
    before = len(volumes._kernel_cache)
    c = cone_from_generators([[1, 0, 0], [1, 2, 0], [1, 1, 3]], [], 3)
    kern = volumes._kernel_for(c)
    assert len(volumes._kernel_cache) == before + 1
    # the kernel refers to neither the cone nor its lattice, so holding it
    # does not keep the entry alive
    del c
    gc.collect()
    assert len(volumes._kernel_cache) == before
    assert kern.classify(np.ones((1, 3)))[2].all()


# ---------------------------------------------------------------------------
# The fused classifier against the per-face reference


def _unit(rows, d):
    a = np.array([[float(x) for x in r] for r in rows], dtype=float).reshape(len(rows), d)
    return a / np.linalg.norm(a, axis=1)[:, None] if len(a) else a


def reference_classify(c, lattice, g):
    """ProjectionKernel.classify as one loop over faces: project onto each
    face's span, then take the worst facet margin of the projection and
    the worst generator margin of the residual."""
    gens, facets = _unit(c.generators, c.d), _unit(c.inequalities, c.d)
    b, nf = g.shape[0], len(lattice.faces)
    margins = np.empty((b, nf))
    pnorm2 = np.empty((b, nf))
    for j, f in enumerate(lattice.faces):
        if f.dim == 0:
            p = np.zeros_like(g)
            pnorm2[:, j] = 0.0
        else:
            rows = np.array([[float(x) for x in r] for r in f.span.rref], dtype=float)
            q, _ = np.linalg.qr(rows.T)
            v = g @ q
            p = v @ q.T
            pnorm2[:, j] = np.einsum("ij,ij->i", v, v)
        out = [i for i in range(len(c.inequalities)) if i not in f.active]
        out_gens = [i for i in range(len(c.generators)) if not f.gen_mask >> i & 1]
        s_rel = -np.max(p @ facets[out].T, axis=1) if out else np.full(b, np.inf)
        s_pol = -np.max((g - p) @ gens[out_gens].T, axis=1) if out_gens else np.full(b, np.inf)
        margins[:, j] = np.minimum(s_rel, s_pol)
    best = np.argmax(margins, axis=1)
    m1 = margins[np.arange(b), best]
    if nf > 1:
        m2 = np.partition(margins, nf - 2, axis=1)[:, nf - 2]
    else:
        m2 = np.full(b, -np.inf)
    tol = REL_TOL * np.maximum(np.linalg.norm(g, axis=1), 1.0)
    ok = (m1 > tol) & (m2 < -tol)
    return best, pnorm2[np.arange(b), best], ok, (m1, m2)


def _assert_matches_reference(c, g, same_index_everywhere):
    """Margins agree within 1e-12 of max(|g|, 1) and pnorm2 within 1e-12
    of max(|g|^2, 1), the scales REL_TOL is relative to; ok agrees
    exactly.  Where no face is separated the best index may break a tie
    differently, so it is compared only where ok unless asked."""
    lattice = face_lattice(c)
    idx, pn2, ok, (m1, m2) = ProjectionKernel(c).classify(g)
    r_idx, r_pn2, r_ok, (r_m1, r_m2) = reference_classify(c, lattice, g)
    scale = np.maximum(np.linalg.norm(g, axis=1), 1.0)
    np.testing.assert_array_equal(ok, r_ok)
    for got, want in ((m1, r_m1), (m2, r_m2)):
        inf = np.isinf(want)
        np.testing.assert_array_equal(got[inf], want[inf])
        assert np.all(np.abs(got[~inf] - want[~inf]) <= 1e-12 * scale[~inf])
    sel = slice(None) if same_index_everywhere else ok
    np.testing.assert_array_equal(idx[sel], r_idx[sel])
    assert np.all(np.abs(pn2[sel] - r_pn2[sel]) <= 1e-12 * scale[sel] ** 2)


def test_kernel_bases_are_qr_of_float_rref_rows():
    # the kernel's span rows are the float RREF rows entry for entry, so its
    # orthonormal bases are the QR factors of float(Fraction) rows, bit for
    # bit; most face spans of generic-3d-n5's chambers have fractional RREF
    # entries, which QR of the unscaled integer rows would round differently
    generic = dict(build_arrangements())["generic-3d-n5"]
    fractional = 0
    for c in [r.cone for r in chambers(generic)] + list(CATALOG.values()):
        lattice = face_lattice(c)
        for f, q in zip(lattice.faces, ProjectionKernel(c).bases):
            if f.dim == 0:
                continue
            fractional += any(x.denominator != 1 for row in f.span.rref for x in row)
            want, _ = np.linalg.qr(np.array([[float(x) for x in r] for r in f.span.rref]).T)
            assert q.tobytes() == want.tobytes()
    assert fractional >= 160


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_fused_classify_matches_reference_catalog(name):
    c = CATALOG[name]
    g = np.random.default_rng(12).standard_normal((16384, c.d))
    _assert_matches_reference(c, g, same_index_everywhere=True)


_small_int = st.integers(min_value=-2, max_value=2)


@st.composite
def _small_cones(draw):
    d = draw(st.integers(min_value=2, max_value=4))
    vec = st.lists(_small_int, min_size=d, max_size=d)
    gens = draw(st.lists(vec, min_size=1, max_size=5))
    lin = draw(st.lists(vec, max_size=1))  # pointed, or one lineality direction
    return cone_from_generators(gens, lin, d)


@settings(max_examples=40, deadline=None)
@given(_small_cones(), st.integers(min_value=0, max_value=2**32 - 1))
def test_fused_classify_matches_reference_random_cones(c, seed):
    rng = np.random.default_rng(seed)
    # Gaussian draws plus integer points, which often lie on face boundaries
    g = np.vstack([rng.standard_normal((512, c.d)),
                   rng.integers(-2, 3, (64, c.d)).astype(float)])
    _assert_matches_reference(c, g, same_index_everywhere=False)


# ---------------------------------------------------------------------------
# The workspace classifier against the allocating one, bit for bit


def _bits(a):
    """A float array as its bit patterns, so that -0.0 differs from 0.0."""
    return np.ascontiguousarray(a).view(np.uint64) if a.dtype.kind == "f" else a


def _assert_bitwise(got, want, with_pnorm2=True):
    idx, pn2, ok, (m1, m2) = got
    w_idx, w_pn2, w_ok, (w_m1, w_m2) = want
    pairs = [(idx, w_idx), (ok, w_ok), (m1, w_m1), (m2, w_m2)]
    if with_pnorm2:
        pairs.append((pn2, w_pn2))
    else:
        assert pn2 is None
    for a, b in pairs:
        assert a.dtype == b.dtype and np.array_equal(_bits(a), _bits(b))


def _assert_same_bits(kern, g):
    """classify equals the oracle in every bit, with and without pnorm2."""
    want = oracle.classify(kern, g)
    _assert_bitwise(kern.classify(g), want)
    _assert_bitwise(kern.classify(g, pnorm2=False), want, with_pnorm2=False)


def _batches(kern):
    return sorted({b for b in (1, kern._chunk - 1, kern._chunk, kern._chunk + 1,
                               16384, 20000) if b >= 1})


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_classify_matches_allocating_oracle_bitwise(name):
    c = CATALOG[name]
    kern = ProjectionKernel(c)
    for b in _batches(kern):
        _assert_same_bits(kern, np.random.default_rng(b).standard_normal((b, c.d)))


def test_classify_results_do_not_alias_the_workspace():
    a, b = CATALOG["orthant-4d"], CATALOG["cross-cone-4d"]
    ka, kb = ProjectionKernel(a), ProjectionKernel(b)
    rng = np.random.default_rng(5)
    ga = rng.standard_normal((20000, 4))
    first = ka.classify(ga)
    kept = oracle.classify(ka, ga)
    # as many rows again, so any buffer the first call used is reused
    kb.classify(rng.standard_normal((20000, 4)))
    _assert_bitwise(first, kept)


def test_classify_threads_match_oracle():
    # each thread reuses its own workspace; a shared one would mix margins
    names = ("orthant-4d", "cross-cone-4d", "square-cone-3d", "orthant-3d")
    kerns = [ProjectionKernel(CATALOG[n]) for n in names]
    draws = [np.random.default_rng(i).standard_normal((20000, k.d))
             for i, k in enumerate(kerns)]
    got = [[] for _ in kerns]

    def work(i):
        for _ in range(5):
            got[i].append(kerns[i].classify(draws[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(kerns))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for kern, g, results in zip(kerns, draws, got):
        assert len(results) == 5
        want = oracle.classify(kern, g)
        for res in results:
            _assert_bitwise(res, want)


def _hard_rows(c, rng, b):
    """b rows mixing Gaussian draws, small integer points, which often lie
    on face boundaries or tie two faces' margins at +0 and -0, and
    duplicates of both."""
    base = np.vstack([rng.standard_normal((48, c.d)),
                      rng.integers(-2, 3, (48, c.d)).astype(float)])
    return base[rng.integers(0, len(base), b)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_small_cones(), st.integers(min_value=0, max_value=2**32 - 1))
def test_classify_bitwise_on_random_cones(c, seed):
    kern = ProjectionKernel(c)
    rng = np.random.default_rng(seed)
    for b in (kern._chunk - 1, kern._chunk + 1, 300):
        _assert_same_bits(kern, _hard_rows(c, rng, b))


# rows of d >= 9 coordinates are summed in another order than short rows in
# numpy's row norms; orthant-5d's 32 faces exceed _SWEEP_MAX_FACES and take
# the argmin selection
_WIDE_CONES = {
    "wedge-in-10d": cone_from_generators([[1] + [0] * 9, [1, 1] + [0] * 8], [], 10),
    "halfspace-x-line-9d": cone_from_generators([[0] * 8 + [1]],
                                                np.eye(9, dtype=int)[:8].tolist(), 9),
    "orthant-5d": cone_from_generators(np.eye(5, dtype=int).tolist(), [], 5),
}


@pytest.mark.parametrize("name", sorted(_WIDE_CONES))
def test_classify_bitwise_wide_and_many_faced(name):
    c = _WIDE_CONES[name]
    kern = ProjectionKernel(c)
    rng = np.random.default_rng(9)
    for b in sorted({1, kern._chunk - 1, kern._chunk + 1, 5000} - {0}):
        _assert_same_bits(kern, _hard_rows(c, rng, b))


def test_classify_with_non_finite_rows_matches_oracle():
    # NaN margins take the argmin path, so even they keep argmin's index;
    # which NaN a min returns is not fixed, so NaNs compare as equal
    kern = ProjectionKernel(SQUARE)
    g = np.random.default_rng(2).standard_normal((64, 3))
    g[5, 1] = np.nan
    g[9, 0] = np.inf
    g[17] = [-np.inf, 1.0, 0.0]
    with np.errstate(invalid="ignore"):
        got, want = kern.classify(g), oracle.classify(kern, g)
    for a, b in zip((got[0], got[1], got[2], *got[3]), (want[0], want[1], want[2], *want[3])):
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
    fin = np.isfinite(g).all(axis=1)
    assert not got[2][~fin].any() and got[2][fin].sum() >= 58


@pytest.mark.parametrize("c", [ORTHANT2, _WIDE_CONES["halfspace-x-line-9d"]],
                         ids=["orthant-2d", "halfspace-x-line-9d"])
def test_exact_tolerance_decides_rows_under_the_batch_bound(c):
    # one draw of norm 1e6 lifts the batch bound to about 1e-3; draws whose
    # margins lie between their own tolerance (about 1e-9) and that bound
    # are decided by their own norms: 1e-6 accepted, 1e-11 rejected
    d = c.d
    rng = np.random.default_rng(4)
    g = np.abs(rng.standard_normal((40, d))) + 1.0
    g[0] = 1e6
    g[1:21, -1] = 1e-6
    g[21:, -1] = 1e-11
    kern = ProjectionKernel(c)
    _assert_same_bits(kern, g)
    _, _, ok, (m1, _) = kern.classify(g)
    bound = REL_TOL * math.sqrt(d) * 1e6
    assert np.all((m1[1:] > 0) & (m1[1:] < bound))
    assert ok[:21].all() and not ok[21:].any()


def test_batch_bound_covers_rows_with_many_large_coordinates():
    # |g| = sqrt(8 * 10^2 + e^2) ~ 28.3 while max |g_i| = 10: margins e
    # around 2.83e-8 straddle the row's own tolerance, so a bound without
    # the sqrt(d) factor would accept the rows just below it
    c = _WIDE_CONES["halfspace-x-line-9d"]
    eps = np.linspace(1e-8, 5e-8, 41)
    g = np.hstack([np.full((len(eps), 8), 10.0), eps[:, None]])
    kern = ProjectionKernel(c)
    _assert_same_bits(kern, g)
    _, _, ok, (m1, _) = kern.classify(g)
    own = REL_TOL * np.linalg.norm(g, axis=1)
    assert np.array_equal(ok, m1 > own) and 0 < ok.sum() < len(eps)


# ---------------------------------------------------------------------------
# Ambiguous draws


def test_boundary_draws_are_ambiguous():
    c = CATALOG["orthant-3d"]
    kern = ProjectionKernel(c)
    _, _, ok, _ = kern.classify(np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]))
    assert ok.tolist() == [False, False, True]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_moreau_project_rejects_non_finite_points(bad):
    c = CATALOG["orthant-3d"]
    with pytest.raises(ValueError, match="finite"):
        moreau_project(c, [1.0, bad, 2.0])


def test_moreau_project_raises_on_boundary():
    c = CATALOG["orthant-3d"]
    # an interior point first, so the boundary point meets a warm kernel
    p, _, face = moreau_project(c, [1.0, 2.0, 3.0])
    assert face.dim == 3 and np.allclose(p, [1.0, 2.0, 3.0])
    with pytest.raises(AmbiguousProjection) as exc:
        moreau_project(c, [1.0, 0.0, 1.0])
    assert exc.value.best <= REL_TOL and exc.value.second >= -REL_TOL


@pytest.mark.parametrize("draw", [
    lambda cfg: estimate_iv(ORTHANT3, cfg),
    lambda cfg: statdim_mc(ORTHANT3, cfg),
    # Crofton's line test redraws about 1.2% of its directions here
    lambda cfg: verify_crofton_probability(CATALOG["orthant-2d"], CATALOG["line-2d"], 8192, cfg),
], ids=["estimate_iv", "statdim_mc", "crofton"])
def test_too_many_ambiguous_draws_raise(monkeypatch, draw):
    # a margin of 1% of |g| leaves about 3% of draws on orthant-3d ambiguous,
    # far above the 0.1% of the budget that every sampler tolerates
    monkeypatch.setattr(volumes, "REL_TOL", 1e-2)
    with pytest.raises(AmbiguousProjection):
        draw(SampleConfig(n_samples=20_000, seed=3))


# ---------------------------------------------------------------------------
# The product kernel against the full kernel


@st.composite
def _factor_cones(draw):
    """A small random cone in R^1 to R^3, pointed or with one lineality
    direction; it may itself split into coordinate blocks."""
    d = draw(st.integers(min_value=1, max_value=3))
    # entries leaning positive, so most factors are pointed and not subspaces
    vec = st.lists(st.integers(min_value=-1, max_value=2), min_size=d, max_size=d).filter(any)
    gens = draw(st.lists(vec, min_size=d, max_size=4))
    lin = draw(st.lists(vec, max_size=1 if d > 1 else 0))
    return cone_from_generators(gens, lin, d)


_LINE_BLOCK = cone_from_generators([], [[1]], 1)
_ZERO_BLOCK = cone_from_generators([], [], 1)


def _permuted(c, perm):
    """c with coordinate perm[i] moved to position i."""
    moved = lambda rows: [[r[i] for i in perm] for r in rows]
    return cone_from_generators(moved(c.generators), moved(c.lineality.basis), c.d)


@st.composite
def _product_cones(draw):
    """The product of 2 or 3 random factors, a line and the zero cone {0},
    its coordinates permuted."""
    factors = draw(st.lists(_factor_cones(), min_size=2, max_size=3))
    c = functools.reduce(product, factors + [_LINE_BLOCK, _ZERO_BLOCK])
    return _permuted(c, draw(st.permutations(range(c.d))))


def _product_kernel(c):
    """c's kernel over its coordinate blocks, whatever the cost rule says;
    a cone with none is one block of every coordinate."""
    return ProductKernel(c, coordinate_factors(c))


def _assert_product_matches_full(c, g):
    """ok equal bit for bit; the face equal wherever ok, and |P g|^2 bit
    for bit wherever the faces are equal; m1 and m2 within 1e-12 of
    max(|g|, 1), the factors' QRs rounding apart from the whole cone's.
    Where no face is separated, ties may fall to another face.  Both
    kernels read the ambient rows g in the product's own basis, the one
    its draws are taken in."""
    prod = _product_kernel(c)
    full = ProjectionKernel(c, prod._basis)
    g = volumes._in_basis(g, prod._basis)
    scale = np.maximum(np.linalg.norm(g, axis=1), 1.0)
    for pnorm2 in (True, False):
        idx, pn2, ok, (m1, m2) = prod.classify(g, pnorm2)
        w_idx, w_pn2, w_ok, (w_m1, w_m2) = full.classify(g, pnorm2)
        np.testing.assert_array_equal(ok, w_ok)
        np.testing.assert_array_equal(idx[ok], w_idx[ok])
        if pnorm2:
            same = idx == w_idx
            assert np.array_equal(_bits(pn2[same]), _bits(w_pn2[same]))
        else:
            assert pn2 is None
        for got, want in ((m1, w_m1), (m2, w_m2)):
            inf = np.isinf(want)
            np.testing.assert_array_equal(got[inf], want[inf])
            assert np.all(np.abs(got[~inf] - want[~inf]) <= 1e-12 * scale[~inf])


def _assert_table_is_lattice_bijection(c, prod):
    """Every tuple of block faces names one face of c, each face once, and
    block dimensions add up to its dimension."""
    faces = face_lattice(c).faces
    assert sorted(prod._table.tolist()) == list(range(len(faces)))
    kerns = [k for _, k in prod._factors]
    codes = np.unravel_index(np.arange(len(faces)), [len(k.face_dims) for k in kerns])
    dims = sum(k.face_dims[i] for k, i in zip(kerns, codes))
    np.testing.assert_array_equal(dims, [faces[j].dim for j in prod._table])


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_product_kernel_matches_full_kernel_catalog(name):
    c = CATALOG[name]
    rng = np.random.default_rng(17)
    _assert_table_is_lattice_bijection(c, _product_kernel(c))
    _assert_product_matches_full(c, rng.standard_normal((5000, c.d)))
    _assert_product_matches_full(c, _hard_rows(c, rng, 600))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_product_cones(), st.integers(min_value=0, max_value=2**32 - 1))
def test_product_kernel_matches_full_kernel_random_products(c, seed):
    rng = np.random.default_rng(seed)
    _assert_table_is_lattice_bijection(c, _product_kernel(c))
    _assert_product_matches_full(c, rng.standard_normal((512, c.d)))
    _assert_product_matches_full(c, _hard_rows(c, rng, 300))


def test_kernel_path_choice():
    # the cost rule: blocks' margin rows plus _BLOCK_CALL_ROWS per block
    # against the full kernel's rows (orthant-4d: 4 (2 + 10) < 64;
    # orthant-3d: 3 (2 + 10) > 24)
    for c in CATALOG.values():
        assert volumes._margin_rows(c) == ProjectionKernel(c)._w.shape[0]
    on_blocks = {name for name, c in CATALOG.items()
                 if isinstance(volumes._kernel_for(c), ProductKernel)}
    assert on_blocks == {"orthant-4d", "orthant-6d"}
    for name in ("orthant-2d", "cross-cone-4d", "square-cone-3d"):
        assert type(volumes._kernel_for(CATALOG[name])) is ProjectionKernel
    # six equal rays share one kernel
    kern = volumes._kernel_for(CATALOG["orthant-6d"])
    assert len({id(k) for _, k in kern._factors}) == 1 and len(kern._factors) == 6


def test_product_kernel_holds_no_cone():
    gc.collect()
    before = len(volumes._kernel_cache)
    c = cone_from_generators(np.eye(5, dtype=int).tolist(), [], 5)
    kern = volumes._kernel_for(c)
    assert isinstance(kern, ProductKernel)
    del c
    gc.collect()
    assert len(volumes._kernel_cache) == before
    assert kern.classify(np.ones((1, 5)))[2].all()


def test_estimate_iv_orthant8_on_the_product_path():
    c = cone_from_generators(np.eye(8, dtype=int).tolist(), [], 8)
    assert isinstance(volumes._kernel_for(c), ProductKernel)
    est = estimate_iv(c, SampleConfig(n_samples=100_000, seed=8))
    for k in range(9):
        assert abs(est.values[k] - math.comb(8, k) / 256) <= 4 * est.std_errors[k]


# ---------------------------------------------------------------------------
# The Moreau decomposition on random cones


def _assert_moreau(c, x, p, q, face):
    """x = p + q, p ⟂ q, p in C, q in C°, and p in relint(face), within
    REL_TOL of max(|x|, 1) in each unit-normal direction."""
    scale = max(float(np.linalg.norm(x)), 1.0)
    tol = REL_TOL * scale
    facets, gens = _unit(c.inequalities, c.d), _unit(c.generators, c.d)
    eqs, lin = _unit(c.equalities, c.d), _unit(c.lineality.basis, c.d)
    assert np.linalg.norm(p + q - x) <= tol
    assert abs(float(p @ q)) <= tol * scale
    assert np.all(facets @ p <= tol) and np.all(np.abs(eqs @ p) <= tol)
    assert np.all(gens @ q <= tol) and np.all(np.abs(lin @ q) <= tol)
    # relint(face): in the face's span, strictly inside every other facet
    if face.dim:
        qf, _ = np.linalg.qr(_unit(face.span.basis, c.d).T)
        assert np.linalg.norm(p - qf @ (qf.T @ p)) <= tol
    else:
        assert np.linalg.norm(p) <= tol
    outer = [i for i in range(len(c.inequalities)) if i not in face.active]
    assert np.all(facets[outer] @ p < 0)


def _assert_moreau_on_draws(c, rng, n):
    decided = 0
    for x in np.vstack([rng.standard_normal((n, c.d)),
                        rng.integers(-2, 3, (n, c.d)).astype(float)]):
        try:
            p, q, face = moreau_project(c, x)
        except AmbiguousProjection:
            continue
        decided += 1
        assert any(face is f for f in face_lattice(c).faces)
        _assert_moreau(c, x, p, q, face)
    # every Gaussian draw is decided but for probability ~1e-9
    assert decided >= n


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(_small_cones(), _product_cones()),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_moreau_decomposition_on_random_cones(c, seed):
    _assert_moreau_on_draws(c, np.random.default_rng(seed), 16)


_ON_BLOCKS = {
    "orthant-6d": CATALOG["orthant-6d"],
    "wedge-square-line-zero-7d": _permuted(
        functools.reduce(product, [WEDGE45, SQUARE, _LINE_BLOCK, _ZERO_BLOCK]),
        [3, 6, 0, 5, 2, 4, 1]),
}


@pytest.mark.parametrize("name", sorted(_ON_BLOCKS))
def test_moreau_decomposition_on_the_product_path(name):
    c = _ON_BLOCKS[name]
    assert isinstance(volumes._kernel_for(c), ProductKernel)
    _assert_moreau_on_draws(c, np.random.default_rng(23), 200)


# ---------------------------------------------------------------------------
# One classify for every kernel


def test_product_kernel_supplies_only_a_locator():
    assert "classify" not in vars(ProductKernel)
    assert {k for k, v in vars(ProductKernel).items() if callable(v)} == {"__init__", "_locate"}


@pytest.mark.parametrize("name", sorted(_ON_BLOCKS))
def test_product_classify_is_one_classify_and_one_locate_per_drawn_block(name, monkeypatch):
    kern = volumes._kernel_for(_ON_BLOCKS[name])
    calls = {"classify": [], "_locate": []}

    def counted(attr):
        original = getattr(ProjectionKernel, attr)

        def wrapper(self, *args, **kwargs):
            calls[attr].append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ProjectionKernel, attr, wrapper)

    counted("classify")
    counted("_locate")
    g = np.random.default_rng(3).standard_normal((100, kern.d))
    for pnorm2 in (True, False):
        calls["classify"].clear()
        calls["_locate"].clear()
        kern.classify(g, pnorm2)
        # blocks are located, never classified; the product's own `_locate`
        # overrides the counted one, so only the drawn blocks' calls count
        assert calls["classify"] == [kern]
        assert calls["_locate"] == [k for _, k in kern._reads]


@pytest.mark.parametrize("name", ["cross-cone-4d", "orthant-6d"])
def test_pnorm2_bits_do_not_depend_on_the_gather_chunk(name):
    # three gather chunks and a remainder, row for row against one-row gathers
    kern = volumes._kernel_for(CATALOG[name])
    assert isinstance(kern, ProductKernel) == (name == "orthant-6d")
    rows = volumes._CHUNK_FLOATS // (8 * kern.d ** 2)
    g = np.random.default_rng(9).standard_normal((3 * rows + 5, kern.d))
    idx, pn2, _, _ = kern.classify(g)
    one = np.concatenate([volumes._pnorm2(g[r:r + 1], kern.projectors, idx[r:r + 1])
                          for r in range(len(g))])
    assert np.array_equal(_bits(pn2), _bits(one))


# ---------------------------------------------------------------------------
# Draws in each cone's own basis


def _times(c, line):
    """c x {0} in R^{d+1}, or c x R when line is true: one more coordinate,
    zero on c's rows."""
    pad = lambda rows: [list(r) + [0] for r in rows]
    lin = pad(c.lineality.basis) + ([[0] * c.d + [1]] if line else [])
    return cone_from_generators(pad(c.generators), lin, c.d + 1)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_tallies_equal_those_of_the_cone_times_zero_and_times_a_line(name):
    c = CATALOG[name]
    cfg = SampleConfig(n_samples=20_000, seed=4)
    want = estimate_iv(c, cfg)
    for line in (False, True):
        e = _times(c, line)
        # no draw off the span or along the lineality
        assert volumes._kernel_for(e).d == volumes._kernel_for(c).d == c.dim - c.lineality_dim
        got = estimate_iv(e, cfg)
        assert got.face_hit_counts == want.face_hit_counts
        assert got.values[line:] == want.values + (0.0,) * (1 - line)


def test_subspace_estimate_draws_nothing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a subspace is tallied without drawing")

    monkeypatch.setattr(volumes, "_rng", no_draws)
    for name in ("line-1d", "zero-2d", "full-3d", "line-2d", "plane-3d", "diag-line-3d"):
        c = CATALOG[name]
        est = estimate_iv(c, SampleConfig(n_samples=1000, seed=1))
        assert est.face_hit_counts == (1000,) and est.values[c.dim] == 1.0


@pytest.mark.parametrize("name", ["zero-2d", "line-2d", "plane-3d", "diag-line-3d", "full-3d",
                                  "halfspace-3d"])
def test_statdim_mc_with_the_lineality_drawn_as_chi_square(name):
    # a subspace draws only its chi-square; halfspace-3d one pointed
    # coordinate and a chi-square of two
    c = CATALOG[name]
    val, se = statdim_mc(c, SampleConfig(n_samples=60_000, seed=6))
    assert abs(val - float(statistical_dimension(exact_iv(c)))) <= 4 * se


def test_statdim_mc_on_a_product_with_a_line_block():
    # orthant-6d x R on the product path: six ray blocks drawn side by
    # side, the line a chi-square of one; delta = 6/2 + 1
    c = _times(CATALOG["orthant-6d"], line=True)
    kern = volumes._kernel_for(c)
    assert isinstance(kern, ProductKernel) and kern.d == 6 and kern._lin_draws == 1
    val, se = statdim_mc(c, SampleConfig(n_samples=60_000, seed=6))
    assert abs(val - 4.0) <= 4 * se


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_compiled_kernels_match_allocating_oracle_bitwise(name):
    # the kernels the estimators use, in each cone's own basis; a product's
    # factor kernels are the ones that classify
    kern = volumes._kernel_for(CATALOG[name])
    kerns = [k for _, k in kern._factors] if isinstance(kern, ProductKernel) else [kern]
    for k in kerns:
        for b in _batches(k):
            _assert_same_bits(k, np.random.default_rng(b).standard_normal((b, k.d)))
