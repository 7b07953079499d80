import hashlib
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import crofton_oracle
from conevol import identities
from conevol.arrangement import (
    IntersectionLattice,
    arrangement,
    chambers,
    named_family,
    regions_j,
)
from conevol.catalog import build_arrangements, build_cones
from conevol.cone import (
    Cone,
    cone_from_generators,
    cone_from_inequalities,
    congruence_key,
    face_lattice,
    intersect,
    minkowski_sum,
)
from conevol.identities import (
    STEINER_T_GRID,
    EstimateStore,
    rationalize_matrix,
    run_suite,
    verify_crofton_probability,
    verify_euler,
    verify_face_alternation,
    verify_family_statdim,
    verify_finite_double_count,
    verify_gauss_bonnet,
    verify_generalized_sommerville,
    verify_generic_slice,
    verify_genfun_alternation,
    verify_hug_schneider,
    verify_kinematic,
    verify_klivans_swartz,
    verify_mcmullen_inverse,
    verify_polar_kinematic,
    verify_sommerville,
    verify_statdim_alternation,
    verify_statdim_consistency,
    verify_steiner_mgf,
    verify_transverse_duality,
    verify_zaslavsky,
)
from conevol.volumes import SampleConfig, derive_seed, estimate_iv

ORTHANT2 = cone_from_generators([[1, 0], [0, 1]], [], 2)
ORTHANT3 = cone_from_generators([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [], 3)
SQUARE = cone_from_generators([[1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1]], [], 3)
HALF_NEG = cone_from_generators([[-1]], [], 1)
PLANE = cone_from_generators([], [[1, 0, 0], [0, 1, 0]], 3)
HALFPLANE = cone_from_inequalities([[0, -1]], 2)
CFG = SampleConfig(n_samples=25_000, seed=424)


def test_euler_reports():
    assert verify_euler(ORTHANT3).passed
    r = verify_euler(PLANE)
    assert r.passed and r.lhs == 1  # (-1)^2 subspace branch
    assert verify_euler(SQUARE).passed


def test_sommerville_half_line():
    # v_0 = 1/2; faces contribute v_0({0}) - v_0(C) = 1 - 1/2
    r = verify_sommerville(HALF_NEG, CFG)
    assert r.passed
    assert abs(r.lhs - 0.5) < 0.02 and abs(r.rhs - 0.5) < 0.02


def test_sommerville_lineality_short_circuit():
    r = verify_sommerville(HALFPLANE, CFG)
    assert r.passed and "lineality" in r.notes
    # an exact verdict: no samples drawn, both sides and the residual 0.0
    assert r.to_json() == {
        "identity": "sommerville", "status": "pass", "lhs": 0.0, "rhs": 0.0,
        "residual_or_z": 0.0, "n_samples": 0, "n_trials": 0, "seed": CFG.seed,
        "notes": "lineality: both sides vanish exactly"}


def test_sommerville_orthant3():
    assert verify_sommerville(ORTHANT3, CFG).passed


def test_generalized_sommerville():
    fl = face_lattice(ORTHANT2)
    ray = next(f for f in fl.faces if f.dim == 1)
    r = verify_generalized_sommerville(ORTHANT2, ray, CFG)
    assert r.passed
    # LHS is -v_G(C) = -1/4 for the quarter-plane at a ray
    assert abs(r.lhs + 0.25) < 0.02
    zero = next(f for f in fl.faces if f.dim == 0)
    assert verify_generalized_sommerville(ORTHANT2, zero, CFG).passed
    with pytest.raises(ValueError):
        verify_generalized_sommerville(ORTHANT3, ray, CFG)


def test_face_alternation():
    r = verify_face_alternation(ORTHANT3, 1, CFG)
    assert r.passed and abs(r.lhs + 0.375) < 0.02  # (-1) 3/8
    assert verify_face_alternation(PLANE, 2, CFG).passed
    assert verify_face_alternation(cone_from_generators([[1, 0], [1, 1]], [], 2), 0, CFG).passed
    with pytest.raises(ValueError):
        verify_face_alternation(ORTHANT2, 5, CFG)


def _classes(parts):
    """The congruence classes of parts, as lists of indices, in the order
    of their first members."""
    classes = {}
    for i, p in enumerate(parts):
        classes.setdefault(congruence_key(p), []).append(i)
    return list(classes.values())


def _store_seed(part, cfg):
    """The seed a store at cfg.seed draws part's entry at: tag 27, then the
    32-bit words of the SHA-256 of the key's text (cones within the
    congruence search budget only)."""
    d, dim, lin, form = congruence_key(part)
    assert not isinstance(form, Cone)
    text = repr((d, dim, lin, form, cfg.n_samples, cfg.workers))
    digest = hashlib.sha256(text.encode()).digest()
    words = [int.from_bytes(digest[i:i + 4], "big") for i in range(0, 32, 4)]
    return derive_seed(cfg.seed, 27, *words)


def _class_estimate(part, cfg):
    """The estimate a check run alone at cfg draws for part's class."""
    cone = part if isinstance(part, Cone) else part.cone
    return estimate_iv(cone, replace(cfg, seed=_store_seed(part, cfg)))


@pytest.mark.parametrize("name", ["orthant-3d", "square-cone-3d", "wedge-45", "plane-3d"])
def test_face_sum_checks_match_reference(name):
    # the four face-sum checks are one relation,
    # sum_k (-1)^k phi_k v_k(C) = sum_F (-1)^dim F sum_k phi_k v_k(F),
    # with one estimate per class of n congruent faces: the class's entry in
    # a store at cfg.seed, weight n, standard error n se
    c = dict(build_cones())[name]
    cfg = SampleConfig(n_samples=4000, seed=31)
    faces = face_lattice(c).faces
    classes = _classes(faces)

    def reference(phi):
        lhs = rhs = residual = 0.0
        ses = []
        for members in classes:
            n = len(members)
            f = faces[members[0]]
            e = _class_estimate(f, cfg)
            w = n * (-1) ** f.dim
            rhs += w * sum(p * v for p, v in zip(phi, e.values))
            coeffs = [-w * p for p in phi]
            if f.cone == c:
                assert n == 1
                alt = [(-1) ** k * p for k, p in enumerate(phi)]
                lhs = sum(a * v for a, v in zip(alt, e.values))
                coeffs = [a + cf for a, cf in zip(alt, coeffs)]
            residual += sum(cf * v for cf, v in zip(coeffs, e.values))
            ses.append(identities._functional_se(e, coeffs))
        z = abs(residual) / max(math.sqrt(sum(s * s for s in ses)), 1 / cfg.n_samples)
        return lhs, rhs, z

    d = c.d
    checks = [(verify_face_alternation(c, k, cfg), [int(i == k) for i in range(d + 1)])
              for k in range(d + 1)]
    checks.append((verify_statdim_alternation(c, cfg), list(range(d + 1))))
    checks += [(verify_genfun_alternation(c, t, cfg), [math.exp(t * k) for k in range(d + 1)])
               for t in (-1.0, 0.3)]
    r = verify_sommerville(c, cfg)
    if c.lineality_dim:
        assert r.passed and r.lhs == r.rhs == 0.0 and "lineality" in r.notes
    else:
        checks.append((r, [1] + [0] * d))
    for r, phi in checks:
        lhs, rhs, z = reference(phi)
        assert (r.lhs, r.rhs) == (lhs, rhs), r.identity
        assert r.residual_or_z == pytest.approx(z, rel=1e-12), r.identity
        assert r.notes == f"{len(faces)} faces, {len(classes)} estimates"
        assert r.passed, r.identity
    if name == "orthant-3d":
        # {0}, three rays, three quadrants and C: the rays and the quadrants
        # are one class each
        assert [len(m) for m in classes] == [1, 3, 3, 1]


def test_gauss_bonnet():
    assert verify_gauss_bonnet(ORTHANT3, CFG).passed
    r = verify_gauss_bonnet(cone_from_generators([], [[1, 0, 0]], 3), CFG)
    assert r.passed and r.rhs == -1  # (-1)^1 subspace case
    assert verify_gauss_bonnet(SQUARE, CFG).passed


def test_statdim_alternation():
    r = verify_statdim_alternation(ORTHANT2, CFG)
    assert r.passed
    assert abs(r.lhs) < 0.05 and abs(r.rhs) < 0.05  # both sides are 0 here
    assert verify_statdim_alternation(PLANE, CFG).passed


def test_genfun_alternation():
    for t in (0.0, 0.5, 1.0):
        assert verify_genfun_alternation(ORTHANT2, t, CFG).passed
    assert verify_genfun_alternation(HALF_NEG, 0.5, CFG).passed


def test_steiner_mgf_subspace_exact_chi2():
    r = verify_steiner_mgf(PLANE, [-1.0, -0.5, 0.3], CFG)
    assert r.passed


def test_steiner_mgf_orthants():
    assert verify_steiner_mgf(ORTHANT2, [0.3], CFG).passed
    assert verify_steiner_mgf(ORTHANT3, [-1.0, -0.5, 0.3], CFG).passed


def test_steiner_mgf_domain_error():
    with pytest.raises(ValueError):
        verify_steiner_mgf(ORTHANT2, [float("inf")], CFG)
    # s(0.35) just exceeds 1/4: E[e^{2s|P g|^2}] is infinite there
    with pytest.raises(ValueError):
        verify_steiner_mgf(ORTHANT2, [0.35], CFG)
    with pytest.raises(ValueError):
        verify_steiner_mgf(ORTHANT2, [float("nan")], CFG)


def test_statdim_consistency():
    assert verify_statdim_consistency(ORTHANT3, CFG).passed
    assert verify_statdim_consistency(HALFPLANE, CFG).passed


def test_mcmullen_inverse_exact_cones():
    r = verify_mcmullen_inverse(ORTHANT2, CFG)
    assert r.passed and r.residual_or_z == 0.0  # all angles exact
    assert verify_mcmullen_inverse(HALF_NEG, CFG).passed


def test_kinematic_orthant_pair():
    # oracle: conv(v(orthant2), v(orthant2)) at index 3 is
    # v_1 v_2 + v_2 v_1 = 2 * (1/2)(1/4) = 1/4
    v = [0.25, 0.5, 0.25]
    rhs = sum(v[i] * v[3 - i] for i in range(1, 3))
    assert rhs == 0.25
    r = verify_kinematic(ORTHANT2, ORTHANT2, 1, trials=96,
                         cfg=SampleConfig(n_samples=1024, seed=5))
    assert r.passed and abs(r.rhs - 0.25) < 1e-12


def test_kinematic_full_space_identity():
    full = cone_from_inequalities([], 2)
    r = verify_kinematic(full, ORTHANT2, 1, trials=48,
                         cfg=SampleConfig(n_samples=1024, seed=6))
    assert r.passed
    assert abs(r.rhs - 0.5) < 1e-12  # v_1(D) = 1/2


def test_kinematic_crofton_subspace_case():
    # L of codimension m: E[v_k(C ∩ QL)] = v_{k+m}(C)
    plane = cone_from_generators([], [[1, 0, 0], [0, 1, 0]], 3)  # m = 1
    r = verify_kinematic(ORTHANT3, plane, 1, trials=96,
                         cfg=SampleConfig(n_samples=1024, seed=7))
    assert r.passed and abs(r.rhs - 0.375) < 1e-12  # v_2 = 3/8
    line = cone_from_generators([], [[1, 1, 1]], 3)  # m = 2
    r = verify_kinematic(ORTHANT3, line, 1, trials=96,
                         cfg=SampleConfig(n_samples=1024, seed=7))
    assert r.passed and abs(r.rhs - 0.125) < 1e-12  # v_3 = 1/8


def test_polar_kinematic():
    ray = cone_from_generators([[1, 0]], [], 2)
    r = verify_polar_kinematic(ray, ray, 1, trials=96,
                               cfg=SampleConfig(n_samples=1024, seed=8))
    assert r.passed
    zero = cone_from_inequalities([[-1, 0], [0, -1], [1, 1]], 2)
    r = verify_polar_kinematic(zero, ORTHANT2, 1, trials=32,
                               cfg=SampleConfig(n_samples=1024, seed=9))
    assert r.passed  # {0} + QD = QD: E v_1 = v_1(D)


def test_crofton_orthant_vs_line():
    line = cone_from_generators([], [[1, 0]], 2)
    r = verify_crofton_probability(ORTHANT2, line, trials=30_000,
                                   cfg=SampleConfig(n_samples=1000, seed=10))
    assert r.passed and abs(r.rhs - 0.5) < 1e-12


def test_crofton_skip_two_subspaces():
    line3 = cone_from_generators([], [[0, 0, 1]], 3)
    r = verify_crofton_probability(PLANE, line3, 100, CFG)
    assert r.status == "skip"


def test_crofton_line_rule_matches_slack_oracle():
    # the kernel's line rule against the facet-slack rule it replaced, on one
    # fixed batch per cone: uniform directions and, for a full-dimensional
    # C, every generator and its negative, which lie on C's boundary.
    # Wherever both rules decide a direction they must give the same hit.
    # A lower-dimensional C is never hit: a uniform direction misses its
    # span almost surely, so its own generators stay out of the batch
    rng = np.random.default_rng(20261019)
    seen = set()
    for name, c in build_cones():
        if c.is_subspace:
            continue  # Crofton's hypothesis excludes two subspaces
        u = rng.standard_normal((4000, c.d))
        if c.dim == c.d:
            gens = np.array([[float(x) for x in g] for g in c.generators]).reshape(-1, c.d)
            u = np.vstack([u, gens, -gens])
        u /= np.linalg.norm(u, axis=1)[:, None]
        if c.dim == c.d:
            hit, ok = identities._line_hit(c, u)
        else:
            assert identities._crofton_line_hits(c, 100, 0) == 0, name
            hit, ok = np.zeros(len(u), dtype=bool), np.ones(len(u), dtype=bool)
        ref_hit, ref_ok = crofton_oracle.line_hit(c, u)
        both = ok & ref_ok
        assert (hit[both] == ref_hit[both]).all(), name
        assert both[:4000].mean() > 0.999, name  # the comparison is not vacuous
        seen.add("full" if c.lineality_dim == 0 and c.dim == c.d
                 else "lineality" if c.dim == c.d else "lower")
    assert seen == {"full", "lineality", "lower"}


def test_mcmullen_estimates_each_angle_once(monkeypatch):
    # beta and gamma are each estimated once per face pair a <= b, and that
    # estimate serves both relations
    seeds = []
    real = identities.solid_angle_se

    def counting(c, cfg=None):
        seeds.append(cfg.seed)
        return real(c, cfg)

    monkeypatch.setattr(identities, "solid_angle_se", counting)
    c = dict(build_cones())["square-cone-3d"]
    fl = face_lattice(c)
    n = len(fl.faces)
    pairs = sum(fl.leq(a, b) for a in range(n) for b in range(n))
    verify_mcmullen_inverse(c, SampleConfig(n_samples=500, seed=0))
    assert len(seeds) == 2 * pairs == 70
    assert len(set(seeds)) == len(seeds)  # one sub-seed per angle


def test_crofton_general_cone_pair():
    r = verify_crofton_probability(ORTHANT2, ORTHANT2, trials=600,
                                   cfg=SampleConfig(n_samples=1000, seed=11))
    assert r.passed


def test_transverse_duality_exact():
    # the upper wedge meets the orthant's relative interior
    wedge = cone_from_generators([[1, 1], [-1, 1]], [], 2)
    r = verify_transverse_duality(ORTHANT2, wedge)
    assert r.passed and "pairs checked" in r.notes
    assert int(r.lhs.split()[0]) > 0


def test_finite_double_count():
    cyclic4 = [tuple((i + s) % 4 for i in range(4)) for s in range(4)]
    assert verify_finite_double_count(4, {0, 1}, {0, 2}, cyclic4).passed
    assert verify_finite_double_count(4, set(range(4)), {1, 2}, cyclic4).passed
    assert verify_finite_double_count(4, set(), {1}, cyclic4).passed
    with pytest.raises(ValueError):
        verify_finite_double_count(4, {0}, {1}, [tuple(range(4))])


def test_zaslavsky_report():
    assert verify_zaslavsky(named_family("braid", 3)).passed
    assert verify_zaslavsky(arrangement([[1, 0], [0, 1], [1, 1]], 2)).passed


def test_klivans_swartz_small():
    cfg = SampleConfig(n_samples=25_000, seed=99)
    for j in (1, 2, 3):
        assert verify_klivans_swartz(named_family("braid", 3), j, cfg).passed
    r = verify_klivans_swartz(named_family("bc", 2), 2, cfg)
    assert r.passed and r.rhs == [3, 4, 1]
    # three concurrent lines, j = 1: six rays summing to (3, 3)
    r = verify_klivans_swartz(arrangement([[1, 0], [0, 1], [1, 1]], 2), 1, cfg)
    assert r.passed and r.rhs == [3, 3]


def test_generic_slice_braid4():
    for j in (2, 3, 4):
        assert verify_generic_slice(named_family("braid", 4), j, seed=3).passed
    with pytest.raises(ValueError):
        verify_generic_slice(named_family("braid", 3), 1)


def test_hug_schneider():
    assert verify_hug_schneider(3, 2, SampleConfig(n_samples=25_000, seed=12)).passed
    assert verify_hug_schneider(2, 2, SampleConfig(n_samples=25_000, seed=13)).passed


def test_family_statdim():
    assert verify_family_statdim("braid", 2, SampleConfig(n_samples=25_000, seed=14)).passed
    assert verify_family_statdim("bc", 1, SampleConfig(n_samples=25_000, seed=15)).passed


def test_family_statdim_rejects_a_family_before_enumerating_regions(monkeypatch, capsys):
    # the d family has no closed form; the check must say so without
    # enumerating the regions of d:6
    def no_regions(*args, **kwargs):
        raise AssertionError("regions_j called")

    monkeypatch.setattr(identities, "regions_j", no_regions)
    with pytest.raises(ValueError, match="braid and bc only"):
        verify_family_statdim("d", 5, CFG)
    from conevol import cli
    assert cli.main(["verify", "family-statdim", "--family", "d", "--j", "5"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_region_checks_draw_region_i_at_its_sub_seed():
    # Klivans-Swartz, Hug-Schneider and family-statdim draw one estimate per
    # class of n congruent regions, the class's entry in a store at
    # cfg.seed, with weight n and standard error n se; their sides and z
    # are recomputed here class by class
    cfg = SampleConfig(n_samples=2000, seed=31)

    def estimates(regs):
        cones = [reg.cone for reg in regs]
        return [(len(m), _class_estimate(cones[m[0]], cfg)) for m in _classes(cones)]

    def sums(ests, d):
        out = [0.0] * (d + 1)
        var = [0.0] * (d + 1)
        for n, e in ests:
            for k in range(d + 1):
                out[k] += n * e.values[k]
                var[k] += (n * e.std_errors[k]) ** 2
        return out, var

    def z(diff, var):
        return abs(diff) / max(math.sqrt(var), 1 / cfg.n_samples)

    braid3 = named_family("braid", 3)
    ests = estimates(regions_j(braid3, 2))
    out, var = sums(ests, 3)
    r = verify_klivans_swartz(braid3, 2, cfg)
    assert r.lhs == [round(s, 6) for s in out[:3]]
    assert r.residual_or_z == pytest.approx(
        max(z(out[k] - r.rhs[k], var[k]) for k in range(3)), rel=1e-12)
    assert r.notes == f"{len(regions_j(braid3, 2))} regions, {len(ests)} estimates"
    # the six 2-regions of braid:3, each a ray plus the lineality line, are
    # one class
    assert [n for n, _ in ests] == [6]

    regs = chambers(named_family("generic", 2, n=3, seed=derive_seed(cfg.seed, 24)))
    ests = estimates(regs)
    out, var = sums(ests, 2)
    r = verify_hug_schneider(3, 2, cfg)
    assert r.lhs == [round(s / len(regs), 6) for s in out]
    assert r.notes == f"{len(regs)} chambers, {len(ests)} estimates"
    # a chamber and its opposite are congruent, so generic classes have
    # size 2, and no two different chambers of this arrangement are
    assert [n for n, _ in ests] == [2, 2, 2]

    regs = regions_j(named_family("bc", 2), 1)
    ests = estimates(regs)
    total = var = 0.0
    for n, e in ests:
        total += n * sum(k * v for k, v in enumerate(e.values))
        var += identities._functional_se(e, [n * k for k in range(3)]) ** 2
    r = verify_family_statdim("bc", 1, cfg)
    assert r.lhs == total / len(regs)
    assert r.residual_or_z == pytest.approx(
        z(r.lhs - r.rhs, var / len(regs) ** 2), rel=1e-12)
    # a ray is congruent to every other ray: the eight rays of bc:2 are one
    # class
    assert [n for n, _ in ests] == [8]


def test_rationalize_matrix_accuracy():
    import numpy as np

    rng = np.random.default_rng(0)
    from conevol.volumes import haar_rotation

    q = haar_rotation(3, rng)
    qm = rationalize_matrix(q)
    for i in range(3):
        for j in range(3):
            assert type(qm[i][j]) is int and abs(qm[i][j] / 2 ** 40 - q[i, j]) <= 2 ** -40


def test_report_json_shape(monkeypatch):
    # one report from each builder path: the key set, the key order and
    # the types of lhs, rhs and residual_or_z that each check emits
    keys = ["identity", "status", "lhs", "rhs", "residual_or_z",
            "n_samples", "n_trials", "seed", "notes"]
    assert list(verify_euler(ORTHANT2).to_json()) == keys
    builds = []
    build = IntersectionLattice.__init__

    def counted(self, arr):
        builds.append(arr)
        build(self, arr)

    monkeypatch.setattr(IntersectionLattice, "__init__", counted)
    reports = run_suite(SampleConfig(n_samples=500, seed=0), trials=2)
    # 13 catalog arrangements, each building its lattice once, 3 generic
    # slices and the 2 arrangements of the family-statdim checks
    assert len(builds) <= 18
    expected = {
        "euler": (int, int),
        "zaslavsky": (str, str),
        "generic-slice": (list, list),
        "transverse-duality": (str, str),
        "steiner-mgf": (str, str),
        "klivans-swartz": (list, list),
        "gauss-bonnet": (float, int),
        "family-closed-form": (type(None), type(None)),
    }
    seen = set()
    for r in reports:
        obj = r.to_json()
        assert list(obj) == keys and type(obj["residual_or_z"]) is float, obj
        json.dumps(obj)
        name = obj["identity"].split("[")[0]
        if name in expected:
            seen.add(name)
            assert (type(obj["lhs"]), type(obj["rhs"])) == expected[name], obj
    assert seen == set(expected)


def test_steiner_mgf_t_zero_trivial():
    # s(0) = 0: both sides of the MGF comparison are identically 1
    r = verify_steiner_mgf(ORTHANT2, [0.0], CFG)
    assert r.passed and r.residual_or_z <= CFG.tolerance_sigmas


@pytest.mark.parametrize("check", ["kinematic", "polar-kinematic", "crofton"])
def test_product_side_is_one_estimate_of_the_product(monkeypatch, check):
    # the reference side v(C x D) is exact when exact_iv recognizes C x D,
    # else one estimate of the product cone in R^{2d}, with the
    # delta-method SE of the functional the identity reads from it
    estimates, sides = [], []
    real_estimate, real_side = identities.estimate_iv, identities._product_side

    def estimate(c, cfg):
        est = real_estimate(c, cfg)
        estimates.append((c, est))
        return est

    def side(c, d_cone, coeffs, cfg, tag):
        out = real_side(c, d_cone, coeffs, cfg, tag)
        sides.append((coeffs, out))
        return out

    monkeypatch.setattr(identities, "estimate_iv", estimate)
    monkeypatch.setattr(identities, "_product_side", side)
    cfg = SampleConfig(n_samples=2000, seed=3)
    run = {
        "kinematic": lambda c, d: verify_kinematic(c, d, 0, 4, cfg),
        "polar-kinematic": lambda c, d: verify_polar_kinematic(c, d, 1, 4, cfg),
        "crofton": lambda c, d: verify_crofton_probability(c, d, 4, cfg),
    }[check]
    cones = dict(build_cones())
    for pair, n_product in ((("square-cone-3d", "orthant-3d"), 1),
                            (("orthant-2d", "orthant-2d"), 0)):
        c, d_cone = (cones[name] for name in pair)
        estimates.clear()
        sides.clear()
        r = run(c, d_cone)
        products = [e for cone, e in estimates if cone.d == 2 * c.d]
        assert len(products) == n_product, pair
        [(coeffs, (rhs, rhs_se))] = sides
        assert r.rhs == rhs
        if products:
            assert rhs_se == identities._functional_se(products[0], coeffs)
        else:
            assert rhs_se == 0.0


# ---------------------------------------------------------------------------
# The run's estimate store


def test_store_entry_does_not_depend_on_which_check_asks_first():
    c = dict(build_cones())["orthant-3d"]
    cfg = SampleConfig(n_samples=3000, seed=12)
    checks = (lambda store: verify_gauss_bonnet(c, cfg, store=store),
              lambda store: verify_sommerville(c, cfg, store=store),
              lambda store: verify_statdim_consistency(c, cfg, store=store))
    first, second = EstimateStore(cfg.seed), EstimateStore(cfg.seed)
    forward = [check(first).to_json() for check in checks]
    backward = [check(second).to_json() for check in reversed(checks)][::-1]
    assert forward == backward
    # a fresh store at cfg.seed, as each check makes when run alone
    assert forward == [check(None).to_json() for check in checks]
    # gauss-bonnet and statdim-consistency read C's entry, which Sommerville
    # reads as C's top face: one entry per face class of the orthant
    assert len(first) == len(second) == 4


def test_congruent_cones_share_one_entry():
    cones = dict(build_cones())
    cfg = SampleConfig(n_samples=2000, seed=4)
    store = EstimateStore(9)
    e = store.estimate(cones["orthant-2d"], cfg)
    assert store.estimate(cones["rot-orthant-2d"], cfg) is e and len(store) == 1
    assert e.seed == _store_seed(cones["rot-orthant-2d"], replace(cfg, seed=9))
    # a face and its own cone; the top face and the cone itself
    c = cones["orthant-3d"]
    faces = face_lattice(c).faces
    quadrant = next(f for f in faces if f.dim == 2)
    assert store.estimate(quadrant, cfg) is store.estimate(quadrant.cone, cfg)
    assert store.estimate(faces[-1], cfg) is store.estimate(c, cfg)
    assert len(store) == 3
    # past the congruence search budget a cone is keyed by its canonical
    # rows: an equal cone built again shares the entry, a rotated copy
    # does not, and the store keeps digests, not cones
    def orthant(sign):
        return cone_from_generators([[sign * int(i == j) for j in range(7)]
                                     for i in range(7)], [], 7)

    small = SampleConfig(n_samples=300)
    e = store.estimate(orthant(1), small)
    assert store.estimate(orthant(1), small) is e
    assert store.estimate(orthant(-1), small) is not e and len(store) == 5
    assert all(type(k) is bytes for k in store._entries)


def test_budget_and_workers_are_separate_entries():
    c = dict(build_cones())["square-cone-3d"]
    store = EstimateStore(2)
    cfgs = [SampleConfig(n_samples=2000), SampleConfig(n_samples=3000),
            SampleConfig(n_samples=2000, workers=2)]
    ests = [store.estimate(c, cfg) for cfg in cfgs]
    assert len(store) == 3 and len({e.seed for e in ests}) == 3
    assert [e.n_samples for e in ests] == [2000, 3000, 2000]
    # the tolerance and the caller's seed are not part of the key
    assert store.estimate(c, SampleConfig(n_samples=2000, seed=77, tolerance_sigmas=3)) is ests[0]


@pytest.fixture(scope="module")
def suite_pass():
    """One suite pass at seed 0 and 20,000 samples, and the number of
    `estimate_iv` calls it made."""
    calls = []
    real = identities.estimate_iv

    def counted(c, cfg):
        calls.append(cfg.n_samples)
        return real(c, cfg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identities, "estimate_iv", counted)
        reports = run_suite(SampleConfig(n_samples=20_000, seed=0))
    return reports, len(calls)


def test_suite_draws_one_estimate_per_class_and_budget(suite_pass):
    # 366 calls before the store: each check re-drew the classes it met
    reports, calls = suite_pass
    assert calls <= 250
    assert all(r.status != "fail" for r in reports)


def test_each_check_states_its_comparison_count():
    # the z of a report is the largest of this many z-scores
    cfg = SampleConfig(n_samples=500, seed=4)
    assert verify_steiner_mgf(ORTHANT2, STEINER_T_GRID, cfg).comparisons == 4
    braid = dict(build_arrangements())["braid-3d"]
    for j in (1, 2, 3):
        assert verify_klivans_swartz(braid, j, cfg).comparisons == j + 1
    for n, d in ((3, 2), (4, 3)):
        assert verify_hug_schneider(n, d, cfg).comparisons == d + 1
    # one per relation with a sampled angle: every angle of the orthant has
    # a closed form, and two relations of the square cone read a sampled one
    assert verify_mcmullen_inverse(ORTHANT2, cfg).comparisons == 0
    assert verify_mcmullen_inverse(SQUARE, cfg).comparisons == 2
    assert verify_gauss_bonnet(SQUARE, cfg).comparisons == 1
    assert verify_euler(SQUARE).comparisons == 0
    assert verify_zaslavsky(braid).comparisons == 0
    assert verify_crofton_probability(PLANE, PLANE, 8, cfg).comparisons == 0  # a skip


def test_suite_comparison_count_is_the_documented_one(suite_pass):
    # the suite's Bonferroni count is the sum of its reports' comparisons,
    # whatever the seed and budget; the run_suite docstring and README
    # state that total and its bound at 6.3e-5 per comparison
    reports, _ = suite_pass
    total = sum(r.comparisons for r in reports)
    assert sum(r.comparisons for r in run_suite(SampleConfig(n_samples=500, seed=9))) == total
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for text in (run_suite.__doc__, readme):
        flat = " ".join(text.split())
        assert re.findall(r"(\d+) stochastic z-comparisons", flat) == [str(total)]
        assert re.findall(r"(\d+) x 6\.3e-5 ~ ([\d.]+)%", flat) == [
            (str(total), f"{100 * total * 6.3e-5:.2f}")]


def test_checks_that_keep_their_tags_are_unchanged(suite_pass):
    # generalized-sommerville, McMullen and Crofton read no store; the
    # digest of their suite reports was recorded before the store existed
    reports, _ = suite_pass
    keep = [r.to_json() for r in reports if r.identity.split("[")[0]
            in ("generalized-sommerville", "mcmullen-inverse", "crofton")]
    assert len(keep) == 6
    assert hashlib.sha256(json.dumps(keep, sort_keys=True).encode()).hexdigest() == (
        "6a1ce4030094651d2117add64145da9c5a99d777c6da0140c2eb8b35b164575a")


@pytest.mark.parametrize("check", ["kinematic", "polar-kinematic"])
def test_kinematic_checks_draw_at_their_sub_seeds(monkeypatch, check):
    # rotation t is drawn from the stream (seed, 14) and its cone sampled at
    # sub-seed (15, t) for the kinematic check, (18, 19) for the polar one;
    # the SE is the sample standard deviation (ddof 1) over sqrt(trials)
    drawn = []
    real = identities.estimate_iv

    def recorded(c, cfg):
        est = real(c, cfg)
        drawn.append((c, cfg.seed, est))
        return est

    monkeypatch.setattr(identities, "estimate_iv", recorded)
    cfg = SampleConfig(n_samples=2000, seed=21)
    trials = 6
    if check == "kinematic":
        r = verify_kinematic(ORTHANT2, ORTHANT2, 1, trials, cfg)
        combine, index, rng_tag, tag = intersect, 1, 14, 15
    else:
        r = verify_polar_kinematic(ORTHANT2, ORTHANT2, 1, trials, cfg)
        combine, index, rng_tag, tag = minkowski_sum, 1, 18, 19
    expected, per_trial = [], []
    for t, rotated in enumerate(identities._rotations(ORTHANT2, trials, cfg.seed, rng_tag)):
        cone = combine(ORTHANT2, rotated)
        if cone.dim == 0:
            per_trial.append(float(index == 0))
            continue
        expected.append((cone, derive_seed(cfg.seed, tag, t)))
        per_trial.append(drawn[len(expected) - 1][2].values[index])
    assert [(c, seed) for c, seed, _ in drawn] == expected
    # the product side is exact for this pair, so the SE is the lhs's alone
    se = float(np.std(per_trial, ddof=1)) / math.sqrt(trials)
    assert r.lhs == pytest.approx(float(np.mean(per_trial)), rel=1e-12)
    assert r.residual_or_z == pytest.approx(abs(r.lhs - r.rhs) / se, rel=1e-9)


def test_kinematic_checks_need_two_rotations():
    cfg = SampleConfig(n_samples=500)
    for check in (verify_kinematic, verify_polar_kinematic):
        with pytest.raises(ValueError, match="at least 2"):
            check(ORTHANT2, ORTHANT2, 1, 1, cfg)
    # Crofton's SE is binomial, so one rotation is enough
    assert verify_crofton_probability(ORTHANT2, ORTHANT2, 1, cfg).n_trials == 1


def test_steiner_grid_keeps_the_fourth_moment_finite():
    # the SE of the sampled e^{s|P g|^2} is a sample variance, sound only
    # while E[e^{4s|P g|^2}] is finite: s < 1/8
    for t in STEINER_T_GRID:
        assert (1 - math.exp(-2 * t)) / 2 < 1 / 8, t
