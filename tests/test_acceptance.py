"""Acceptance gate: one test per criterion, at the stated budget and
tolerance, each printing a single pass/fail line."""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import numpy as np
import pytest

from conevol.arrangement import (
    arrangement,
    family_level_char,
    generic_level_char,
    level_char_poly,
    named_family,
    regions_j,
    zaslavsky_count,
)
from conevol.catalog import build_arrangements, build_cones, pointed_cones
from conevol.cone import (
    cone_from_generators,
    cone_from_inequalities,
    face_lattice,
)
from conevol.identities import (
    verify_crofton_probability,
    verify_family_statdim,
    verify_gauss_bonnet,
    verify_generic_slice,
    verify_kinematic,
    verify_klivans_swartz,
    verify_sommerville,
    verify_statdim_consistency,
    verify_steiner_mgf,
)
from conevol.volumes import SampleConfig, estimate_iv, exact_iv

from arrangement_oracles import whitney_char_poly

CONES = build_cones()
ARRANGEMENTS = build_arrangements()


def report(num: int, ok: bool, detail: str):
    print(f"criterion-{num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_orthant_intrinsic_volumes():
    worst = 0.0
    for d in (2, 3, 4, 6):
        c = cone_from_inequalities(
            [[-1 if j == i else 0 for j in range(d)] for i in range(d)], d
        )
        ex = exact_iv(c)
        assert ex.values == tuple(
            F(math.comb(d, k), 2**d) for k in range(d + 1)
        ), f"exact_iv wrong for orthant d={d}"
        t0 = time.time()
        est = estimate_iv(c, SampleConfig(n_samples=100_000, seed=100 + d))
        elapsed = time.time() - t0
        for k in range(d + 1):
            z = abs(est.values[k] - float(ex.values[k])) / est.std_errors[k]
            worst = max(worst, z)
        assert elapsed < 5.0, f"orthant d={d} took {elapsed:.1f}s"
    report(1, worst <= 4.0,
           f"orthant MC vs binom(d,k)/2^d for d in (2,3,4,6), worst z = {worst:.2f}")


def test_criterion_02_euler_relation_catalog():
    assert len(CONES) >= 20
    t0 = time.time()
    bad = []
    for name, c in CONES:
        fl = face_lattice(c)
        expected = (-1) ** c.dim if c.is_subspace else 0
        if fl.euler_sum != expected:
            bad.append(name)
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"euler sweep took {elapsed:.1f}s"
    report(2, not bad,
           f"Euler relation exact on {len(CONES)} cones in {elapsed:.1f}s")


def test_criterion_03_gauss_bonnet():
    worst = 0.0
    exact_ok = True
    for i, (name, c) in enumerate(CONES):
        r = verify_gauss_bonnet(c, SampleConfig(n_samples=100_000, seed=300 + i))
        exact_ok &= "residual 0" in r.notes
        worst = max(worst, r.residual_or_z)
    report(3, exact_ok and worst <= 4.0,
           f"Gauss-Bonnet on {len(CONES)} cones, f-side exact, worst v-side z = {worst:.2f}")


def test_criterion_04_sommerville():
    cones = pointed_cones(CONES, max_dim=4)
    worst = 0.0
    for i, (name, c) in enumerate(cones):
        r = verify_sommerville(c, SampleConfig(n_samples=200_000, seed=400 + i))
        worst = max(worst, r.residual_or_z)
        assert r.passed, name
    report(4, worst <= 4.0,
           f"Sommerville on {len(cones)} pointed cones (d <= 4) at 2e5 samples, "
           f"worst z = {worst:.2f}")


def _zaslavsky_exact(a) -> bool:
    return all(
        len(regions_j(a, j)) == zaslavsky_count(a, j)
        for j in range(a.d + 1)
    )


def test_criterion_05_zaslavsky():
    t0 = time.time()
    cases = []
    for d in range(1, 6):
        cases.append((f"braid:{d}", named_family("braid", d)))
    for d in range(1, 5):
        cases.append((f"bc:{d}", named_family("bc", d)))
    for d in (2, 3, 4):
        cases.append((f"d:{d}", named_family("d", d)))
    generic_cases = [(4, 2, 21), (5, 2, 22), (5, 3, 23), (6, 3, 24), (6, 4, 25)]
    for n, d, seed in generic_cases:
        cases.append((f"generic n={n} d={d}", named_family("generic", d, n=n, seed=seed)))
    # random non-generic instances: a dependent triple is planted
    rng = random.Random(26)
    for trial in range(3):
        d = rng.choice([3, 4])
        rows = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(3)]
        while any(not any(r) for r in rows):
            rows = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(3)]
        rows.append([a + b for a, b in zip(rows[0], rows[1])])  # dependent
        while len(rows) < 5:
            extra = [rng.randint(-5, 5) for _ in range(d)]
            if any(extra):
                rows.append(extra)
        from conevol.arrangement import is_generic

        a = arrangement(rows, d)
        assert not is_generic(a)
        cases.append((f"non-generic #{trial}", a))
    # chamber counts of the reflection families are factorial products
    assert zaslavsky_count(named_family("braid", 5), 5) == math.factorial(5)
    assert zaslavsky_count(named_family("bc", 4), 4) == 2**4 * math.factorial(4)
    bad = [name for name, a in cases if not _zaslavsky_exact(a)]
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"zaslavsky sweep took {elapsed:.1f}s"
    report(5, not bad,
           f"Zaslavsky exact on {len(cases)} arrangements, all j, in {elapsed:.1f}s")


def test_criterion_06_family_closed_forms():
    bad = []
    for fam, dmax in (("braid", 5), ("bc", 4), ("d", 4)):
        for d in range(2 if fam == "d" else 1, dmax + 1):
            a = named_family(fam, d)
            for j in range(d + 1):
                if family_level_char(fam, d, j) != level_char_poly(a, j):
                    bad.append((fam, d, j))
    report(6, not bad, "closed-form level polynomials equal brute force "
           "(braid d<=5, bc d<=4, d d<=4, all j)")


def test_criterion_07_generic_closed_forms_and_slice():
    bad = []
    for n, d, seed in ((4, 2, 31), (5, 2, 32), (5, 3, 33), (6, 3, 34), (6, 4, 35)):
        a = named_family("generic", d, n=n, seed=seed)
        if generic_level_char(n, d, d) != whitney_char_poly(a):
            bad.append((n, d, "whitney"))
        for j in range(1, d + 1):
            if generic_level_char(n, d, j) != level_char_poly(a, j):
                bad.append((n, d, j))
    slices_ok = all(
        verify_generic_slice(named_family("braid", 4), j, seed=7).passed
        for j in (2, 3, 4)
    )
    report(7, not bad and slices_ok,
           "generic closed form = brute force on 5 instances; "
           "slice coefficient shift exact on braid d=4")


def test_criterion_08_klivans_swartz():
    t0 = time.time()
    worst = 0.0
    cfg = lambda seed: SampleConfig(n_samples=100_000, seed=seed)
    br3 = named_family("braid", 3)
    for j in range(0, 4):
        r = verify_klivans_swartz(br3, j, cfg(800 + j))
        worst = max(worst, r.residual_or_z)
        assert r.passed, (j, r.to_json())
    bc2 = named_family("bc", 2)
    for j in range(0, 3):
        r = verify_klivans_swartz(bc2, j, cfg(810 + j))
        worst = max(worst, r.residual_or_z)
        assert r.passed
    r = verify_klivans_swartz(named_family("bc", 3), 3, cfg(820))
    worst = max(worst, r.residual_or_z)
    assert r.passed
    gen = named_family("generic", 3, n=4, seed=36)
    r = verify_klivans_swartz(gen, 3, cfg(830))
    worst = max(worst, r.residual_or_z)
    assert r.passed
    elapsed = time.time() - t0
    assert elapsed < 180.0, f"klivans-swartz took {elapsed:.1f}s"
    report(8, worst <= 4.0,
           f"Klivans-Swartz at 1e5 samples/region, worst z = {worst:.2f}, "
           f"{elapsed:.0f}s")


def test_criterion_09_kinematic():
    orth2 = cone_from_generators([[1, 0], [0, 1]], [], 2)
    orth3 = cone_from_generators([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [], 3)
    half3 = cone_from_inequalities([[0, 0, -1]], 3)
    line3 = cone_from_generators([], [[1, 2, 3]], 3)
    pairs = [
        ("orthant2/orthant2 k=1", orth2, orth2, 1),
        ("orthant2/orthant2 k=2", orth2, orth2, 2),
        ("orthant3/half-space k=1", orth3, half3, 1),
        ("orthant3/line k=1", orth3, line3, 1),
    ]
    worst = 0.0
    for i, (label, c, d_cone, k) in enumerate(pairs):
        t0 = time.time()
        r = verify_kinematic(c, d_cone, k, trials=512,
                             cfg=SampleConfig(n_samples=4096, seed=900 + i))
        elapsed = time.time() - t0
        assert elapsed < 120.0, f"{label} took {elapsed:.1f}s"
        worst = max(worst, r.residual_or_z)
        assert r.passed, (label, r.to_json())
    report(9, worst <= 4.0,
           f"kinematic formula on {len(pairs)} pairs at 512x4096, worst z = {worst:.2f}")


def test_criterion_10_crofton_probability():
    orth2 = cone_from_generators([[1, 0], [0, 1]], [], 2)
    line = cone_from_generators([], [[1, 0]], 2)
    r = verify_crofton_probability(orth2, line, trials=100_000,
                                   cfg=SampleConfig(n_samples=1000, seed=1000))
    assert abs(r.rhs - 0.5) < 1e-12
    report(10, r.passed,
           f"P(orthant meets random line) = {r.lhs:.4f} vs 1/2 at 1e5 rotations, "
           f"z = {r.residual_or_z:.2f}")


def test_criterion_11_steiner_and_statdim_consistency():
    worst = 0.0
    grid = [-1.0, -0.5, 0.3]
    targets = [
        ("line-2d", cone_from_generators([], [[1, 0]], 2)),
        ("plane-3d", cone_from_generators([], [[1, 0, 0], [0, 1, 0]], 3)),
    ]
    for d in (2, 3, 4):
        targets.append(
            (f"orthant-{d}d",
             cone_from_inequalities(
                 [[-1 if j == i else 0 for j in range(d)] for i in range(d)], d
             ))
        )
    for i, (name, c) in enumerate(targets):
        r = verify_steiner_mgf(c, grid, SampleConfig(n_samples=100_000, seed=1100 + i))
        worst = max(worst, r.residual_or_z)
        assert r.passed, name
    for i, (name, c) in enumerate(CONES):
        r = verify_statdim_consistency(c, SampleConfig(n_samples=100_000, seed=1200 + i))
        worst = max(worst, r.residual_or_z)
        assert r.passed, name
    report(11, worst <= 4.0,
           f"Steiner MGF (subspaces, orthants d<=4) and two-route statistical "
           f"dimension on {len(CONES)} cones, worst z = {worst:.2f}")


def test_criterion_12_harmonic_statistical_dimensions():
    worst = 0.0
    for j in (1, 2, 3):
        r = verify_family_statdim("braid", j, SampleConfig(n_samples=100_000, seed=1300 + j))
        worst = max(worst, r.residual_or_z)
        assert r.passed, ("braid", j, r.to_json())
    for j in (1, 2, 3):
        r = verify_family_statdim("bc", j, SampleConfig(n_samples=100_000, seed=1310 + j))
        worst = max(worst, r.residual_or_z)
        assert r.passed, ("bc", j, r.to_json())
    report(12, worst <= 4.0,
           f"harmonic statistical dimensions H_j and H_j/2 for j in (1,2,3), "
           f"worst z = {worst:.2f}")


def test_criterion_13_determinism():
    runs = []
    for _ in range(2):
        est = estimate_iv(
            cone_from_generators([[1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1]], [], 3),
            SampleConfig(n_samples=20_000, seed=77, workers=3),
        )
        runs.append(json.dumps(est.to_json()))
    same_library = runs[0] == runs[1]
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "conevol.cli", "verify", "gauss-bonnet",
             "fixtures/square-cone.json", "--samples", "20000", "--seed", "5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    same_cli = outs[0] == outs[1]
    report(13, same_library and same_cli,
           "byte-identical estimates and CLI reports for identical seed/workers")
