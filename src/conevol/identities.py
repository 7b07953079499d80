"""Executable checks for the cone/arrangement identities.

Every check produces a VerificationReport.  Exact identities (Euler,
Zaslavsky, polynomial forms, finite double counting) report integer
residuals with no tolerance; statistical identities report the largest
|z| = |lhs - rhs| / SE across their comparisons, with standard errors
combined in quadrature across independent estimates and floored at
1/n_samples.  Monte Carlo inputs are estimated by sampling (faces and
regions included), so the checks exercise the estimator, not the closed
forms; exact values enter only on reference sides.

The verdict rule lives in two builders: `_report_z` passes a statistical
check iff z <= tolerance_sigmas, with each z computed by `_z` from a
residual and an SE floored at 1/n; `_report_exact` passes an exact check
iff its residual is 0.

Sums of one kind go through one helper each: `_face_alternation` is the
face loop of the conic Sommerville relation, which the Sommerville,
face-alternation, statdim-alternation and genfun-alternation checks call
with the functionals e_0, e_k, (k) and (e^{tk}); `_rotation_mean` is the
Haar-rotation loop of the kinematic and polar-kinematic checks; and
`_class_estimates` is the one loop over faces or regions, for those four
checks and for Klivans-Swartz, Hug-Schneider and family-statdim.  It reads
one estimate per class of congruent cones (`cone.congruence_key`) from an
`EstimateStore`, and the class enters its sum with weight n and standard
error n se: congruent cones have equal intrinsic volumes, and the members
share one estimate.

The store holds one estimate per (congruence class, n_samples, workers)
in a run, drawn on first use at a sub-seed derived from the store's seed
and a digest of the key, so an entry does not depend on which check asked
first.  `run_suite` makes one store and hands it to `_class_estimates`'s
checks, to Gauss-Bonnet and to route 1 of statdim-consistency; a check
called on its own makes a fresh store at its cfg.seed.  Reports that read
one entry are correlated, which the suite's Bonferroni bound allows.  The
other checks keep their own sub-seeds: generalized Sommerville reads face
hit counts by lattice position, which congruent cones need not share;
McMullen's products need independent factors, and a tangent and a normal
cone of one term can be congruent; each Haar rotation's cone is distinct,
so keying it would only add cost; and route 2 of statdim-consistency, the
product sides and the Steiner functionals are sampled by their own
estimators.  Every
Haar rotation comes from `_rotations`, which `_rotation_mean` and
Crofton's general path iterate, and every sampled decision, Crofton's line
hits included, is the projection kernel's acceptance rule in `volumes`.

Product sides and angle cones come from `cone` and `volumes`: v(C x D) is
read off `cone.product` by `_product_side`, and McMullen's angles are solid
angles of `volumes.tangent_cone` and `cone.normal_face`.  The Steiner
grid, the t values of the suite's steiner-mgf checks and the CLI's default
`--t-grid`, is the one constant `STEINER_T_GRID`.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

import numpy as np

from .arrangement import (
    Arrangement,
    chambers,
    cover_efron_expected_iv,
    expected_statdim_family,
    family_level_char,
    intersection_lattice,
    level_char_poly,
    named_family,
    regions_j,
    restriction,
    zaslavsky_count,
)
from .catalog import build_arrangements, build_cones, pointed_cones
from .cone import (
    Cone,
    Face,
    FaceLattice,
    cone_from_generators,
    cone_to_json,
    congruence_key,
    face_lattice,
    intersect,
    minkowski_sum,
    normal_face,
    product,
    transverse,
)
from .exactlin import dot, kernel
from .volumes import (
    IVEstimate,
    SampleConfig,
    _check_redraws,
    _classify_points,
    derive_seed,
    estimate_functionals,
    estimate_iv,
    exact_iv,
    haar_rotation,
    solid_angle_se,
    statdim_mc,
    tangent_cone,
)


@dataclass
class VerificationReport:
    """One check's verdict.  residual_or_z is the largest of `comparisons`
    z-scores, 0 for an exact verdict or a skip; `run_suite`'s Bonferroni
    count is their sum, and `to_json` leaves the field out."""

    identity: str
    status: str  # pass | fail | skip
    lhs: object = None
    rhs: object = None
    residual_or_z: float = 0.0
    n_samples: int = 0
    n_trials: int = 0
    seed: int = 0
    notes: str = ""
    comparisons: int = 0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "comparisons"}

    def table_row(self) -> str:
        return (
            f"{self.identity:<34} {self.status:<5} "
            f"{self.residual_or_z:>10.4g}  {self.notes}"
        )


def _floor_se(se: float, n: int) -> float:
    return max(se, 1.0 / max(n, 1))


def _quad(*ses: float) -> float:
    return math.sqrt(sum(s * s for s in ses))


def _functional_se(est: IVEstimate, coeffs) -> float:
    """Multinomial delta-method SE of sum_k coeffs[k] * vhat_k."""
    mean = sum(c * v for c, v in zip(coeffs, est.values))
    second = sum(c * c * v for c, v in zip(coeffs, est.values))
    return _floor_se(math.sqrt(max(second - mean * mean, 0.0) / est.n_samples),
                     est.n_samples)


def _sub_cfg(cfg: SampleConfig, *tags: int) -> SampleConfig:
    return replace(cfg, seed=derive_seed(cfg.seed, *tags))


# the derive_seed tag of an `EstimateStore` entry, after the key's digest words
_STORE_TAG = 27


class EstimateStore:
    """One estimate per (congruence class, n_samples, workers) in a run.

    Congruent cones have the same intrinsic volumes, so every check that
    reads the store shares one estimate per class and budget.  An entry is
    drawn once, at derive_seed(seed, 27, *the 32-bit words of the SHA-256 of
    the key's canonical text), so it does not depend on which check asked
    first, nor on Python's hash seed.  A cone past the congruence search
    budget is keyed by its own canonical rows (`cone_to_json`); the store
    holds digests and estimates only, so it keeps no cone or kernel alive."""

    def __init__(self, seed: int):
        self.seed = seed
        self._entries: dict[bytes, IVEstimate] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def estimate(self, part: Face | Cone, cfg: SampleConfig, key: tuple | None = None) -> IVEstimate:
        """The entry of part's class at cfg's budget and workers, drawn on
        first use; key is `congruence_key(part)` when the caller has it."""
        *head, form = congruence_key(part) if key is None else key
        if isinstance(form, Cone):
            form = cone_to_json(form)
        text = repr((*head, form, cfg.n_samples, cfg.workers))
        digest = hashlib.sha256(text.encode()).digest()
        est = self._entries.get(digest)
        if est is None:
            words = [int.from_bytes(digest[i:i + 4], "big") for i in range(0, len(digest), 4)]
            seed = derive_seed(self.seed, _STORE_TAG, *words)
            cone = part.cone if isinstance(part, Face) else part
            est = estimate_iv(cone, replace(cfg, seed=seed))
            self._entries[digest] = est
        return est


def _store_for(store: EstimateStore | None, cfg: SampleConfig) -> EstimateStore:
    """The run's store, or a fresh one at cfg.seed for a check run alone."""
    return EstimateStore(cfg.seed) if store is None else store


def _class_estimates(parts, cfg: SampleConfig,
                     store: EstimateStore) -> list[tuple[Face | Cone, int, IVEstimate]]:
    """One estimate per congruence class of the faces or cones in parts:
    (the class's first member, the class size n, the store's entry for the
    class), in the order of first members.

    Congruent cones have the same intrinsic volumes, so a class enters a sum
    with weight n and standard error n se; the members share one estimate,
    so the error is not shrunk by sqrt(n).  `cone.congruence_key` keys a
    face without building its cone, so only cones that the store has not
    seen are built."""
    classes: dict[tuple, list] = {}
    for p in parts:
        classes.setdefault(congruence_key(p), []).append(p)
    return [(members[0], len(members), store.estimate(members[0], cfg, key))
            for key, members in classes.items()]


def _class_note(count: int, what: str, estimates: int) -> str:
    """How many parts a class sum covers and how many estimates it drew."""
    return f"{count} {what}, {estimates} estimates"


def _z(diff: float, se: float, n: int) -> float:
    """|diff| in units of the standard error se, floored at 1/n."""
    return abs(diff) / _floor_se(se, n)


def _report_z(name: str, z: float, cfg: SampleConfig, lhs=None, rhs=None,
              notes: str = "", n_trials: int = 0, ok: bool = True,
              comparisons: int = 1) -> VerificationReport:
    """A statistical verdict: pass iff ok and z <= cfg.tolerance_sigmas."""
    return VerificationReport(
        identity=name, status="pass" if ok and z <= cfg.tolerance_sigmas else "fail",
        lhs=lhs, rhs=rhs, residual_or_z=z, n_samples=cfg.n_samples,
        n_trials=n_trials, seed=cfg.seed, notes=notes, comparisons=comparisons,
    )


def _report_exact(name: str, residual, lhs=None, rhs=None, seed: int = 0,
                  notes: str = "") -> VerificationReport:
    """An exact verdict: pass iff residual == 0."""
    return VerificationReport(
        identity=name, status="pass" if residual == 0 else "fail",
        lhs=lhs, rhs=rhs, residual_or_z=float(residual), seed=seed, notes=notes,
    )


# ---------------------------------------------------------------------------
# Face-lattice identities


def verify_euler(c: Cone) -> VerificationReport:
    """Alternating f-vector sum: (-1)^dim for subspaces, 0 otherwise."""
    fl = face_lattice(c)
    expected = (-1) ** c.dim if c.is_subspace else 0
    return _report_exact("euler", abs(fl.euler_sum - expected), fl.euler_sum, expected,
                         notes=f"f={fl.f_vector}")


def _face_alternation(name: str, c: Cone, phi, cfg: SampleConfig,
                      store: EstimateStore | None) -> VerificationReport:
    """The conic Sommerville relation at the functional phi:
    lhs = sum_k (-1)^k phi_k vhat_k(C) against
    rhs = sum over faces F of (-1)^dim F sum_k phi_k vhat_k(F), each class
    of n congruent faces entering once with weight n (`_class_estimates`).
    C is the one face of its dimension, so its class is itself; its
    estimate enters the residual once, with net coefficients."""
    alt = [(-1) ** k * p for k, p in enumerate(phi)]
    lhs = rhs = residual = 0.0
    ses = []
    faces = face_lattice(c).faces
    classes = _class_estimates(faces, cfg, _store_for(store, cfg))
    for f, n, e in classes:
        w = n * (-1) ** f.dim
        rhs += w * sum(p * v for p, v in zip(phi, e.values))
        coeffs = [-w * p for p in phi]
        if f.dim == c.dim:
            lhs = sum(a * v for a, v in zip(alt, e.values))
            coeffs = [a + cf for a, cf in zip(alt, coeffs)]
        residual += sum(cf * v for cf, v in zip(coeffs, e.values))
        ses.append(_functional_se(e, coeffs))
    return _report_z(name, _z(residual, _quad(*ses), cfg.n_samples), cfg, lhs, rhs,
                     notes=_class_note(len(faces), "faces", len(classes)))


def verify_sommerville(c: Cone, cfg: SampleConfig, *,
                       store: EstimateStore | None = None) -> VerificationReport:
    """v_0(C) = sum over faces of (-1)^dim F v_0(F); both sides vanish
    when C contains a nonzero linear subspace."""
    if c.lineality_dim > 0:
        return _report_exact("sommerville", 0, 0.0, 0.0, seed=cfg.seed,
                             notes="lineality: both sides vanish exactly")
    return _face_alternation("sommerville", c, [1] + [0] * c.d, cfg, store)


def _index_below(fl: FaceLattice, g: int, f: int) -> int:
    """The index of face g <= f in the lattice of face f's own cone, which
    is the interval below F, in the same order."""
    return sum(fl.leq(j, f) for j in range(g))


def verify_generalized_sommerville(c: Cone, g: Face, cfg: SampleConfig) -> VerificationReport:
    """(-1)^dim G v_G(C) = sum over faces of (-1)^dim F v_G(F)."""
    if g.parent != c:
        raise ValueError("face does not belong to this cone")
    fl = face_lattice(c)
    gi = fl.faces.index(g)
    lhs = rhs = residual = 0.0
    ses = []
    for i, f in enumerate(fl.faces):
        if not fl.leq(gi, i):
            continue  # v_G(F) = 0 when G is not a face of F
        est = estimate_iv(f.cone, _sub_cfg(cfg, 2, i))
        v_g = est.face_hit_counts[_index_below(fl, gi, i)] / est.n_samples
        se = _floor_se(math.sqrt(v_g * (1 - v_g) / est.n_samples), est.n_samples)
        sign = (-1) ** f.dim
        rhs += sign * v_g
        # an estimate on both sides contributes once, with the net weight
        w = -sign
        if f.cone == c:
            lhs = (-1) ** g.dim * v_g
            w += (-1) ** g.dim
        residual += w * v_g
        ses.append(w * se)
    return _report_z("generalized-sommerville", _z(residual, _quad(*ses), cfg.n_samples),
                     cfg, lhs, rhs, notes=f"G dim {g.dim}")


def verify_face_alternation(c: Cone, k: int, cfg: SampleConfig, *,
                            store: EstimateStore | None = None) -> VerificationReport:
    """(-1)^k v_k(C) = sum over faces of (-1)^dim F v_k(F)."""
    _check_index(k, c.d)
    phi = [0] * (c.d + 1)
    phi[k] = 1
    return _face_alternation(f"face-alternation[k={k}]", c, phi, cfg, store)


def verify_gauss_bonnet(c: Cone, cfg: SampleConfig, *,
                        store: EstimateStore | None = None) -> VerificationReport:
    """Alternating intrinsic volumes = alternating f-vector = case split."""
    fl = face_lattice(c)
    expected = (-1) ** c.dim if c.is_subspace else 0
    f_residual = fl.euler_sum - expected
    est = _store_for(store, cfg).estimate(c, cfg)
    coeffs = [(-1) ** i for i in range(c.d + 1)]
    v_side = sum(cf * v for cf, v in zip(coeffs, est.values))
    z = _z(v_side - expected, _functional_se(est, coeffs), cfg.n_samples)
    return _report_z("gauss-bonnet", z, cfg, v_side, expected,
                     notes=f"f-side residual {f_residual} (exact)", ok=f_residual == 0)


def verify_statdim_alternation(c: Cone, cfg: SampleConfig, *,
                               store: EstimateStore | None = None) -> VerificationReport:
    """sum (-1)^k k v_k(C) = sum over faces of (-1)^dim F delta(F)."""
    return _face_alternation("statdim-alternation", c, list(range(c.d + 1)), cfg, store)


def verify_genfun_alternation(c: Cone, t: float, cfg: SampleConfig, *,
                              store: EstimateStore | None = None) -> VerificationReport:
    """E[(-1)^V e^{tV}] over C = sum over faces of (-1)^dim F E[e^{tV_F}]."""
    try:
        # the delta-method SE squares net weights of up to 2 e^{td}
        math.exp(2 * t * c.d + math.log(4))
        phi = [math.exp(t * k) for k in range(c.d + 1)]
    except OverflowError:
        raise ValueError(f"t = {t} overflows e^(2tk) for k <= {c.d}") from None
    return _face_alternation(f"genfun-alternation[t={t}]", c, phi, cfg, store)


# ---------------------------------------------------------------------------
# Steiner / moment identities

STEINER_T_GRID = (-1.0, -0.5, 0.1)


def verify_steiner_mgf(c: Cone, t_grid, cfg: SampleConfig) -> VerificationReport:
    """The squared projection length has the chi-squared mixture MGF:
    E[e^{s|P_C g|^2}] = E[e^{tV}] at s = (1 - e^{-2t})/2, plus the matching
    first moments E[|P_C g|^2] = sum k vhat_k from the same sample stream.

    The sampled e^{s|P_C g|^2} has finite variance only for s < 1/4, that is
    t < ln 2 / 2 ~ 0.347; a grid point outside raises ValueError.  On it
    (1 - 2s)^{-1/2} = e^t, so the closed form sum_k v_k (1 - 2s)^{-k/2} is
    the same number as sum_k v_k e^{tk}.

    The SE comes from the sample variance of e^{s|P_C g|^2}, reliable only
    where the fourth moment is finite, s < 1/8, that is t < ln(4/3)/2 ~
    0.144.  Every point of `STEINER_T_GRID` lies below it (t = 0.1 gives
    s ~ 0.091).  An explicit t in [ln(4/3)/2, ln 2/2) is still accepted,
    but its SE is then unreliable and its z can run large under correct
    code."""
    worst = 0.0
    details = []
    funcs = {"moment": lambda dims, pn2: pn2 - dims}
    for i, t in enumerate(t_grid):
        try:
            s = (1.0 - math.exp(-2.0 * t)) / 2.0
        except OverflowError:
            raise ValueError(f"t = {t} overflows s = (1 - e^(-2t))/2") from None
        if not s < 0.25:
            raise ValueError(
                f"t = {t} gives s = {s}: the MGF estimate has finite variance "
                "only for s < 1/4 (t < ln 2 / 2)")
        funcs[f"mgf{i}"] = (
            lambda dims, pn2, s=s, t=t: np.exp(s * pn2) - np.exp(t * dims)
        )
    stats = estimate_functionals(c, cfg, funcs)
    for i, t in enumerate(t_grid):
        z = _z(*stats[f"mgf{i}"], cfg.n_samples)
        worst = max(worst, z)
        details.append(f"t={t}: z={z:.2f}")
    zm = _z(*stats["moment"], cfg.n_samples)
    worst = max(worst, zm)
    details.append(f"moment: z={zm:.2f}")
    return _report_z("steiner-mgf", worst, cfg, "sampled MGF", "chi-squared mixture",
                     notes="; ".join(details), comparisons=len(t_grid) + 1)


def verify_statdim_consistency(c: Cone, cfg: SampleConfig, *,
                               store: EstimateStore | None = None) -> VerificationReport:
    """Two routes to the statistical dimension: sum k vhat_k, from the
    store's estimate of C, versus the mean squared projection norm, sampled
    on its own at sub-seed 7 and stream 1."""
    est = _store_for(store, cfg).estimate(c, cfg)
    route1 = sum(k * v for k, v in enumerate(est.values))
    se1 = _functional_se(est, range(c.d + 1))
    route2, se2 = statdim_mc(c, _sub_cfg(cfg, 7))
    return _report_z("statdim-consistency",
                     _z(route1 - route2, _quad(se1, se2), cfg.n_samples), cfg, route1, route2)


# ---------------------------------------------------------------------------
# McMullen incidence-algebra inverses


def verify_mcmullen_inverse(c: Cone, cfg: SampleConfig) -> VerificationReport:
    """Internal and external angles are mutual inverses in the incidence
    algebra: for faces G <= K,
      sum_{G<=F<=K} (-1)^{dim F - dim G} beta(G,F) gamma(F,K) = [G = K]
      sum_{G<=F<=K} (-1)^{dim K - dim F} gamma(G,F) beta(F,K) = [G = K].
    """
    fl = face_lattice(c)
    n = len(fl.faces)
    # beta(G, F) and gamma(G, F) are the solid angles of the tangent cone
    # and the normal face of F at G, taken as a face of F's own cone
    tangents, normals = {}, {}
    for a in range(n):
        for b in range(n):
            if fl.leq(a, b):
                f = fl.faces[b].cone
                g = face_lattice(f).faces[_index_below(fl, a, b)]
                tangents[a, b], normals[a, b] = tangent_cone(f, g), normal_face(f, g).cone

    def angles(cones, tag):
        # one estimate per angle serves every relation it enters: within a
        # relation the two factors of a term are different cones and the
        # terms read different face pairs, so each term's SE stays valid
        return {ab: solid_angle_se(k, _sub_cfg(cfg, tag, *ab)) for ab, k in cones.items()}

    beta, gamma = angles(tangents, 8), angles(normals, 9)
    worst = 0.0
    n_rel = sampled = 0
    for gi, g in enumerate(fl.faces):
        for ki, k in enumerate(fl.faces):
            if not fl.leq(gi, ki):
                continue
            expected = 1.0 if gi == ki else 0.0
            s1 = s2 = 0.0
            ses1, ses2 = [], []
            for fi, f in enumerate(fl.faces):
                if not (fl.leq(gi, fi) and fl.leq(fi, ki)):
                    continue
                beta_gf, se_bgf = beta[gi, fi]
                gamma_fk, se_gfk = gamma[fi, ki]
                gamma_gf, se_ggf = gamma[gi, fi]
                beta_fk, se_bfk = beta[fi, ki]
                s1 += (-1) ** (f.dim - g.dim) * beta_gf * gamma_fk
                s2 += (-1) ** (k.dim - f.dim) * gamma_gf * beta_fk
                ses1.append(_quad(beta_gf * se_gfk, gamma_fk * se_bgf))
                ses2.append(_quad(gamma_gf * se_bfk, beta_fk * se_ggf))
            se1, se2 = _quad(*ses1), _quad(*ses2)
            worst = max(worst, _z(s1 - expected, se1, cfg.n_samples),
                        _z(s2 - expected, se2, cfg.n_samples))
            n_rel += 2
            sampled += (se1 > 0) + (se2 > 0)  # SE 0: every angle is exact
    return _report_z("mcmullen-inverse", worst, cfg, "incidence sums", "identity element",
                     notes=f"{n_rel} relations checked", comparisons=sampled)


# ---------------------------------------------------------------------------
# Kinematics


def rationalize_matrix(q: np.ndarray):
    """q scaled by 2^40 and rounded to integers, entry by entry."""
    return tuple(tuple(round(float(x) * (1 << 40)) for x in row) for row in q)


def _rotate(qm, c: Cone) -> Cone:
    """QC for an integer matrix Q, such as `rationalize_matrix`, built
    exactly from C's rows; a positive multiple of Q gives the same cone."""
    def image(rows):
        return [[dot(q, v) for q in qm] for v in rows]
    return cone_from_generators(image(c.generators), image(c.lineality.basis), c.d)


def _product_side(c: Cone, d_cone: Cone, coeffs, cfg: SampleConfig,
                  tag: int) -> tuple[float, float]:
    """sum_k coeffs[k] v_k(C x D) and its standard error: exact, with SE 0,
    when `exact_iv` recognizes the product cone, else from one estimate of
    it at sub-seed tag, with the delta-method SE."""
    p = product(c, d_cone)
    ex = exact_iv(p)
    if ex is not None:
        return float(sum(cf * v for cf, v in zip(coeffs, ex.values))), 0.0
    est = estimate_iv(p, _sub_cfg(cfg, tag))
    return sum(cf * v for cf, v in zip(coeffs, est.values)), _functional_se(est, coeffs)


def _check_trials(trials: int, least: int = 1) -> None:
    if trials < least:
        raise ValueError(f"trials must be at least {least}, got {trials}")


def _check_index(k: int, d: int) -> None:
    if k < 0 or k > d:
        raise ValueError(f"index k must be in 0..{d}, got {k}")


def _rotations(d_cone: Cone, trials: int, seed: int, rng_tag: int):
    """Yield QD for trials Haar rotations Q, drawn from the stream
    (seed, rng_tag) and scaled to integers so that QD is built exactly."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, rng_tag)))
    for _ in range(trials):
        yield _rotate(rationalize_matrix(haar_rotation(d_cone.d, rng)), d_cone)


def _rotation_mean(c: Cone, d_cone: Cone, combine, index: int, trials: int,
                   cfg: SampleConfig, rng_tag: int, tag: int) -> tuple[float, float]:
    """Mean over the rotations QD of `_rotations` of vhat_index(combine(C, QD))
    and its standard error, the sample standard deviation (ddof 1) over
    sqrt(trials); rotation t is sampled with cfg.n_samples draws at
    sub-seed (tag, t)."""
    per_trial = []
    for t, rotated in enumerate(_rotations(d_cone, trials, cfg.seed, rng_tag)):
        cone = combine(c, rotated)
        if cone.dim == 0:  # intrinsic volumes of {0} are (1, 0, ..., 0)
            per_trial.append(1.0 if index == 0 else 0.0)
            continue
        per_trial.append(estimate_iv(cone, _sub_cfg(cfg, tag, t)).values[index])
    n = trials * cfg.n_samples
    return (float(np.mean(per_trial)),
            _floor_se(float(np.std(per_trial, ddof=1)) / math.sqrt(trials), n))


def verify_kinematic(c: Cone, d_cone: Cone, k: int, trials: int,
                     cfg: SampleConfig) -> VerificationReport:
    """E[v_k(C ∩ QD)] = v_{k+d}(C x D) for k > 0 (total mass sum at k = 0),
    with Q Haar and the per-rotation cone built exactly from the rotation
    scaled to integers; two-level Monte Carlo."""
    if c.d != d_cone.d:
        raise ValueError("ambient dimensions differ")
    _check_index(k, c.d)
    _check_trials(trials, 2)  # the SE is a sample standard deviation over rotations
    d = c.d
    # v_{k+d}(C x D), or the total mass v_0 + ... + v_d at k = 0
    coeffs = [int(i == k + d if k > 0 else i <= d) for i in range(2 * d + 1)]
    rhs, rhs_se = _product_side(c, d_cone, coeffs, cfg, 12)
    lhs, lhs_se = _rotation_mean(c, d_cone, intersect, k, trials, cfg, 14, 15)
    z = _z(lhs - rhs, _quad(lhs_se, rhs_se), trials * cfg.n_samples)
    return _report_z(f"kinematic[k={k}]", z, cfg, lhs, rhs,
                     notes=f"{trials} rotations x {cfg.n_samples} samples",
                     n_trials=trials)


def verify_polar_kinematic(c: Cone, d_cone: Cone, k: int, trials: int,
                           cfg: SampleConfig) -> VerificationReport:
    """E[v_{d-k}(C + QD)] = v_{d-k}(C x D): the Minkowski-sum dual of the
    kinematic formula."""
    if c.d != d_cone.d:
        raise ValueError("ambient dimensions differ")
    _check_index(k, c.d)
    _check_trials(trials, 2)  # the SE is a sample standard deviation over rotations
    d = c.d
    coeffs = [int(i == d - k) for i in range(2 * d + 1)]
    rhs, rhs_se = _product_side(c, d_cone, coeffs, cfg, 16)
    lhs, lhs_se = _rotation_mean(c, d_cone, minkowski_sum, d - k, trials, cfg, 18, 19)
    z = _z(lhs - rhs, _quad(lhs_se, rhs_se), trials * cfg.n_samples)
    return _report_z(f"polar-kinematic[k={k}]", z, cfg, lhs, rhs,
                     notes=f"{trials} rotations", n_trials=trials)


def verify_crofton_probability(c: Cone, d_cone: Cone, trials: int,
                               cfg: SampleConfig) -> VerificationReport:
    """P{C ∩ QD != 0} = 2 sum over odd i of v_{d+i}(C x D); skipped when
    both cones are linear subspaces (the formula's hypothesis)."""
    if c.d != d_cone.d:
        raise ValueError("ambient dimensions differ")
    _check_trials(trials)
    if c.is_subspace and d_cone.is_subspace:
        return VerificationReport(
            identity="crofton", status="skip",
            notes="both cones are linear subspaces; hypothesis violated",
            seed=cfg.seed,
        )
    d = c.d
    coeffs = [0] * (d + 1) + [2 * (i % 2) for i in range(1, d + 1)]
    rhs, rhs_se = _product_side(c, d_cone, coeffs, cfg, 20)
    if d_cone.is_subspace and d_cone.dim == 1:
        hits = _crofton_line_hits(c, trials, cfg.seed)
    else:
        hits = sum(intersect(c, q).dim > 0 for q in _rotations(d_cone, trials, cfg.seed, 22))
    p_hat = hits / trials
    z = _z(p_hat - rhs, _quad(math.sqrt(p_hat * (1 - p_hat) / trials), rhs_se), trials)
    return _report_z("crofton", z, cfg, p_hat, rhs,
                     notes=f"{trials} rotations", n_trials=trials)


def _crofton_line_hits(c: Cone, trials: int, seed: int) -> int:
    """Vectorized fast path: QL for a line L is the line through a uniform
    unit direction u, drawn from the stream (seed, 22), and meets C beyond
    0 iff u or -u lies in C.  Directions `_line_hit` leaves ambiguous are
    redrawn, up to the estimators' cap (`volumes._check_redraws`).  A
    lower-dimensional C is hit with probability 0."""
    if c.dim < c.d:
        return 0
    rng = np.random.default_rng(np.random.SeedSequence((seed, 22)))
    hits = ambiguous = 0
    need = trials
    while need > 0:
        u = rng.standard_normal((need, c.d))
        u /= np.linalg.norm(u, axis=1)[:, None]
        hit, ok = _line_hit(c, u)
        ambiguous += int((~ok).sum())
        _check_redraws(ambiguous, trials)
        hits += int((hit & ok).sum())
        need -= int(ok.sum())
    return hits


def _line_hit(c: Cone, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of u, for a full-dimensional C: whether u or -u lies in C,
    that is whether C's projection kernel puts it on the top face, the only
    one of dimension d; and whether the kernel decides both without
    ambiguity."""
    kern, (plus, _, ok_plus, _) = _classify_points(c, u)
    _, (minus, _, ok_minus, _) = _classify_points(c, -u)
    return (kern.face_dims[plus] == c.d) | (kern.face_dims[minus] == c.d), ok_plus & ok_minus


def verify_transverse_duality(c: Cone, d_cone: Cone) -> VerificationReport:
    """For transversely intersecting faces, N_F C + N_G D equals
    N_{F∩G}(C ∩ D) exactly (checked over all face pairs)."""
    if c.d != d_cone.d:
        raise ValueError("ambient dimensions differ")
    fl_c = face_lattice(c)
    fl_d = face_lattice(d_cone)
    inter = intersect(c, d_cone)
    fl_i = face_lattice(inter)
    checked = failures = 0
    for f in fl_c.faces:
        for g in fl_d.faces:
            if not transverse(f, g):
                continue
            checked += 1
            lhs = minkowski_sum(normal_face(c, f).cone, normal_face(d_cone, g).cone)
            fg = intersect(f.cone, g.cone)
            rhs = normal_face(inter, fl_i.face_of_cone(fg)).cone
            if lhs != rhs:
                failures += 1
    return _report_exact("transverse-duality", failures, f"{checked} transverse pairs",
                         "normal-face sums", notes=f"{checked} pairs checked exactly")


def verify_finite_double_count(omega_size: int, m_set, n_set, group) -> VerificationReport:
    """Exact finite double counting: the group average of |M ∩ γN| equals
    |M||N|/|Ω| for a transitive action."""
    omega = set(range(omega_size))
    orbit = {0}
    frontier = [0]
    perms = [tuple(p) for p in group]
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = p[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    if orbit != omega:
        raise ValueError("group does not act transitively")
    m_set, n_set = set(m_set), set(n_set)
    total = sum(len(m_set & {p[x] for x in n_set}) for p in perms)
    lhs = Fraction(total, len(perms))
    rhs = Fraction(len(m_set) * len(n_set), omega_size)
    return _report_exact("finite-double-count", int(lhs != rhs), str(lhs), str(rhs))


# ---------------------------------------------------------------------------
# Arrangement identities


def _region_iv_sums(cones, d: int, cfg: SampleConfig,
                    store: EstimateStore) -> tuple[list[float], list[float], int]:
    """Sums over the region cones of the estimated intrinsic volumes
    v_0..v_d and of their variances, one estimate per congruence class
    (`_class_estimates`), and the number of estimates drawn."""
    sums = [0.0] * (d + 1)
    variances = [0.0] * (d + 1)
    classes = _class_estimates(cones, cfg, store)
    for _, n, est in classes:
        for k in range(d + 1):
            sums[k] += n * est.values[k]
            variances[k] += (n * est.std_errors[k]) ** 2
    return sums, variances, len(classes)


def verify_zaslavsky(a: Arrangement) -> VerificationReport:
    """r_j(A) = (-1)^j chi_{A,j}(-1) for every j, by exact enumeration."""
    counted = []
    predicted = []
    for j in range(a.d + 1):
        counted.append(len(regions_j(a, j)))
        predicted.append(zaslavsky_count(a, j))
    return _report_exact("zaslavsky", int(counted != predicted), str(tuple(counted)),
                         str(tuple(predicted)), notes=f"j = 0..{a.d}")


def verify_klivans_swartz(a: Arrangement, j: int, cfg: SampleConfig, *,
                          store: EstimateStore | None = None) -> VerificationReport:
    """sum over j-regions of vhat_k = (-1)^{j-k} a_{jk}, the coefficients of
    the level characteristic polynomial; includes sum v_j = ell_j at k = j."""
    chi = level_char_poly(a, j)
    regs = regions_j(a, j)
    sums, variances, drawn = _region_iv_sums([r.cone for r in regs], a.d, cfg,
                                             _store_for(store, cfg))
    expected = [(-1) ** (j - k) * chi.coefficient(k) for k in range(j + 1)]
    worst = max(_z(sums[k] - expected[k], math.sqrt(variances[k]), cfg.n_samples)
                for k in range(j + 1))
    return _report_z(f"klivans-swartz[j={j}]", worst, cfg,
                     [round(s, 6) for s in sums[: j + 1]], expected,
                     notes=_class_note(len(regs), "regions", drawn), comparisons=j + 1)


def verify_generic_slice(a: Arrangement, j: int, seed: int = 0) -> VerificationReport:
    """Restricting to a hyperplane in general position shifts the level
    characteristic polynomial: coefficients (a_0 + a_1, a_2, ..., a_j)."""
    if j < 2:
        raise ValueError("the slice lemma requires j >= 2")
    flats = intersection_lattice(a).flats
    rng = random.Random(seed)
    while True:
        h = [rng.randint(-19, 19) for _ in range(a.d)]
        if all(x == 0 for x in h):
            continue
        if all(f.dim == 0 or any(dot(h, b) for b in f.subspace.basis) for f in flats):
            break
    sliced = restriction(a, kernel([h], a.d))
    chi = level_char_poly(a, j)
    expected = [chi.coefficient(0) + chi.coefficient(1)] + [
        chi.coefficient(k) for k in range(2, j + 1)
    ]
    got = level_char_poly(sliced, j - 1)
    got_coeffs = [got.coefficient(k) for k in range(j)]
    r_pred = zaslavsky_count(a, j) - (-1) ** j * 2 * chi.coefficient(0)
    r_got = zaslavsky_count(sliced, j - 1)
    ok = got_coeffs == expected and r_got == r_pred
    return _report_exact(f"generic-slice[j={j}]", int(not ok), got_coeffs, expected,
                         seed=seed, notes=f"r_{j-1} slice: {r_got} vs {r_pred}")


def verify_hug_schneider(n: int, d: int, cfg: SampleConfig, *,
                         store: EstimateStore | None = None) -> VerificationReport:
    """Expected chamber intrinsic volumes of a verified-generic arrangement
    match the binomial closed form."""
    regs = chambers(named_family("generic", d, n=n, seed=derive_seed(cfg.seed, 24)))
    expected = cover_efron_expected_iv(n, d)
    sums, variances, drawn = _region_iv_sums([r.cone for r in regs], d, cfg,
                                             _store_for(store, cfg))
    r = len(regs)
    worst = max(_z(sums[k] / r - float(expected[k]), math.sqrt(variances[k]) / r,
                   cfg.n_samples) for k in range(d + 1))
    return _report_z(f"hug-schneider[n={n},d={d}]", worst, cfg,
                     [round(s / r, 6) for s in sums], [float(x) for x in expected],
                     notes=_class_note(r, "chambers", drawn), comparisons=d + 1)


def verify_family_statdim(family: str, j: int, cfg: SampleConfig, *,
                          store: EstimateStore | None = None) -> VerificationReport:
    """A uniform j-region of the braid (bc) family has expected statistical
    dimension H_j (H_j / 2); ambient dimension j + 1.  A family with no
    closed form is rejected before any region is enumerated."""
    expected = float(expected_statdim_family(family, j))
    d = j + 1
    regs = regions_j(named_family(family, d), j)
    total = 0.0
    variances = []
    dims = list(range(d + 1))
    classes = _class_estimates([r.cone for r in regs], cfg, _store_for(store, cfg))
    for _, n, est in classes:
        total += n * sum(k * v for k, v in zip(dims, est.values))
        variances.append(_functional_se(est, [n * k for k in dims]) ** 2)
    r = len(regs)
    mean = total / r
    z = _z(mean - expected, math.sqrt(sum(variances)) / r, cfg.n_samples)
    return _report_z(f"family-statdim[{family},j={j}]", z, cfg, mean, expected,
                     notes=f"{_class_note(r, 'regions', len(classes))} in R^{d}")


# ---------------------------------------------------------------------------
# Full battery


def run_suite(cfg: SampleConfig, trials: int = 128) -> list[VerificationReport]:
    """Run the identity battery over the bundled cone/arrangement library.

    120 stochastic z-comparisons at tolerance_sigmas = 4, the reports'
    `comparisons` summed, at any seed and budget; the family-wise
    false-failure probability under correct code is below 1% (Bonferroni:
    120 x 6.3e-5 ~ 0.76%).  Exact checks carry no statistical risk.

    One `EstimateStore` at cfg.seed serves every check that reads one, so
    each (congruence class, budget, workers) is sampled once per pass.
    Reports that share an entry are correlated; the Bonferroni bound needs
    no independence, so it still holds.
    """
    cones = build_cones()
    arrs = build_arrangements()
    store = EstimateStore(cfg.seed)
    reports: list[VerificationReport] = []

    def add(r: VerificationReport, label: str):
        r.notes = f"{label}; {r.notes}" if r.notes else label
        reports.append(r)

    for i, (name, c) in enumerate(cones):
        add(verify_euler(c), name)
    for i, (name, c) in enumerate(cones):
        add(verify_gauss_bonnet(c, _sub_cfg(cfg, 100, i), store=store), name)
    for i, (name, c) in enumerate(pointed_cones(cones, max_dim=4)):
        add(verify_sommerville(c, _sub_cfg(cfg, 101, i), store=store), name)
    named = dict(cones)
    for tag, name, k in ((102, "orthant-3d", 1), (103, "square-cone-3d", 0),
                         (104, "square-cone-3d", 1), (105, "wedge-45", 0)):
        add(verify_face_alternation(named[name], k, _sub_cfg(cfg, tag), store=store), name)
    for i, name in enumerate(("orthant-2d", "square-cone-3d", "wedge-embedded-3d")):
        add(verify_statdim_alternation(named[name], _sub_cfg(cfg, 106, i), store=store), name)
    for i, t in enumerate((-1.0, -0.5, 0.5, 1.0)):
        add(verify_genfun_alternation(named["orthant-2d"], t, _sub_cfg(cfg, 107, i),
                                      store=store), "orthant-2d")
    for i, name in enumerate(("plane-3d", "orthant-2d", "orthant-3d", "orthant-4d")):
        add(verify_steiner_mgf(named[name], STEINER_T_GRID, _sub_cfg(cfg, 108, i)), name)
    for i, (name, c) in enumerate(cones):
        add(verify_statdim_consistency(c, _sub_cfg(cfg, 109, i), store=store), name)
    for i, name in enumerate(("ray-1d", "orthant-2d", "orthant-3d", "wedge-45")):
        add(verify_mcmullen_inverse(named[name], _sub_cfg(cfg, 110, i)), name)
    fl = face_lattice(named["orthant-2d"])
    ray_face = next(f for f in fl.faces if f.dim == 1)
    add(verify_generalized_sommerville(named["orthant-2d"], ray_face, _sub_cfg(cfg, 111)),
        "orthant-2d")
    inner = replace(cfg, n_samples=max(cfg.n_samples // 16, 512))
    add(verify_kinematic(named["orthant-2d"], named["orthant-2d"], 1, trials,
                         _sub_cfg(inner, 112)), "orthant-2d pair")
    add(verify_polar_kinematic(named["diag-ray-2d"], named["diag-ray-2d"], 1, trials,
                               _sub_cfg(inner, 113)), "ray pair")
    add(verify_crofton_probability(named["orthant-2d"], named["line-2d"],
                                   max(trials * 64, 4096), _sub_cfg(cfg, 114)),
        "orthant vs line")
    add(verify_transverse_duality(named["orthant-2d"], named["rot-orthant-2d"]),
        "orthant pair")
    cyclic = [tuple((i + s) % 6 for i in range(6)) for s in range(6)]
    add(verify_finite_double_count(6, {0, 1, 2}, {0, 3}, cyclic), "cyclic-6")
    for name, a in arrs:
        add(verify_zaslavsky(a), name)
    # the catalog's arrangement objects, so each builds its lattice once
    named_arrs = dict(arrs)
    for fam, dmax in (("braid", 4), ("bc", 3), ("d", 3)):
        for d in range(2, dmax + 1):
            a = named_arrs[f"{fam}-{d}d"]
            ok = all(family_level_char(fam, d, j) == level_char_poly(a, j)
                     for j in range(d + 1))
            reports.append(_report_exact(f"family-closed-form[{fam},d={d}]", int(not ok),
                                         notes="exact match with lattice computation"))
    for j in (1, 2, 3):
        add(verify_klivans_swartz(named_arrs["braid-3d"], j, _sub_cfg(cfg, 115, j),
                                  store=store), "braid-3d")
    add(verify_klivans_swartz(named_arrs["bc-2d"], 2, _sub_cfg(cfg, 116), store=store), "bc-2d")
    for j in (2, 3, 4):
        add(verify_generic_slice(named_arrs["braid-4d"], j, seed=cfg.seed), "braid-4d")
    add(verify_hug_schneider(3, 2, _sub_cfg(cfg, 117), store=store), "generic n=3 d=2")
    add(verify_family_statdim("braid", 2, _sub_cfg(cfg, 118), store=store), "")
    add(verify_family_statdim("bc", 1, _sub_cfg(cfg, 119), store=store), "")
    return reports


def status_counts(reports) -> dict[str, int]:
    """The number of reports with each status: pass, fail and skip."""
    return {s: sum(r.status == s for r in reports) for s in ("pass", "fail", "skip")}


def render_table(reports) -> str:
    lines = [f"{'identity':<34} {'stat':<5} {'resid/z':>10}  notes"]
    lines.append("-" * 78)
    for r in reports:
        lines.append(r.table_row())
    lines.append("-" * 78)
    lines.append(", ".join(f"{n} {s}" for s, n in status_counts(reports).items()))
    return "\n".join(lines)
