"""Gaussian geometry of polyhedral cones: Monte Carlo and closed forms.

This is the only floating-point layer.  A cone's face lattice, built once
by the cone, is compiled into a projection kernel: per-face span projectors
and one stacked constraint matrix holding, for every face, its facet
normals projected onto the face's span and its generators projected off
it, padded to a common column count with slots masked to -inf.  Each
standard Gaussian sample is then located in the facial decomposition of
space — the unique face F with the sample's span-projection in relint(F)
and the residual in the normal face — by one matmul per bounded chunk of
rows, which identifies the metric projection onto the cone and the face
dimension to tally.  A cone that splits into coordinate blocks, C = C_1 x
... x C_k (`cone.coordinate_factors`, which reads the factors off C's rows),
has its faces and Moreau projection split the same way, so it may
instead be compiled as one kernel per block, each locating the draw's
own columns, with an exact table from tuples of block faces to the cone's
faces: its cost is the sum of the blocks' face counts, not their product.
A cost rule picks that path when the blocks' margin rows, plus a fixed
cost per block, are fewer than the whole kernel's.  Either kernel only
locates a draw; one `classify` accepts it and gathers |P g|^2 for both,
so they accept the same draws, with the same faces and |P g|^2.  Kernels are
cached weakly per cone: equal cones share one kernel, and it is dropped
with the cone that keys it.  Estimators are deterministic for a fixed
(seed, workers): sample counts are partitioned across worker substreams
keyed by (seed, stream, worker) and tallies merge by addition.

What is drawn.  Moreau's decomposition splits C = L + (C ∩ L^⊥), L the
lineality space, and g's components in L, in span(C) ∩ L^⊥ and off
span(C) are independent.  The face of a draw and its projection onto
C ∩ L^⊥ depend only on the middle one, so each kernel is compiled in an
orthonormal basis U of span(C) ∩ L^⊥, k = dim C - dim L columns, and a
draw is h ~ N(0, I_k): nothing is drawn off the span or along L.  Where
|P g|^2 is read, each accepted draw adds the squared norm of dim L further
normals, the χ²(dim L) share of L.  A subspace (k = 0) has one face, which
`estimate_iv` tallies without drawing.  The acceptance rule is unchanged,
with |h| in place of |g|.  A full-dimensional pointed cone keeps the
ambient basis, U = I without the multiplication, so its draws, faces,
margins and |P g|^2 are those of the ambient kernel bit for bit.
`moreau_project` and Crofton's line test take their ambient points into U
before they classify.

Closed forms.  The class `exact_iv` recognizes is closed under polarity,
so it has no polar route: a cone is recognized exactly when its polar is.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cone import Cone, Face, canonical_decomposition, coordinate_factors, face_lattice
from .cone import cone_from_inequalities, normal_face
from .exactlin import Subspace, _bits, kernel

REL_TOL = 1e-9  # relint slack relative to the sample norm
# floats in one chunk of classify's stacked margins: a cache-sized working set
_CHUNK_FLOATS = 1 << 19
# faces up to which classify selects the best face by one elementwise
# pass per face; above it one argmin per draw costs less, because the
# chunk, and with it each pass, holds fewer rows (table in CHANGES.md)
_SWEEP_MAX_FACES = 24
# a coordinate product's kernel costs its blocks' margin rows plus this many
# per block, the fixed cost of one block's `_locate` call in margin rows;
# above the full kernel's rows the product takes the full kernel (table in
# CHANGES.md)
_BLOCK_CALL_ROWS = 10
# per-thread scratch for classify's margins: one buffer per dtype reused
# across calls and kernels, so the hot loop allocates no chunk-sized
# temporaries; a buffer per kernel would pin up to 4 MiB for every cached
# kernel
_workspace = threading.local()


def _scratch(n: int, dtype=np.float64) -> np.ndarray:
    """This thread's workspace of the given dtype, grown to at least n items."""
    key = np.dtype(dtype).name
    buf = getattr(_workspace, key, None)
    if buf is None or buf.size < n:
        buf = np.empty(n, dtype)
        setattr(_workspace, key, buf)
    return buf


class AmbiguousProjection(RuntimeError):
    """Face identification failed; carries the two best margins."""

    def __init__(self, best: float, second: float):
        super().__init__(
            f"ambiguous face membership: best margin {best:.3e}, "
            f"second {second:.3e}"
        )
        self.best = best
        self.second = second


@dataclass(frozen=True)
class SampleConfig:
    n_samples: int = 100_000
    seed: int = 0
    workers: int = 1
    tolerance_sigmas: float = 4.0

    def __post_init__(self):
        if self.n_samples < 1 or self.workers < 1:
            raise ValueError("n_samples and workers must be positive")
        if not (math.isfinite(self.tolerance_sigmas) and self.tolerance_sigmas > 0):
            raise ValueError("tolerance_sigmas must be finite and positive, "
                             f"got {self.tolerance_sigmas}")


@dataclass(frozen=True)
class IVEstimate:
    d: int
    values: tuple[float, ...]
    std_errors: tuple[float, ...]
    n_samples: int
    seed: int
    face_hit_counts: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "values": list(self.values),
            "std_errors": list(self.std_errors),
            "n_samples": self.n_samples,
            "seed": self.seed,
            "face_hit_counts": list(self.face_hit_counts),
        }


@dataclass(frozen=True)
class IVExact:
    d: int
    values: tuple  # Fractions where exact, floats for angle-derived entries
    provenance: str


def derive_seed(seed: int, *tags: int) -> int:
    """Stable 63-bit subseed from a base seed and integer tags."""
    ss = np.random.SeedSequence((int(seed),) + tuple(int(t) for t in tags))
    a, b = ss.generate_state(2)
    return int((int(a) << 31 ^ int(b)) & (2**63 - 1))


def _rng(seed: int, stream: int, worker: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), stream, worker)))


class ProjectionKernel:
    """Float compilation of `face_lattice(c)` for batched Moreau projection,
    holding float arrays only: no reference to the cone or its lattice.

    Face j is given by its span projector P_j = Q_j Q_j^T, the unit outer
    normals A_j of the facets not active on it and the unit generators R_j
    outside it.  Its margin at g is

        min(-max A_j P_j g, -max R_j (I - P_j) g) = -max g^T W_j,
        W_j = [P_j A_j^T | (I - P_j) R_j^T],

    positive exactly when P_j g lies in relint(F_j) and g - P_j g in the
    normal face.  The columns of every W_j are stacked slot-major into one
    (m * nf, d) matrix, m the largest column count over the nf faces; the
    slots a face does not fill are zero rows masked with -inf, so one
    matmul per row chunk yields every face's margin.  A chunk holds as many
    rows as keep its m * nf * rows margins within _CHUNK_FLOATS, which
    bounds the working set whatever the batch size.  The margins and their
    per-face maxima live in one per-thread workspace shared by every
    kernel, so classifying allocates only the arrays it returns.

    With a basis U, an orthonormal (d, k) basis of span(C) ∩ lin(C)^⊥, the
    kernel works in U's coordinates h = U^T g instead: A_j, R_j become A_j U
    and R_j U, unscaled, and P_j the projector onto the coordinates of
    span(F_j) ∩ lin(C)^⊥.  A_j is orthogonal to lin(C) and R_j lies in
    span(C), so every margin at h equals the ambient kernel's at g; only
    the tolerance reads |h| where the ambient kernel reads |g|.  Without a
    basis the kernel is the ambient one, k = d.

    The best face is the first one attaining the largest margin, argmin's
    tie rule, found by one elementwise pass per face up to
    _SWEEP_MAX_FACES faces.  A draw is accepted when its best margin
    exceeds REL_TOL max(|g|, 1) and every other margin is below minus
    that.  One bound for the whole batch, from the largest |g_i|, is at
    least every draw's own tolerance, so only the few draws between 0 and
    that bound need their own norm.  For finite draws both give the same
    outputs, bit for bit, as a per-draw argmin and per-draw tolerances.
    """

    def __init__(self, c: Cone, basis: np.ndarray | None = None):
        lattice = face_lattice(c)
        self._frame(c, lattice, basis)
        d = self.d
        gens_unit = _in_basis(_unit_rows(c.generators, c.d), basis)
        facets_unit = _in_basis(_unit_rows(c.inequalities, c.d), basis)
        blocks = []  # per-face W_j^T, shape (columns, d)
        for f, proj in zip(lattice.faces, self.projectors):
            outer, outer_gens = _outer(f)
            blocks.append(np.vstack([facets_unit[outer] @ proj,
                                     gens_unit[outer_gens] @ (np.eye(d) - proj)]))
        nf = len(blocks)
        m = max(1, max(len(b) for b in blocks))
        w = np.zeros((m, nf, d))
        pad = np.ones((m, nf), dtype=bool)
        for j, b in enumerate(blocks):
            w[:len(b), j] = b
            pad[:len(b), j] = False
        self._w = w.reshape(m * nf, d)
        self._pad = np.flatnonzero(pad)  # rows of _w set to -inf after the matmul
        self._slots = m
        self._chunk = max(1, _CHUNK_FLOATS // (m * nf))

    def _frame(self, c: Cone, lattice, basis: np.ndarray | None):
        """The draw basis, its dimension and the face spans in it."""
        self._basis = basis
        # normals whose squared norm the sampler adds to |P h|^2: lin(C)'s
        # share of a draw, which the basis leaves out
        self._lin_draws = 0 if basis is None else c.lineality_dim
        self.d = c.d if basis is None else basis.shape[1]
        self.face_dims, self.bases, self.projectors, self._spans = _face_spans(lattice, basis)

    def classify(self, g: np.ndarray, pnorm2: bool = True):
        """Locate each row of g in the facial decomposition.

        Returns (face_index, pnorm2, ok, (m1, m2)): the face with the best
        margin m1, the squared norm of the projection onto its span, and
        the second best margin m2; ok is False where the margins do not
        separate a unique face beyond tolerance.  The squared norms are
        computed only when pnorm2 is true; otherwise that slot is None.
        The returned arrays are fresh and never alias the workspace.
        """
        best, m1, m2 = self._locate(g)
        pn2 = _pnorm2(g, self.projectors, best) if pnorm2 else None
        return best, pn2, _accept(g, m1, m2), (m1, m2)

    def _locate(self, g: np.ndarray):
        """(face_index, m1, m2) per row of g: `classify` without acceptance or |P g|^2."""
        b = g.shape[0]
        nf = len(self.bases)
        ms = self._slots * nf
        best = np.empty(b, dtype=np.intp)
        m1 = np.empty(b)  # m1 and m2 hold minus the margins until the loop ends
        m2 = np.empty(b)
        rows = min(self._chunk, b)
        buf = _scratch((ms + nf + 1) * rows)
        for lo in range(0, b, self._chunk):
            hi = min(lo + self._chunk, b)
            r = hi - lo
            s = buf[:ms * r].reshape(ms, r)
            np.matmul(self._w, g[lo:hi].T, out=s)
            s[self._pad] = -np.inf
            # worst constraint per face: minus the face's margin
            t = buf[ms * r:(ms + nf) * r].reshape(nf, r)
            np.max(s.reshape(self._slots, nf, r), axis=0, out=t)
            _select(t, best[lo:hi], m1[lo:hi], m2[lo:hi], buf[(ms + nf) * r:(ms + nf + 1) * r])
        np.negative(m1, out=m1)
        np.negative(m2, out=m2)
        return best, m1, m2


def _select(t, best, lo1, lo2, tmp):
    """Per column of t: the first row attaining the minimum into best, the
    minimum into lo1 and the minimum of the other rows (+inf when there are
    none) into lo2.  The bits are those of argmin, a gather, and a min with
    the argmin row set to +inf; tmp is float scratch."""
    nf, r = t.shape
    if nf > _SWEEP_MAX_FACES:
        best[:], lo1[:], lo2[:] = _first_min(t)
        return
    if nf == 1:
        best.fill(0)
        lo1[:] = t[0]
        lo2.fill(np.inf)
        return
    # the two smallest per column, counted with multiplicity
    np.minimum(t[0], t[1], out=lo1)
    np.maximum(t[0], t[1], out=lo2)
    for j in range(2, nf):
        np.maximum(lo1, t[j], out=tmp)
        np.minimum(lo2, tmp, out=lo2)
        np.minimum(lo1, t[j], out=lo1)
    # best = the number of rows before the first one equal to the minimum,
    # counted in bytes: _SWEEP_MAX_FACES is below 256
    flags = _scratch(2 * r, np.bool_)
    run, eq = flags[:r], flags[r:2 * r]
    count = _scratch(r, np.uint8)[:r]
    count.fill(0)
    run.fill(True)
    for j in range(nf - 1):
        np.not_equal(t[j], lo1, out=eq)
        np.logical_and(run, eq, out=run)
        np.add(count, run.view(np.uint8), out=count)
    best[:] = count
    # which of +0 and -0 a minimum returns, and where argmin puts a NaN,
    # depend on the order of comparison: redo those columns as argmin does
    np.multiply(lo1, lo2, out=tmp)
    np.abs(tmp, out=tmp)
    np.greater(tmp, 0.0, out=eq)
    if not eq.all():
        z = np.flatnonzero(~eq)
        best[z], lo1[z], lo2[z] = _first_min(t[:, z])


def _first_min(t):
    """_select by one argmin per column; overwrites t."""
    cols = np.arange(t.shape[1])
    k = np.argmin(t, axis=0)
    lo1 = t[k, cols]
    t[k, cols] = np.inf
    return k, lo1, t.min(axis=0)


def _accept(g, m1, m2):
    """ok = (m1 > tol) & (m2 < -tol) with tol = REL_TOL max(|g|, 1) per row.

    sqrt(d) max |g_i| over the batch, raised past rounding, is at least
    every row's |g|, so its tolerance decides every row with m1 and -m2
    beyond it; only rows with both margins between 0 and it get their own
    norm.  A non-finite g makes the bound NaN, which decides no row."""
    b, d = g.shape
    top = max(float(g.max()), -float(g.min())) if g.size else 0.0
    bound = REL_TOL * max(math.sqrt(d) * top * (1 + 1e-12), 1.0)
    ok = (m1 > bound) & (m2 < -bound)
    rest = np.flatnonzero(~ok)
    rest = rest[(m1[rest] > 0) & (m2[rest] < 0)]
    if rest.size:
        tol = REL_TOL * np.maximum(np.linalg.norm(g[rest], axis=1), 1.0)
        ok[rest] = (m1[rest] > tol) & (m2[rest] < -tol)
    return ok


def _pnorm2(g, projectors, best):
    """|P_r g_r|^2 per row r, with P_r = projectors[best[r]].  Each chunk of
    rows gathers _CHUNK_FLOATS / 8 floats of projectors, so memory stays
    flat whatever the batch; a row's bits do not depend on its chunk."""
    b, k = g.shape
    rows = max(1, _CHUNK_FLOATS // (8 * max(k, 1) ** 2))
    out = np.empty(b)
    for lo in range(0, b, rows):
        gc = g[lo:lo + rows]
        pg = np.einsum("ri,rij->rj", gc, projectors[best[lo:lo + rows]])
        out[lo:lo + rows] = np.einsum("rj,rj->r", pg, gc)
    return out


class ProductKernel(ProjectionKernel):
    """Projection kernel of a coordinate product C = C_1 x ... x C_k, one
    `ProjectionKernel` per factor, with the face spans of the whole cone.

    The faces of C are the products F_1 x ... x F_k of faces of the
    factors, and the Moreau projection splits factor by factor, so a draw
    is located on each factor's own columns.  The margin of a product
    face is the least of its factors' margins, so the best face is the
    tuple of each factor's best face, with margin m1 = min_i m1_i.  The
    second best differs from it in some factor j, so its margin is at
    most min(m2_j, m1), attained with every other factor's best face; so
    m2 = min(m1, max_i m2_i).  A mixed-radix table maps each tuple to its
    face of C in lattice order, the factor faces' generator masks read as
    masks of C's generators.  Only `_locate` is the product's own:
    acceptance and |P g|^2 come from the shared `classify`, on the whole
    draw and from C's face projectors, so ok equals the full kernel's, and
    so do the face and |P g|^2 of every accepted draw (a rejected draw's
    tie may fall to another face); m1 and m2 differ from its only by the
    rounding of the factors' smaller QRs.  A margin pass costs the sum of
    the factors' constraint rows, not their product.  A factor with one
    face, a line or {0}, has margins +inf and -inf and radix 1, so it is
    left out of the pass.

    Each factor kernel works in its own basis, so the product draws in the
    factors' bases side by side: a basis of span(C) ∩ lin(C)^⊥ in which
    each factor reads its own run of columns.  A product of
    full-dimensional pointed factors keeps the ambient basis (None), each
    factor reading its own coordinates.
    """

    def __init__(self, c: Cone, parts):
        lattice = face_lattice(c)
        # equal factors share one kernel: every factor is alive here
        self._factors = [(np.array(cols), _kernel_for(f)) for cols, f in parts]
        # per factor of the pass: its columns of a draw and its kernel
        self._reads = [(cols, k) for cols, k in self._factors if len(k.face_dims) > 1]
        basis = None
        if any(k._basis is not None for _, k in self._factors):
            basis = np.zeros((c.d, sum(k.d for _, k in self._reads)))
            at = 0
            for j, (cols, k) in enumerate(self._reads):
                basis[cols, at:at + k.d] = np.eye(k.d) if k._basis is None else k._basis
                self._reads[j] = (slice(at, at + k.d), k)
                at += k.d
        self._frame(c, lattice, basis)
        index = {f.gen_mask: j for j, f in enumerate(lattice.faces)}
        masks = [0]  # generator mask of C's face, per mixed-radix code
        for cols, factor in parts:
            # the factor's generators are C's generators in this block, in
            # C's order, so its generator i is C's generator own[i]
            own = [i for i, r in enumerate(c.generators) if any(r[k] for k in cols)]
            block = [sum(1 << own[i] for i in _bits(face.gen_mask))
                     for face in face_lattice(factor).faces]
            masks = [m | b for m in masks for b in block]
        self._table = np.array([index[m] for m in masks], dtype=np.intp)

    def _locate(self, g: np.ndarray):
        """`ProjectionKernel._locate`, factor by factor."""
        b = g.shape[0]
        code = np.zeros(b, dtype=np.intp)
        m1 = np.full(b, np.inf)
        m2 = np.full(b, -np.inf)
        for cols, kern in self._reads:
            k, a1, a2 = kern._locate(g[:, cols])
            code *= len(kern.face_dims)
            code += k
            np.minimum(m1, a1, out=m1)
            np.maximum(m2, a2, out=m2)
        np.minimum(m2, m1, out=m2)
        return self._table[code], m1, m2


def _unit_rows(rows, d: int) -> np.ndarray:
    a = np.array([[float(x) for x in r] for r in rows], dtype=float).reshape(len(rows), d)
    return a / np.linalg.norm(a, axis=1)[:, None] if len(a) else a


def _in_basis(rows: np.ndarray, basis: np.ndarray | None) -> np.ndarray:
    """Ambient rows in the coordinates of basis; as they are without one."""
    return rows if basis is None else rows @ basis


def _orthonormal(s: Subspace) -> np.ndarray:
    """Orthonormal basis (d, dim) of s: the QR factor of its RREF rows in
    float, each entry row[j] / row[p] correctly rounded as
    float(Fraction(row[j], row[p])) would be; QR of the unscaled integer
    rows would round differently."""
    if s.dim == 0:
        return np.zeros((s.dim_ambient, 0))
    q, _ = np.linalg.qr(np.array([[x / row[p] for x in row] for p, row in s.echelon]).T)
    return q


def _own_basis(c: Cone) -> np.ndarray | None:
    """The basis c's draws are taken in: `_orthonormal` of span(C) ∩
    lin(C)^⊥, the kernel of the equalities and the lineality rows, which
    is k = dim C - dim lin(C) exact unit vectors for a coordinate
    subspace; None, the ambient basis, for a full-dimensional pointed
    cone."""
    if c.is_pointed and c.dim == c.d:
        return None
    return _orthonormal(kernel(c.equalities + c.lineality.basis, c.d))


def _face_spans(lattice, basis: np.ndarray | None):
    """(face_dims, bases, projectors, spans) of a lattice's faces: each
    face's dimension, an orthonormal basis of its span and the span
    projector, stacked (nf, k, k), and the ambient span bases (d, dim F),
    `_orthonormal` of each face's span.  Without a basis U, k = d and the
    span basis is the ambient one.  With one, the span basis is one of
    span(F) ∩ lin(C)^⊥ in U's k coordinates: span(F) is lin(C) plus that
    part, so U^T Q has singular values 0 on the first and 1 on the second,
    and the leading dim F - dim lin(C) left singular vectors span it."""
    lin = lattice.cone.lineality_dim
    k = lattice.cone.d if basis is None else basis.shape[1]
    spans = [_orthonormal(f.span) for f in lattice.faces]
    bases = spans
    if basis is not None:
        bases = [np.linalg.svd(basis.T @ q, full_matrices=False)[0][:, :f.dim - lin]
                 if f.dim > lin else np.zeros((k, 0)) for f, q in zip(lattice.faces, spans)]
    dims = np.array([f.dim for f in lattice.faces], dtype=int)
    return dims, bases, np.array([q @ q.T for q in bases]).reshape(len(bases), k, k), spans


def _outer(f: Face):
    """The facets not active on f and the generators outside it: the
    constraints of f's margin.  Generators inside the face pair to 0 with
    q in N_F C, so only those outside it constrain the residual."""
    p = f.parent
    return ([i for i in range(len(p.inequalities)) if i not in f.active],
            [i for i in range(len(p.generators)) if not f.gen_mask >> i & 1])


def _margin_rows(c: Cone) -> int:
    """Rows of c's full stacked constraint matrix: slots times faces."""
    faces = face_lattice(c).faces
    return max(1, max(sum(map(len, _outer(f))) for f in faces)) * len(faces)


def moreau_project(c: Cone, x) -> tuple[np.ndarray, np.ndarray, Face]:
    """Moreau decomposition x = p + q with p in C, q in C°, p ⟂ q.

    Also identifies the unique face of `face_lattice(c)` with p in its
    relative interior; raises AmbiguousProjection when the float margins
    cannot separate one.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    if x.shape[1] != c.d:
        raise ValueError("point dimension does not match the cone")
    if not np.isfinite(x).all():
        raise ValueError("point coordinates must be finite")
    kern, (idx, _, ok, (m1, m2)) = _classify_points(c, x)
    if not ok[0]:
        raise AmbiguousProjection(float(m1[0]), float(m2[0]))
    q = kern._spans[idx[0]]
    p = (x @ q) @ q.T if q.shape[1] else np.zeros_like(x)
    return p[0], (x - p)[0], face_lattice(c).faces[idx[0]]


def _classify_points(c: Cone, x: np.ndarray):
    """(kernel, classify result) of c's kernel on the ambient rows x, taken
    into the kernel's basis, without |P x|^2."""
    kern = _kernel_for(c)
    return kern, kern.classify(_in_basis(x, kern._basis), pnorm2=False)


# an entry lives as long as the cone that keys it: its kernel refers to neither
_kernel_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _kernel_for(c: Cone) -> ProjectionKernel:
    kern = _kernel_cache.get(c)
    if kern is None:
        kern = _kernel_cache[c] = _compile(c)
    return kern


def _compile(c: Cone) -> ProjectionKernel:
    """The cheaper kernel for c, in c's own basis: a `ProductKernel` when c
    has at least two coordinate blocks with more than one face whose margin
    rows, plus _BLOCK_CALL_ROWS for each block's call, are fewer than the
    full kernel's rows; else a `ProjectionKernel`."""
    parts = coordinate_factors(c)
    drawn = [f for _, f in parts if not f.is_subspace]
    if len(drawn) > 1 and (sum(_margin_rows(f) + _BLOCK_CALL_ROWS for f in drawn)
                           < _margin_rows(c)):
        return ProductKernel(c, parts)
    return ProjectionKernel(c, _own_basis(c))


_BATCH = 16384


def _check_redraws(ambiguous: int, n: int) -> None:
    """Every sampler's cap: raise once ambiguous redraws exceed 0.1% of n plus 8."""
    if ambiguous > 0.001 * n + 8:
        raise AmbiguousProjection(float("nan"), float("nan"))


def _sample_faces(kern: ProjectionKernel, cfg: SampleConfig, stream: int, pnorm2: bool):
    """Yield (face_index, pnorm2) arrays for cfg.n_samples accepted draws;
    pnorm2 is None unless asked for.

    A draw is h ~ N(0, I_k) in the kernel's basis.  When pnorm2 is asked
    for and the basis leaves out lin(C), each accepted draw's |P h|^2 gains
    the squared norm of dim lin(C) further normals, its χ² share in lin(C),
    drawn after the batch from the same substream.  Ambiguous draws are
    replaced by fresh draws from the same substream, up to `_check_redraws`'s
    cap.
    """
    n = cfg.n_samples
    per = [n // cfg.workers + (1 if w < n % cfg.workers else 0) for w in range(cfg.workers)]
    ambiguous = 0
    for w, n_w in enumerate(per):
        rng = _rng(cfg.seed, stream, w)
        need = n_w
        while need > 0:
            b = min(_BATCH, need)
            g = rng.standard_normal((b, kern.d))
            idx, pn2, ok, _ = kern.classify(g, pnorm2)
            n_ok = int(ok.sum())
            ambiguous += b - n_ok
            _check_redraws(ambiguous, n)
            if n_ok < b:
                idx, pn2 = idx[ok], (pn2[ok] if pnorm2 else None)
            if pnorm2 and kern._lin_draws:
                t = rng.standard_normal((n_ok, kern._lin_draws))
                pn2 += np.einsum("ij,ij->i", t, t)
            if n_ok:
                yield idx, pn2
            need -= n_ok


def estimate_iv(c: Cone, cfg: SampleConfig) -> IVEstimate:
    """Monte Carlo intrinsic volumes by tallying face dimensions of
    Gaussian projections; deterministic for fixed (seed, workers).  A
    subspace, whose one face takes every draw, is tallied without
    drawing."""
    kern = _kernel_for(c)
    counts = np.zeros(len(kern.face_dims), dtype=np.int64)
    if len(counts) == 1:
        counts[0] = cfg.n_samples
    else:
        for idx, _ in _sample_faces(kern, cfg, stream=0, pnorm2=False):
            counts += np.bincount(idx, minlength=len(counts))
    n = cfg.n_samples
    dim_counts = np.zeros(c.d + 1, dtype=np.int64)
    for j, dim in enumerate(kern.face_dims):
        dim_counts[dim] += counts[j]
    values = dim_counts / n
    ses = np.maximum(np.sqrt(values * (1.0 - values) / n), 1.0 / n)
    return IVEstimate(
        d=c.d,
        values=tuple(float(v) for v in values),
        std_errors=tuple(float(s) for s in ses),
        n_samples=n,
        seed=cfg.seed,
        face_hit_counts=tuple(int(x) for x in counts),
    )


def estimate_functionals(c: Cone, cfg: SampleConfig, funcs):
    """Means and standard errors of per-sample functionals f(face_dim, |p|^2).

    funcs maps names to vectorized callables; all functionals share the
    same sample stream, so differences of the returned means can be given
    exact per-sample standard errors by registering the difference itself.
    """
    return _functional_stats(_kernel_for(c), cfg, funcs, stream=0)


def _functional_stats(kern: ProjectionKernel, cfg: SampleConfig, funcs, stream: int):
    """The one loop from draws to functionals: {name: (mean, SE)} of each
    fn(face_dim, |p|^2) over cfg.n_samples draws of substream `stream`, the
    SE floored at 1/n."""
    sums = {k: 0.0 for k in funcs}
    sqs = {k: 0.0 for k in funcs}
    for idx, pn2 in _sample_faces(kern, cfg, stream, pnorm2=True):
        dims = kern.face_dims[idx]
        for k, fn in funcs.items():
            vals = fn(dims, pn2)
            sums[k] += float(vals.sum())
            sqs[k] += float((vals * vals).sum())
    n = cfg.n_samples
    out = {}
    for k in funcs:
        mean = sums[k] / n
        var = max(sqs[k] / n - mean * mean, 0.0)
        out[k] = (mean, max(math.sqrt(var / n), 1.0 / n))
    return out


# ---------------------------------------------------------------------------
# Closed forms


def exact_iv(c: Cone) -> IVExact | None:
    """Closed-form intrinsic volumes for recognized cone classes, or None.

    Recognized: linear subspaces; L + a recognized pointed part (its
    volumes shifted by dim L); coordinate products of recognized factors
    (`coordinate_factors`), which include every orthant up to signed
    permutation in R^d for d >= 2; rays and planar (2-dimensional pointed)
    cones by arc measure, provenance "planar-angle", which covers the
    orthant ±e_1 of R^1.  The class is closed under polarity, so there is
    no polar route: C°'s pointed part is the polar of C's pointed part K
    within span(K), and that polar of {0}, a ray, a planar cone or,
    factor by factor, a product of such is again one.
    """
    if c.is_subspace:
        vals = [Fraction(0)] * (c.d + 1)
        vals[c.dim] = Fraction(1)
        return IVExact(c.d, tuple(vals), "subspace")
    if c.lineality_dim > 0:
        _, pointed = canonical_decomposition(c)
        sub = exact_iv(pointed)
        if sub is None:
            return None
        vals = [Fraction(0)] * (c.d + 1)
        for k, v in enumerate(sub.values):
            if k + c.lineality_dim <= c.d and v != 0:
                vals[k + c.lineality_dim] = v
        return IVExact(c.d, tuple(vals), "product")
    parts = coordinate_factors(c)
    if len(parts) > 1:
        acc = (Fraction(1),)
        for _, factor in parts:
            sub = exact_iv(factor)
            if sub is None:
                return None
            acc = _convolve(acc, sub.values)
        return IVExact(c.d, tuple(acc), "product")
    if c.dim == 1 and c.is_pointed:
        # single ray: the degenerate arc
        vals = [Fraction(0)] * (c.d + 1)
        vals[0] = Fraction(1, 2)
        vals[1] = Fraction(1, 2)
        return IVExact(c.d, tuple(vals), "planar-angle")
    if c.dim == 2 and c.is_pointed:
        g1, g2 = c.generators
        num = sum(float(a) * float(b) for a, b in zip(g1, g2))
        n1 = math.sqrt(sum(float(a) ** 2 for a in g1))
        n2 = math.sqrt(sum(float(a) ** 2 for a in g2))
        theta = math.acos(max(-1.0, min(1.0, num / (n1 * n2))))
        v2 = theta / (2 * math.pi)
        vals = [0.0] * (c.d + 1)
        vals[0] = 0.5 - v2
        vals[1] = 0.5
        vals[2] = v2
        return IVExact(c.d, tuple(vals), "planar-angle")
    return None


def _convolve(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y == 0:
                continue
            out[i + j] = out[i + j] + x * y
    return tuple(out)


def iv_polynomial(v) -> tuple:
    """Coefficients (lowest degree first) of sum_k v_k t^k."""
    return tuple(v.values)


def statistical_dimension(v):
    """delta = sum_k k v_k; exact when the input is exact."""
    return sum(k * x for k, x in enumerate(v.values))


def statdim_mc(c: Cone, cfg: SampleConfig):
    """Mean squared norm of the projection of a Gaussian vector onto C.

    Returns (estimate, standard error); drawn from a substream independent
    of estimate_iv so the two routes can be compared in quadrature.
    """
    stats = _functional_stats(_kernel_for(c), cfg,
                              {"pn2": lambda dims, pn2: pn2}, stream=1)
    return stats["pn2"]


def grassmann_angles(v) -> tuple:
    """h_j = v_j + v_{j+2} + ...; a nonsingular linear image of v."""
    vals = list(v.values)
    d = len(vals) - 1
    return tuple(sum(vals[k] for k in range(j, d + 1, 2)) for j in range(d + 1))


# ---------------------------------------------------------------------------
# Angles


def tangent_cone(c: Cone, f: Face) -> Cone:
    """Drop the constraints of C not active on relint(F)."""
    if f.parent != c:
        raise ValueError("face does not belong to this cone")
    active = [c.inequalities[i] for i in sorted(f.active)]
    if not active and not c.equalities:
        return cone_from_inequalities([], c.d)
    return cone_from_inequalities(active, c.d, c.equalities)


def solid_angle(c: Cone, cfg: SampleConfig | None = None) -> float:
    val, _ = solid_angle_se(c, cfg)
    return val


def solid_angle_se(c: Cone, cfg: SampleConfig | None = None) -> tuple[float, float]:
    """alpha(C) = v_dim(C), exact when a closed form is recognized."""
    ex = exact_iv(c)
    if ex is not None:
        return float(ex.values[c.dim]), 0.0
    if cfg is None:
        raise ValueError("no closed form for this cone; a SampleConfig is required")
    est = estimate_iv(c, cfg)
    return est.values[c.dim], est.std_errors[c.dim]


def internal_angle(f: Face, c: Cone, cfg: SampleConfig | None = None) -> float:
    """beta(F, C) = alpha of the tangent cone of C at F."""
    return solid_angle(tangent_cone(c, f), cfg)


def external_angle(f: Face, c: Cone, cfg: SampleConfig | None = None) -> float:
    """gamma(F, C) = alpha of the normal face of C at F."""
    return solid_angle(normal_face(c, f).cone, cfg)


# ---------------------------------------------------------------------------
# Haar rotations


def haar_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix.

    QR of a Gaussian matrix with the sign of R's diagonal pushed into Q;
    without the sign correction the distribution is not Haar.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    g = rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    s = np.sign(np.diag(r))
    s[s == 0] = 1.0
    q = q * s
    err = np.linalg.norm(q.T @ q - np.eye(d))
    if err > 1e-10:
        raise ArithmeticError(f"QR produced a non-orthogonal matrix (|QtQ-I|={err:.2e})")
    return q
