"""The three benchmark workloads: inputs from a seed, the timed section, gates.

Each workload has ``setup(seed) -> (inputs, catalog_build_s)``,
``run(tracer, inputs) -> Outcome`` and the tracer targets that mark its
operations in an untraced pass.  The timed section calls conevol only
through module attributes, so wrappers installed by the tracer see every
call.  An operation is one ``identities.verify_*`` call (suite), one
(arrangement, j) check (zaslavsky) or one estimator call (sampling).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import time
import traceback
from dataclasses import dataclass, field

from tracer import OP, digest, verify_targets

SUITE_SAMPLES = 20_000
SIGMAS = 4.0
SAMPLING_CONES = ("orthant-6d", "cross-cone-4d", "orthant-4d",
                  "square-cone-3d", "braid-chamber-3d")
SAMPLING_BUDGET = 32_768  # two full classify batches per call
SAMPLING_ROUNDS = 5
WORKERS_CONE = "orthant-4d"  # the one call with workers > 1
# reflection families (family, largest d); every d from 2 up is included
FAMILIES = (("braid", 5), ("bc", 4), ("d", 4))
CHAMBERS = {"braid:5": 120, "bc:4": 384}  # known chamber counts, checked too
# one seeded generic arrangement (n, d) and one with a planted dependency:
# few enough that the seed moves neither wall time nor which operation sits
# at p50 and p90; two passes bring a run past 100 operations
GENERIC = (5, 4)
PLANTED = (6, 4)


@dataclass
class Outcome:
    ops: list = field(default_factory=list)  # [start, end, ok, digest] per op
    output_digest: str = ""
    work: int = 0  # reports (suite), regions (zaslavsky), accepted draws (sampling)
    notes: list = field(default_factory=list)  # failed gates, human readable


def _mod(name: str):
    return importlib.import_module(f"conevol.{name}")


def _build_catalog():
    catalog = _mod("catalog")
    t0 = time.perf_counter()
    cones = catalog.build_cones()
    arrs = catalog.build_arrangements()
    return cones, arrs, time.perf_counter() - t0


def _timed_op(tracer, fn):
    """Run fn as one operation; returns (its span, result or None)."""
    with tracer.span(OP) as span:
        try:
            result = fn()
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            result = None
    return span, result


# ---------------------------------------------------------------------------
# suite: the `conevol suite` command, in-process


def setup_suite(seed: int):
    _mod("cli")
    _, _, catalog_s = _build_catalog()
    argv = ["suite", "--samples", str(SUITE_SAMPLES), "--seed", str(seed)]
    return argv, catalog_s


def run_suite(tracer, argv) -> Outcome:
    cli = _mod("cli")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except Exception as exc:  # counted as failed operations below
            traceback.print_exc()
            code = repr(exc)
    text = out.getvalue()
    res = Outcome(output_digest=digest(text))
    payload = json.loads(text) if code in (0, 1) else {"reports": [], "n_fail": -1}
    reports = payload["reports"]
    res.work = len(reports)
    gates_ok = (code == 0 and payload["n_fail"] == 0
                and sum(r["status"] == "pass" for r in reports) == len(reports))
    if not gates_ok:
        res.notes.append(f"suite exit {code}, "
                         f"{[r['identity'] for r in reports if r['status'] != 'pass']}")
    for span in _outermost(tracer.spans, "identities.verify"):
        status, report_digest = span[4] or ("raised", "")
        res.ops.append([span[1], span[2], gates_ok and status == "pass", report_digest])
    return res


def _outermost(spans, name):
    for span in spans:
        if span[0] != name:
            continue
        p = span[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            yield span


# ---------------------------------------------------------------------------
# zaslavsky: exact region enumeration against the characteristic polynomial


def _planted(rng: random.Random, n: int, d: int):
    """n - 1 random normals plus the sum of the first two: a planted
    codimension-2 dependency among three hyperplanes."""
    rows = []
    while len(rows) < n - 1:
        row = [rng.randint(-9, 9) for _ in range(d)]
        if any(row):
            rows.append(row)
    rows.append([x + y for x, y in zip(rows[0], rows[1])])
    return rows


def setup_zaslavsky(seed: int):
    arr = _mod("arrangement")
    _, _, catalog_s = _build_catalog()
    rng = random.Random(seed)
    inputs = [(f"{fam}:{d}", arr.named_family(fam, d))
              for fam, dmax in FAMILIES for d in range(2, dmax + 1)]
    n, d = GENERIC
    s = rng.randrange(2**31)
    inputs.append((f"generic:n={n},d={d},seed={s}",
                   arr.named_family("generic", d, n=n, seed=s)))
    n, d = PLANTED
    rows = _planted(rng, n, d)
    inputs.append((f"planted:{rows}", arr.arrangement(rows, d)))
    return inputs, catalog_s


def run_zaslavsky(tracer, inputs) -> Outcome:
    arr = _mod("arrangement")
    res = Outcome()
    out = []
    for name, a in inputs:
        lat = arr.intersection_lattice(a)
        for j in range(a.d + 1):
            def check(j=j):
                regs = arr.regions_j(a, j, lat)
                return regs, arr.zaslavsky_count(a, j, lat)

            span, got = _timed_op(tracer, check)
            if got is None:
                res.ops.append([span[1], span[2], False, ""])
                res.notes.append(f"{name} j={j} raised")
                continue
            regs, predicted = got
            ok = len(regs) == predicted
            if j == a.d and name in CHAMBERS:
                ok = ok and len(regs) == CHAMBERS[name]
            if not ok:
                res.notes.append(f"{name} j={j}: {len(regs)} regions, "
                                 f"zaslavsky {predicted}")
            signs = [r.sign_vector for r in regs]
            res.ops.append([span[1], span[2], ok, digest([name, j, predicted, signs])])
            res.work += len(regs)
            out.append(res.ops[-1][3])
    res.output_digest = digest(out)
    return res


# ---------------------------------------------------------------------------
# sampling: Monte Carlo on a few cones, kernels compiled once per pass


def _statdim(dims, pn2):
    return pn2


def _alternating(dims, pn2):
    return 1.0 - 2.0 * (dims % 2)


FUNCTIONALS = {"statdim": _statdim, "alt": _alternating}


def setup_sampling(seed: int):
    cones, _, catalog_s = _build_catalog()
    named = dict(cones)
    return (seed, [(name, named[name]) for name in SAMPLING_CONES]), catalog_s


def _pooled(values, ses):
    m = len(values)
    return sum(values) / m, math.sqrt(sum(s * s for s in ses)) / m


def _within(name: str, what: str, est: float, se: float, ref: float, notes) -> bool:
    z = abs(est - ref) / se
    if z > SIGMAS:
        notes.append(f"{name} {what}: {est!r} vs {ref!r}, z = {z:.2f}")
    return z <= SIGMAS


def _check_iv(name, cone, ests, notes) -> bool:
    """Pooled intrinsic volumes against the closed form where one is
    recognised, else the alternating sum against 0 (Gauss-Bonnet)."""
    volumes = _mod("volumes")
    exact = volumes.exact_iv(cone)
    if exact is not None:
        return all([
            _within(name, f"v_{k}", *_pooled([e.values[k] for e in ests],
                                             [e.std_errors[k] for e in ests]),
                    float(exact.values[k]), notes)
            for k in range(cone.d + 1)])
    alts, ses = [], []
    for e in ests:
        a = sum((-1) ** k * v for k, v in enumerate(e.values))
        alts.append(a)
        ses.append(max(math.sqrt(max(1.0 - a * a, 0.0) / e.n_samples),
                       1.0 / e.n_samples))
    return _within(name, "alternating sum", *_pooled(alts, ses), 0.0, notes)


def _check_functionals(name, cone, outs, notes) -> bool:
    """Alternating face-dimension sign has mean 0 (Gauss-Bonnet); the mean
    squared projection norm equals the exact statistical dimension where a
    closed form is recognised."""
    volumes = _mod("volumes")
    ok = _within(name, "mean (-1)^dim", *_pooled(*zip(*(o["alt"] for o in outs))),
                 0.0, notes)
    exact = volumes.exact_iv(cone)
    if exact is not None:
        delta = float(sum(k * v for k, v in enumerate(exact.values)))
        ok = _within(name, "E|P(g)|^2", *_pooled(*zip(*(o["statdim"] for o in outs))),
                     delta, notes) and ok
    return ok


def run_sampling(tracer, inputs) -> Outcome:
    volumes = _mod("volumes")
    seed, cones = inputs
    res = Outcome()
    calls = []  # (cone index, kind, span, result)
    for r in range(SAMPLING_ROUNDS):
        for i, (_, c) in enumerate(cones):
            base = seed * 1000 + 10 * r + 2 * i
            cfg = volumes.SampleConfig(n_samples=SAMPLING_BUDGET, seed=base)
            calls.append((i, "iv") + _timed_op(tracer, lambda: volumes.estimate_iv(c, cfg)))
            cfg = volumes.SampleConfig(n_samples=SAMPLING_BUDGET, seed=base + 1)
            calls.append((i, "fn") + _timed_op(
                tracer, lambda: volumes.estimate_functionals(c, cfg, FUNCTIONALS)))
    i = SAMPLING_CONES.index(WORKERS_CONE)
    cfg = volumes.SampleConfig(n_samples=SAMPLING_BUDGET, seed=seed * 1000 + 999, workers=2)
    calls.append((i, "iv") + _timed_op(tracer, lambda: volumes.estimate_iv(cones[i][1], cfg)))

    gate = {}
    for i, (name, c) in enumerate(cones):
        for kind, check in (("iv", _check_iv), ("fn", _check_functionals)):
            got = [out for j, k, _, out in calls if j == i and k == kind]
            gate[i, kind] = None not in got and check(name, c, got, res.notes)
    out = []
    for i, kind, span, result in calls:
        if result is None:
            res.notes.append(f"{cones[i][0]} {kind} raised")
            res.ops.append([span[1], span[2], False, ""])
            continue
        payload = result.to_json() if kind == "iv" else result
        res.ops.append([span[1], span[2], gate[i, kind], digest(payload)])
        res.work += SAMPLING_BUDGET
        out.append(res.ops[-1][3])
    res.output_digest = digest(out)
    return res


def _no_targets():
    return []  # operations are timed by the benchmark itself (OP spans)


WORKLOADS = {
    "suite": (setup_suite, run_suite, verify_targets),
    "zaslavsky": (setup_zaslavsky, run_zaslavsky, _no_targets),
    "sampling": (setup_sampling, run_sampling, _no_targets),
}
