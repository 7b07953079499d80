"""Calibrate the suite's z-scores: do they behave like their reference law?

    PYTHONPATH=src python tools/calibrate.py --seeds 60 --samples 5000
    PYTHONPATH=src python tools/calibrate.py --seeds 150 --samples 20000

Runs `run_suite(SampleConfig(samples, seed=s))` for seeds 1000 .. 1000 +
seeds - 1 and pools the z-score of every statistical report by identity
(the name before any "[...]") and by m, the report's `comparisons`: the
number of z-scores its z is the largest of.  For each it prints the number
of z-scores, E|z|, the rms, the maximum and the fraction above the
tolerance, each beside its reference under correct code, the maximum of m
independent |N(0,1)| (m = 1: E 0.798, rms 1, P(z > 4) 6.3e-5).  The m
points of klivans-swartz, hug-schneider and steiner-mgf are dependent, so
their moments lie between those of a single z and the reference.

The reference for the maximum is the median of the largest of all the
identity's z-scores.  An overstated standard error pulls E|z| and rms below
the reference; a biased estimator pushes them above it.  A report with no
comparisons (McMullen on cones whose angles all have closed forms) or whose
z is exactly 0 (gauss-bonnet on a subspace or on the zero cone) carries no
sampled information, so it is left out of the moments and of the per-seed
reference; the column "z=0" counts the reports left out per identity.  An
identity whose z is 0, up to rounding, on every report has a closed form on
both sides and is marked as such.  Last come the seeds with a failed report,
and the per-seed failure rate beside its reference, 1 - prod P(z <= tol)
over one seed's reports that are not left out, each the largest of its m.

Exits 1 when any seed has a failed report or a z that is not finite, and 0
otherwise: a fixed-seed gate, so a failing seed is reported, not re-drawn;
the moments are for reading.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import defaultdict

from conevol.identities import run_suite
from conevol.volumes import SampleConfig

_FIRST_SEED = 1000


def _cdf(x: float, m: int) -> float:
    """P(max of m |N(0,1)| <= x)."""
    return math.erf(x / math.sqrt(2)) ** m


def reference(m: int, n: int, tol: float) -> tuple[float, float, float, float]:
    """(E z, rms, median of the largest of n, P(z > tol)) for z the
    maximum of m |N(0,1)|."""
    h, top = 1e-3, 12.0
    mean = second = 0.0
    for i in range(int(top / h)):
        x = (i + 0.5) * h
        tail = 1.0 - _cdf(x, m)
        mean += tail * h
        second += 2 * x * tail * h
    lo, hi = 0.0, top  # the largest of n: F(x)^(m n) = 1/2
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _cdf(mid, m * n) < 0.5 else (lo, mid)
    return mean, math.sqrt(second), lo, 1.0 - _cdf(tol, m)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=60, help="number of suite seeds")
    p.add_argument("--samples", type=int, default=5000, help="samples per estimate")
    args = p.parse_args(argv)
    if args.seeds < 1:
        p.error("--seeds must be positive")

    zs = defaultdict(list)  # (identity, m) -> z per report
    zeros = defaultdict(int)  # (identity, m) -> reports left out, z exactly 0
    failed = []  # (seed, failing identities)
    per_seed_ok = None  # P(no z above tol) of one seed's reports, reference
    tol = SampleConfig().tolerance_sigmas
    for seed in range(_FIRST_SEED, _FIRST_SEED + args.seeds):
        cfg = SampleConfig(args.samples, seed=seed)
        reports = [r for r in run_suite(cfg) if r.n_samples]
        ok = 1.0
        for r in reports:
            key = r.identity.split("[")[0], r.comparisons
            if r.comparisons == 0 or r.residual_or_z == 0.0:
                zeros[key] += 1
                continue
            zs[key].append(r.residual_or_z)
            ok *= _cdf(tol, r.comparisons)
        per_seed_ok = ok
        bad = [r.identity for r in reports if r.status != "pass"]
        if bad:
            failed.append((seed, bad))

    print(f"{args.seeds} seeds from {_FIRST_SEED}, {args.samples} samples; "
          f"reference in parentheses")
    print(f"{'identity':<26} {'m':>2} {'n':>5} {'z=0':>5}  {'E|z|':>13}  {'rms':>13}  "
          f"{'max':>13}  {'P(z>' + format(tol, 'g') + ')':>17}")
    broken = 0
    for name, m in sorted(set(zs) | set(zeros)):
        z = zs[name, m]
        head = f"{name:<26} {m:>2} {len(z):>5} {zeros[name, m]:>5}  "
        if not all(map(math.isfinite, z)):
            broken += 1
            print(f"{head}non-finite z")
            continue
        if not z or max(z) < 1e-9:
            print(f"{head}z ~ 0 on every report (closed forms)")
            continue
        e, rms, top, tail = reference(m, len(z), tol)
        over = sum(x > tol for x in z) / len(z)
        print(f"{head}"
              f"{sum(z) / len(z):5.3f} ({e:5.3f})  "
              f"{math.sqrt(sum(x * x for x in z) / len(z)):5.3f} ({rms:5.3f})  "
              f"{max(z):5.2f} ({top:5.2f})  {over:7.5f} ({tail:7.5f})")
    print(f"failing seeds: {len(failed)} of {args.seeds} "
          f"({len(failed) / args.seeds:.4f}; reference {1.0 - per_seed_ok:.4f})")
    for seed, bad in failed:
        print(f"  seed {seed}: {', '.join(bad)}")
    return 1 if broken or failed else 0


if __name__ == "__main__":
    sys.exit(main())
