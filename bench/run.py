"""conevol benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload suite --seed 1 --seconds 35 --trace 0

Runs passes of the workload until ``--seconds`` have passed (at least two
passes and 100 operations), each pass in a fresh interpreter
(``onepass.py``), one at a time: a closed loop with one client.  Prints one
``metric`` line per result and, last, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced passes so that it can report the tracing
overhead.  End-to-end timings are scaled to a reference machine speed that
each pass measures while it runs (see README.md).  Results are also
written to ``.bench_out/``.

Must be run from a source checkout: the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_PKG = os.path.join(ROOT_DIR, "src", "conevol")
ONEPASS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "onepass.py")
OUT_DIR = os.path.join(ROOT_DIR, ".bench_out")

WORKLOADS = ("suite", "zaslavsky", "sampling")
MIN_PASSES = 2  # the second pass checks that output is byte-identical
MIN_OPS = 100  # so that p90 has at least ten operations beyond it
RUN_LIMIT_S = 170  # a run must end within 180 s
# End-to-end timings are scaled to the speed at which the SpeedProbe loop of
# onepass.py takes this long, about the mean speed of the 2-vCPU VM the
# benchmark was defined on
PROBE_NOMINAL_S = 2e-4
# name of work_per_s on each workload
WORK_NAMES = {"suite": "checks_per_s", "zaslavsky": "regions_per_s",
              "sampling": "samples_per_s"}
UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "work_per_s": "1/s", "peak_rss_mb": "MB"}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".per_estimate")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Arithmetic


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    xs = sorted(values)
    return xs[max(math.ceil(p / 100 * len(xs)), 1) - 1]


def tail_percentile(n: int, beyond: int = 10):
    """Highest whole percentile that has at least ``beyond`` of n samples
    above its nearest rank, or None when there is none."""
    for p in range(99, 0, -1):
        if n - math.ceil(p / 100 * n) >= beyond:
            return p
    return None


def count_failures(passes) -> tuple[int, int]:
    """(attempted, failed) over all passes of one seed.

    An operation fails when its own gate failed, when its output digest
    differs from the same operation in the first pass, or when its pass's
    whole output differs from the first pass's.  Operations missing from
    a pass, compared with the first, count as attempted and failed.
    """
    ref = passes[0]
    attempted = failed = 0
    for p in passes:
        same_output = p["output_digest"] == ref["output_digest"]
        n = max(len(p["ops"]), len(ref["ops"]))
        attempted += n
        for i in range(n):
            if i >= len(p["ops"]) or i >= len(ref["ops"]):
                failed += 1
                continue
            _, ok, digest, _ = p["ops"][i]
            if not (ok and same_output and digest == ref["ops"][i][2]):
                failed += 1
    return attempted, failed


def speed(p) -> float:
    """Factor that scales a pass's timings to the reference speed."""
    return PROBE_NOMINAL_S / p["probe_s"]


def end_to_end(passes) -> dict[str, float]:
    """Medians over passes; op latency percentiles over all operations.

    Every timing is scaled to the reference speed: an operation's latency
    by the probes around it, a pass's times by all its probes.  Set-up, too
    short to probe, takes the speed of the timed section that follows it.
    """
    latencies = [op[0] * PROBE_NOMINAL_S / op[3] for p in passes for op in p["ops"]]
    if (tail_percentile(len(latencies)) or 0) < 90:
        raise ValueError(f"{len(latencies)} operations: p90 needs {MIN_OPS}")
    return {
        "setup_s": statistics.median(p["setup_s"] * speed(p) for p in passes),
        "wall_s": statistics.median(p["wall_s"] * speed(p) for p in passes),
        "op_p50_ms": 1000 * percentile(latencies, 50),
        "op_p90_ms": 1000 * percentile(latencies, 90),
        "work_per_s": statistics.median(p["work"] / (p["wall_s"] * speed(p))
                                        for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes) -> dict[str, float]:
    """The traced pass with the median timed section, whole, so that its
    self times still add up to its ``trace.wall_s``; plus traced over
    untraced median wall time at the reference speed."""
    traced = sorted((p for p in passes if p["traced"]), key=lambda p: p["wall_s"])
    plain = [p for p in passes if not p["traced"]]
    out = dict(traced[(len(traced) - 1) // 2]["layers"])
    out["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] * speed(p) for p in traced)
        / statistics.median(p["wall_s"] * speed(p) for p in plain))
    return out


# ---------------------------------------------------------------------------
# Passes


def run_pass(workload: str, seed: int, traced: bool, index: int, timeout: float) -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))  # BLAS threads capped at nproc
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    proc = subprocess.run(
        [sys.executable, ONEPASS, "--workload", workload, "--seed", str(seed),
         "--traced", str(int(traced)), "--index", str(index)],
        cwd=ROOT_DIR, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"pass {index} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    t0 = time.perf_counter()
    passes: list[dict] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        elapsed = time.perf_counter() - t0
        passes.append(run_pass(workload, seed, traced, len(passes),
                               max(RUN_LIMIT_S - elapsed, 1.0)))
        elapsed = time.perf_counter() - t0
        ops = sum(len(p["ops"]) for p in passes)
        # stop once another pass of average length would end after `seconds`
        if (len(passes) >= MIN_PASSES and ops >= MIN_OPS
                and elapsed * (1 + 1 / len(passes)) > seconds):
            return passes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC_PKG, "__init__.py")):
        print(f"error: no conevol sources at {SRC_PKG}", file=sys.stderr)
        return 2

    compileall.compile_dir(SRC_PKG, quiet=1)  # the build: bytecode for src/
    try:
        passes = run(args.workload, args.seed, args.seconds, bool(args.trace))
        metrics = per_layer(passes) if args.trace else end_to_end(passes)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = count_failures(passes)
    env = dict(passes[0]["env"], seed=args.seed, workload=args.workload,
               passes=len(passes), operations=attempted,
               per_pass=[{"traced": p["traced"], "setup_s": p["setup_s"],
                          "wall_s": p["wall_s"], "probe_s": p["probe_s"],
                          "ops": len(p["ops"])} for p in passes])
    print("env " + json.dumps(env, sort_keys=True))
    for note in sorted({n for p in passes for n in p["notes"]}):
        print(f"gate failed: {note}")
    for name, value in metrics.items():
        print(f"metric {args.workload} {name} {value!r} {unit(name)}")
    if not args.trace:
        print(f"metric {args.workload} {WORK_NAMES[args.workload]} "
              f"{metrics['work_per_s']!r} 1/s")
    print(f"metric {args.workload} fail_frac {failed / attempted!r} ratio")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(dict(result, env=env), fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
