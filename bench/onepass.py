"""One pass of one workload in a fresh interpreter.

Run by ``run.py``; prints one JSON object on its last stdout line with the
pass's set-up time, timed section, operations, the machine's speed during
the timed section and, for a traced pass, the per-layer metrics.  A traced
pass also writes its spans to
``.bench_out/spans-<workload>-seed<seed>-pass<index>.jsonl``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import signal
import sys
import time

T0 = time.perf_counter()

ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT_DIR, "src")
OUT_DIR = os.path.join(ROOT_DIR, ".bench_out")


PROBE_PERIOD_S = 0.05
PROBE_LOOPS = 2000  # about 0.2 ms of pure Python: 0.4% of the timed section
PROBE_WINDOW_S = 0.5  # an operation's speed: probes within this of its span


class SpeedProbe:
    """Times a fixed pure-Python loop every PROBE_PERIOD_S of the block.

    The machine's speed drifts with other tenants' load by tens of percent
    over tens of seconds, and switches speed every few seconds.  The loop's
    mean time over the same interval as some work measures the speed the
    work ran at, so its timings can be scaled to a fixed reference speed.
    The loop runs from a SIGALRM handler on the main thread, between
    bytecodes, so it samples the whole block evenly.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _tick(self, signum, frame):
        t = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc = (acc * 31 + i) % 1_000_003
        self.samples.append((t, time.perf_counter() - t))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Mean loop time over probes taken from ``start`` to ``end``, or
        over all probes when there were none then."""
        if not self.samples:
            self._tick(None, None)
        got = [d for t, d in self.samples if start <= t <= end] or [
            d for _, d in self.samples]
        return sum(got) / len(got)


def _blas_threads(numpy):
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(numpy),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "host": platform.node(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--traced", type=int, choices=(0, 1), required=True)
    p.add_argument("--index", type=int, required=True)
    args = p.parse_args(argv)

    sys.path.insert(0, SRC)
    import conevol

    if os.path.dirname(os.path.dirname(os.path.abspath(conevol.__file__))) != SRC:
        raise SystemExit(f"imported conevol from {conevol.__file__}, not {SRC}")

    from tracer import ROOT, Tracer, layer_metrics, layer_targets
    from workloads import WORKLOADS

    setup, run, op_targets = WORKLOADS[args.workload]
    inputs, catalog_s = setup(args.seed)
    setup_s = time.perf_counter() - T0

    tracer = Tracer()
    targets = layer_targets() if args.traced else op_targets()
    with tracer.installed(targets), SpeedProbe() as probe:
        with tracer.span(ROOT) as root:
            outcome = run(tracer, inputs)
    wall_s = root[2] - root[1]
    ops = [[end - start, ok, digest,
            probe.mean(start - PROBE_WINDOW_S, end + PROBE_WINDOW_S)]
           for start, end, ok, digest in outcome.ops]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if args.traced:
        layers = layer_metrics(tracer.spans)
        layers["catalog.build_s"] = catalog_s
        os.makedirs(OUT_DIR, exist_ok=True)
        name = f"spans-{args.workload}-seed{args.seed}-pass{args.index}.jsonl"
        with open(os.path.join(OUT_DIR, name), "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print(json.dumps({
        "traced": bool(args.traced),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probe_s": probe.mean(),
        "peak_rss_mb": peak_rss_mb,
        "work": outcome.work,
        "ops": ops,
        "output_digest": outcome.output_digest,
        "notes": outcome.notes,
        "layers": layers,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
