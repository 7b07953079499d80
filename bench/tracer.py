"""Spans around the public functions of conevol's layers, recorded from outside.

No module of ``conevol`` is edited.  The package's modules import names with
``from .x import f``, so a wrapper is rebound in every ``conevol`` namespace
that holds the original object, and methods are replaced on their class.
``Tracer.installed`` restores every original when its block exits.

A span is ``[name, start, end, parent, info]``: ``parent`` is the index of the
enclosing span or -1, ``info`` is what the target's observer extracted from
the call (a work count, an output digest) or None.  Spans stay in memory
until the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import sys
import time
from collections import defaultdict

ROOT = "bench.timed"  # the span around a workload's timed section
OP = "bench.op"  # one operation issued by the benchmark itself


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.clock()
        return span

    def _close(self) -> None:
        end = self.clock()
        self.spans[self._stack.pop()][2] = end

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close()

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if observe is not None:
                span[4] = observe(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap each ``(span name, owner, attribute, observer)`` target
        for the duration of the block; originals are restored on exit."""
        try:
            for name, owner, attr, observe in targets:
                self._install(name, owner, attr, observe)
            yield self
        finally:
            for owner, attr, original in reversed(self._restore):
                setattr(owner, attr, original)
            self._restore.clear()

    def _install(self, name, owner, attr, observe) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, observe))
            return
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, observe)
        for mod in conevol_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)


def conevol_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "conevol" or n.startswith("conevol."))]


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its child spans.

    Spans come from one thread and nest properly, so children of one
    parent are disjoint and lie inside it.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Targets


def _report(args, result):
    return [result.status, digest(result.to_json())]


def _faces(args, result):
    return [len(result.faces), hash(args[0])]


def _classified(args, result):
    ok = result[2]
    return [int(ok.shape[0]), int(ok.sum())]


def _flats(args, result):
    return len(result.flats)


def _count(args, result):
    return len(result)


def _module(name: str):
    # conevol/__init__ rebinds the attribute ``arrangement`` to the
    # function of that name, so submodules are looked up by full name
    return importlib.import_module(f"conevol.{name}")


def verify_targets():
    """One span per ``identities.verify_*`` call: the suite's operations."""
    ids = _module("identities")
    return [("identities.verify", ids, attr, _report)
            for attr in sorted(vars(ids)) if attr.startswith("verify_")]


def layer_targets():
    exactlin, cone, volumes = _module("exactlin"), _module("cone"), _module("volumes")
    arr, ids, catalog, cli = (_module("arrangement"), _module("identities"),
                              _module("catalog"), _module("cli"))
    return verify_targets() + [
        ("exactlin.rref", exactlin, "rref", None),
        ("exactlin.kernel", exactlin, "kernel", None),
        ("exactlin.lp", exactlin, "lp_strictly_feasible", None),
        ("cone.construct", cone, "cone_from_inequalities", None),
        ("cone.construct", cone, "cone_from_generators", None),
        ("cone.face_lattice", cone, "face_lattice", _faces),
        ("cone.normal_face", cone, "normal_face", None),
        ("volumes.kernel_compile", volumes.ProjectionKernel, "__init__", None),
        ("volumes.classify", volumes.ProjectionKernel, "classify", _classified),
        ("volumes.estimate", volumes, "estimate_iv", None),
        ("volumes.estimate", volumes, "estimate_functionals", None),
        ("volumes.estimate", volumes, "statdim_mc", None),
        ("volumes.exact_iv", volumes, "exact_iv", None),
        ("arrangement.intersection_lattice", arr, "intersection_lattice", _flats),
        ("arrangement.chambers", arr, "chambers", _count),
        ("arrangement.regions_j", arr, "regions_j", _count),
        ("arrangement.level_char_poly", arr, "level_char_poly", None),
        ("arrangement.zaslavsky_count", arr, "zaslavsky_count", None),
        ("identities.run_suite", ids, "run_suite", None),
        ("catalog.build", catalog, "build_cones", None),
        ("catalog.build", catalog, "build_arrangements", None),
        ("cli.main", cli, "main", None),
    ]


# ---------------------------------------------------------------------------
# Per-layer metrics

# span kinds reported one to one, as <kind>.calls and <kind>.self_s
_LAYERS = (
    "exactlin.rref", "exactlin.kernel", "exactlin.lp",
    "cone.construct", "cone.face_lattice", "cone.normal_face",
    "volumes.kernel_compile", "volumes.classify", "volumes.estimate", "volumes.exact_iv",
    "arrangement.intersection_lattice", "arrangement.chambers", "arrangement.regions_j",
    "arrangement.level_char_poly", "arrangement.zaslavsky_count",
)
# span kinds whose self time is pooled into one glue metric
_GLUE = {
    "identities.verify": "identities.self_s",
    "identities.run_suite": "identities.self_s",
    "catalog.build": "catalog.self_s",
    "cli.main": "cli.self_s",
    ROOT: "trace.glue_s",
    OP: "trace.glue_s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and self times of one traced timed section.

    The self times, summed over every span kind, add up to the timed
    section's duration when each span lies inside its parent; raises if
    one does not.
    """
    if not spans or spans[0][0] != ROOT:
        raise ValueError("the first span must be the timed section")
    for name, start, end, parent, _ in spans[1:]:
        if not spans[parent][1] <= start <= end <= spans[parent][2]:
            raise ValueError(f"span {name!r} does not nest in its parent")
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    info: dict[str, list] = defaultdict(list)
    for span, s in zip(spans, self_times(spans)):
        name = span[0]
        if name not in _LAYERS and name not in _GLUE:
            raise ValueError(f"unknown span kind {name!r}")
        calls[name] += 1
        own[name] += s
        if span[4] is not None:
            info[name].append(span[4])
    wall = spans[0][2] - spans[0][1]
    out: dict[str, float] = {}
    for name in _LAYERS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = own[name]
    for name, metric in _GLUE.items():
        out[metric] = out.get(metric, 0.0) + own[name]
    out["identities.verify.calls"] = calls["identities.verify"]
    faces = info["cone.face_lattice"]
    out["cone.face_lattice.faces"] = sum(n for n, _ in faces)
    out["cone.face_lattice.distinct_ratio"] = _ratio(
        len({h for _, h in faces}), len(faces))
    estimates = calls["volumes.estimate"]
    out["volumes.kernel_compile.per_estimate"] = _ratio(
        calls["volumes.kernel_compile"], estimates)
    drawn = sum(n for n, _ in info["volumes.classify"])
    accepted = sum(k for _, k in info["volumes.classify"])
    out["volumes.classify.samples"] = drawn
    out["volumes.classify.samples_per_s"] = _ratio(drawn, own["volumes.classify"])
    out["volumes.classify.accept_ratio"] = _ratio(accepted, drawn)
    out["arrangement.intersection_lattice.flats"] = sum(
        info["arrangement.intersection_lattice"])
    out["arrangement.chambers.chambers"] = sum(info["arrangement.chambers"])
    out["arrangement.regions_j.regions"] = sum(info["arrangement.regions_j"])
    out["trace.wall_s"] = wall
    out["trace.spans"] = len(spans)
    return out
