"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import importlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT_DIR, "src"))

import run  # noqa: E402
from tracer import (OP, ROOT, Tracer, conevol_modules, layer_metrics,  # noqa: E402
                    layer_targets, self_times)
from workloads import WORKLOADS  # noqa: E402


# ---------------------------------------------------------------------------
# percentile rule


def test_tail_percentile_has_ten_samples_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(99) == 89
    assert run.tail_percentile(155) == 93
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(10) is None
    for n in range(11, 400):
        p = run.tail_percentile(n)
        values = list(range(n))
        at = run.percentile(values, p)
        assert sum(v > at for v in values) >= 10
        if p < 99:
            above = run.percentile(values, p + 1)
            assert sum(v > above for v in values) < 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([3.0], 90) == 3.0
    assert run.percentile([5, 1, 4, 2, 3], 50) == 3


def _pass(n_ops, digest="d", ok=True, output="out"):
    return {"setup_s": 1.0, "wall_s": 2.0, "probe_s": run.PROBE_NOMINAL_S,
            "peak_rss_mb": 50.0, "work": 10,
            "ops": [[0.001 * (i + 1), ok, f"{digest}{i}", run.PROBE_NOMINAL_S]
                    for i in range(n_ops)],
            "output_digest": output, "traced": False, "layers": None}


def test_end_to_end_refuses_fewer_than_100_operations():
    with pytest.raises(ValueError):
        run.end_to_end([_pass(49), _pass(50)])
    metrics = run.end_to_end([_pass(50), _pass(50)])
    assert metrics["op_p90_ms"] == pytest.approx(45.0)
    assert set(metrics) == set(run.UNITS)
    # a pass measured while the machine ran at half speed counts half its time
    slow = dict(_pass(50), setup_s=2.0, wall_s=4.0, probe_s=2 * run.PROBE_NOMINAL_S)
    slow["ops"] = [[2 * op[0], op[1], op[2], 2 * op[3]] for op in slow["ops"]]
    assert run.end_to_end([slow, slow]) == pytest.approx(metrics)


# ---------------------------------------------------------------------------
# fail_frac


def test_mismatched_output_hash_counts_as_failed():
    assert run.count_failures([_pass(3), _pass(3)]) == (6, 0)
    # one operation's output differs from the first pass
    second = _pass(3)
    second["ops"][1][2] = "other"
    assert run.count_failures([_pass(3), second]) == (6, 1)
    # the whole output differs: every operation of that pass fails
    assert run.count_failures([_pass(3), _pass(3, output="x")]) == (6, 3)
    # failed gates and missing operations
    assert run.count_failures([_pass(3), _pass(3, ok=False)]) == (6, 3)
    assert run.count_failures([_pass(3), _pass(2)]) == (6, 1)


# ---------------------------------------------------------------------------
# self time


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_with_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span(ROOT):            # 0 .. 10
        clock.t = 1.0
        with tr.span("a"):         # 1 .. 4
            clock.t = 2.0
            with tr.span("b"):     # 2 .. 3
                clock.t = 3.0
            clock.t = 4.0
        clock.t = 5.0
        with tr.span("a"):         # 5 .. 9
            clock.t = 9.0
        clock.t = 10.0
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 0]
    assert self_times(tr.spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_self_times_add_up_to_the_timed_section():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span(ROOT):
        clock.t = 1.0
        with tr.span(OP):
            clock.t = 2.0
            with tr.span("arrangement.regions_j"):
                clock.t = 5.0
                with tr.span("exactlin.rref"):
                    clock.t = 6.0
            clock.t = 7.0
        clock.t = 8.0
    m = layer_metrics(tr.spans)
    assert m["arrangement.regions_j.self_s"] == 3.0
    assert m["exactlin.rref.self_s"] == 1.0
    assert m["trace.glue_s"] == 4.0
    assert m["trace.wall_s"] == 8.0
    assert m["volumes.classify.calls"] == 0
    assert sum(v for k, v in m.items() if k.endswith("self_s")) + m["trace.glue_s"] == 8.0
    # a span that ends after its parent would hide time from the sum
    tr.spans[2][2] = 9.5
    with pytest.raises(ValueError):
        layer_metrics(tr.spans)


# ---------------------------------------------------------------------------
# wrappers


def _bindings():
    return {(m.__name__, k): v for m in conevol_modules() for k, v in vars(m).items()}


def test_wrappers_are_rebound_everywhere_and_restored():
    targets = layer_targets()
    volumes = importlib.import_module("conevol.volumes")
    ids = importlib.import_module("conevol.identities")
    before = _bindings()
    methods = (volumes.ProjectionKernel.__init__, volumes.ProjectionKernel.classify)
    tr = Tracer()
    with tr.installed(targets):
        # identities holds its own reference to face_lattice and estimate_iv
        assert ids.face_lattice is not before["conevol.identities", "face_lattice"]
        assert ids.estimate_iv is volumes.estimate_iv
        with tr.span(ROOT):
            ids.verify_euler(importlib.import_module("conevol.catalog").build_cones()[8][1])
    names = {s[0] for s in tr.spans}
    assert {"identities.verify", "cone.face_lattice", "catalog.build"} <= names
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())
    assert (volumes.ProjectionKernel.__init__, volumes.ProjectionKernel.classify) == methods

    # an untraced pass after a traced one sees only its operation spans
    plain = Tracer()
    with plain.installed(WORKLOADS["zaslavsky"][2]()):
        with plain.span(ROOT):
            ids.verify_euler(importlib.import_module("conevol.catalog").build_cones()[8][1])
    assert [s[0] for s in plain.spans] == [ROOT]


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit(m["name"])
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span(ROOT):
        clock.t = 1.0
    layers = dict(layer_metrics(tr.spans), **{"catalog.build_s": 0.1})
    names = set(run.per_layer([dict(_pass(1), traced=True, layers=layers),
                               _pass(1)]))
    assert [m["name"] for m in spec["per_layer"]] == sorted(names)
