"""Tests of the benchmark itself: streams, references and tracing.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import math
import sys

import pytest

import refs
import run
import streams
import tracer

N_BLOCKS = 64


def _points(workload, seed, blocks=N_BLOCKS):
    return [pt for b in range(blocks) for pt in streams.f1_block(seed, workload, b)]


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_stream_repeats_for_a_seed_and_differs_across_seeds(workload):
    a = streams.ops(workload, 5, 40)
    assert a == streams.ops(workload, 5, 40)
    assert a != streams.ops(workload, 6, 40)
    assert [op.index for op in a] == list(range(40))


@pytest.mark.parametrize("workload", streams.WORKLOADS)
def test_run_size_is_fixed_whole_units_of_the_mix(workload):
    n = streams.run_size(workload, 10)
    assert n == streams.run_size(workload, 10) and n % streams.UNITS[workload] == 0
    # about --seconds of work at the rate the benchmark was sized for
    assert abs(n / streams.RATES[workload] - 10) < streams.UNITS[workload] / streams.RATES[workload]
    assert streams.run_size(workload, 20) > n
    if workload in ("series", "integral"):
        assert streams.run_size(workload, 0.1) >= streams.PANEL_BLOCKS * streams.BLOCK
    else:
        assert streams.run_size(workload, 0.1) == streams.UNITS[workload]


@pytest.mark.parametrize("workload", ["series", "integral"])
def test_f1_stream_shares(workload):
    pts = _points(workload, 3)
    n = len(pts)
    p_abs = [abs(pt.p) for pt in pts]
    # log-uniform p on (0.25, 12): P(p > 5) = ln(12/5)/ln(48) = 0.226
    assert abs(sum(p > 5 for p in p_abs) / n - math.log(12 / 5) / math.log(48)) < 0.01
    assert all(streams.P_LO < p < streams.P_HI for p in p_abs)
    assert sum(pt.nu == int(pt.nu) for pt in pts) == n // 4
    assert sum(pt.p.imag != 0.0 for pt in pts) == n // 16
    assert all(abs(math.atan2(pt.p.imag, pt.p.real)) <= streams.ARG_P_MAX for pt in pts)
    assert all(0.0 <= pt.nu < streams.NU_MAX for pt in pts)
    assert all(0.5 < pt.b1 < 3.0 and 0.5 < pt.c1 - pt.b1 < 3.0 for pt in pts)
    lo, hi = streams.SERIES_XY if workload == "series" else streams.INTEGRAL_XY
    assert all(lo <= v <= hi for pt in pts for v in (pt.x, pt.y))


def test_integral_points_mostly_outside_series_disc():
    pts = _points("integral", 4)
    share = sum(abs(pt.x) > 0.9 or abs(pt.y) > 0.9 for pt in pts) / len(pts)
    # x, y uniform on (-4, 0.99): 1 - (1.8 / 4.99)^2 = 0.870
    assert abs(share - (1 - (1.8 / 4.99) ** 2)) < 0.03


def test_mellin_run_stays_in_the_suite_box_and_is_a_latin_hypercube():
    ops = streams.ops("mellin", 2, 24)
    pts = [op.point for op in ops]
    assert len(set(pts)) == 24
    for pt in pts:
        assert 0.25 < pt.p.real < 4.0 and pt.p.imag == 0.0
        assert 0.0 < pt.nu < 2.0
        assert max(abs(pt.x), abs(pt.y)) < 0.8
    assert [op.kind for op in ops[:8]] == (["forward"] * 3 + ["inverse"]) * 2
    forward = [op for op in ops if op.kind == "forward"]
    assert [op.s - op.point.nu for op in forward[:3]] == pytest.approx(list(streams.MELLIN_SHIFTS))
    # each kind's r^2, p and nu take one stratum each of the run
    for kind in ("forward", "inverse"):
        kpts = [op.point for op in ops if op.kind == kind]
        n = len(kpts)
        for u in ([max(abs(pt.x), abs(pt.y)) ** 2 / 0.64 for pt in kpts],
                  [(pt.p.real - 0.25) / 3.75 for pt in kpts],
                  [pt.nu / 2.0 for pt in kpts]):
            assert sorted(int(v * n) for v in u) == list(range(n))
        big = [pt.x if abs(pt.x) >= abs(pt.y) else pt.y for pt in kpts]
        assert sum(v > 0 for v in big) == (n + 1) // 2


@pytest.mark.parametrize("workload", ["series", "integral"])
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_panel_is_stratified_and_reaches_large_p(workload, seed):
    idx = streams.panel(workload, seed)
    head = streams.ops(workload, seed, streams.PANEL_BLOCKS * streams.BLOCK)
    pts = [head[i].point for i in idx]
    assert len(pts) == streams.PANEL_BANDS + 1
    assert sum(pt.p.imag != 0.0 for pt in pts) == 1
    assert any(pt.p.imag == 0.0 and pt.p.real > 5.0 for pt in pts)
    bands = sorted(streams.p_band(pt.p) for pt in pts if pt.p.imag == 0.0)
    assert bands == list(range(streams.PANEL_BANDS))


def test_reference_self_test():
    # includes: the pre-fix answer at the p = 10 pin misses by ~0.45, far
    # outside the panel tolerance, so the accuracy check can fail
    assert refs.self_test() == []
    assert run.PANEL_TOL < 0.4


def _namespaces():
    import extappell  # noqa: F401  (so that its modules are in sys.modules)

    return {(name, key): id(value)
            for name, mod in sorted(sys.modules.items())
            if mod is not None and name.startswith("extappell")
            for key, value in vars(mod).items()} | {
        ("kernel", "scaled_values"):
            id(sys.modules["extappell.extbeta"].ExtendedBetaKernel.scaled_values)}


@pytest.mark.parametrize("workload,count", [("series", 4), ("integral", 16), ("verify", 7)])
def test_traced_run_is_bit_identical_and_restores_every_name(workload, count):
    import extappell as ea

    before = _namespaces()
    t = tracer.Tracer()
    with t:
        assert _namespaces() != before
    assert _namespaces() == before
    plain, traced = run.replay(ea, streams.ops(workload, 9, count), t)
    assert _namespaces() == before
    assert run._values(traced) == run._values(plain)
    assert all(o.error is None for o in plain)

    metrics = tracer.layer_metrics(t)
    self_sum = sum(v for k, (v, _u) in metrics.items()
                   if k.endswith(".self_s")) + metrics["trace.unattributed_s"][0]
    assert self_sum == pytest.approx(metrics["trace.op_s"][0], rel=1e-9)
    assert metrics["trace.ops"][0] == count
    assert set(metrics) == {name for name, _u in tracer.metric_names()}


def test_tracer_restores_names_when_the_run_raises():
    before = _namespaces()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert _namespaces() == before


def test_benchmark_json_lists_the_reported_metrics():
    import json
    import os

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    out = run.Outcome(streams.ops("series", 0, 1)[0], 1.0, None, 0.0, 0.01, digits=12.0)
    e2e = run.end_to_end([out], [0.01], 0.2)
    assert [m["name"] for m in bench["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in bench["end_to_end"]] == [u for _v, u in e2e.values()]
    layer = tracer.metric_names() + [("trace.overhead", "ratio"), ("host.slowdown", "ratio")] + [
        (k, u) for k, (_v, u) in run.accuracy([out]).items()]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layer
    assert [w["name"] for w in bench["workloads"]] == list(streams.WORKLOADS)
