#!/usr/bin/env python3
"""Benchmark of the extappell package: one workload, one seed, one run.

    python3 perfbench/run.py --workload {series,integral,mellin,verify}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a source tree; the package is imported from
``src/``.  The run is a closed loop in one process and one thread: the
next op starts when the last one returns.  It executes a fixed list of
ops from ``streams.py``, seeded and sized to take about ``--seconds`` at
the speed the package had when the benchmark was added, so that runs of
the same code attempt the same ops however fast the machine is; the
package sees only the generated inputs.  Timings are reported at the
reference host speed of ``speed.py``.  Every answer is checked,
untimed, between and after the timed slices (see README.md), and the
last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced replay of the same ops with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from scipy.special import betainc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, ".out")

sys.path[:0] = [HERE, SRC]

import refs  # noqa: E402
import speed  # noqa: E402
import streams  # noqa: E402

PANEL_TOL = 1e-8  # series / integral ops against mpmath
CROSS_TOL = 1e-8  # series / integral ops against the transformation identity
FORWARD_TOL = 1e-6  # Mellin forward ops against the mpmath closed form
INVERSE_TOL = 1e-5  # Mellin inverse ops against the mpmath F_{1,p,nu}
SLICES = 8  # timed slices per run, each preceded by a pause
PAUSE_S = 0.5
REPLAY_CHUNKS = 16  # alternations of untraced and traced replay
SPEED_EVERY_S = 0.025  # op time between host speed samples in a slice

# the warm-up op: the series route at the baseline point of the ROADMAP
WARMUP = ("ea.f1pv_series(ea.ExtendedAppellInput(ea.AppellParams(1.2, 0.5, -0.7, 3.1, 0.4, -0.3),"
          " ea.ExtensionParams(1.5, 0.7)))")
_SETUP_CHILD = f"""
import time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import extappell as ea
{WARMUP}
print(t1 - t0, time.perf_counter() - t0)
"""


@dataclass
class Outcome:
    """One executed op: its value or error, latency, and check verdict."""

    op: streams.Op
    value: object
    error: str | None
    start: float  # perf_counter() when the op began
    latency: float  # measured seconds
    digits: float | None = None
    failed: bool = False
    gross: bool = False  # raised, non-finite, or no digit right against mpmath


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=streams.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (args.seed >= 0 and args.seconds > 0):
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_sample() -> tuple[float, float]:
    """Seconds to import extappell and run one warm-up op, in a fresh
    interpreter (its start-up excluded), as measured and at reference
    speed (see ``speed.import_slowdown``)."""
    res = subprocess.run([sys.executable, "-c", _SETUP_CHILD], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120, check=True)
    numpy_s, total_s = map(float, res.stdout.strip().splitlines()[-1].split())
    return total_s, total_s / speed.import_slowdown(numpy_s)


# -- ops -------------------------------------------------------------------

def _input(ea, pt: streams.Point):
    return ea.ExtendedAppellInput(ea.AppellParams(pt.b1, pt.b2, pt.b3, pt.c1, pt.x, pt.y),
                                  ea.ExtensionParams(pt.p, pt.nu))


def make_call(ea, op: streams.Op):
    """A no-argument callable performing ``op`` through the package API.

    Input objects are built here, before the op is timed.  Calls look up
    the ``ea`` namespace when they run, so a traced run sees its wrappers.
    """
    if op.kind == "suite":
        return lambda: ea.run_suite(op.suite, 1, op.suite_seed)
    pt = op.point
    if op.kind == "series":
        inp = _input(ea, pt)
        return lambda: ea.f1pv_series(inp)
    if op.kind == "integral":
        inp = _input(ea, pt)
        return lambda: ea.f1pv_integral(inp)
    appell = ea.AppellParams(pt.b1, pt.b2, pt.b3, pt.c1, pt.x, pt.y)
    if op.kind == "forward":
        return lambda: ea.mellin_forward_numeric(appell, pt.nu, op.s)
    return lambda: ea.mellin_inverse_numeric(appell, pt.nu, pt.p.real)


def execute(ea, op: streams.Op, tracer=None) -> Outcome:
    """Run one op, timed; with ``tracer``, as the root span of the op."""
    call = untraced = make_call(ea, op)
    if tracer is not None:
        call = lambda: tracer.op(op.index, untraced)  # noqa: E731
    t0 = perf_counter()
    try:
        value, error = call(), None
    except Exception as exc:  # an op failure is a result, not a crash
        value, error = None, f"{type(exc).__name__}: {exc}"
    return Outcome(op, value, error, t0, perf_counter() - t0)


def run_ops(ea, ops: list[streams.Op], pause, host: speed.Speed) -> list[Outcome]:
    """Closed loop over ``ops``, cut into SLICES slices of equal op count
    with ``pause(outcomes, first)`` before each.  ``host`` is sampled at
    the start of a slice and after every SPEED_EVERY_S of op time, in
    proportion to the op time since its last sample."""
    outcomes: list[Outcome] = []
    for k in range(SLICES):
        chunk = ops[k * len(ops) // SLICES:(k + 1) * len(ops) // SLICES]
        pause(outcomes, first=k == 0)
        host.sample()
        op_s = 0.0
        for op in chunk:
            outcomes.append(execute(ea, op))
            op_s += outcomes[-1].latency
            if op_s >= SPEED_EVERY_S:
                host.sample(op_s)
                op_s = 0.0
    return outcomes


def replay(ea, ops: list[streams.Op], tracer) -> tuple[list[Outcome], list[Outcome]]:
    """Run ``ops`` once untraced and once traced, alternating the order
    over REPLAY_CHUNKS chunks so that machine drift cancels out of the
    tracing overhead.  Returns (untraced, traced) outcomes."""
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    size = max(1, len(ops) // REPLAY_CHUNKS)
    for i in range(0, len(ops), size):
        chunk = ops[i:i + size]
        for use_tracer in (False, True) if (i // size) % 2 == 0 else (True, False):
            if use_tracer:
                with tracer:
                    traced += [execute(ea, op, tracer) for op in chunk]
            else:
                plain += [execute(ea, op) for op in chunk]
    return plain, traced


class Pause:
    """Untimed work between timed slices, stretched to at least PAUSE_S.

    Each pause takes one set-up sample and, after the first slice,
    checks ops run so far until PAUSE_S has passed; what is left is
    checked after the last slice.  Set-up samples are thus spread over
    the run.
    """

    def __init__(self, checker):
        self.checker = checker
        self.setup_samples: list[tuple[float, float]] = []  # measured, scaled

    def __call__(self, outcomes: list[Outcome], first: bool = False) -> None:
        start = perf_counter()
        self.setup_samples.append(setup_sample())
        if not first:
            self.checker(outcomes, deadline=start + PAUSE_S)
            time.sleep(max(0.0, PAUSE_S - (perf_counter() - start)))


# -- checks ----------------------------------------------------------------

def _finite(v) -> bool:
    v = complex(v)
    return math.isfinite(v.real) and math.isfinite(v.imag)


def _judge(out: Outcome, ref, tol, independent: bool) -> None:
    """Verdict against ``ref``; no correct digit is a gross error only
    when the reference is independent of the package (mpmath)."""
    if not _finite(out.value):
        out.failed = out.gross = True
        return
    if not _finite(ref) or ref == 0:
        out.failed, out.gross = True, independent
        return
    err = refs.rel_err(out.value, ref)
    out.failed = err > tol
    out.gross = independent and not err < 1.0
    out.digits = refs.digits(err)


class Checker:
    """Judges outcomes against references, incrementally and untimed."""

    def __init__(self, ea, workload: str, seed: int):
        self.ea = ea
        self.cache = refs.RefCache(workload, seed)
        self.panel = (set(streams.panel(workload, seed))
                      if workload in ("series", "integral") else set())
        self.done = 0

    def __call__(self, outcomes: list[Outcome], deadline: float = math.inf) -> None:
        """Judge, in order, the outcomes not judged yet, stopping once
        ``perf_counter()`` passes ``deadline``; persist new references."""
        try:
            while self.done < len(outcomes) and perf_counter() < deadline:
                self._judge_one(outcomes[self.done])
                self.done += 1
        finally:
            self.cache.save()

    def _f_ref(self, pt: streams.Point) -> complex:
        return self.cache.get(f"f {pt.key()}", lambda: refs.f1pv_reference(
            pt.b1, pt.b2, pt.b3, pt.c1, pt.x, pt.y, pt.p, pt.nu))

    def _judge_one(self, out: Outcome) -> None:
        if out.error is not None:
            out.failed = out.gross = True
            return
        op, pt = out.op, out.op.point
        if op.kind == "suite":
            checked = [r for r in out.value if r.status != "skipped"]
            out.failed = any(r.status == "fail" for r in checked)
            out.gross = any(not math.isfinite(r.rel_err) for r in checked)
            out.digits = min((refs.digits(r.rel_err) for r in checked), default=None)
        elif op.kind == "forward":
            ref = self.cache.get(f"fwd {pt.key()} {op.s!r}", lambda: refs.mellin_reference(
                pt.b1, pt.b2, pt.b3, pt.c1, pt.x, pt.y, pt.nu, op.s))
            _judge(out, ref, FORWARD_TOL, independent=True)
        elif op.kind == "inverse":
            _judge(out, self._f_ref(pt), INVERSE_TOL, independent=True)
        elif op.index in self.panel:
            _judge(out, self._f_ref(pt), PANEL_TOL, independent=True)
        else:
            try:
                ref = self.ea.f1pv_transform(_input(self.ea, pt))
            except Exception:  # the identity's side failed: op unverified
                out.failed = True
                return
            _judge(out, ref, CROSS_TOL, independent=False)


def _values(outcomes: list[Outcome]) -> list:
    """Comparable results: exact complex values, or suite record fields."""
    vals = []
    for out in outcomes:
        if out.op.kind == "suite" and out.error is None:
            vals.append([(r.lhs, r.rhs, r.rel_err, r.status) for r in out.value])
        else:
            vals.append(out.value if out.error is None else out.error)
    return vals


# -- metrics ---------------------------------------------------------------

def end_to_end(outcomes: list[Outcome], lat_s: list[float], setup_s: float) -> dict:
    """The end-to-end metrics, as name -> (value, unit), from per-op
    latencies ``lat_s`` (seconds)."""
    lat_ms = [v * 1e3 for v in lat_s]
    return {
        "ops_per_s": (len(lat_s) / sum(lat_s), "1/s"),
        "op_p50_ms": (median_hd(lat_ms), "ms"),
        "digits_p50": (median_hd(_digits(outcomes)), "digits"),
        "setup_s": (setup_s, "s"),
    }


def median_hd(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: a Beta((n+1)/2, (n+1)/2)
    weighted mean of the order statistics.  A run's latencies are few
    (a dozen Mellin ops) and clustered by the quadrature levels an op
    needs, so the sample median jumps between clusters from one seed to
    the next; this estimate moves smoothly and equals the sample median
    in the limit of many ops."""
    x = np.sort(np.asarray(values, dtype=float))
    a = (len(x) + 1) / 2.0
    w = np.diff(betainc(a, a, np.linspace(0.0, 1.0, len(x) + 1)))
    return float(w @ x)


def accuracy(outcomes: list[Outcome]) -> dict:
    """Failure share and worst digits: reported, but too seed-dependent
    (or zero) to carry a regression bound; see README.md."""
    return {
        "accuracy.fail_frac": (sum(o.failed for o in outcomes) / len(outcomes), "ratio"),
        "accuracy.digits_min": (min(_digits(outcomes)), "digits"),
    }


def _digits(outcomes: list[Outcome]) -> list[float]:
    return [o.digits for o in outcomes if o.digits is not None]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "extappell", "__init__.py")):
        print(f"error: no package source at {SRC}/extappell", file=sys.stderr)
        return 2
    import extappell as ea

    exec(WARMUP, {"ea": ea})  # the same op the set-up samples time
    checker = Checker(ea, args.workload, args.seed)
    host = speed.Speed()
    pause = Pause(checker)
    ops = streams.ops(args.workload, args.seed, streams.run_size(args.workload, args.seconds))
    outcomes = run_ops(ea, ops, pause, host)
    raw = [o.latency for o in outcomes]
    factors = host.local_slowdowns([(o.start, o.start + o.latency) for o in outcomes])
    slowdown = host.slowdown()
    correct = True
    if args.trace:
        import tracer as tr

        t = tr.Tracer()
        plain, traced = replay(ea, [o.op for o in outcomes], t)
        t.write(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.npz"))
        correct = _values(traced) == _values(plain) == _values(outcomes)
        layer = tr.layer_metrics(t)
        layer["trace.overhead"] = (sum(o.latency for o in traced)
                                   / sum(o.latency for o in plain) - 1.0, "ratio")
        layer["host.slowdown"] = (slowdown, "ratio")
    checker(outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = correct and not any(o.gross for o in outcomes)
    setup_raw, setup_scaled = (statistics.median(v) for v in zip(*pause.setup_samples))
    e2e = end_to_end(outcomes, [v / f for v, f in zip(raw, factors)], setup_scaled)
    measured = end_to_end(outcomes, raw, setup_raw)
    acc = accuracy(outcomes)
    metrics = {**layer, **acc} if args.trace else e2e
    print(f"workload={args.workload} seed={args.seed} ops={len(outcomes)} failed={failed} "
          + " ".join(f"{k.split('.')[-1]}={v:.6g}{'' if u in ('digits', 'ratio') else u}"
                     for k, (v, u) in {**e2e, **acc}.items())
          + f" | measured: ops_per_s={measured['ops_per_s'][0]:.6g}/s"
          f" op_p50_ms={measured['op_p50_ms'][0]:.6g}ms setup_s={measured['setup_s'][0]:.6g}s"
          f" slowdown={slowdown:.4g}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
