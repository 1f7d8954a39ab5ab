"""Span tracing of the package's layers, from outside the package.

``Tracer.install()`` replaces each listed public function with a wrapper
that records a span (name, start, end, parent span, op id) and any
counts taken from its arguments or result.  The package imports with
``from .x import y``, so a function is replaced in every ``extappell``
module namespace that holds it, not only where it is defined.
``uninstall()`` puts every original back; use the tracer as a context
manager so that happens in ``finally``.

Spans are kept in memory and written once, by ``write()``.  A span's
self time is its duration minus the time covered by its child spans;
the self time of the root ``op`` spans is the part of an op that no
wrapped function covers, reported as ``trace.unattributed_s``.  With
one thread, spans nest, so the self times of all spans add up exactly
to the traced op time.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name) of every wrapped function
FUNCTIONS = (
    ("extbeta", "extended_beta", "extbeta.extended_beta"),
    ("extbeta", "chaudhry_beta", "extbeta.chaudhry_beta"),
    ("quadrature", "integrate_unit_interval", "quadrature.unit"),
    ("quadrature", "integrate_semi_infinite", "quadrature.semi"),
    ("quadrature", "integrate_vertical_line", "quadrature.vline"),
    ("bessel", "bessel_k_scaled_many", "bessel.scaled_many"),
    ("bessel", "bessel_k", "bessel.bessel_k"),
    ("hyper", "block_double_sum", "hyper.block_double_sum"),
    ("hyper", "appell_f1_series", "hyper.appell_f1_series"),
    ("hyper", "appell_f1_integral", "hyper.appell_f1_integral"),
    ("hyper", "f1_diagonal_coefficients", "hyper.f1_diagonal_coefficients"),
    ("scalar", "gamma", "scalar.gamma"),
    ("scalar", "log_gamma", "scalar.log_gamma"),
    ("scalar", "beta", "scalar.beta"),
    ("f1pv", "f1pv_series", "f1pv.series"),
    ("f1pv", "f1pv_integral", "f1pv.integral"),
    ("f1pv", "f1pv_recursion_b2", "f1pv.recursion"),
    ("f1pv", "f1pv_recursion_b3", "f1pv.recursion"),
    ("f1pv", "f1pv_transform", "f1pv.transform"),
    ("f1pv", "f1pv_derivative", "f1pv.derivative"),
    ("f1pv", "f1pv_bound", "f1pv.bound"),
    ("f1pv", "f1pv_bound_simple", "f1pv.bound"),
    ("mellin", "mellin_forward_numeric", "mellin.forward_numeric"),
    ("mellin", "mellin_inverse_numeric", "mellin.inverse_numeric"),
    ("mellin", "mellin_forward_closed", "mellin.forward_closed"),
    ("meijer", "meijer_g", "meijer.meijer_g"),
    ("meijer", "verify_k_g_identity", "meijer.k_g_identity"),
    ("meijer", "verify_theorem1", "meijer.theorem1"),
    ("suites", "run_suite", "suites.run_suite"),
)

# every span name; bessel.scaled_many spans are renamed by order
SPAN_NAMES = ("op", "extbeta.kernel", "quadrature.integrand", "bessel.generic",
              "bessel.half_odd") + tuple(
    dict.fromkeys(name for _m, _a, name in FUNCTIONS if name != "bessel.scaled_many"))

COUNTERS = (
    "extbeta.kernel.hits",
    "quadrature.unit.nodes", "quadrature.semi.nodes", "quadrature.vline.nodes",
    "quadrature.unit.unconverged", "quadrature.semi.unconverged",
    "quadrature.vline.unconverged",
    "bessel.generic.args", "bessel.half_odd.args",
    "hyper.block_double_sum.diag_calls",
    "mellin.radial_families",
    "suites.records", "suites.records_failed",
)

_ENGINES = {"quadrature.unit": "unit", "quadrature.semi": "semi",
            "quadrature.vline": "vline"}


class Tracer:
    """Records spans and counts while installed; restores on exit."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.spans: list[list] = []  # [name id, start, end, parent, op, child s]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []
        self._bessel_spans = 0

    # -- span bookkeeping -------------------------------------------------
    def _begin(self, nid: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, perf_counter(), 0.0, parent, self._op, 0.0])
        self._stack.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        t = perf_counter()
        rec = self.spans[idx]
        rec[2] = t
        self._stack.pop()
        if rec[3] >= 0:
            self.spans[rec[3]][5] += t - rec[1]

    def op(self, op_id: int, fn):
        """Run ``fn()`` as the root span of op ``op_id``."""
        self._op = op_id
        idx = self._begin(self._ids["op"])
        try:
            return fn()
        finally:
            self._end(idx)

    def _spanned(self, name: str, fn):
        nid = self._ids[name]

        def wrapper(*args, **kwargs):
            idx = self._begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(idx)

        return wrapper

    # -- wrappers with counts ---------------------------------------------
    def _wrap(self, name: str, fn, module):
        if name in _ENGINES:
            return self._wrap_engine(name, fn)
        if name == "bessel.scaled_many":
            return self._wrap_bessel(fn, module("bessel").BesselOrder.from_nu)
        if name == "hyper.block_double_sum":
            return self._wrap_block_sum(fn)
        if name == "suites.run_suite":
            return self._wrap_run_suite(fn)
        return self._spanned(name, fn)

    def _wrap_engine(self, name, fn):
        engine = _ENGINES[name]
        inner = self._spanned(name, fn)
        integrand_id = self._ids["quadrature.integrand"]
        counts = self.counts

        def wrapper(f, *args, **kwargs):
            def traced_f(*a):
                idx = self._begin(integrand_id)
                try:
                    return f(*a)
                finally:
                    self._end(idx)

            res = inner(traced_f, *args, **kwargs)
            counts[f"quadrature.{engine}.nodes"] += res.nodes_used
            if not res.converged:
                counts[f"quadrature.{engine}.unconverged"] += 1
            return res

        return wrapper

    def _wrap_bessel(self, fn, order_of):
        ids = {True: self._ids["bessel.half_odd"], False: self._ids["bessel.generic"]}
        counts = self.counts

        def wrapper(nu, z):
            half = order_of(abs(float(nu))).half_odd_integer
            counts["bessel.half_odd.args" if half else "bessel.generic.args"] += np.size(z)
            self._bessel_spans += 1
            idx = self._begin(ids[half])
            try:
                return fn(nu, z)
            finally:
                self._end(idx)

        return wrapper

    def _wrap_block_sum(self, fn):
        inner = self._spanned("hyper.block_double_sum", fn)
        counts = self.counts

        def wrapper(diag, *args, **kwargs):
            def counted(k):
                counts["hyper.block_double_sum.diag_calls"] += 1
                return diag(k)

            return inner(counted, *args, **kwargs)

        return wrapper

    def _wrap_run_suite(self, fn):
        inner = self._spanned("suites.run_suite", fn)
        counts = self.counts

        def wrapper(*args, **kwargs):
            records = inner(*args, **kwargs)
            counts["suites.records"] += len(records)
            counts["suites.records_failed"] += sum(r.status == "fail" for r in records)
            return records

        return wrapper

    def _wrap_kernel_lookup(self, fn):
        nid = self._ids["extbeta.kernel"]
        counts = self.counts

        def scaled_values(kernel, *args, **kwargs):
            before = self._bessel_spans
            idx = self._begin(nid)
            try:
                return fn(kernel, *args, **kwargs)
            finally:
                self._end(idx)
                if self._bessel_spans == before:
                    counts["extbeta.kernel.hits"] += 1

        return scaled_values

    def _wrap_family(self, cls):
        counts = self.counts

        def family(*args, **kwargs):
            counts["mellin.radial_families"] += 1
            return cls(*args, **kwargs)

        return family

    # -- install / restore ------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import extappell  # noqa: F401  (loads every submodule)

        def module(name):
            return sys.modules[f"extappell.{name}"]

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "extappell" or n.startswith("extappell."))]
        try:
            for mod_name, attr, name in FUNCTIONS:
                original = getattr(module(mod_name), attr)
                wrapper = self._wrap(name, original, module)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
            kernel = module("extbeta").ExtendedBetaKernel
            self._set(kernel, "scaled_values", self._wrap_kernel_lookup(kernel.scaled_values))
            mellin = module("mellin")
            self._set(mellin, "ExtendedBetaFamily", self._wrap_family(mellin.ExtendedBetaFamily))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for nid, start, end, _parent, _op, child in self.spans:
            agg = out[SPAN_NAMES[nid]]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child
        return out

    def write(self, path: str) -> None:
        """Write names and spans as a compressed .npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        arr = np.array([s[:5] for s in self.spans], dtype=float).reshape(-1, 5)
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            name=arr[:, 0].astype(np.int16),
            start=arr[:, 1],
            end=arr[:, 2],
            parent=arr[:, 3].astype(np.int64),
            op=arr[:, 4].astype(np.int64),
        )


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as name -> (value, unit)."""
    agg = tracer.summary()
    c = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        if name == "op":
            continue
        out[f"{name}.calls"] = (agg[name]["calls"], "count")
        out[f"{name}.self_s"] = (agg[name]["self_s"], "s")
    for name in COUNTERS:
        out[name] = (c.get(name, 0.0), "count")
    lookups = agg["extbeta.kernel"]["calls"]
    out["extbeta.kernel.lookups"] = (lookups, "count")
    out["extbeta.kernel.hit_ratio"] = (c.get("extbeta.kernel.hits", 0.0) / lookups
                                       if lookups else 0.0, "ratio")
    unit_nodes = c.get("quadrature.unit.nodes", 0.0)
    args = c.get("bessel.generic.args", 0.0) + c.get("bessel.half_odd.args", 0.0)
    out["ratio.bessel_args_per_unit_node"] = (args / unit_nodes if unit_nodes else 0.0,
                                              "ratio")
    series = agg["f1pv.series"]["calls"]
    out["ratio.extended_beta_per_series_op"] = (
        agg["extbeta.extended_beta"]["calls"] / series if series else 0.0, "ratio")
    out["trace.op_s"] = (agg["op"]["total_s"], "s")
    out["trace.unattributed_s"] = (agg["op"]["self_s"], "s")
    out["trace.ops"] = (agg["op"]["calls"], "count")
    return out


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    return [(name, unit) for name, (_v, unit) in layer_metrics(Tracer()).items()]
