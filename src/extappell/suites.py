"""Randomized identity-verification suites.

Each suite draws deterministic samples (seeded per suite name) from the
working domain

    D = { b1, c1-b1 in (0.5, 3); b2, b3 in (-2, 2); x, y in (-0.8, 0.8);
          p in (0.25, 4); nu in (0, 2) }

and emits one ``VerificationRecord`` per check.  Individual failures
never abort a run: exceptions become failing records.  Trials execute
sequentially in index order, so a (suite, trials, seed, tol) tuple fully
determines the output.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .extbeta import ExtensionParams, chaudhry_beta, extended_beta
from .f1pv import (
    EvaluationMethod,
    ExtendedAppellInput,
    f1pv_bound,
    f1pv_bound_simple,
    f1pv_derivative,
    f1pv_integral,
    f1pv_recursion_b2,
    f1pv_recursion_b3,
    f1pv_series,
    f1pv_transform,
)
from .hyper import AppellParams, block_double_sum
from .meijer import K_G_IDENTITIES, verify_k_g_identity, verify_theorem1
from .mellin import mellin_inverse_numeric, verify_mellin_pair
from .report import VerificationRecord, make_record
from .scalar import beta

_SUITE_IDS = {
    "routes": 1,
    "transform": 2,
    "mellin": 3,
    "diff": 4,
    "recursion": 5,
    "bound": 6,
    "meijer": 7,
    "reduction": 8,
}
SUITES = tuple(_SUITE_IDS)

ROUTES_TOL = 1e-8
TRANSFORM_TOL = 1e-8
MELLIN_PAIR_TOL = 1e-6
MELLIN_INVERSE_TOL = 1e-5
DIFF_TOL = 1e-4
RECURSION_TOL = 1e-9
REDUCTION_NU0_TOL = 1e-9
REDUCTION_ORIGIN_TOL = 1e-10
MU_VALUES = (-0.5, 0.0, 0.7, 1.3)


def _rng(suite: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _SUITE_IDS[suite]])


def sample_input(rng: np.random.Generator) -> ExtendedAppellInput:
    """One point of the working domain D."""
    b1 = rng.uniform(0.5, 3.0)
    c1 = b1 + rng.uniform(0.5, 3.0)
    b2, b3 = rng.uniform(-2.0, 2.0, 2)
    x, y = rng.uniform(-0.8, 0.8, 2)
    p = rng.uniform(0.25, 4.0)
    nu = rng.uniform(0.0, 2.0)
    return ExtendedAppellInput(AppellParams(b1, b2, b3, c1, x, y), ExtensionParams(p, nu))


def _params_of(inp: ExtendedAppellInput) -> dict:
    a, e = inp.appell, inp.ext
    return {
        "b1": a.b1.real, "b2": a.b2.real, "b3": a.b3.real, "c1": a.c1.real,
        "x": a.x.real, "y": a.y.real, "p": e.p.real, "nu": e.nu,
    }


def _guarded(builder) -> VerificationRecord:
    try:
        return builder()
    except Exception as exc:  # a failing check must not abort the run
        return VerificationRecord(
            "error", "error", {}, 0j, 0j, float("inf"), float("inf"), 0.0,
            "fail", None, f"error: {type(exc).__name__}: {exc}",
        )


def _inequality_record(
    suite: str, case_id: str, params: dict, magnitude: float, bound: float, method: str
) -> VerificationRecord:
    """pass iff magnitude <= bound; the 'error' is the violation amount."""
    violation = max(0.0, magnitude - bound)
    rel = violation / (1.0 + violation)
    return VerificationRecord(
        suite, case_id, {**params, "abs_value": magnitude, "bound": bound},
        complex(magnitude), complex(bound), violation, rel, 0.0,
        "pass" if violation == 0.0 else "fail", None, method,
    )


def _suite_routes(trials, seed, tol):
    rng = _rng("routes", seed)
    tol = tol or ROUTES_TOL
    out = []
    for i in range(trials):
        inp = sample_input(rng)
        out.append(_guarded(lambda: make_record(
            "routes", f"trial{i}", _params_of(inp),
            f1pv_series(inp), f1pv_integral(inp), tol, "series vs integral",
        )))
    return out


def _suite_transform(trials, seed, tol):
    rng = _rng("transform", seed)
    tol = tol or TRANSFORM_TOL
    out = []
    for i in range(trials):
        inp = sample_input(rng)
        out.append(_guarded(lambda: make_record(
            "transform", f"trial{i}", _params_of(inp),
            f1pv_integral(inp), f1pv_transform(inp), tol,
            "integral vs Moebius-transformed integral",
        )))
    return out


def _suite_mellin(trials, seed, tol):
    rng = _rng("mellin", seed)
    out = []
    for i in range(trials):
        inp = sample_input(rng)
        a, nu = inp.appell, inp.ext.nu
        for ds in (0.6, 1.1, 2.0):
            s = nu + ds
            def pair(s=s):
                rec = verify_mellin_pair(a, nu, s, tol or MELLIN_PAIR_TOL)
                return VerificationRecord(**{**rec.__dict__, "case_id": f"trial{i}-s={ds:g}"})
            out.append(_guarded(pair))

        def inverse():
            direct = f1pv_series(inp)
            rec = mellin_inverse_numeric(a, nu, inp.ext.p.real)
            return make_record(
                "mellin", f"trial{i}-inverse", _params_of(inp), rec, direct,
                tol or MELLIN_INVERSE_TOL, "contour inversion vs series",
            )
        out.append(_guarded(inverse))
    return out


_FD_ORDERS = ((1, 0), (0, 1), (1, 1), (2, 0))


def _finite_difference(inp: ExtendedAppellInput, m: int, n: int) -> complex:
    a = inp.appell

    def at(x, y):
        return f1pv_series(
            ExtendedAppellInput(AppellParams(a.b1, a.b2, a.b3, a.c1, x, y), inp.ext)
        )

    x, y = a.x.real, a.y.real
    if (m, n) == (1, 0):
        h = 1e-5
        return (at(x + h, y) - at(x - h, y)) / (2 * h)
    if (m, n) == (0, 1):
        h = 1e-5
        return (at(x, y + h) - at(x, y - h)) / (2 * h)
    if (m, n) == (1, 1):
        h = 5e-4
        return (
            at(x + h, y + h) - at(x + h, y - h) - at(x - h, y + h) + at(x - h, y - h)
        ) / (4 * h * h)
    h = 5e-4
    return (at(x + h, y) - 2.0 * at(x, y) + at(x - h, y)) / (h * h)


def _suite_diff(trials, seed, tol):
    rng = _rng("diff", seed)
    tol = tol or DIFF_TOL
    out = []
    for i in range(trials):
        inp = sample_input(rng)
        for m, n in _FD_ORDERS:
            def check(m=m, n=n):
                return make_record(
                    "diff", f"trial{i}-d{m}{n}", {**_params_of(inp), "M": m, "N": n},
                    f1pv_derivative(inp, m, n, EvaluationMethod(route="series")),
                    _finite_difference(inp, m, n),
                    tol, "parameter-shift derivative vs central differences",
                )
            out.append(_guarded(check))
    return out


def _suite_recursion(trials, seed, tol):
    rng = _rng("recursion", seed)
    tol = tol or RECURSION_TOL
    out = []
    for i in range(trials):
        inp = sample_input(rng)
        n = i % 3 + 1
        a = inp.appell

        def b2_case():
            lifted = ExtendedAppellInput(
                AppellParams(a.b1, a.b2 + n, a.b3, a.c1, a.x, a.y), inp.ext
            )
            return make_record(
                "recursion", f"trial{i}-b2-n{n}", {**_params_of(inp), "n": n},
                f1pv_series(lifted), f1pv_recursion_b2(inp, n), tol,
                "b2 recursion vs direct series",
            )

        def b3_case():
            lifted = ExtendedAppellInput(
                AppellParams(a.b1, a.b2, a.b3 + n, a.c1, a.x, a.y), inp.ext
            )
            return make_record(
                "recursion", f"trial{i}-b3-n{n}", {**_params_of(inp), "n": n},
                f1pv_series(lifted), f1pv_recursion_b3(inp, n), tol,
                "b3 recursion vs direct series",
            )

        out.append(_guarded(b2_case))
        out.append(_guarded(b3_case))
    return out


def _suite_bound(trials, seed, tol):
    rng = _rng("bound", seed)
    out = []
    for i in range(trials):
        inp = sample_input(rng)

        def full():
            mag = abs(f1pv_integral(inp))
            return _inequality_record(
                "bound", f"trial{i}-full", _params_of(inp), mag, f1pv_bound(inp),
                "strict upper bound with F1 factor",
            )
        out.append(_guarded(full))

        b1 = rng.uniform(0.5, 3.0)
        c1 = b1 + rng.uniform(0.5, 3.0)
        b2, b3 = rng.uniform(0.1, 2.0, 2)
        x, y = -rng.uniform(0.05, 0.8, 2)
        simple_inp = ExtendedAppellInput(
            AppellParams(b1, b2, b3, c1, x, y),
            ExtensionParams(rng.uniform(0.25, 4.0), rng.uniform(0.0, 2.0)),
        )

        def simple():
            mag = abs(f1pv_integral(simple_inp))
            return _inequality_record(
                "bound", f"trial{i}-simple", _params_of(simple_inp), mag,
                f1pv_bound_simple(simple_inp), "sign-restricted bound without F1",
            )
        out.append(_guarded(simple))
    return out


def _suite_meijer(trials, seed, tol):
    rng = _rng("meijer", seed)
    out = []
    # deterministic degenerate probes: recorded as skipped, with reasons
    for which, nu, z, mu in (("1.8", 0.5, 1.0, 0.0), ("1.10", 1.5, 1.0, 0.3),
                             ("1.7", 1.0, 0.8, 0.0)):
        out.append(_guarded(lambda w=which, n=nu, zz=z, m=mu:
                          verify_k_g_identity(w, n, zz, m)))
    for i in range(trials):
        nu = float(rng.uniform(0.05, 1.95))
        z = float(rng.uniform(0.3, 2.5))
        mu = float(rng.uniform(-0.5, 1.3))
        for which in K_G_IDENTITIES:
            out.append(_guarded(lambda w=which: verify_k_g_identity(w, nu, z, mu)))
        inp = sample_input(rng)
        for which in ("2.3", "2.4"):
            out.append(_guarded(lambda w=which: verify_theorem1(w, inp, 0.0)))
        for which in ("2.5", "2.6", "2.7"):
            for m in MU_VALUES:
                out.append(_guarded(lambda w=which, mv=m: verify_theorem1(w, inp, mv)))
    if tol is not None:
        out = [VerificationRecord(**{**r.__dict__, "tol": tol,
                                     "status": r.status if r.status == "skipped"
                                     else ("pass" if r.rel_err <= tol else "fail")})
               for r in out]
    return out


def _suite_reduction(trials, seed, tol):
    rng = _rng("reduction", seed)
    out = []
    for i in range(trials):
        inp = sample_input(rng)
        a = inp.appell
        p = inp.ext.p.real
        nu0 = ExtensionParams(p, 0.0)

        def beta_nu0():
            return make_record(
                "reduction", f"trial{i}-beta-nu0", _params_of(inp),
                extended_beta(a.b1, a.c1 - a.b1, nu0),
                chaudhry_beta(a.b1, a.c1 - a.b1, p),
                tol or REDUCTION_NU0_TOL, "extended Beta at nu=0 vs Chaudhry kernel",
            )
        out.append(_guarded(beta_nu0))

        def f_nu0():
            inp0 = ExtendedAppellInput(a, nu0)
            b0 = beta(a.b1, a.c1 - a.b1)
            chaudhry_built = block_double_sum(
                lambda k: chaudhry_beta(a.b1 + k, a.c1 - a.b1, p) / b0,
                a.b2, a.b3, a.x, a.y, 1e-12,
            )
            return make_record(
                "reduction", f"trial{i}-f-nu0", _params_of(inp),
                f1pv_series(inp0), chaudhry_built,
                tol or REDUCTION_NU0_TOL, "F at nu=0 vs Chaudhry-kernel series",
            )
        out.append(_guarded(f_nu0))

        def origin():
            at0 = ExtendedAppellInput(
                AppellParams(a.b1, a.b2, a.b3, a.c1, 0.0, 0.0), inp.ext
            )
            ratio = extended_beta(a.b1, a.c1 - a.b1, inp.ext) / beta(a.b1, a.c1 - a.b1)
            return make_record(
                "reduction", f"trial{i}-origin", _params_of(inp),
                f1pv_series(at0), ratio,
                tol or REDUCTION_ORIGIN_TOL, "x=y=0 vs extended Beta ratio",
            )
        out.append(_guarded(origin))

        def collapse_b2():
            zeroed = ExtendedAppellInput(
                AppellParams(a.b1, 0.0, a.b3, a.c1, a.x, a.y), inp.ext
            )
            return make_record(
                "reduction", f"trial{i}-b2zero", _params_of(inp),
                f1pv_series(zeroed), f1pv_integral(zeroed),
                tol or REDUCTION_ORIGIN_TOL, "b2=0 series vs integral",
            )
        out.append(_guarded(collapse_b2))

        def collapse_b3():
            zeroed = ExtendedAppellInput(
                AppellParams(a.b1, a.b2, 0.0, a.c1, a.x, a.y), inp.ext
            )
            return make_record(
                "reduction", f"trial{i}-b3zero", _params_of(inp),
                f1pv_series(zeroed), f1pv_integral(zeroed),
                tol or REDUCTION_ORIGIN_TOL, "b3=0 series vs integral",
            )
        out.append(_guarded(collapse_b3))
    return out


_RUNNERS = {
    "routes": _suite_routes,
    "transform": _suite_transform,
    "mellin": _suite_mellin,
    "diff": _suite_diff,
    "recursion": _suite_recursion,
    "bound": _suite_bound,
    "meijer": _suite_meijer,
    "reduction": _suite_reduction,
}


def run_suite(suite: str, trials: int, seed: int, tol: float | None = None):
    """Execute one named suite; returns its records in trial order."""
    if suite not in _RUNNERS:
        raise DomainError(f"unknown suite {suite!r}; choose from {SUITES}")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    return _RUNNERS[suite](trials, seed, tol)


def summarize(suite: str, records) -> str:
    checked = [r for r in records if r.status != "skipped"]
    passed = sum(r.status == "pass" for r in checked)
    max_rel = max((r.rel_err for r in checked), default=0.0)
    return f"suite={suite} pass={passed}/{len(checked)} max_rel_err={max_rel:.3e}"
