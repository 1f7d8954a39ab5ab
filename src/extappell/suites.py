"""Randomized identity-verification suites.

Each suite draws deterministic samples (seeded per suite name) from the
working domain

    D = { b1, c1-b1 in (0.5, 3); b2, b3 in (-2, 2); x, y in (-0.8, 0.8);
          p in (0.25, 4); nu in (0, 2) }

and emits one ``VerificationRecord`` per check; no other module judges
one.  Each suite is a per-trial generator ``_name(i, rng, tol)`` that
draws trial ``i``'s points and yields its checks as
``(case_id, params, check)``, and each check builds its record under
its suite's name.  ``run_suite`` runs each check as it is yielded,
before the next draw, and keeps its record as built.  A side that
raises ``DegenerateIdentity`` makes a skipped record with its message as
the reason; any other exception becomes a failing record that names the
check, so no failure aborts a run.  Trials execute sequentially in
index order, so a (suite, trials, seed, tol) tuple fully determines the
output.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .bessel import bessel_k
from .errors import DegenerateIdentity, DomainError
from .extbeta import ExtensionParams, chaudhry_beta, extended_beta
from .f1pv import (
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
from .hyper import AppellParams, chaudhry_f1_integral, euler_integral_beta
from .meijer import K_G_IDENTITIES, verify_k_g_identity, verify_theorem1
from .mellin import mellin_forward_closed, mellin_forward_numeric, mellin_inverse_numeric
from .report import VerificationRecord, make_record

ROUTES_TOL = 1e-8
TRANSFORM_TOL = 1e-8
MELLIN_PAIR_TOL = 1e-6
MELLIN_INVERSE_TOL = 1e-5
DIFF_TOL = 1e-4
RECURSION_TOL = 1e-9
REDUCTION_NU0_TOL = 1e-9
REDUCTION_ORIGIN_TOL = 1e-10
K_G_TOL = 1e-7
THEOREM1_TOL = 1e-8
MU_VALUES = (-0.5, 0.0, 0.7, 1.3)


def _rng(suite: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), SUITES.index(suite) + 1])


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


def _moved(inp: ExtendedAppellInput, **changes) -> ExtendedAppellInput:
    """``inp`` with some Appell parameters or variables replaced."""
    return ExtendedAppellInput(dataclasses.replace(inp.appell, **changes), inp.ext)


def _guarded(suite: str, case_id: str, params: dict, check) -> VerificationRecord:
    try:
        return check()
    except Exception as exc:  # a failing check must not abort the run
        return VerificationRecord(
            suite, case_id, dict(params), 0j, 0j, float("inf"), float("inf"), 0.0,
            "fail", None, f"error: {type(exc).__name__}: {exc}",
        )


def _compare(suite, case_id, params, lhs, rhs, tol, method):
    """The check that lhs() and rhs() agree to relative tolerance ``tol``,
    skipped with its reason where a side raises ``DegenerateIdentity``."""

    def check():
        try:
            # rhs first: a K-G check's G side, on the right, raises before
            # its K side is evaluated; a Theorem-1 rhs is the trial's one F
            rhs_value = rhs()
            lhs_value = lhs()
        except DegenerateIdentity as exc:
            return make_record(suite, case_id, params, 0, 0, tol, method, skip_reason=str(exc))
        return make_record(suite, case_id, params, lhs_value, rhs_value, tol, method)
    return case_id, params, check


def _inequality(case_id, inp, bound, method):
    """The check |F(inp)| <= bound(inp); its 'error' is the violation amount."""
    params = _params_of(inp)

    def check():
        magnitude, limit = abs(f1pv_integral(inp)), bound(inp)
        violation = max(0.0, magnitude - limit)
        return VerificationRecord(
            "bound", case_id, {**params, "abs_value": magnitude, "bound": limit},
            complex(magnitude), complex(limit), violation, violation / (1.0 + violation),
            0.0, "pass" if violation == 0.0 else "fail", None, method,
        )
    return case_id, params, check


def _routes(i, rng, tol):
    inp = sample_input(rng)
    yield _compare(
        "routes", f"trial{i}", _params_of(inp), lambda: f1pv_series(inp),
        lambda: f1pv_integral(inp), tol or ROUTES_TOL, "series vs integral",
    )


def _transform(i, rng, tol):
    inp = sample_input(rng)
    yield _compare(
        "transform", f"trial{i}", _params_of(inp), lambda: f1pv_integral(inp),
        lambda: f1pv_transform(inp), tol or TRANSFORM_TOL,
        "integral vs Moebius-transformed integral",
    )


def _mellin(i, rng, tol):
    inp = sample_input(rng)
    a, nu = inp.appell, inp.ext.nu
    point = {k: v for k, v in _params_of(inp).items() if k != "p"}
    offsets = (0.6, 1.1, 2.0)
    # the three forward transforms are rows of one quadrature
    forward = functools.cache(lambda: mellin_forward_numeric(a, nu, nu + np.array(offsets)))
    for k, ds in enumerate(offsets):
        s = nu + ds
        yield _compare(
            "mellin", f"trial{i}-s={ds:g}", {**point, "s_re": s, "s_im": 0.0},
            lambda k=k: forward()[k], lambda s=s: mellin_forward_closed(a, nu, s),
            tol or MELLIN_PAIR_TOL, "semi-infinite quadrature vs closed form",
        )
    yield _compare(
        "mellin", f"trial{i}-inverse", _params_of(inp),
        lambda: mellin_inverse_numeric(a, nu, inp.ext.p.real), lambda: f1pv_series(inp),
        tol or MELLIN_INVERSE_TOL, "contour inversion vs series",
    )


def _finite_difference(inp: ExtendedAppellInput, m: int, n: int) -> complex:
    def at(x, y):
        return f1pv_series(_moved(inp, x=x, y=y))

    x, y = inp.appell.x.real, inp.appell.y.real
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


def _diff(i, rng, tol):
    inp = sample_input(rng)
    for m, n in ((1, 0), (0, 1), (1, 1), (2, 0)):
        yield _compare(
            "diff", f"trial{i}-d{m}{n}", {**_params_of(inp), "M": m, "N": n},
            lambda m=m, n=n: f1pv_derivative(inp, m, n),
            lambda m=m, n=n: _finite_difference(inp, m, n),
            tol or DIFF_TOL, "parameter-shift derivative vs central differences",
        )


def _recursion(i, rng, tol):
    inp = sample_input(rng)
    a, n = inp.appell, i % 3 + 1
    for name, lifted, recursion in (("b2", a.b2 + n, f1pv_recursion_b2),
                                    ("b3", a.b3 + n, f1pv_recursion_b3)):
        yield _compare(
            "recursion", f"trial{i}-{name}-n{n}", {**_params_of(inp), "n": n},
            lambda name=name, lifted=lifted: f1pv_series(_moved(inp, **{name: lifted})),
            lambda recursion=recursion: recursion(inp, n),
            tol or RECURSION_TOL, f"{name} recursion vs direct series",
        )


def _bound(i, rng, tol):
    inp = sample_input(rng)
    yield _inequality(f"trial{i}-full", inp, f1pv_bound, "strict upper bound with F1 factor")
    b1 = rng.uniform(0.5, 3.0)
    c1 = b1 + rng.uniform(0.5, 3.0)
    b2, b3 = rng.uniform(0.1, 2.0, 2)
    x, y = -rng.uniform(0.05, 0.8, 2)
    simple = ExtendedAppellInput(
        AppellParams(b1, b2, b3, c1, x, y),
        ExtensionParams(rng.uniform(0.25, 4.0), rng.uniform(0.0, 2.0)),
    )
    yield _inequality(
        f"trial{i}-simple", simple, f1pv_bound_simple, "sign-restricted bound without F1"
    )


# deterministic degenerate probes (identity, nu, z, mu): recorded as skipped, with reasons
_MEIJER_PROBES = (("1.8", 0.5, 1.0, 0.0), ("1.10", 1.5, 1.0, 0.3), ("1.7", 1.0, 0.8, 0.0))


def _meijer(i, rng, tol):
    def k_g(case_id, which, nu, z, mu):
        return _compare(
            "meijer", case_id, {"nu": nu, "z": z, "mu": mu}, lambda: bessel_k(nu, z),
            lambda: verify_k_g_identity(which, nu, z, mu), tol or K_G_TOL, "slater-residue",
        )

    if i == 0:
        for which, nu, z, mu in _MEIJER_PROBES:
            yield k_g(f"probe-eq{which}", which, nu, z, mu)
    nu = float(rng.uniform(0.05, 1.95))
    z = float(rng.uniform(0.3, 2.5))
    mu = float(rng.uniform(-0.5, 1.3))
    for which in K_G_IDENTITIES:
        yield k_g(f"trial{i}-eq{which}", which, nu, z, mu)
    inp = sample_input(rng)
    value = functools.cache(lambda: f1pv_integral(inp))  # one F for the trial's 14 forms
    for which, mus in (("2.3", (0.0,)), ("2.4", (0.0,)), ("2.5", MU_VALUES),
                       ("2.6", MU_VALUES), ("2.7", MU_VALUES)):
        for m in mus:
            yield _compare(
                "meijer", f"trial{i}-eq{which}-mu{m:g}", {**_params_of(inp), "mu": m},
                lambda which=which, m=m: verify_theorem1(which, inp, m), value,
                tol or THEOREM1_TOL, "g-to-k-rewrite",
            )


def _reduction(i, rng, tol):
    inp = sample_input(rng)
    a, params = inp.appell, _params_of(inp)
    b, p = a.c1 - a.b1, inp.ext.p.real
    nu0 = ExtensionParams(p, 0.0)
    nu0_tol, origin_tol = tol or REDUCTION_NU0_TOL, tol or REDUCTION_ORIGIN_TOL

    yield _compare(
        "reduction", f"trial{i}-beta-nu0", params, lambda: extended_beta(a.b1, b, nu0),
        lambda: chaudhry_beta(a.b1, b, p), nu0_tol, "extended Beta at nu=0 vs Chaudhry kernel",
    )
    yield _compare(
        "reduction", f"trial{i}-f-nu0", params,
        lambda: f1pv_series(ExtendedAppellInput(a, nu0)), lambda: chaudhry_f1_integral(a, p),
        nu0_tol, "F at nu=0 vs Chaudhry-kernel Euler integral",
    )
    yield _compare(
        "reduction", f"trial{i}-origin", params, lambda: f1pv_series(_moved(inp, x=0.0, y=0.0)),
        lambda: extended_beta(a.b1, b, inp.ext) / euler_integral_beta(a.b1, a.c1),
        origin_tol, "x=y=0 vs extended Beta ratio",
    )
    for name in ("b2", "b3"):
        yield _compare(
            "reduction", f"trial{i}-{name}zero", params,
            lambda name=name: f1pv_series(_moved(inp, **{name: 0.0})),
            lambda name=name: f1pv_integral(_moved(inp, **{name: 0.0})),
            origin_tol, f"{name}=0 series vs integral",
        )


# a suite's RNG stream is keyed by its position here, from 1: append, never reorder
_TRIALS = {
    "routes": _routes,
    "transform": _transform,
    "mellin": _mellin,
    "diff": _diff,
    "recursion": _recursion,
    "bound": _bound,
    "meijer": _meijer,
    "reduction": _reduction,
}
SUITES = tuple(_TRIALS)


def _checks(suite: str, trials: int, seed: int, tol: float | None):
    """Every ``(case_id, params, check)`` of a run, in trial order."""
    rng = _rng(suite, seed)
    for i in range(trials):
        yield from _TRIALS[suite](i, rng, tol)


def run_suite(suite: str, trials: int, seed: int, tol: float | None = None):
    """Execute one named suite; returns its records in trial order.  ``tol``,
    when given, replaces every check's own tolerance and must be positive."""
    if suite not in _TRIALS:
        raise DomainError(f"unknown suite {suite!r}; choose from {SUITES}")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if tol is not None and not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    return [_guarded(suite, *check) for check in _checks(suite, trials, seed, tol)]


def summarize(suite: str, records) -> str:
    checked = [r for r in records if r.status != "skipped"]
    passed = sum(r.status == "pass" for r in checked)
    max_rel = max((r.rel_err for r in checked), default=0.0)
    return f"suite={suite} pass={passed}/{len(checked)} max_rel_err={max_rel:.3e}"
