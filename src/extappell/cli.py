"""Command-line surface: point evaluation, verification suites, golden files.

Exit codes: 0 success, 1 verification failures, 2 domain error,
3 convergence failure (a value that overflows or comes out non-finite
counts as one, and so does a kernel integral, K_nu or G that underflows
to 0, and a command that needs B(b1, c1-b1) -- f1pv on every route, f1
on its integral route, mellin_fwd and mellin_inv -- where that B
underflows), 64 usage error (from argument parsing, and a --tol or
--route that the evaluated function, or f1's series route, does not
read: settings are command-line options, never environment variables).
Values print as "re im" on stdout with a one-line method trace on
stderr; a failure prints one line on stderr and no traceback.

The CLI parses (key=value syntax, unknown, missing and repeated keys,
words for numbers, its options) and checks only the value it prints: each
number goes as a complex to the library type it flows into, which refuses
a bad one (exit 2).
"""

from __future__ import annotations

import argparse
import cmath
import sys
from collections import namedtuple

import numpy as np

from .bessel import bessel_k
from .errors import ConvergenceError, DomainError
from .extbeta import ExtensionParams, chaudhry_beta, extended_beta
from .f1pv import ROUTES, ExtendedAppellInput, f1pv, route_for
from .hyper import AppellParams, appell_f1_integral, appell_f1_series
from .meijer import G_SHAPES, GSpec, meijer_g
from .mellin import INVERSE_TOL, mellin_forward_closed, mellin_inverse_numeric
from .quadrature import DEFAULT_TOL
from .report import write_report
from .suites import SUITES, run_suite, summarize

_APPELL = ("b1", "b2", "b3", "c1", "x", "y")

# One row per ``eval`` function: the number keys its call needs (meijer_g's
# come from its case, see ``_keys``), its --tol default (None: it reads no
# --tol), whether it reads --route and, on its series route, --tol (f1's
# series stops at the fixed F1_TOL), whether a 0 from it is an underflow,
# and its optional keys.  B_{p,nu}, the Chaudhry Beta and F_{1,p,nu} decay
# like exp(-4 Re p) as p grows but are never exactly 0, and K_nu has no
# zeros for |arg z| <= pi/2 (DLMF 10.42); meijer_g's 0 is the K route's
# K_nu or underflowed residue terms.
_Eval = namedtuple("_Eval", "keys tol routes series_tol no_zeros optional",
                   defaults=(None, False, True, False, ()))
_EVAL = {
    "beta_pv": _Eval(("x", "y", "p", "nu"), DEFAULT_TOL, no_zeros=True),
    "chaudhry_beta": _Eval(("x", "y", "p"), DEFAULT_TOL, no_zeros=True),
    "f1": _Eval(_APPELL, DEFAULT_TOL, routes=True, series_tol=False),
    "f1pv": _Eval((*_APPELL, "p", "nu"), DEFAULT_TOL, routes=True, no_zeros=True),
    "bessel_k": _Eval(("nu", "z"), no_zeros=True),
    "meijer_g": _Eval(None, no_zeros=True),
    "mellin_fwd": _Eval((*_APPELL, "nu", "s")),
    "mellin_inv": _Eval((*_APPELL, "nu", "p"), INVERSE_TOL, optional=("c",)),
}


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 64 on usage problems, with one line."""

    def error(self, message):
        sys.stderr.write(f"usage error: {self.prog}: {message}\n")
        raise SystemExit(64)


def _positive_float(raw: str) -> float:
    value = float(raw)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {raw}")
    return value


def _nonnegative_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {raw}")
    return value


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="extappell", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    pe = sub.add_parser("eval", help="evaluate one function at a point")
    pe.add_argument("fn", choices=tuple(_EVAL))
    pe.add_argument("params", nargs="*", metavar="key=value",
                    help="complex values accepted, e.g. p=1+0.5j")
    pe.add_argument("--route", choices=ROUTES, default=None,
                    help="f1 and f1pv only (default auto)")
    pe.add_argument("--tol", type=_positive_float, default=None,
                    help="quadrature tolerance of beta_pv, chaudhry_beta, f1's integral "
                         "route, f1pv (whose series sums to tol/100) and mellin_inv")

    pv = sub.add_parser("verify", help="run identity-verification suites")
    pv.add_argument("suite", choices=("all", *SUITES))
    pv.add_argument("--trials", type=_positive_int, default=20)
    pv.add_argument("--seed", type=_nonnegative_int, default=1)
    pv.add_argument("--tol", type=_positive_float, default=None)
    pv.add_argument("--report", default=None, metavar="PATH")

    pg = sub.add_parser("golden", help="write an oracle-valued golden CSV")
    pg.add_argument("out", metavar="PATH")
    return parser


def _parse_params(pairs) -> dict:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise DomainError(f"expected key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key in out:
            raise DomainError(f"repeated parameter: {key}")
        try:
            out[key] = complex(raw)
        except ValueError:
            out[key] = raw.strip()  # tags such as case=G2012
    return out


def _need(params: dict, keys) -> list:
    missing = [k for k in keys if k not in params]
    if missing:
        raise DomainError(f"missing parameters: {', '.join(missing)}")
    words = [k for k in keys if not isinstance(params[k], complex)]
    if words:
        raise DomainError(f"parameters must be numbers: {', '.join(words)}")
    return [params[k] for k in keys]


def _keys(fn: str, params: dict) -> tuple:
    """The number keys ``eval fn`` needs: its row's, or for meijer_g the
    a1..ap, b1..bq and z of its case, a G of shape (m, n, p, q)."""
    if fn != "meijer_g":
        return _EVAL[fn].keys
    case = params.get("case")
    if not isinstance(case, str):
        raise DomainError(f"meijer_g needs case={'|'.join(G_SHAPES)}")
    if case not in G_SHAPES:
        raise DomainError(f"unknown Meijer-G case {case!r}")
    _, _, p, q = G_SHAPES[case]
    return (*(f"a{i}" for i in range(1, p + 1)), *(f"b{i}" for i in range(1, q + 1)), "z")


def _cmd_eval(args, usage_error) -> int:
    fn, row = args.fn, _EVAL[args.fn]
    params = _parse_params(args.params)
    keys = _keys(fn, params)
    taken = (*keys, *row.optional, *(("case",) if fn == "meijer_g" else ()))
    unknown = [k for k in params if k not in taken]
    if unknown:
        raise DomainError(f"unknown parameters for {fn}: {', '.join(unknown)}")
    keys += tuple(k for k in row.optional if k in params)
    v = dict(zip(keys, _need(params, keys)))
    ap = AppellParams(*(v[k] for k in _APPELL)) if set(_APPELL) <= v.keys() else None
    route = None
    if row.routes:
        route = route_for(ap) if args.route in (None, "auto") else args.route
    elif args.route is not None:
        usage_error(f"eval {fn} reads no --route")
    if args.tol is not None and (row.tol is None or route == "series" and not row.series_tol):
        usage_error(f"eval {fn} reads no --tol" + (" on its series route" if route else ""))
    tol = args.tol or row.tol
    if fn == "meijer_g":
        alpha = tuple(v[k] for k in keys if k[0] == "a")
        beta_ = tuple(v[k] for k in keys if k[0] == "b")
        value = meijer_g(GSpec(params["case"], alpha, beta_, v["z"]))
        trace = (f"meijer_g case={params['case']} slater-residue, or the Bessel-K identity "
                 "at large |z| or integer b spacing")
    elif fn == "beta_pv":
        value = extended_beta(v["x"], v["y"], ExtensionParams(v["p"], v["nu"]), tol)
        trace = "extended Beta, tanh-sinh with scaled Bessel kernel"
    elif fn == "chaudhry_beta":
        value = chaudhry_beta(v["x"], v["y"], v["p"], tol)
        trace = "Chaudhry Beta, tanh-sinh"
    elif fn == "bessel_k":
        value = bessel_k(v["nu"], v["z"])
        trace = ("modified Bessel K, Hankel sum / Gauss-Hermite rule / the closed "
                 "half-odd pair or Temme series with the order recurrence")
    elif fn == "f1":
        value = appell_f1_series(ap) if route == "series" else appell_f1_integral(ap, tol)
        trace = f"classical Appell F1, route={route}"
    elif fn == "f1pv":
        value = f1pv(ExtendedAppellInput(ap, ExtensionParams(v["p"], v["nu"])), route, tol)
        trace = f"extended Appell, route={route}, quadrature tol={tol:g}"
    elif fn == "mellin_fwd":
        value = mellin_forward_closed(ap, v["nu"], v["s"])
        trace = "Mellin transform, closed form"
    else:  # mellin_inv
        value = mellin_inverse_numeric(ap, v["nu"], v["p"], v.get("c"), tol)
        trace = "inverse Mellin, truncated vertical contour"
    value = complex(value)
    if not cmath.isfinite(value):
        raise ConvergenceError(f"{fn} evaluated to a non-finite value ({value})")
    if value == 0 and row.no_zeros:
        raise ConvergenceError(f"{fn} underflows double precision (evaluated to 0)")
    print(f"{value.real:.17g} {value.imag:.17g}")
    print(trace, file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    names = SUITES if args.suite == "all" else (args.suite,)
    records = []
    any_fail = False
    for name in names:
        recs = run_suite(name, args.trials, args.seed, args.tol)
        records.extend(recs)
        print(summarize(name, recs))
        any_fail = any_fail or any(r.status == "fail" for r in recs)
    if args.suite == "all":
        print(summarize("all", records))
    if args.report:
        write_report(records, args.report)
    return 1 if any_fail else 0


_GOLDEN_PARAM_SETS = (
    (1.0, 1.0, 1.0, 3.0, 0.3, 0.4),
    (0.7, -1.2, 2.0, 2.5, -0.5, 0.6),
    (2.2, 0.6, -0.4, 4.1, 0.7, -0.7),
    (1.4, 1.8, 0.9, 2.1, -0.25, -0.6),
    (0.6, -0.7, -1.5, 3.4, 0.45, 0.15),
    (2.8, 0.3, 1.1, 5.0, 0.1, 0.75),
)


def _cmd_golden(args) -> int:
    from .oracles import PANELS, TERMS, bruteforce_f1pv

    try:  # fail before the oracle work, not after it
        with open(args.out, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise DomainError(f"cannot write golden file to {args.out}: {exc}") from exc
    oracle_tag = f"midpoint-rule panels={PANELS} + double sum terms={TERMS}"
    lines = [
        "# oracle: closed-half-odd-kernel midpoint rule, "
        f"nodes={PANELS}, double-sum terms={TERMS}, date-free; "
        "columns: p,nu,b1,b2,b3,c1,x,y,value_re,value_im,oracle"
    ]
    for p in (0.5, 1.0, 2.5):
        for nu in (0.0, 1.0, 2.0):
            for (b1, b2, b3, c1, x, y) in _GOLDEN_PARAM_SETS:
                val = bruteforce_f1pv(b1, b2, b3, c1, x, y, p, nu)
                lines.append(
                    f"{p:.17g},{nu:.17g},{b1:.17g},{b2:.17g},{b3:.17g},"
                    f"{c1:.17g},{x:.17g},{y:.17g},{val:.17g},0,{oracle_tag}"
                )
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise DomainError(f"cannot write golden file to {args.out}: {exc}") from exc
    print(f"wrote {len(lines) - 1} rows to {args.out}", file=sys.stderr)
    return 0


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.error("a subcommand is required (eval | verify | golden)")
        # values are checked where they matter (non-finite samples, the
        # printed value), so numpy's floating-point warnings are noise here
        with np.errstate(all="ignore"):
            if args.command == "eval":
                return _cmd_eval(args, parser.error)
            if args.command == "verify":
                return _cmd_verify(args)
            return _cmd_golden(args)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"convergence failure: overflow ({exc})", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
