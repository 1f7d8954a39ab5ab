"""Command-line surface: point evaluation, verification suites, golden files.

Exit codes: 0 success, 1 verification failures, 2 domain error,
3 convergence failure (a value that overflows or comes out non-finite
counts as one, and so does a kernel integral, K_nu or G that underflows
to 0), 64
usage error (from argument parsing: settings are command-line options,
never environment variables).  Values print as "re im" on stdout with a
one-line method trace on stderr; a failure prints one line on stderr and
no traceback.
"""

from __future__ import annotations

import argparse
import cmath
import sys

import numpy as np

from .bessel import bessel_k
from .errors import ConvergenceError, DomainError, PoleError
from .extbeta import ExtensionParams, chaudhry_beta, extended_beta
from .f1pv import ROUTES, ExtendedAppellInput, f1pv, prefers_series, route_for
from .hyper import AppellParams, appell_f1_integral, appell_f1_series
from .meijer import G_SHAPES, GSpec, meijer_g
from .mellin import INVERSE_TOL, mellin_forward_closed, mellin_inverse_numeric
from .quadrature import DEFAULT_TOL
from .report import write_report
from .scalar import is_nonpositive_integer
from .suites import SUITES, run_suite, summarize

_EVAL_FNS = (
    "beta_pv", "chaudhry_beta", "f1", "f1pv", "bessel_k", "meijer_g",
    "mellin_fwd", "mellin_inv",
)

# B_{p,nu}, the Chaudhry Beta and F_{1,p,nu} decay like exp(-4 Re p) as p
# grows but are never exactly 0, and K_nu has no zeros for |arg z| <= pi/2
# (DLMF 10.42); meijer_g's 0 is the K route's K_nu or underflowed residue
# terms.  So a 0 from one of them is an underflow
_NO_ZEROS = ("beta_pv", "chaudhry_beta", "f1pv", "bessel_k", "meijer_g")

_REQUIRED = {
    "beta_pv": ("x", "y", "p", "nu"),
    "chaudhry_beta": ("x", "y", "p"),
    "f1": ("b1", "b2", "b3", "c1", "x", "y"),
    "f1pv": ("b1", "b2", "b3", "c1", "x", "y", "p", "nu"),
    "bessel_k": ("nu", "z"),
    "mellin_fwd": ("b1", "b2", "b3", "c1", "x", "y", "nu", "s"),
    "mellin_inv": ("b1", "b2", "b3", "c1", "x", "y", "nu", "p"),
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
    pe.add_argument("fn", choices=_EVAL_FNS)
    pe.add_argument("params", nargs="*", metavar="key=value",
                    help="complex values accepted, e.g. p=1+0.5j")
    pe.add_argument("--route", choices=ROUTES, default="auto")
    pe.add_argument("--tol", type=_positive_float, default=None,
                    help="quadrature tolerance (f1pv's series sums to tol/100)")

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
    infinite = [k for k in keys if not cmath.isfinite(params[k])]
    if infinite:
        raise DomainError(f"parameters must be finite: {', '.join(infinite)}")
    return [params[k] for k in keys]


def _allowed_keys(fn: str, params: dict) -> tuple:
    """The parameter names ``eval fn`` takes: its required keys, plus an
    optional ``c`` for mellin_inv and, for meijer_g, ``case`` and that
    case's keys."""
    if fn == "meijer_g":
        case = params.get("case")
        if not isinstance(case, str):
            raise DomainError(f"meijer_g needs case={'|'.join(G_SHAPES)}")
        if case not in G_SHAPES:
            raise DomainError(f"unknown Meijer-G case {case!r}")
        return ("case", *_g_keys(case), "z")
    return _REQUIRED[fn] + (("c",) if fn == "mellin_inv" else ())


def _g_keys(case: str) -> tuple:
    """a1..ap, b1..bq for a Meijer-G case of shape (m, n, p, q)."""
    _, _, p, q = G_SHAPES[case]
    return (*(f"a{i}" for i in range(1, p + 1)), *(f"b{i}" for i in range(1, q + 1)))


def _real(value: complex, name: str) -> float:
    if value.imag != 0.0:
        raise DomainError(f"{name} must be real, got {value}")
    return value.real


def _cmd_eval(args) -> int:
    params = _parse_params(args.params)
    tol = args.tol or DEFAULT_TOL
    fn = args.fn
    allowed = _allowed_keys(fn, params)
    unknown = [k for k in params if k not in allowed]
    if unknown:
        raise DomainError(f"unknown parameters for {fn}: {', '.join(unknown)}")
    if fn == "meijer_g":
        case = params["case"]
        keys = _g_keys(case)
        vals = _need(params, keys + ("z",))
        alpha = tuple(v for k, v in zip(keys, vals) if k.startswith("a"))
        beta_ = tuple(v for k, v in zip(keys, vals) if k.startswith("b"))
        value = meijer_g(GSpec(case, alpha, beta_, vals[-1]))
        trace = (f"meijer_g case={case} slater-residue, or the Bessel-K identity "
                 "at large |z| or integer b spacing")
    elif fn == "beta_pv":
        x, y, p, nu = _need(params, _REQUIRED[fn])
        value = extended_beta(x, y, ExtensionParams(p, _real(nu, "nu")), tol)
        trace = "extended Beta, tanh-sinh with scaled Bessel kernel"
    elif fn == "chaudhry_beta":
        x, y, p = _need(params, _REQUIRED[fn])
        value = chaudhry_beta(x, y, p, tol)
        trace = "Chaudhry Beta, tanh-sinh"
    elif fn == "f1":
        b1, b2, b3, c1, x, y = _need(params, _REQUIRED[fn])
        ap = AppellParams(b1, b2, b3, c1, x, y)
        route = args.route
        if route == "auto":
            route = "series" if prefers_series(ap.x, ap.y) else "integral"
        value = appell_f1_series(ap) if route == "series" else appell_f1_integral(ap, tol)
        trace = f"classical Appell F1, route={route}"
    elif fn == "f1pv":
        b1, b2, b3, c1, x, y, p, nu = _need(params, _REQUIRED[fn])
        if is_nonpositive_integer(c1 - b1):
            raise PoleError(
                "Gamma(c1 - b1) pole: both evaluation routes have undefined "
                "prefactors", c1 - b1,
            )
        inp = ExtendedAppellInput(AppellParams(b1, b2, b3, c1, x, y),
                                  ExtensionParams(p, _real(nu, "nu")))
        route = route_for(inp) if args.route == "auto" else args.route
        value = f1pv(inp, route, tol)
        trace = f"extended Appell, route={route}, quadrature tol={tol:g}"
    elif fn == "bessel_k":
        nu, z = _need(params, _REQUIRED[fn])
        value = bessel_k(_real(nu, "nu"), z)
        trace = "modified Bessel K, Hankel sum (terminating at half-odd orders) / cosh integral"
    elif fn == "mellin_fwd":
        b1, b2, b3, c1, x, y, nu, s = _need(params, _REQUIRED[fn])
        value = mellin_forward_closed(AppellParams(b1, b2, b3, c1, x, y), _real(nu, "nu"), s)
        trace = "Mellin transform, closed form"
    else:  # mellin_inv
        b1, b2, b3, c1, x, y, nu, p = _need(params, _REQUIRED[fn])
        c = _real(_need(params, ("c",))[0], "c") if "c" in params else None
        value = mellin_inverse_numeric(
            AppellParams(b1, b2, b3, c1, x, y), _real(nu, "nu"), _real(p, "p"), c,
            args.tol or INVERSE_TOL,
        )
        trace = "inverse Mellin, truncated vertical contour"
    value = complex(value)
    if not cmath.isfinite(value):
        raise ConvergenceError(f"{fn} evaluated to a non-finite value ({value})")
    if value == 0 and fn in _NO_ZEROS:
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
                return _cmd_eval(args)
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
