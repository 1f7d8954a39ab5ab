"""The (p, nu)-extended Appell function F_{1,p,nu}.

Series route (|x| < 1, |y| < 1):

    F_{1,p,nu}(b1,b2,b3;c1;x,y) =
        sum_{m,n} (b2)_m (b3)_n B_{p,nu}(b1+m+n, c1-b1) / B(b1, c1-b1)
                  * x^m y^n / (m! n!),

where the extended-Beta factor depends on (m, n) only through the
diagonal k = m + n: the series is sum_k c_k B_{p,nu}(b1+k, c1-b1) /
B(b1, c1-b1), every diagonal value a moment of one kernel integrand.
Integral route (Re(c1) > Re(b1) > 0):

    Gamma(c1)/(Gamma(b1) Gamma(c1-b1)) * sqrt(2p/pi) *
    int_0^1 t^(b1-3/2) (1-t)^(c1-b1-3/2) (1-xt)^(-b2) (1-yt)^(-b3)
            K_{nu+1/2}(p/(t(1-t))) dt.

The power factors pair (b2 with x) and (b3 with y) so that binomial
expansion of the integrand reproduces the series exactly.

``f1pv`` takes a route by name (``ROUTES``) and one tolerance, that of the
quadratures behind either route; the series sums its diagonals to 1 % of it.

The diagonal values D(k) = B_{p,nu}(b1+k, c1-b1) / B(b1, c1-b1) depend on
(b1, c1, p, nu) only, not on x, y, b2 or b3, so series calls share one
``ExtendedBetaFamily`` per (b1, c1, p, nu, tol), the last eight kept
(``_series_diagonal``), and the family grows in place.  A shared family
gives the bits a fresh one would: ``block_double_sum`` reads D(k) in
order k = 0, 1, 2, ..., so a family always grows through the same row
counts 32, 64, 128, ..., and it keeps every value it has returned, so no
D(k) shows which earlier sums grew it.  Families are mutable and
unlocked: the package is single-threaded.  The integral route builds its
own one-shot family per call.  Both routes hand the family the one p and
the nu of their ``ExtensionParams``; a batch of p, a kernel row per p,
exists only inside the numeric Mellin transform (``mellin``).

On top of the two routes: the Moebius transformation identity in
(x, y), derivatives of any order via parameter shifts, recursions in
b2/b3, and a strict upper bound for real parameters.  The bound's
prefactor is the Bessel lemma |K_{nu+1/2}(w)| < (1/2) (2|w|/Re(w)^2)^(nu+1/2)
Gamma(nu+1/2) (``bessel_k_upper_bound``) taken at w = p/(t(1-t)).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .bessel import bessel_k_upper_bound
from .errors import DomainError
from .extbeta import ExtendedBetaFamily, ExtensionParams
from .hyper import (
    AppellParams,
    appell_f1_integral,
    appell_f1_series,
    block_double_sum,
    check_euler_domain,
    check_unit_disc,
    euler_beta,
    euler_integral_beta,
)
from .quadrature import DEFAULT_TOL
from .scalar import beta, pochhammer

_AUTO_SERIES_LIMIT = 0.9


def prefers_series(x: complex, y: complex) -> bool:
    """The automatic route rule: series when |x| and |y| are both at most 0.9."""
    return abs(x) <= _AUTO_SERIES_LIMIT and abs(y) <= _AUTO_SERIES_LIMIT


@dataclass(frozen=True)
class ExtendedAppellInput:
    """Appell parameters plus the (p, nu) extension."""

    appell: AppellParams
    ext: ExtensionParams


ROUTES = ("series", "integral", "auto")


def route_for(inp: ExtendedAppellInput) -> str:
    """The route "auto" takes: the series when ``prefers_series(x, y)``,
    the integral otherwise.  Both divide by ``euler_integral_beta(b1, c1)``,
    so a pole, an underflow or a cancelling integral fails on either route."""
    a = inp.appell
    return "series" if prefers_series(a.x, a.y) else "integral"


# a diff trial's 15 series calls take three (b1, c1) and a recursion
# trial's 6 take two, so eight entries hold a trial's families
@functools.lru_cache(maxsize=8)
def _series_diagonal(b1: complex, c1: complex, ext: ExtensionParams, tol: float):
    """diag(k) = B_{p,nu}(b1+k, c1-b1) / B(b1, c1-b1), memoized in one family
    that every series call at (b1, c1, p, nu, tol) shares (see the module
    docstring).  Callers pass all four arguments positionally, since the
    cache keys a keyword or defaulted call apart from a positional one."""
    b0 = euler_integral_beta(b1, c1)
    fam = ExtendedBetaFamily(b1, c1 - b1, ext.p, ext.nu, tol)
    return lambda k: fam.value(k) / b0


def f1pv_series(inp: ExtendedAppellInput, tol: float = DEFAULT_TOL) -> complex:
    """Series route; needs |x| < 1 and |y| < 1.

    ``tol`` is the tolerance of the quadrature behind the diagonal
    values; the diagonal sum stops at ``tol / 100``.
    """
    a = inp.appell
    check_unit_disc(a, "the series route")
    diag = _series_diagonal(a.b1, a.c1, inp.ext, tol)
    return block_double_sum(diag, a.b2, a.b3, a.x, a.y, tol / 100)


def f1pv_integral(inp: ExtendedAppellInput, tol: float = DEFAULT_TOL) -> complex:
    """Integral route, in the Euler domain (``check_euler_domain``):
    Re(c1) > Re(b1) > 0 and x, y off [1, inf).  Its prefactor is
    1/``euler_integral_beta(b1, c1)``."""
    a = inp.appell
    check_euler_domain(a.b1, a.c1, a.x, a.y)
    pref = 1.0 / euler_integral_beta(a.b1, a.c1)
    fam = ExtendedBetaFamily(a.b1, a.c1 - a.b1, inp.ext.p, inp.ext.nu, tol)
    return fam.appell_sum(a.b2, a.b3, a.x, a.y, pref)


def f1pv(inp: ExtendedAppellInput, route: str = "auto", tol: float = DEFAULT_TOL) -> complex:
    """Route dispatcher: one of ``ROUTES``, "auto" choosing by ``route_for``;
    ``tol`` is the quadrature tolerance of either route."""
    if route not in ROUTES:
        raise DomainError(f"unknown route {route!r}; choose from {ROUTES}")
    if route == "auto":
        route = route_for(inp)
    if route == "series":
        return f1pv_series(inp, tol)
    return f1pv_integral(inp, tol)


def f1pv_transform(inp: ExtendedAppellInput) -> complex:
    """Right-hand side of the Moebius transformation identity:

    (1-x)^(-b2) (1-y)^(-b3) F_{1,p,nu}(c1-b1, b2, b3; c1; x/(x-1), y/(y-1)).

    Agrees with ``f1pv_integral`` on the common domain.  The right side
    is the Euler integral at first parameter c1 - b1, so its domain is
    ``check_euler_domain(c1 - b1, c1, x, y)``: Re(c1) > Re(c1 - b1) > 0 is
    Re(b1) > 0 and Re(c1 - b1) > 0, the domain of both sides.  x and y
    are checked before x/(x-1) is formed.
    """
    a = inp.appell
    check_euler_domain(a.c1 - a.b1, a.c1, a.x, a.y)
    xi = a.x / (a.x - 1.0)
    eta = a.y / (a.y - 1.0)
    flipped = ExtendedAppellInput(
        AppellParams(a.c1 - a.b1, a.b2, a.b3, a.c1, xi, eta), inp.ext
    )
    pref = cmath.exp(-a.b2 * cmath.log(1.0 - a.x) - a.b3 * cmath.log(1.0 - a.y))
    return pref * f1pv_integral(flipped)


def f1pv_derivative(
    inp: ExtendedAppellInput,
    m_order: int,
    n_order: int,
) -> complex:
    """d^(M+N) F / dx^M dy^N via the parameter-shift identity:

    (b1)_{M+N} (b2)_M (b3)_N / (c1)_{M+N} *
    F_{1,p,nu}(b1+M+N, b2+M, b3+N; c1+M+N; x, y).

    The identity holds for integer orders M, N >= 0 only; any other
    order raises DomainError.  The shifted F is ``f1pv`` on the route
    ``route_for`` picks.
    """
    if not all(float(o).is_integer() and o >= 0 for o in (m_order, n_order)):
        raise DomainError(
            f"derivative orders must be non-negative integers, got ({m_order}, {n_order})"
        )
    a = inp.appell
    k = m_order + n_order
    pref = (
        pochhammer(a.b1, k)
        * pochhammer(a.b2, m_order)
        * pochhammer(a.b3, n_order)
        / pochhammer(a.c1, k)
    )
    shifted = ExtendedAppellInput(
        AppellParams(a.b1 + k, a.b2 + m_order, a.b3 + n_order, a.c1 + k, a.x, a.y),
        inp.ext,
    )
    return pref * f1pv(shifted)


def _recursion(inp: ExtendedAppellInput, n: int, on_b2: bool) -> complex:
    if n < 1:
        raise DomainError(f"recursion step count must be >= 1, got {n}")
    a = inp.appell
    base = f1pv_series(inp)
    var = a.x if on_b2 else a.y
    if var == 0:
        return base
    d2, d3 = (1, 0) if on_b2 else (0, 1)
    # all shifted terms share (b1+1, c1+1), hence one cached diagonal
    shifted = (AppellParams(a.b1 + 1, a.b2 + d2 * ell, a.b3 + d3 * ell, a.c1 + 1, a.x, a.y)
               for ell in range(1, n + 1))
    total = sum(f1pv_series(ExtendedAppellInput(s, inp.ext)) for s in shifted)
    return base + a.b1 * var / a.c1 * total


def f1pv_recursion_b2(inp: ExtendedAppellInput, n: int) -> complex:
    """F_{1,p,nu} with b2 raised by n, assembled from the recursion:

    F(b2+n) = F(b2) + (b1 x / c1) sum_{l=1..n} F(b1+1, b2+l, b3; c1+1).
    """
    return _recursion(inp, n, True)


def f1pv_recursion_b3(inp: ExtendedAppellInput, n: int) -> complex:
    """Mirror of ``f1pv_recursion_b2`` acting on (b3, y)."""
    return _recursion(inp, n, False)


def _require_real(inp: ExtendedAppellInput) -> tuple:
    a = inp.appell
    vals = (a.b1, a.b2, a.b3, a.c1, a.x, a.y)
    if any(v.imag != 0.0 for v in vals):
        raise DomainError("bound holds for real parameters and variables only")
    return tuple(v.real for v in vals)


def _bound_prefactor(inp: ExtendedAppellInput) -> float:
    """The lemma at w = p/(t(1-t)) is its value at w = p times
    (t(1-t))^(nu+1/2), since |w|/Re(w)^2 = t(1-t) |p|/Re(p)^2; that power
    raises both Beta arguments by nu.  Real parameters in the Euler
    domain (``check_euler_domain``) only."""
    b1, _b2, _b3, c1, x, y = _require_real(inp)
    check_euler_domain(b1, c1, x, y)
    nu, p = inp.ext.nu, inp.ext.p
    return (
        math.sqrt(2.0 * abs(p) / math.pi)
        * bessel_k_upper_bound(nu, p)
        * beta(b1 + nu, c1 - b1 + nu).real
        / euler_beta(b1, c1).real
    )


def f1pv_bound(inp: ExtendedAppellInput) -> float:
    """Strict upper bound for |F_{1,p,nu}| (real parameters, x, y < 1):

    2^nu |p|^(nu+1) / (sqrt(pi) Re(p)^(2nu+1)) * Gamma(nu+1/2)
    * B(b1+nu, c1-b1+nu)/B(b1, c1-b1) * F1(b1+nu, b2, b3; c1+2nu; x, y),

    the first line being sqrt(2|p|/pi) * bessel_k_upper_bound(nu, p).
    """
    b1, b2, b3, c1, x, y = _require_real(inp)
    pref = _bound_prefactor(inp)
    nu = inp.ext.nu
    f1 = AppellParams(b1 + nu, b2, b3, c1 + 2.0 * nu, x, y)
    factor = appell_f1_series(f1) if prefers_series(x, y) else appell_f1_integral(f1)
    return pref * factor.real


def f1pv_bound_simple(inp: ExtendedAppellInput) -> float:
    """The bound without the F1 factor, on its sign-restricted subdomain:

    x < 0, y < 0 with b2, b3 > 0 (or x, y > 0 with b2, b3 < 0).
    """
    _b1, b2, b3, _c1, x, y = _require_real(inp)
    neg_case = x < 0.0 and y < 0.0 and b2 > 0.0 and b3 > 0.0
    pos_case = x > 0.0 and y > 0.0 and b2 < 0.0 and b3 < 0.0
    if not (neg_case or pos_case):
        raise DomainError(
            "simple bound needs x,y < 0 with b2,b3 > 0, or x,y > 0 with b2,b3 < 0"
        )
    return _bound_prefactor(inp)
