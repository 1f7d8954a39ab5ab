"""Mellin transform of F_{1,p,nu} in p, and its inverse.

Forward, numerically: int_0^inf p^(s-1) F_{1,p,nu}(...) dp by one
exp-sinh quadrature in p -- the integrand behaves like p^(s-nu-1) at the
origin and is killed exponentially (e^(-4p)) by the Bessel kernel at
infinity, the two ends that rule is built for (Mori & Sugihara, J.
Comput. Appl. Math. 127, 2001).  Each integrand call of the outer
quadrature evaluates F_{1,p,nu} at all of its p nodes as one stacked
kernel integral, one row per p (the closure ``_radial`` builds).
F_{1,p,nu} does not depend on s, so transforms at several s are rows
of one outer quadrature that share each call's batch; nothing is kept
between calls.  The outer quadrature runs at 2e-7 and the inner batches
at 1e-9; how many levels the first call of each samples follows from
its tolerance (see ``quadrature._first_call_level``).

Forward, closed form:

    M(s) = 2^(s-1)/sqrt(pi) * Gamma((s-nu)/2) Gamma((s+nu+1)/2)
           * B(b1+s, c1-b1+s)/B(b1, c1-b1)
           * F1(b1+s, b2, b3; c1+2s; x, y).

The Beta ratio and the c1+2s denominator shift correct the source, whose
stated right-hand side (c1+s, no ratio) contradicts its own derivation;
the corrected form matches the numeric transform to machine precision
(and independent multiprecision evaluation to ~1e-16).

The closed form, the contour integrand and the p -> 0 limit are all
built from two factors, each taken at one s or over an array of s: the
Gamma pair Gamma((s-nu)/2) Gamma((s+nu+1)/2) and the shifted-Appell
factor

    R(s) = B(b1+s, c1-b1+s)/B(b1, c1-b1) * F1(b1+s, b2, b3; c1+2s; x, y).

Over an array (a contour call's nodes), each Gamma and the shifted Beta
are one array call of ``scalar.gamma`` and ``scalar.beta``, the
denominator one scalar ``hyper.euler_beta``, and the F1 values
come from one diagonal sum, a row per s; at one s (the closed form and
the limit) every factor takes the scalar path.

Inverse: (1/(2 pi i)) int_{c-i inf}^{c+i inf} p^(-s) M(s) ds along
Re(s) = c > nu.  The contour integrand is 2 sqrt(pi) p^(-s) M(s) =
(2/p)^s * pair * R, integrated in tau = Im(s) and divided by
4 pi sqrt(pi); the truncation is chosen from the measured Gamma-pair
decay (~e^(-pi |tau|/2)).  The line engine samples it in two calls at
the default tolerance, the probes and the block of levels 0-6 (513
nodes), where every contour of the suites and the benchmark stops; each
call's F1 rows take the diagonals a block of 32 at a time
(``hyper.block_double_sum``).

The p -> 0 limit of p^nu F_{1,p,nu}, which the forward quadrature uses
at its smallest abscissae, is the residue of M at its first pole s = nu:
2^nu Gamma(nu+1/2)/sqrt(pi) * R(nu).

Domain: (p, nu) as ``ExtensionParams``, the inverse's p real; s, or the
contour's c, finite and in the strip Re(s - nu) > 0 (``check_mellin_point``);
x, y as ``hyper.check_series_domain``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .bessel import check_extension_order
from .errors import DomainError
from .extbeta import ExtendedBetaFamily, ExtensionParams
from .hyper import (
    F1_TOL,
    AppellParams,
    block_double_sum,
    check_series_domain,
    euler_beta,
    euler_integral_beta,
    pochhammer_diagonal,
)
from .quadrature import ENDPOINT_CUTOFF, integrate_semi_infinite, integrate_vertical_line
from .scalar import beta, gamma, is_nonpositive_integer


def check_mellin_point(s: complex, nu: float, c1: complex) -> complex:
    """Validate the Theorem-3 strip Re(s - nu) > 0 at a finite s and nu as
    ``bessel.check_extension_order``, which give Re(s + nu) > -1, Re(s) > 0.

    Also keeps c1 + 2s, the shifted Appell denominator, off the
    non-positive integers; c1 + s, the source's misprinted denominator,
    is no pole of the corrected form.
    """
    s = complex(s)
    nu = check_extension_order(nu)
    if not (cmath.isfinite(s) and s.real - nu > 0.0):
        raise DomainError(f"need a finite s with Re(s - nu) > 0, got s={s}, nu={nu}")
    if is_nonpositive_integer(complex(c1) + 2 * s):
        raise DomainError(f"c1 + {2 * s} hits a non-positive integer")
    return s


def _gamma_pair(nu: float, s):
    """Gamma((s-nu)/2) Gamma((s+nu+1)/2), at one s or at every s of an
    array, two Gamma calls either way."""
    return gamma((s - nu) / 2.0) * gamma((s + nu + 1.0) / 2.0)


def _shifted_appell_factor(appell: AppellParams, s):
    """R(s) = B(b1+s, c1-b1+s)/B(b1, c1-b1) * F1(b1+s, b2, b3; c1+2s; x, y),
    at one s or at every s of an array.

    Over an array the F1 of every s is one row of a single diagonal sum
    and the shifted Beta is one array call; at one s both are scalar.
    The denominator is ``euler_beta``, one scalar call either way, so
    where B(b1, c1-b1) underflows R raises ``OverflowError``.
    """
    a = appell
    f1 = block_double_sum(pochhammer_diagonal(a.b1 + s, a.c1 + 2 * s),
                          a.b2, a.b3, a.x, a.y, F1_TOL)
    return beta(a.b1 + s, a.c1 - a.b1 + s) / euler_beta(a.b1, a.c1) * f1


_P_LIMIT_FORM = 1e-12
# every node is dead once 4p, the least w = p/(t(1-t)), passes
# ENDPOINT_CUTOFF (p ~ 186); the 0.26 * cutoff + 30 ~ 224 adds a margin
# for the t powers
_P_DEAD = 0.26 * ENDPOINT_CUTOFF + 30.0
# the contour quadrature's tolerance unless a caller passes its own
INVERSE_TOL = 1e-7


def _limit_coefficient(appell: AppellParams, nu: float) -> complex:
    """lim_{p->0} p^nu F_{1,p,nu} = 2^nu Gamma(nu+1/2)/sqrt(pi) * R(nu)."""
    r = _shifted_appell_factor(appell, complex(nu))
    return 2.0**nu * gamma(nu + 0.5) / math.sqrt(math.pi) * r


def _radial(appell: AppellParams, nu: float, s):
    """The forward integrand p^(s-1) F_{1,p,nu}(...) over an array of p > 0,
    at one s, or one row per s of a column of s (shape (m, 1)).

    The p of one call in [``_P_LIMIT_FORM``, ``_P_DEAD``) form one batch:
    one ``ExtendedBetaFamily`` at tolerance 1e-9 on that array of p, whose
    kernel has a row per p, and whose ``appell_sum`` integrates

        F(p) = sqrt(2p/pi)/B(b1, c1-b1)
               * int_0^1 g_p(t) (1-xt)^(-b2) (1-yt)^(-b3) dt

    for every p of the batch on shared tanh-sinh nodes, one row per p:
    the diagonal series sum_k c_k D_p(k) / B(b1, c1-b1), summed in closed
    form.  Below ``_P_LIMIT_FORM`` the p -> 0 limit of the kernel is used
    instead, B_{p,nu}(x, y) -> 2^nu Gamma(nu+1/2)/sqrt(pi) * p^-nu *
    B(x+nu, y+nu), whose relative error is dwarfed by the p^(s-nu) weight
    those abscissae carry in the transform; from ``_P_DEAD`` on the
    kernel wipes out the whole interval and the value is 0.  The limit's
    coefficient is taken up front: the exp-sinh level-0 nodes reach
    below ``_P_LIMIT_FORM``, so the first call always needs it.  Neither
    it nor F(p) depends on s, so every row of a call shares its batch,
    and p^(s-1) broadcasts over the rows.
    """
    a = appell
    b0 = euler_integral_beta(a.b1, a.c1)
    limit_coefficient = _limit_coefficient(appell, nu)

    def weighted(ps: np.ndarray) -> np.ndarray:
        out = np.zeros(np.broadcast_shapes(np.shape(s), ps.shape), dtype=complex)
        limit = ps < _P_LIMIT_FORM
        if np.any(limit):
            out[..., limit] = np.exp((s - 1.0 - nu) * np.log(ps[limit])) * limit_coefficient
        live = ~limit & (ps < _P_DEAD)
        if np.any(live):
            fam = ExtendedBetaFamily(a.b1, a.c1 - a.b1, ps[live], nu, 1e-9)
            out[..., live] = (np.exp((s - 1.0) * np.log(ps[live]))
                              * fam.appell_sum(a.b2, a.b3, a.x, a.y, 1.0 / b0))
        return out

    return weighted


def mellin_forward_numeric(appell: AppellParams, nu: float, s):
    """The transform by direct exp-sinh integration in p over (0, inf), at
    one s, or as an array at every s of a 1-D array of s.

    Each integrand call of the outer quadrature (tolerance 2e-7)
    evaluates the radial factor at all of its p nodes in one batch
    (tolerance 1e-9), which the rows of an array of s share.  The rows
    refine until every one passes, so a row may stop a level deeper than
    its one-s transform, and one row that does not converge fails them
    all.  A terminating b2 or b3 admits a real x or y on [1, inf), whose
    NaN samples the quadrature refuses.
    """
    rows = np.ndim(s) == 1
    points = [check_mellin_point(v, nu, appell.c1) for v in (s if rows else [s])]
    if not points:
        raise DomainError("need at least one s")
    check_series_domain(appell, "the Mellin pair")
    weighted = _radial(appell, nu, np.array(points)[:, None] if rows else points[0])
    value = integrate_semi_infinite(weighted, 2e-7).converged_value("Mellin forward integral")
    return value if rows else complex(value)


def mellin_forward_closed(appell: AppellParams, nu: float, s: complex) -> complex:
    """The closed form of the transform (corrected; see module docstring)."""
    s = check_mellin_point(s, nu, appell.c1)
    check_series_domain(appell, "the Mellin pair")
    return 2.0 ** (s - 1.0) / math.sqrt(math.pi) * (_gamma_pair(nu, s)
                                                    * _shifted_appell_factor(appell, s))


def _inversion_integrand(appell: AppellParams, nu: float, p: float, c: float):
    """The contour integrand (2/p)^s * pair * R at s = c + i tau, every tau
    of a call at once."""
    log2p = math.log(2.0 / p)

    def f(taus: np.ndarray) -> np.ndarray:
        s = c + 1j * np.asarray(taus, dtype=float)
        return np.exp(s * log2p) * _gamma_pair(nu, s) * _shifted_appell_factor(appell, s)

    return f


def mellin_inverse_numeric(
    appell: AppellParams,
    nu: float,
    p: float,
    c: float | None = None,
    tol: float = INVERSE_TOL,
) -> complex:
    """Reconstruct F_{1,p,nu} from the closed-form transform by contour
    integration along Re(s) = c in the strip (``check_mellin_point``;
    default c = nu + 1), the contour quadrature run at ``tol``; its p is
    real besides, for the contour's log(2/p), and so is c, the line's
    abscissa."""
    ext = ExtensionParams(p, nu)
    if ext.p.imag != 0.0:
        raise DomainError(f"inversion needs a real p, got p = {ext.p}")
    p, nu = ext.p.real, ext.nu
    check_series_domain(appell, "the Mellin pair")
    c = check_mellin_point(nu + 1.0 if c is None else c, nu, appell.c1)
    if c.imag != 0.0:
        raise DomainError(f"inversion needs a real abscissa, got c = {c}")
    c = c.real
    res = integrate_vertical_line(_inversion_integrand(appell, nu, p, c), tol)
    return (complex(res.converged_value("inversion contour integral"))
            / (4.0 * math.pi * math.sqrt(math.pi)))
