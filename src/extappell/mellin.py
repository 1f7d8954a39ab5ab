"""Mellin transform of F_{1,p,nu} in p, and its inverse.

Forward, numerically: int_0^inf p^(s-1) F_{1,p,nu}(...) dp by one
exp-sinh quadrature in p -- the integrand behaves like p^(s-nu-1) at the
origin and is killed exponentially (e^(-4p)) by the Bessel kernel at
infinity, the two ends that rule is built for (Mori & Sugihara, J.
Comput. Appl. Math. 127, 2001).  Each integrand call of the outer
quadrature evaluates F_{1,p,nu} at all of its p nodes as one stacked
kernel integral, one row per p (the closure ``_radial`` builds).  The
outer quadrature runs at 2e-7 and the inner batches at 1e-9; how many
levels the first call of each samples follows from its tolerance (see
``quadrature._first_call_level``).

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
decay (~e^(-pi |tau|/2)).

The p -> 0 limit of p^nu F_{1,p,nu}, which the forward quadrature uses
at its smallest abscissae, is the residue of M at its first pole s = nu:
2^nu Gamma(nu+1/2)/sqrt(pi) * R(nu).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .extbeta import ExtendedBetaFamily
from .hyper import (
    F1_TOL,
    AppellParams,
    block_double_sum,
    check_unit_disc,
    euler_beta,
    euler_integral_beta,
    pochhammer_diagonal,
)
from .quadrature import ENDPOINT_CUTOFF, integrate_semi_infinite, integrate_vertical_line
from .scalar import beta, gamma, is_nonpositive_integer


def check_mellin_point(s: complex, nu: float, c1: complex) -> complex:
    """Validate the Theorem-3 strip: Re(s-nu) > 0, Re(s+nu) > -1, Re(s) > 0.

    Also keeps c1 + s and c1 + 2s (the shifted Appell denominator) off
    the non-positive integers.
    """
    s = complex(s)
    if not s.real - nu > 0.0:
        raise DomainError(f"need Re(s - nu) > 0, got s={s}, nu={nu}")
    if not s.real + nu > -1.0:
        raise DomainError(f"need Re(s + nu) > -1, got s={s}, nu={nu}")
    if not s.real > 0.0:
        raise DomainError(f"need Re(s) > 0, got s={s}")
    for shift in (s, 2 * s):
        if is_nonpositive_integer(complex(c1) + shift):
            raise DomainError(f"c1 + {shift} hits a non-positive integer")
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
# beyond ~4 Re(p) * cutoff the kernel wipes out the whole interval
_P_DEAD = 0.26 * ENDPOINT_CUTOFF + 30.0
# the contour quadrature's tolerance unless a caller passes its own
INVERSE_TOL = 1e-7


def _limit_coefficient(appell: AppellParams, nu: float) -> complex:
    """lim_{p->0} p^nu F_{1,p,nu} = 2^nu Gamma(nu+1/2)/sqrt(pi) * R(nu)."""
    r = _shifted_appell_factor(appell, complex(nu))
    return 2.0**nu * gamma(nu + 0.5) / math.sqrt(math.pi) * r


def _radial(appell: AppellParams, nu: float, s: complex):
    """The forward integrand p^(s-1) F_{1,p,nu}(...) over an array of p > 0.

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
    below ``_P_LIMIT_FORM``, so the first call always needs it.
    """
    a = appell
    b0 = euler_integral_beta(a.b1, a.c1)
    limit_coefficient = _limit_coefficient(appell, nu)

    def weighted(ps: np.ndarray) -> np.ndarray:
        out = np.zeros(ps.shape, dtype=complex)
        limit = ps < _P_LIMIT_FORM
        if np.any(limit):
            out[limit] = np.exp((s - 1.0 - nu) * np.log(ps[limit])) * limit_coefficient
        live = ~limit & (ps < _P_DEAD)
        if np.any(live):
            p = ps[live]
            fam = ExtendedBetaFamily(a.b1, a.c1 - a.b1, p, nu, 1e-9)
            out[live] = (np.exp((s - 1.0) * np.log(p))
                         * fam.appell_sum(a.b2, a.b3, a.x, a.y, 1.0 / b0))
        return out

    return weighted


def mellin_forward_numeric(appell: AppellParams, nu: float, s: complex) -> complex:
    """The transform by direct exp-sinh integration in p over (0, inf).

    Each integrand call of the outer quadrature (tolerance 2e-7)
    evaluates the radial factor at all of its p nodes in one batch
    (tolerance 1e-9); ``quadrature._first_call_level`` sets the levels
    the first call of each samples.
    """
    s = check_mellin_point(s, nu, appell.c1)
    check_unit_disc(appell, "the Mellin pair")
    res = integrate_semi_infinite(_radial(appell, nu, s), 2e-7)
    val = complex(res.converged_value("Mellin forward integral"))
    return complex(val.real, 0.0) if s.imag == 0.0 else val


def mellin_forward_closed(appell: AppellParams, nu: float, s: complex) -> complex:
    """The closed form of the transform (corrected; see module docstring)."""
    s = check_mellin_point(s, nu, appell.c1)
    check_unit_disc(appell, "the Mellin pair")
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
    integration along Re(s) = c > nu (default c = nu + 1), the contour
    quadrature run at ``tol``."""
    if not p > 0.0:
        raise DomainError(f"inversion needs real p > 0, got {p}")
    check_unit_disc(appell, "the Mellin pair")
    c = nu + 1.0 if c is None else c
    if not c > nu:
        raise DomainError(f"abscissa must exceed nu, got c={c}, nu={nu}")
    res = integrate_vertical_line(_inversion_integrand(appell, nu, p, c), tol)
    return (complex(res.converged_value("inversion contour integral"))
            / (4.0 * math.pi * math.sqrt(math.pi)))
