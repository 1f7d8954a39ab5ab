"""The (p, nu)-extended Beta function.

B_{p,nu}(x, y) = sqrt(2p/pi) * int_0^1 t^(x-3/2) (1-t)^(y-3/2)
                 K_{nu+1/2}(p / (t(1-t))) dt,      Re(p) > 0, nu >= 0,

together with the single-parameter extension
B(x, y; p) = int_0^1 t^(x-1) (1-t)^(y-1) exp(-p/(t(1-t))) dt, which the
nu = 0 case reproduces.

Setting F1 -> 1 (x = y = 0) in the corrected Mellin transform of
F_{1,p,nu} (see ``mellin``) gives the transform of B_{p,nu} in p:

    int_0^inf p^(s-1) B_{p,nu}(x, y) dp
        = 2^(s-1)/sqrt(pi) Gamma((s-nu)/2) Gamma((s+nu+1)/2) B(x+s, y+s).

With s = 2u, Gauss's multiplication formula splits Gamma(x+2u),
Gamma(y+2u) and Gamma(x+y+4u), and the inverse transform is a Meijer G
function, an exact reference for every value (``tests/test_reference_g.py``):

    B_{p,nu}(x, y) = 2^(1/2-x-y) G^{6,0}_{4,6}(4p^2 | sigma, sigma+1/4,
                     sigma+1/2, sigma+3/4; -nu/2, (nu+1)/2, x/2, (x+1)/2,
                     y/2, (y+1)/2),      sigma = (x+y)/4.

The Bessel kernel suppresses both endpoints faster than any power, so x
and y are unrestricted.  Every integrand over (0, 1) in the package, the
Chaudhry kernel's and ``hyper``'s F1 Euler integral's too, comes from
``euler_integrand``: one fused log-domain exponent, with the exponential
part of K folded in (the scaled Bessel variant), and exactly zero once
that exponent drops below -``quadrature.ENDPOINT_CUTOFF``; the kernel is
evaluated only at the other nodes, and keeps no values between calls.

``ExtendedBetaFamily`` evaluates B_{p,nu}(a + k, b) for k = 0, 1, 2, ...
as the moments int t^k g(t) dt of the one integrand g of B_{p,nu}(a, b):
one quadrature with ``moments`` integrates them all from one sample of g
per node, so the kernel is evaluated once for all k of the stack.  The
extended Appell series leans on it, since its double series needs one
extended-Beta value per diagonal m + n = k.  Its ``appell_sum`` sums
that series in closed form, as the one Appell-weighted kernel integral;
with a power of w it is also the integral of the Meijer-G forms of
Theorem 1.

The kernel and the family take p and nu as plain values: p is one
complex, or a 1-D array of real p > 0, one kernel row per p on shared
nodes, which the numeric Mellin transform integrates (``mellin``).
``ExtensionParams``, the validated pair of the public routes, holds one p.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_k_scaled_many, check_extension_order
from .errors import DomainError
from .quadrature import DEFAULT_TOL, ENDPOINT_CUTOFF, integrate_unit_interval

# moments integrated by a family's first quadrature; each later one doubles them
_FIRST_ROWS = 64


@dataclass(frozen=True)
class ExtensionParams:
    """The extension pair (p, nu), and the one home of the rule on p: one
    finite p with Re(p) > 0; nu as in ``bessel.check_extension_order``."""

    p: complex
    nu: float

    def __post_init__(self):
        p = complex(self.p)
        if not (cmath.isfinite(p) and p.real > 0.0):
            raise DomainError(f"the extension needs Re(p) > 0 and a finite p, got p = {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "nu", check_extension_order(self.nu))


class ExtendedBetaKernel:
    """The scaled Bessel kernel e^w K_{nu+1/2}(w) at w = p / (t (1 - t)).

    ``p`` is one complex, or a 1-D array of real p > 0 whose rows share
    ``nu``: the argument is then the matrix p_i / (t_j (1 - t_j)), one row
    per p.  Stateless apart from (p, nu): ``scaled_values`` evaluates the
    kernel at exactly the arguments it is given.
    """

    def __init__(self, p, nu: float):
        self.order = nu + 0.5
        # the one test of a batch (real, a row per p) against one p: it
        # sets the p that ``_exponents`` reads and sqrt(2p/pi) per row
        if isinstance(p, np.ndarray):
            self._p, self._p0, self._root = p[:, None], 0.0, np.sqrt(2.0 * p / np.pi)
        else:
            self._p = self._p0 = real_or_complex(p)[0]
            self._root = cmath.sqrt(2.0 * p / cmath.pi)

    def argument(self, t: np.ndarray, tc: np.ndarray) -> np.ndarray:
        return self._p / (t * tc)

    def scaled_values(self, w: np.ndarray) -> np.ndarray:
        """e^w K_{nu+1/2}(w) for an array of arguments."""
        return bessel_k_scaled_many(self.order, w)


def real_or_complex(*values):
    """``values`` as floats when every one is real, else as complexes."""
    values = [complex(v) for v in values]
    if all(v.imag == 0.0 for v in values):
        return [v.real for v in values]
    return values


def euler_integrand(xt, yt, kernel: ExtendedBetaKernel | None = None, extra=None):
    """Integrand t^xt (1-t)^yt exp(extra(t, tc)) [K_{nu+1/2}(w)], w = p/(t(1-t)).

    The exponent xt log t + yt log(1-t) [- w] [+ ``extra(t, tc)``] is
    formed first; a kernel adds -w and multiplies by e^w K_{nu+1/2}(w),
    and for a kernel with rows the values have the shape of w, one row
    per p.
    Nodes whose exponent is at or below -``ENDPOINT_CUTOFF`` are exactly
    zero, and the kernel is evaluated only at the others (a NaN exponent
    is live, so the quadrature refuses it).  Both powers must be finite.
    """
    for name, power in (("t", xt), ("1-t", yt)):
        if not cmath.isfinite(power):
            raise DomainError(f"the Euler integrand needs a finite power of {name}, got {power}")

    def integrand(t, tc):
        expo = xt * np.log(t) + yt * np.log(tc)
        if kernel is not None:
            w = kernel.argument(t, tc)
            expo = expo - w
        if extra is not None:
            expo = expo + extra(t, tc)
        re = expo.real if np.iscomplexobj(expo) else expo
        live = ~(re <= -ENDPOINT_CUTOFF)  # True at NaN, for the quadrature to refuse
        out = np.zeros(expo.shape, dtype=expo.dtype)
        if not live.any():
            return out
        v = np.exp(expo[live])
        if kernel is not None:
            v = v * kernel.scaled_values(w[live])
        out[live] = v
        return out

    return integrand


def appell_powers(b2, b3, x, y):
    """log (1-xt)^(-b2) (1-yt)^(-b3), an ``extra`` of ``euler_integrand``;
    a real x or y >= 1 (only a terminating b2 or b3 admits one) takes the
    complex log, since 1 - xt goes negative."""
    x, y = (complex(v) if isinstance(v, float) and v >= 1.0 else v for v in (x, y))
    return lambda t, tc: -b2 * np.log((1.0 - x) + x * tc) - b3 * np.log((1.0 - y) + y * tc)


def _exponents(x: complex, y: complex, kernel: ExtendedBetaKernel, *more):
    """Powers x - 3/2 and y - 3/2 of t and 1-t, then ``more``: all real
    when x, y, the kernel's p and ``more`` are, else all complex."""
    x, y, _, *more = real_or_complex(x, y, kernel._p0, *more)
    return (x - 1.5, y - 1.5, *more)


def extended_beta(
    x: complex,
    y: complex,
    ext: ExtensionParams,
    tol: float = DEFAULT_TOL,
) -> complex:
    """B_{p,nu}(x, y) for arbitrary complex x, y; ``tol`` is the quadrature's.

    Raises
    ------
    ConvergenceError
        If the quadrature fails to meet its tolerance.
    """
    kernel = ExtendedBetaKernel(ext.p, ext.nu)
    xt, yt = _exponents(x, y, kernel)
    res = integrate_unit_interval(euler_integrand(xt, yt, kernel), tol)
    return kernel._root * res.converged_value("extended Beta quadrature")


def chaudhry_beta(
    x: complex, y: complex, p: complex, tol: float = DEFAULT_TOL
) -> complex:
    """The p-extension B(x, y; p) with kernel exp(-p/(t(1-t))), Re(p) > 0
    (Chaudhry, Qadir, Rafique & Zubair, J. Comput. Appl. Math. 78, 1997):
    the Euler integrand with no Bessel kernel and -p/(t(1-t)) as ``extra``."""
    x, y, p = real_or_complex(x, y, ExtensionParams(p, 0.0).p)
    integrand = euler_integrand(x - 1.0, y - 1.0, extra=lambda t, tc: -p / (t * tc))
    res = integrate_unit_interval(integrand, tol)
    return complex(res.converged_value("Chaudhry Beta quadrature"))


class ExtendedBetaFamily:
    """B_{p,nu}(a + k, b) for k = 0, 1, 2, ... from one sampled integrand.

    D(k) = sqrt(2p/pi) int_0^1 t^k g(t) dt, with g the fused integrand of
    B_{p,nu}(a, b).  The moments k < K are one ``integrate_unit_interval``
    call with ``moments=K``: the family hands it g, one value per node,
    and the quadrature weighs g with its power weights t^k w, holding each
    moment to the test that ``extended_beta`` applies to one value.  A k
    beyond K integrates twice as many moments, sampling g again; they
    include the old ones, so the quadrature stops at no lower level.
    Values once returned are kept.

    A family grows in place and may be shared: the series route of
    F_{1,p,nu} keeps one per (a, a+b, p, nu, tol) (``f1pv``).  A reader
    that asks for k = 0, 1, 2, ... in order, as ``block_double_sum``
    does, grows it through 64, 128, 256, ... rows whatever other readers
    asked before, so each D(k) is the same bits as from a fresh family.
    Nothing locks it: the package is single-threaded.

    ``appell_sum`` sums the Appell diagonal series sum_k c_k D(k) in
    closed form instead: sum_k c_k t^k = (1-xt)^(-b2) (1-yt)^(-b3), so
    the sum is the single integral of g(t) (1-xt)^(-b2) (1-yt)^(-b3).
    With an array p (see ``ExtendedBetaKernel``) it integrates one row
    per p on shared nodes, each row held to the test of one integral;
    ``value`` needs one p.  Every quadrature runs at ``tol``.

    Raises
    ------
    ConvergenceError
        If some row fails its test within the level budget.
    """

    def __init__(
        self,
        a: complex,
        b: complex,
        p,
        nu: float,
        tol: float = DEFAULT_TOL,
    ):
        self.a = complex(a)
        self.b = complex(b)
        self.tol = tol
        self.kernel = ExtendedBetaKernel(p, nu)
        self._vals = np.zeros(0, dtype=complex)

    def value(self, k: int) -> complex:
        if k >= self._vals.size:
            self._integrate(max(2 * self._vals.size, k + 1, _FIRST_ROWS))
        return complex(self._vals[k])

    def _integrate(self, rows: int) -> None:
        xt, yt = _exponents(self.a, self.b, self.kernel)
        g = euler_integrand(xt, yt, self.kernel)
        res = integrate_unit_interval(g, self.tol, moments=rows)
        vals = self.kernel._root * res.converged_value("extended Beta moments")
        self._vals = np.concatenate([self._vals, vals[self._vals.size:]])

    def appell_sum(self, b2, b3, x, y, prefactor: complex = 1.0, w_power: float = 0.0):
        """prefactor * sum_k c_k D(k), c_k as in ``f1_diagonal_coefficients``.

        Equals prefactor * sqrt(2p/pi) int_0^1 g(t) (1-xt)^(-b2)
        (1-yt)^(-b3) w^w_power dt, w = p/(t(1-t)); x and y must lie off
        [1, inf).  With prefactor 1/B(a, b) and no w power this is
        F_{1,p,nu}(a, b2, b3; a+b; x, y); the w power is the w^mu of the
        Meijer-G forms.  An array, one value per p, for an array p.
        """
        xt, yt, b2, b3, x, y, w_power = _exponents(
            self.a, self.b, self.kernel, b2, b3, x, y, w_power)
        powers = appell_powers(b2, b3, x, y)

        def extra(t, tc):
            terms = powers(t, tc)
            if w_power:
                terms = terms + w_power * np.log(self.kernel.argument(t, tc))
            return terms

        res = integrate_unit_interval(euler_integrand(xt, yt, self.kernel, extra), self.tol)
        return prefactor * self.kernel._root * res.converged_value("extended Appell integral")
