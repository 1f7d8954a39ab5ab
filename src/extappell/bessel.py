"""Modified Bessel function of the second kind, K_nu(z), for Re(z) > 0.

Two routes cover every order:

* the Hankel expansion (DLMF 10.40.2)
  e^z K_nu(z) ~ sqrt(pi/(2z)) sum_j a_j(nu) z^{-j},
  a_j(nu) = prod_{i<=j} (4 nu^2 - (2i-1)^2) / (j! 8^j),
  which terminates at half-odd-integer orders nu = k + 1/2, because
  a_{k+1}(k + 1/2) = 0 (DLMF 10.49.12): there it is the exact finite sum
  sum_j (k+j)! / (j! (k-j)! (2z)^j), used at every z for k <= 134.
  At every other real order (larger half-odd ones too) it is asymptotic
  and serves |z| >= Z_H(nu) = max(30, (4 nu^2 - 1)/8), where its terms
  shrink from at most about 1 and it stops at its first term below 1e-17
  at Z_H: about 20 terms, fixed by nu,
* the remaining arguments use the cosh-kernel integral
  K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt,
  whose integrand already decays doubly exponentially, so the plain
  trapezoid rule converges geometrically.  Arguments share one tau grid
  per magnitude band, 16x wide and counted down from Z_H, so
  [Z_H/16, Z_H) is one grid.

The exponentially scaled variant e^z K_nu(z) integrates
exp(-z (cosh t - 1)) cosh(nu t) instead, which keeps the t -> {0,1}
endpoint regime of the extended-Beta kernel computable; the Hankel
route keeps it right to double precision for any |z| >= Z_H.
Array-valued helpers back the quadrature hot loops.

The trapezoid step of a complex argument comes from the strip
|Im t| < pi/2 - |arg z| in which the integrand is analytic and decays,
not from the phase rate at the truncation point, where the integrand is
already negligible.  Each refinement level halves the step over the
whole truncated grid, and a grid that has not settled after 8 levels
raises ConvergenceError.

Supported range: real z at any order up to the overflow guard of
``_cosh_tau_max`` (against mpmath, the worst relative error over
nu in (0, 40] and z in [1e-3, 1e4] is 3.2e-14).  Complex z at a large
order and |arg z| near pi/2 raises ConvergenceError, because the cosh
integral cancels below double precision there (e.g. nu = 8.8 at
z = 5 e^{1.3i}), and so does the terminating sum at a large half-odd
order (e.g. nu = 100.5 at z = 79.4 e^{1.50i}).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .scalar import gamma

_ORDER_TOL = 1e-12
# half-odd orders k + 1/2 up to this k take the terminating Hankel sum;
# its coefficients a_j = (k+j)!/(j!(k-j)! 2^j) fit a double up to about
# k = 150, but 134 (where (2k)!/k! still fits) is kept, because the tests
# and the benchmark's half-odd/generic split pin it
_HALF_ODD_MAX_K = 134
_AMP_CUTOFF = 52.0  # integrand below exp(-52): truncation noise ~1e-23
_REL_TOL = 1e-13  # the grid's tolerance; also bounds the half-odd sum's rounding
_MAX_WORK = 16_000_000  # integrand evaluations per bucket before giving up
# The Hankel route serves |z| >= Z_H(nu) = max(30, (4 nu^2 - 1)/8): from 30
# on, its least term is below 1e-17 within about 20 terms; from
# (4 nu^2 - 1)/8 on, no term is much above 1, so large orders do not cancel
_HANKEL_FLOOR = 30.0
_HANKEL_STOP = 1e-17  # the sum stops at its first term below this at Z_H


@dataclass(frozen=True)
class BesselOrder:
    """Real order nu >= -1 with its half-odd-integer flag (the terminating
    Hankel sum at every z, for nu = k + 1/2 with 0 <= k <= 134)."""

    nu: float
    half_odd_integer: bool

    @classmethod
    def from_nu(cls, nu: float) -> "BesselOrder":
        nu = float(nu)
        if nu < -1.0:
            raise DomainError(f"orders below -1 are not supported, got {nu}")
        k = round(nu - 0.5)
        flag = 0 <= k <= _HALF_ODD_MAX_K and abs(nu - (k + 0.5)) <= _ORDER_TOL
        return cls(nu, flag)


@functools.lru_cache(maxsize=64)
def _order_of(nu: float) -> BesselOrder:
    """``BesselOrder.from_nu``, kept for the orders of the last calls: a
    quadrature evaluates its kernel at one order in call after call."""
    return BesselOrder.from_nu(nu)


def _check_right_half_plane(z: complex) -> complex:
    z = complex(z)
    if not (z.real > 0.0 and math.isfinite(z.imag)):
        raise DomainError(f"K_nu needs Re(z) > 0 and a finite Im(z), got {z}")
    return z


def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] x^k, elementwise."""
    s = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        # out of place on purpose: numpy's in-place complex multiply rounds
        # a one-entry array one ulp differently from a longer one, so with
        # s *= x a Hankel entry would depend on the call it came in
        s = s * x + c
    return s


def _hankel_scaled(nu: float, z_h: float, z: np.ndarray) -> np.ndarray:
    """e^z K_nu(z) by the Hankel expansion, for |z| >= z_h = Z_H(nu) at
    generic orders and at every z with z_h = 1 at half-odd ones.

    e^z K_nu(z) ~ sqrt(pi/(2z)) sum_k a_k(nu) z^-k with
    a_k = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k) (DLMF 10.40.2),
    summed by Horner in u = z_h/z over the coefficients t_k = a_k z_h^-k,
    which stay below about 1 where a_k alone would overflow at large
    generic orders.  The sum stops before the first t_N below 1e-17, a
    count that depends on nu only, so an entry's value does not depend on
    the other arguments of the call.  At nu = k + 1/2 with z_h = 1 every
    t_j is at least 1 up to the exact zero t_{k+1}, so the sum is the
    whole finite closed form.
    """
    return np.sqrt(0.5 * np.pi / z) * _horner(_hankel_coefficients(nu, z_h), z_h / z)


@functools.lru_cache(maxsize=64)
def _hankel_coefficients(nu: float, z_h: float) -> tuple:
    """The coefficients t_k = a_k(nu) z_h^-k of ``_hankel_scaled``, up to
    the last one not below 1e-17 in modulus; kept per (nu, z_h) for the
    orders of the last calls."""
    mu = 4.0 * nu * nu
    coeffs = []
    t, k = 1.0, 0
    while abs(t) >= _HANKEL_STOP:
        coeffs.append(t)
        k += 1
        t *= (mu - (2 * k - 1) ** 2) / (8.0 * k * z_h)
    return tuple(coeffs)


def _half_odd_scaled(k: int, z: np.ndarray) -> np.ndarray:
    """e^z K_{k+1/2}(z) for an array of arguments: the terminating Hankel
    sum of ``_hankel_scaled`` with z_h = 1.

    Where the sum is not finite, 1/z has overflowed (z below about
    1e-308): there K_{1/2} is sqrt(pi/2)/sqrt(z), which is still finite,
    and every higher order is infinite.  At complex z the terms can
    cancel; the same sum at |z| is the sum of their moduli, and where
    its rounding (2^-52 of it) exceeds _REL_TOL of the value, the call
    raises ConvergenceError rather than return a wrong value.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = _hankel_scaled(k + 0.5, 1.0, z)
        finite = np.isfinite(value)
        if not finite.all():
            bad = ~finite
            value[bad] = math.sqrt(0.5 * math.pi) / np.sqrt(z[bad]) if k == 0 else np.inf
        if k > 0 and np.iscomplexobj(z):
            moduli = _hankel_scaled(k + 0.5, 1.0, np.abs(z))
            if (2.0**-52 * moduli > _REL_TOL * np.abs(value)).any():
                raise ConvergenceError(
                    f"half-odd Hankel sum cancels below double precision (nu={k + 0.5:g})"
                )
    return value


def _cosh_tau_max(re_min: float, nu: float) -> float:
    """Smallest tau with re_min*(cosh(tau)-1) - nu*tau >= _AMP_CUTOFF.

    Solved as tau = acosh(1 + (cutoff + nu tau)/re_min) by fixed point,
    with the large-ratio branch done in logs so re_min may be tiny.
    """
    ln_re = math.log(re_min)
    if nu > 0.05:
        # refuse upfront when K itself cannot be represented:
        # ln K_scaled ~ lgamma(nu) - ln 2 + nu ln(2/re_min)
        ln_peak = math.lgamma(nu) - math.log(2.0) + nu * (math.log(2.0) - ln_re)
        if ln_peak > 705.0:
            raise ConvergenceError(
                f"K_nu value overflows double precision (nu={nu:g}, Re z={re_min:g})"
            )
    tau = 10.0
    for _ in range(60):
        ln_q = math.log(_AMP_CUTOFF + nu * tau) - ln_re
        if ln_q < 34.0:
            q = (_AMP_CUTOFF + nu * tau) / re_min
            new = math.log1p(q + math.sqrt(q * (q + 2.0)))
        else:
            new = math.log(2.0) + ln_q
        if abs(new - tau) < 1e-9 * new:
            return new
        tau = new
    return tau


def _scaled_generic_bucket(nu: float, z: np.ndarray) -> np.ndarray:
    """Trapezoid cosh integral for one magnitude bucket of arguments.

    The step honors the O(1) width of the kernel for small arguments and
    the sqrt(1/|z|) Fresnel width near tau = 0.  For complex arguments
    it also honors the strip |Im tau| < pi/2 - |arg z| in which
    exp(-z (cosh tau - 1)) is analytic and decays; the trapezoid error
    falls like exp(-2 pi d / h) with d that half-width (Trefethen &
    Weideman, SIAM Rev. 56, 2014), so h = d/8 is ample.  Each level
    halves the step and adds the midpoints over the whole of
    (0, tau_max]; a bucket that has not settled after 8 levels raises
    ConvergenceError rather than return an unsettled value.

    A typical bucket holds a few dozen arguments, and its fixed cost per
    call outweighs its work per argument, so that cost is kept short: a
    real bucket is its own modulus and has cos(arg z) = 1 exactly, and a
    grid whose last tau is below 40 takes log(2 sinh^2(tau/2)) without
    the selects of the large-tau branch.
    """
    if np.iscomplexobj(z):
        mags = np.abs(z)
        re_min = float(z.real.min())
        cos_min = float((z.real / mags).min())
    else:  # Re z > 0, so z / |z| is exactly 1
        mags, re_min, cos_min = z, float(z.min()), 1.0
    a_max = float(mags.max())
    arg_max = math.acos(min(cos_min, 1.0))
    tau_max = _cosh_tau_max(re_min, nu)
    h = min(0.22, 0.62 * math.sqrt(cos_min / max(a_max, 1.0)))
    if arg_max > 0.0:  # a real bucket keeps its grid
        h = min(h, (0.5 * math.pi - arg_max) / 8.0)
    n = int(math.ceil(tau_max / h))
    if n * max(z.size, 1) > _MAX_WORK:
        raise ConvergenceError(
            f"cosh-kernel grid would need {n} nodes for {z.size} arguments; "
            "argument too oscillatory (|arg z| too close to pi/2)"
        )
    h = tau_max / n
    logw = np.log(z)[:, None]

    def new_values(taus):
        # everything in fused log form: within the truncated grid the
        # products are bounded even where cosh/sinh alone would overflow
        if taus[-1] < 40.0:  # the nodes ascend, so every one is small
            lcm1 = np.log(2.0 * np.sinh(0.5 * taus) ** 2)
        else:
            small = taus < 40.0
            lcm1 = np.where(
                small,
                np.log(2.0 * np.sinh(0.5 * np.where(small, taus, 1.0)) ** 2),
                taus - math.log(2.0),
            )
        lcosh = nu * taus + np.log1p(np.exp(-2.0 * nu * taus)) - math.log(2.0)
        return np.exp(lcosh - np.exp(logw + lcm1)).sum(axis=-1)

    running = 0.5 + new_values(np.arange(1, n + 1) * h)  # integrand is 1 at tau = 0
    value_prev = h * running
    for _level in range(8):
        n *= 2
        h *= 0.5
        running = running + new_values(np.arange(1, n, 2) * h)
        value = h * running
        if (np.abs(value - value_prev) <= _REL_TOL * (1.0 + np.abs(value))).all():
            return value
        value_prev = value
    raise ConvergenceError(
        f"cosh-kernel trapezoid did not settle after 8 levels (nu={nu:g}, "
        f"{z.size} arguments, |arg z| up to {arg_max:.3g})"
    )


def _band(mags: np.ndarray, z_h: float) -> np.ndarray:
    """Band of each modulus below z_h: b = floor(log2(|z|/z_h) / 4), so
    band -1 is [z_h/16, z_h); monotone in |z|."""
    return np.floor(np.log2(np.maximum(mags / z_h, 1e-300)) / 4.0).astype(int)


def bessel_k_scaled_many(nu: float, z: np.ndarray) -> np.ndarray:
    """Vectorized e^z K_nu(z) over an array of any shape with Re(z) > 0.

    Half-odd orders up to k = 134 take the terminating Hankel sum at
    every z.  At every other order, entries with |z| >= Z_H(nu) =
    max(30, (4 nu^2 - 1)/8) take the Hankel expansion, each on its own;
    the rest are bucketed into bands 16x wide in |z|, counted down from
    Z_H, so that one shared tau grid per band resolves the narrowest
    integrand without wasting nodes on the widest.  [Z_H/16, Z_H) is one
    band, and a band of 8192 or more arguments is split into chunks of
    at least 4096, one grid each.

    Most calls are short, so the dispatch shortcuts the common cases
    without changing any entry's arithmetic: a call whose entries are all
    far returns the Hankel sum of the whole array, and near entries whose
    smallest and largest |z| fall in one band skip the per-entry band
    split.  A NaN real part fails the domain check, like Re z <= 0, and
    so does a NaN or infinite imaginary part.
    """
    order = _order_of(abs(float(nu)))
    z = np.asarray(z)
    if z.size == 0:
        return z.astype(complex)
    shape = z.shape
    z = z.ravel()
    if np.iscomplexobj(z):
        if not (z.real.min() > 0.0 and np.isfinite(z.imag).all()):
            raise DomainError("K_nu needs Re(z) > 0 and a finite Im(z) at every array entry")
    elif not z.min() > 0.0:
        raise DomainError("K_nu needs Re(z) > 0 at every array entry")
    if order.half_odd_integer:
        return _half_odd_scaled(round(order.nu - 0.5), z).reshape(shape)
    z_h = max(_HANKEL_FLOOR, (4.0 * order.nu * order.nu - 1.0) / 8.0)
    mags = np.abs(z) if np.iscomplexobj(z) else z  # real z is its own modulus
    if mags.min() >= z_h:
        return _hankel_scaled(order.nu, z_h, z).reshape(shape)
    out = np.empty(z.shape, dtype=z.dtype if np.iscomplexobj(z) else float)
    far = mags >= z_h
    near = np.flatnonzero(~far)
    if near.size < z.size:
        out[far] = _hankel_scaled(order.nu, z_h, z[far])
    near_mags = mags[near]
    lo, hi = _band(np.array([near_mags.min(), near_mags.max()]), z_h)
    if lo == hi:
        groups = (near,)
    else:
        band = _band(near_mags, z_h)
        groups = (near[band == b] for b in np.unique(band))
    for sel in groups:
        # one grid per chunk of at most 8191 arguments; most bands are
        # a single chunk and skip array_split's per-call cost
        chunks = (sel,) if sel.size < 8192 else np.array_split(sel, sel.size // 4096)
        for chunk in chunks:
            out[chunk] = _scaled_generic_bucket(order.nu, z[chunk])
    return out.reshape(shape)


def bessel_k_scaled(order, z: complex) -> complex:
    """e^z K_nu(z); right to double precision at any large |z| (the
    Hankel route), finite wherever K_nu(z) is."""
    order = _order_of(float(order))
    z = _check_right_half_plane(z)
    return complex(bessel_k_scaled_many(abs(order.nu), np.array([z]))[0])


def bessel_k(order, z: complex) -> complex:
    """K_nu(z) for Re(z) > 0.

    Underflows to 0 for Re(z) beyond ~745; use ``bessel_k_scaled`` in
    that regime.
    """
    scaled = bessel_k_scaled(order, z)
    z = complex(z)
    # an overflowed value (z below about 1e-308, where e^-z = 1) stays
    # infinite: inf times the complex e^-z would be nan
    return complex(np.exp(-z) * scaled) if cmath.isfinite(scaled) else scaled


def bessel_k_upper_bound(order, z: complex) -> float:
    """Strict upper bound for |K_{nu+1/2}(z)|, nu = ``order`` >= 0.

    Equals (1/2) (2|z| / Re(z)^2)^(nu+1/2) Gamma(nu+1/2); derived from
    the |K| <= incomplete-Gamma estimate after dropping the e^{-z} decay,
    hence strictly larger than |K_{nu+1/2}(z)| everywhere in Re(z) > 0.
    """
    order = _order_of(float(order))
    if order.nu < 0.0:
        raise DomainError(f"bound defined for nu >= 0, got {order.nu}")
    z = _check_right_half_plane(z)
    m = order.nu + 0.5
    return 0.5 * (2.0 * abs(z) / z.real**2) ** m * gamma(m).real
