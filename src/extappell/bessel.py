"""Modified Bessel function of the second kind, K_nu(z), for Re(z) > 0.

Two routes cover every order:

* half-odd-integer orders nu = k + 1/2 with k <= 134 use the closed-form
  finite sum
  K_{k+1/2}(z) = sqrt(pi/(2z)) e^{-z} sum_j (k+j)! / (j! (k-j)! (2z)^j),
  whose largest coefficient (2k)!/k! still fits a double at k = 134,
* every other real order (larger half-odd ones too) uses the cosh-kernel
  integral
  K_nu(z) = int_0^inf exp(-z cosh t) cosh(nu t) dt,
  whose integrand already decays doubly exponentially, so the plain
  trapezoid rule converges geometrically.

The exponentially scaled variant e^z K_nu(z) integrates
exp(-z (cosh t - 1)) cosh(nu t) instead, which keeps the t -> {0,1}
endpoint regime of the extended-Beta kernel computable for arguments up
to about 1e8.  Array-valued helpers back the quadrature hot loops.

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
z = 5 e^{1.3i}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .scalar import gamma

_ORDER_TOL = 1e-12
# the largest k whose closed-form coefficients (k+j)!/(j!(k-j)!) all fit a
# double; larger half-odd orders take the generic route
_HALF_ODD_MAX_K = 134
_AMP_CUTOFF = 52.0  # integrand below exp(-52): truncation noise ~1e-23
_REL_TOL = 1e-13
_MAX_WORK = 16_000_000  # integrand evaluations per bucket before giving up


@dataclass(frozen=True)
class BesselOrder:
    """Real order nu >= -1 with its half-odd-integer flag (the closed-form
    route, for nu = k + 1/2 with 0 <= k <= 134)."""

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


def _as_order(order) -> BesselOrder:
    if isinstance(order, BesselOrder):
        return order
    return BesselOrder.from_nu(order)


def _check_right_half_plane(z: complex) -> complex:
    z = complex(z)
    if not z.real > 0.0:
        raise DomainError(f"K_nu needs Re(z) > 0, got {z}")
    return z


def _half_odd_coeffs(k: int) -> np.ndarray:
    return np.array(
        [
            math.factorial(k + j) // (math.factorial(j) * math.factorial(k - j))
            for j in range(k + 1)
        ],
        dtype=float,
    )


def _half_odd_scaled(k: int, z: np.ndarray) -> np.ndarray:
    """e^z K_{k+1/2}(z) for an array of arguments (closed form).

    Where pi/(2z) overflows (z below about 1e-308) the root is taken as
    sqrt(pi/2)/sqrt(z), so K_{1/2} stays finite wherever it is.
    """
    coeffs = _half_odd_coeffs(k)
    inv2z = 1.0 / (2.0 * z)
    poly = np.full_like(z, coeffs[-1])
    for a in coeffs[-2::-1]:
        poly = poly * inv2z + a
    root = np.sqrt(np.pi * inv2z)
    huge = ~np.isfinite(root)
    if np.any(huge):
        root[huge] = math.sqrt(0.5 * math.pi) / np.sqrt(z[huge])
    return root * poly


def _cosh_tau_max(re_min: float, nu: float) -> float:
    """Smallest tau with re_min*(cosh(tau)-1) - nu*tau >= _AMP_CUTOFF.

    Solved as tau = acosh(1 + (cutoff + nu tau)/re_min) by fixed point,
    with the large-ratio branch done in logs so re_min may be tiny.
    """
    if nu > 0.05:
        # refuse upfront when K itself cannot be represented:
        # ln K_scaled ~ lgamma(nu) - ln 2 + nu ln(2/re_min)
        ln_peak = math.lgamma(nu) - math.log(2.0) + nu * (math.log(2.0) - math.log(re_min))
        if ln_peak > 705.0:
            raise ConvergenceError(
                f"K_nu value overflows double precision (nu={nu:g}, Re z={re_min:g})"
            )
    tau = 10.0
    for _ in range(60):
        q = None
        ln_q = math.log(_AMP_CUTOFF + nu * tau) - math.log(re_min)
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
    """
    re = z.real if np.iscomplexobj(z) else z
    re_min = float(np.min(re))
    a_max = float(np.max(np.abs(z)))
    cos_min = float(np.min(re / np.abs(z)))
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
    logw = np.log(z)

    def new_values(taus):
        # everything in fused log form: within the truncated grid the
        # products are bounded even where cosh/sinh alone would overflow
        small = taus < 40.0
        lcm1 = np.where(
            small,
            np.log(2.0 * np.sinh(0.5 * np.where(small, taus, 1.0)) ** 2),
            taus - math.log(2.0),
        )
        lcosh = nu * taus + np.log1p(np.exp(-2.0 * nu * taus)) - math.log(2.0)
        expo = -np.exp(logw[:, None] + lcm1[None, :]) + lcosh[None, :]
        return np.exp(expo).sum(axis=-1)

    running = 0.5 + new_values(np.arange(1, n + 1) * h)  # integrand is 1 at tau = 0
    value_prev = h * running
    for _level in range(8):
        n *= 2
        h *= 0.5
        running = running + new_values(np.arange(1, n, 2) * h)
        value = h * running
        if np.all(np.abs(value - value_prev) <= _REL_TOL * (1.0 + np.abs(value))):
            return value
        value_prev = value
    raise ConvergenceError(
        f"cosh-kernel trapezoid did not settle after 8 levels (nu={nu:g}, "
        f"{z.size} arguments, |arg z| up to {arg_max:.3g})"
    )


def bessel_k_scaled_many(nu: float, z: np.ndarray) -> np.ndarray:
    """Vectorized e^z K_nu(z) over an array with Re(z) > 0.

    Arguments are bucketed by magnitude so that one shared tau grid per
    bucket resolves the narrowest integrand without wasting nodes on the
    widest.
    """
    order = _as_order(abs(float(nu)))
    z = np.asarray(z)
    if z.size == 0:
        return z.astype(complex)
    re = z.real if np.iscomplexobj(z) else z
    if not np.all(re > 0.0):
        raise DomainError("K_nu needs Re(z) > 0 at every array entry")
    if order.half_odd_integer:
        return _half_odd_scaled(round(order.nu - 0.5), z)
    out = np.empty(z.shape, dtype=z.dtype if np.iscomplexobj(z) else float)
    mags = np.log2(np.maximum(np.abs(z), 1e-300))
    buckets = np.floor(mags / 4.0).astype(int)
    for b in np.unique(buckets):
        sel = np.flatnonzero(buckets == b)
        # one grid per chunk of at most 8191 arguments; most buckets are
        # a single chunk and skip array_split's per-call cost
        chunks = (sel,) if sel.size < 8192 else np.array_split(sel, sel.size // 4096)
        for chunk in chunks:
            out[chunk] = _scaled_generic_bucket(order.nu, z[chunk])
    return out


def bessel_k_scaled(order, z: complex) -> complex:
    """e^z K_nu(z); finite for |z| up to roughly 1e8."""
    order = _as_order(order)
    z = _check_right_half_plane(z)
    val = bessel_k_scaled_many(abs(order.nu), np.array([z]))[0]
    return complex(val)


def bessel_k(order, z: complex) -> complex:
    """K_nu(z) for Re(z) > 0.

    Underflows to 0 for Re(z) beyond ~745; use ``bessel_k_scaled`` in
    that regime.
    """
    order = _as_order(order)
    z = _check_right_half_plane(z)
    return complex(np.exp(-z) * bessel_k_scaled(order, z))


def bessel_k_upper_bound(order, z: complex) -> float:
    """Strict upper bound for |K_{nu+1/2}(z)|, nu = order.nu >= 0.

    Equals (1/2) (2|z| / Re(z)^2)^(nu+1/2) Gamma(nu+1/2); derived from
    the |K| <= incomplete-Gamma estimate after dropping the e^{-z} decay,
    hence strictly larger than |K_{nu+1/2}(z)| everywhere in Re(z) > 0.
    """
    order = _as_order(order)
    if order.nu < 0.0:
        raise DomainError(f"bound defined for nu >= 0, got {order.nu}")
    z = _check_right_half_plane(z)
    m = order.nu + 0.5
    return 0.5 * (2.0 * abs(z) / z.real**2) ** m * gamma(m).real
