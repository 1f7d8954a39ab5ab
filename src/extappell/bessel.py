"""Modified Bessel function of the second kind, K_nu(z), for Re(z) > 0.

Every order takes |nu| (DLMF 10.27.3).  Half-odd-integer orders
nu = k + 1/2 with k <= 134 take the Hankel expansion (DLMF 10.40.2)
e^z K_nu(z) ~ sqrt(pi/(2z)) sum_j a_j(nu) z^{-j},
a_j(nu) = prod_{i<=j} (4 nu^2 - (2i-1)^2) / (j! 8^j), which terminates
there, because a_{k+1}(k + 1/2) = 0 (DLMF 10.49.12): the exact finite
sum sum_j (k+j)! / (j! (k-j)! (2z)^j), used at every z.  Every other
order (larger half-odd ones too) takes one of three routes by argument:

* |z| >= Z_H(nu) = max(30, (4 nu^2 - 1)/8): the same expansion, now
  asymptotic.  From Z_H on its terms shrink from at most about 1, and it
  stops at its first term below 1e-17 at Z_H: about 20 terms, fixed by nu.
* reach(z) = (|z| + Re z)/2 >= Z_G(nu) = max(1, nu^2/40) below Z_H: one
  fixed Gauss-Hermite rule.  With r = sqrt(2z) sinh(t/2) in
  e^z K_nu(z) = int_0^inf exp(-z (cosh t - 1)) cosh(nu t) dt (DLMF
  10.32.9),
      e^z K_nu(z) = (2z)^{-1/2} int_R e^{-r^2} cosh(2 nu asinh v)
                    / sqrt(1 + v^2) dr,      v = r / sqrt(2z),
  an even integrand whose nearest singularities, at v = +-i, lie
  sqrt(2 reach) off the real r-axis for every |arg z| < pi/2.  The 48
  positive nodes of the 96-point rule, with doubled weights, then
  converge geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014) at a
  rate that does not depend on the phase.  nu^2/40 keeps the integrand's
  shape in r the same at large orders, and in a complex call the floor
  drops to where the rule's estimated error is still 7e-15
  (``_GAUSS_EXPONENT``).
* the rest: the cosh-kernel integral itself by the trapezoid rule, whose
  integrand decays doubly exponentially, so it converges geometrically.
  Arguments share one tau grid per band, 16x wide in reach and counted
  down from Z_G, so [Z_G/16, Z_G) is one grid.

Each route computes the exponentially scaled e^z K_nu(z), which keeps
the t -> {0,1} endpoint regime of the extended-Beta kernel computable.
The Hankel sum and the fixed rule give an entry the same bits whatever
else its call holds; a trapezoid band's grid depends on all its entries.
Array-valued helpers back the quadrature hot loops.

The trapezoid step of a complex argument comes from the strip
|Im t| < pi/2 - |arg z| in which the integrand is analytic and decays,
not from the phase rate at the truncation point, where the integrand is
already negligible.  Each refinement level halves the step over the
whole truncated grid, and a grid that has not settled after 8 levels
raises ConvergenceError.

Supported range, against mpmath: real z at any order up to the overflow
guard of ``_cosh_tau_max`` (the worst relative error over nu in (0, 40]
and z in [1e-3, 1e4] is 3.2e-14, from the trapezoid; the fixed rule
holds 1e-15 on real z at orders below 4.5 and 7e-15 at orders up to
300).  At complex z the fixed rule holds 1e-14 at orders up to 15.5 and
|arg z| <= 1.45.  Where terms cancel below double precision the code
raises ConvergenceError rather than return a wrong value: the fixed rule
at large orders near |arg z| = pi/2 (e.g. nu = 100 at 400 e^{1.2i}), the
trapezoid below Z_G at such phases (e.g. nu = 8.8 at 0.8 e^{1.3i}), and
the terminating sum at a large half-odd order (e.g. nu = 100.5 at
z = 79.4 e^{1.50i}).
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
# The fixed rule serves reach(z) = (|z| + Re z)/2 >= Z_G(nu) = max(1, nu^2/40)
# below Z_H; nu^2/40 keeps its shape in r the same at large orders.  Its
# integrand's nearest singularities, r = +-i sqrt(2z), lie sqrt(2 reach) off
# the real axis, where the weight e^{-r^2} has modulus e^{2 Re z}, so at
# small orders its error is about exp(-g), g = sqrt(8 N) sqrt(2 reach) -
# 2 Re z for N = 96 nodes: g = 37.2 at z = 1, and along g = 32.3 the error
# at order 0 is 5e-15 to 7e-15 at every phase (against mpmath).  So in a
# complex call the rule also serves reach >= nu^2/40 with g >= 32.3, down to
# reach 0.68 near the imaginary axis; a real call keeps the floor 1, where
# the rule is within 1e-15 of mpmath at small orders
_GAUSS_RATE = math.sqrt(8.0 * 96)
_GAUSS_EXPONENT = 32.3
_GAUSS_FLOOR = 1.0
_GAUSS_ORDER_SCALE = 40.0
# The 48 positive nodes of the 96-point Gauss-Hermite rule (weight e^{-r^2})
# and their weights, doubled because the integrand is even in r; computed
# to 60 digits by Newton's method on H_96 and rounded
_GAUSS_NODES = np.array([
    0.11306888315145194, 0.33923661887888523, 0.5654943662667489, 0.7919024787540168,
    1.0185218319476799, 1.2454140399065081, 1.4726416790227095, 1.7002685219383507,
    1.9283597841455025, 2.1569823861931283, 2.38620523476978, 2.616099526362389,
    2.846739077724783, 3.0782006880468185, 3.310564538524305, 3.5439146360273117,
    3.7783393087968626, 4.0139317636282685, 4.250790715903187, 4.489021106216995,
    4.728734920352931, 4.970052133166773, 5.2131018018189605, 5.4580233400707865,
    5.704968013525535, 5.954100706411726, 6.20560202471831, 6.459670819555122,
    6.716527240496519, 6.976416464285181, 7.239613294008353, 7.506427894427756,
    7.777213031061239, 8.052373330719712, 8.33237730717006, 8.617773244214746,
    8.909210581459599, 9.20746935337176, 9.513501769412425, 9.828492746191714,
    10.153951274713688, 10.491854539276538, 10.844888073853587, 11.216875194202162,
    11.613620828842913, 12.044806741134922, 12.529230746683542, 13.116130021662878,
])
_GAUSS_WEIGHTS = np.array([
    0.4465400469950695, 0.40322602695846854, 0.32875926119699406,
    0.24196623372503065, 0.16070790016128417, 0.0962798134621801,
    0.0520006805424889, 0.025302750225600315, 0.011083262578877954,
    0.0043662639521934365, 0.0015453916433633037, 0.0004908361854610532,
    0.00013970864889083082, 3.558361183644058e-05, 8.09646635755452e-06,
    1.6427089095665617e-06, 2.9659388100100144e-07, 4.754732429514857e-08,
    6.7511694622554085e-09, 8.467187567022045e-10, 9.352020771970142e-11,
    9.066606749167777e-12, 7.687363449753255e-13, 5.6775347903386776e-14,
    3.636338260986467e-15, 2.0098102983149712e-16, 9.533662342373214e-18,
    3.857758653674277e-19, 1.3225902352962134e-20, 3.8125203773751007e-22,
    9.16120219709983e-24, 1.8171931294097667e-25, 2.9424831099483643e-27,
    3.8399414135897574e-29, 3.979093788539055e-31, 3.217746415876914e-33,
    1.9893600118442518e-35, 9.17480333171639e-38, 3.0635979294223915e-40,
    7.137877123562013e-43, 1.1074129639565051e-45, 1.0766445013940194e-48,
    6.044587863004224e-52, 1.7467465671838055e-55, 2.186764947503557e-59,
    8.937404843362637e-64, 6.961682775436365e-69, 2.6306742954021054e-75,
])


def _gauss_column_counts() -> tuple:
    """Columns of the fixed rule for each integer order k < 256:
    the nodes up to the last whose term is not below 1e-18 of the largest.
    A term is at most w_j cosh(2k asinh(v_j)) with v_j = r_j/sqrt(2|z|),
    and the rule serves |z| >= max(z_0, k^2/40): z_0 = 0.7432 is the real
    z where the error exponent reaches 32.3, which no served argument is
    below (at |z| < 48 the exponent is largest on the real axis).  A term
    grows with the order, so order nu takes the count of ceil(nu); from
    k = 165 on, the count stays 43."""
    z_0 = 0.125 * (_GAUSS_RATE - math.sqrt(_GAUSS_RATE**2 - 4.0 * _GAUSS_EXPONENT)) ** 2
    k = np.arange(256.0)[:, None]
    v = _GAUSS_NODES / np.sqrt(2.0 * np.maximum(z_0, k * k / _GAUSS_ORDER_SCALE))
    share = np.log(_GAUSS_WEIGHTS) + 2.0 * k * np.arcsinh(v)
    keep = share >= share.max(axis=1, keepdims=True) - 18.0 * math.log(10.0)
    return tuple((keep.shape[1] - np.argmax(keep[:, ::-1], axis=1)).tolist())


_GAUSS_COLUMNS = _gauss_column_counts()


@dataclass(frozen=True)
class BesselOrder:
    """Real order nu with its half-odd-integer flag (the terminating
    Hankel sum at every z, for nu = k + 1/2 with 0 <= k <= 134); the
    routes take |nu|, so a negative nu is never flagged."""

    nu: float
    half_odd_integer: bool

    @classmethod
    def from_nu(cls, nu: float) -> "BesselOrder":
        nu = float(nu)
        k = round(nu - 0.5)
        flag = 0 <= k <= _HALF_ODD_MAX_K and abs(nu - (k + 0.5)) <= _ORDER_TOL
        return cls(nu, flag)


@functools.lru_cache(maxsize=64)
def _order_of(nu) -> BesselOrder:
    """``BesselOrder.from_nu`` of |nu| for a real, finite order ``nu``, the
    one home of that rule, kept for the orders of the last calls: a
    quadrature evaluates its kernel at one order in call after call."""
    order = complex(nu)
    if not (order.imag == 0.0 and math.isfinite(order.real)):
        raise DomainError(f"K_nu needs a real, finite order, got nu = {nu}")
    return BesselOrder.from_nu(abs(order.real))


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


def _gauss_hermite_scaled(nu: float, z: np.ndarray) -> np.ndarray:
    """e^z K_nu(z) by the fixed Gauss-Hermite rule, for the arguments
    ``bessel_k_scaled_many`` gives it.

    With r = sqrt(2z) sinh(t/2), e^z K_nu(z) = int_0^inf
    exp(-z (cosh t - 1)) cosh(nu t) dt becomes
    (2z)^{-1/2} int_R e^{-r^2} cosh(2 nu asinh v) / sqrt(1 + v^2) dr with
    v = r/sqrt(2z): the nodes r_j > 0 of ``_GAUSS_NODES`` with doubled
    weights, the first ``_GAUSS_COLUMNS`` of them for this order.  Each
    entry is summed along its own row, so its value does not depend on the
    other arguments of the call.  At complex z the terms can cancel; each
    carries a rounding of about 2^-52 (1 + |2 nu asinh v|) of its modulus,
    and where the sum of those exceeds _REL_TOL of the value the call raises
    ConvergenceError rather than return a wrong value.
    """
    n = _GAUSS_COLUMNS[min(math.ceil(nu), len(_GAUSS_COLUMNS) - 1)]
    c = 1.0 / np.sqrt(2.0 * z)
    v = c[:, None] * _GAUSS_NODES[:n]
    x = (2.0 * nu) * np.arcsinh(v)
    terms = np.cosh(x) / np.sqrt(1.0 + v * v)
    weights = _GAUSS_WEIGHTS[:n]
    sums = (terms * weights).sum(axis=1)
    if np.iscomplexobj(z):
        rounding = 2.0**-52 * ((np.abs(terms) * (1.0 + np.abs(x))) * weights).sum(axis=1)
        if (rounding > _REL_TOL * np.abs(sums)).any():
            raise ConvergenceError(
                f"Gauss-Hermite terms cancel below double precision (nu={nu:g})"
            )
    return c * sums


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

    A bucket often holds only a few arguments, and its fixed cost per
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


def _band(reach: np.ndarray, z_g: float) -> np.ndarray:
    """Band of each reach below z_g: b = floor(log2(reach/z_g) / 4), so
    band -1 is [z_g/16, z_g); monotone in the reach."""
    return np.floor(np.log2(np.maximum(reach / z_g, 1e-300)) / 4.0).astype(int)


def bessel_k_scaled_many(nu: float, z: np.ndarray) -> np.ndarray:
    """Vectorized e^z K_nu(z) over an array of any shape with Re(z) > 0.

    Half-odd orders up to k = 134 take the terminating Hankel sum at
    every z.  At every other order each entry takes one of three routes,
    on its own:

    * |z| >= Z_H(nu) = max(30, (4 nu^2 - 1)/8): the Hankel expansion;
    * reach(z) = (|z| + Re z)/2 >= Z_G(nu) = max(1, nu^2/40) below that:
      the fixed Gauss-Hermite rule (real z is its own reach); in a complex
      call also reach >= nu^2/40 where the rule's error exponent is at
      least ``_GAUSS_EXPONENT``;
    * the rest: the cosh trapezoid, bucketed into bands 16x wide in
      reach, counted down from Z_G, so that one shared tau grid per band
      resolves the narrowest integrand without wasting nodes on the
      widest.  [Z_G/16, Z_G) is one band, and a band of 8192 or more
      arguments is split into chunks of at least 4096, one grid each.

    The Hankel and Gauss-Hermite values of an entry do not depend on the
    other arguments of its call; a band's grid does.  A call whose entries
    all take one of the first two routes hands the whole array to it, and
    band entries whose smallest and largest reach fall in one band skip the
    per-entry band split.  The order must be real and finite
    (``_order_of``), and every entry finite with Re z > 0.
    """
    order = _order_of(nu)
    z = np.asarray(z)
    if z.size == 0:
        return z.astype(complex)
    shape = z.shape
    z = z.ravel()
    if not (z.real.min() > 0.0 and np.isfinite(z).all()):
        raise DomainError("K_nu needs a finite z with Re(z) > 0 at every array entry")
    if order.half_odd_integer:
        return _half_odd_scaled(round(order.nu - 0.5), z).reshape(shape)
    nu = order.nu
    z_h = max(_HANKEL_FLOOR, (4.0 * nu * nu - 1.0) / 8.0)
    is_complex = np.iscomplexobj(z)
    mags = np.abs(z) if is_complex else z  # real z is its own modulus
    far = mags >= z_h
    n_far = np.count_nonzero(far)
    if n_far == z.size:
        return _hankel_scaled(nu, z_h, z).reshape(shape)
    order_floor = nu * nu / _GAUSS_ORDER_SCALE
    z_g = max(_GAUSS_FLOOR, order_floor)
    reach = 0.5 * (mags + z.real) if is_complex else z
    near = reach < z_g  # never far: reach > |z|/2 >= Z_H/2 > Z_G
    if is_complex:
        exponent = _GAUSS_RATE * np.sqrt(2.0 * reach) - 2.0 * z.real
        near &= (exponent < _GAUSS_EXPONENT) | (reach < order_floor)
    n_near = np.count_nonzero(near)
    if n_far == n_near == 0:
        return _gauss_hermite_scaled(nu, z).reshape(shape)
    out = np.empty(z.shape, dtype=z.dtype if is_complex else float)
    if n_far:
        out[far] = _hankel_scaled(nu, z_h, z[far])
    if n_far + n_near < z.size:
        mid = ~(far | near)
        out[mid] = _gauss_hermite_scaled(nu, z[mid])
    if n_near == 0:
        return out.reshape(shape)
    near = np.flatnonzero(near)
    near_reach = reach[near]
    lo, hi = _band(np.array([near_reach.min(), near_reach.max()]), z_g)
    if lo == hi:
        groups = (near,)
    else:
        band = _band(near_reach, z_g)
        groups = (near[band == b] for b in np.unique(band))
    for sel in groups:
        # one grid per chunk of at most 8191 arguments; most bands are
        # a single chunk and skip array_split's per-call cost
        chunks = (sel,) if sel.size < 8192 else np.array_split(sel, sel.size // 4096)
        for chunk in chunks:
            out[chunk] = _scaled_generic_bucket(nu, z[chunk])
    return out.reshape(shape)


def bessel_k_scaled(order, z: complex) -> complex:
    """e^z K_nu(z), nu = ``order`` of any sign; right to double precision
    at any large |z| (the Hankel route), finite wherever K_nu(z) is."""
    return complex(bessel_k_scaled_many(order, np.array([complex(z)]))[0])


def bessel_k(order, z: complex) -> complex:
    """K_nu(z) for Re(z) > 0, nu = ``order`` of any sign.

    Underflows to 0 for Re(z) beyond ~745; use ``bessel_k_scaled`` in
    that regime.
    """
    scaled = bessel_k_scaled(order, z)
    z = complex(z)
    # an overflowed value (z below about 1e-308, where e^-z = 1) stays
    # infinite: inf times the complex e^-z would be nan
    return complex(np.exp(-z) * scaled) if cmath.isfinite(scaled) else scaled


def check_extension_order(order) -> float:
    """nu = ``order`` of a (p, nu) pair as a float, real, finite and >= 0:
    the one home of that rule, for K_{nu+1/2} (K_nu takes any real order)."""
    nu = complex(order)
    if not (nu.imag == 0.0 and 0.0 <= nu.real < math.inf):
        shown = nu if nu.imag else nu.real
        raise DomainError(f"the extension needs nu >= 0, real and finite, got nu = {shown}")
    return nu.real


def bessel_k_upper_bound(order, z: complex) -> float:
    """Strict upper bound for |K_{nu+1/2}(z)|, nu = ``order`` >= 0.

    Equals (1/2) (2|z| / Re(z)^2)^(nu+1/2) Gamma(nu+1/2); derived from
    the |K| <= incomplete-Gamma estimate after dropping the e^{-z} decay,
    hence strictly larger than |K_{nu+1/2}(z)| everywhere in Re(z) > 0.
    """
    nu = check_extension_order(order)
    z = complex(z)
    if not (z.real > 0.0 and cmath.isfinite(z)):
        raise DomainError(f"K_nu needs a finite z with Re(z) > 0, got {z}")
    m = nu + 0.5
    return 0.5 * (2.0 * abs(z) / z.real**2) ** m * gamma(m).real
