"""Modified Bessel function of the second kind, K_nu(z), for Re(z) > 0.

Every order takes |nu| (DLMF 10.27.3) and one of three routes by argument:

* |z| >= Z_H(nu) = max(30, (4 nu^2 - 1)/8) at orders other than k + 1/2,
  k <= 134: the Hankel expansion (DLMF 10.40.2)
  e^z K_nu(z) ~ sqrt(pi/(2z)) sum_j a_j(nu) z^{-j},
  a_j(nu) = prod_{i<=j} (4 nu^2 - (2i-1)^2) / (j! 8^j).  From Z_H on its
  terms shrink from at most about 1, and it stops at its first term below
  1e-17 at Z_H: about 20 terms, fixed by nu.
* reach(z) = (|z| + Re z)/2 >= Z_G(nu) = max(1, nu^2/40) below Z_H, at
  those orders too: one fixed Gauss-Hermite rule.  With
  r = sqrt(2z) sinh(t/2) in
  e^z K_nu(z) = int_0^inf exp(-z (cosh t - 1)) cosh(nu t) dt (DLMF
  10.32.9),
      e^z K_nu(z) = (2z)^{-1/2} int_R e^{-r^2} cosh(2 nu asinh v)
                    / sqrt(1 + v^2) dr,      v = r / sqrt(2z),
  an even integrand whose nearest singularities, at v = +-i, lie
  sqrt(2 reach) off the real r-axis for every |arg z| < pi/2.  The 48
  positive nodes of the 96-point rule, with doubled weights, then
  converge geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014) at a
  rate that does not depend on the phase.  nu^2/40 keeps the integrand's
  shape in r the same at large orders.
* reach(z) < Z_G(nu), and every z at the half-odd orders k + 1/2 with
  k <= 134: the base pair e^z K_mu, e^z K_{mu+1} at mu = nu - round(nu),
  |mu| <= 1/2, then round(nu) - 1 steps of the forward order recurrence
  e^z K_{m+1} = e^z K_{m-1} + (2m/z) e^z K_m (DLMF 10.29.1), which is
  stable for K.  At |mu| = 1/2 the pair is closed (DLMF 10.39.2):
  e^z K_{1/2} = sqrt(pi/(2z)) and e^z K_{3/2} = e^z K_{1/2} (1 + 1/z).
  Elsewhere it comes from Temme's series (J. Comput. Phys. 19, 1975; DLMF
  10.31.1) where reach < 1, so |z| < 2, and from the fixed rule where
  reach >= 1.

Each route computes the exponentially scaled e^z K_nu(z), which keeps
the t -> {0,1} endpoint regime of the extended-Beta kernel computable.
Every route gives an entry the same bits whatever else its call holds.
Array-valued helpers back the quadrature hot loops.

Supported range, against mpmath: every z but where one overflow guard
refuses a call, ln(e^r K_nu(r)) > 709 at its smallest r = |z|
(``_order_recurrence_scaled``), and below Z_G up to 2^16 recurrence steps
(``_MAX_STEPS``: K_{100000.3}(2e8) raises ConvergenceError).  The half-odd
orders hold 2e-14 at every z and |arg z| <= 1.55.  The fixed rule holds
1e-15 on real z at orders below 4.5 and 7e-15 at orders up to 300, and
1e-14 at complex z at orders up to 15.5 and |arg z| <= 1.45.  Below Z_G
the base pair and recurrence hold 6e-15 on 2000 seeded points with orders
up to 40, |z| from 1e-12 and |arg z| <= 1.5, 8e-16 at z = 1e-300 and
1e-310, and 2.1e-14 on real z at orders 40 to 300.  Where the fixed rule's
terms cancel below double precision, at large orders near |arg z| = pi/2
(e.g. nu = 100 at 400 e^{1.2i}), the code raises ConvergenceError rather
than return a wrong value.
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
# half-odd orders k + 1/2 up to this k take the closed pair and the order
# recurrence at every z; no coefficients depend on it, and 134 (the last
# order of the terminating Hankel sum this route replaced) is kept because
# the benchmark's half-odd/generic split reads the flag
_HALF_ODD_MAX_K = 134
# the overflow guard refuses where ln(e^r K_nu(r)) passes this: ln(DBL_MAX)
# = 709.78, less ln 2 for the recurrence's last product at complex z and
# the estimate's 2e-5
_LN_OVERFLOW = 709.0
_REL_TOL = 1e-13  # bounds the rounding of the fixed rule's terms at complex z
# The Hankel route serves |z| >= Z_H(nu) = max(30, (4 nu^2 - 1)/8): from 30
# on, its least term is below 1e-17 within about 20 terms; from
# (4 nu^2 - 1)/8 on, no term is much above 1, so large orders do not cancel
_HANKEL_FLOOR = 30.0
_HANKEL_STOP = 1e-17  # the sum stops at its first term below this at Z_H
# The fixed rule serves reach(z) = (|z| + Re z)/2 >= Z_G(nu) = max(1, nu^2/40)
# below Z_H; nu^2/40 keeps its shape in r the same at large orders.  Its
# integrand's nearest singularities, r = +-i sqrt(2z), lie sqrt(2 reach) off
# the real axis, and at reach 1 it is within 1e-15 of mpmath at small orders
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
# 1/Gamma(1 + mu) = sum_k _RGAMMA[k] mu^k (DLMF 5.7.1), by mpmath's taylor
# at 50 digits and rounded; at |mu| <= 1/2 the first term left out is 3e-19
_RGAMMA = (
    1.0, 0.5772156649015329, -0.6558780715202539, -0.04200263503409524, 0.16653861138229148,
    -0.04219773455554433, -0.009621971527876973, 0.0072189432466631, -0.0011651675918590652,
    -0.00021524167411495098, 0.0001280502823881162, -2.013485478078824e-05,
    -1.2504934821426706e-06, 1.133027231981696e-06, -2.056338416977607e-07,
    6.116095104481416e-09, 5.002007644469223e-09, -1.18127457048702e-09,
    1.0434267116911005e-10, 7.782263439905071e-12, -3.696805618642206e-12,
)
# powers of z^2/4 in Temme's series: at |z| < 2 the first one left out is
# below 1e-20 of the sum of the terms' moduli
_TEMME_TERMS = 14
_TEMME_POWERS = np.arange(_TEMME_TERMS)[:, None]
_MAX_STEPS = 2**16  # steps of the order recurrence before it refuses


def _gauss_column_counts() -> tuple:
    """Columns of the fixed rule for each integer order k < 256:
    the nodes up to the last whose term is not below 1e-18 of the largest.
    A term is at most w_j cosh(2k asinh(v_j)) with v_j = r_j/sqrt(2|z|),
    and the rule serves |z| >= reach >= Z_G(k) = max(1, k^2/40).  A term
    grows with the order, so order nu takes the count of ceil(nu); from
    k = 165 on, the count stays 43."""
    k = np.arange(256.0)[:, None]
    v = _GAUSS_NODES / np.sqrt(2.0 * np.maximum(_GAUSS_FLOOR, k * k / _GAUSS_ORDER_SCALE))
    share = np.log(_GAUSS_WEIGHTS) + 2.0 * k * np.arcsinh(v)
    keep = share >= share.max(axis=1, keepdims=True) - 18.0 * math.log(10.0)
    return tuple((keep.shape[1] - np.argmax(keep[:, ::-1], axis=1)).tolist())


_GAUSS_COLUMNS = _gauss_column_counts()


@dataclass(frozen=True)
class BesselOrder:
    """Real order nu with its half-odd-integer flag (the closed pair and
    the order recurrence at every z, for nu = k + 1/2 with 0 <= k <= 134);
    the routes take |nu|, so a negative nu is never flagged."""

    nu: float
    half_odd_integer: bool

    @classmethod
    def from_nu(cls, nu: float) -> "BesselOrder":
        nu = float(nu)
        k = round(nu - 0.5)
        flag = 0 <= k <= _HALF_ODD_MAX_K and abs(nu - (k + 0.5)) <= _ORDER_TOL
        return cls(nu, flag)


def _order_of(nu) -> BesselOrder:
    """``BesselOrder.from_nu`` of |nu| for a real, finite order ``nu``, the
    one home of that rule."""
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
    orders other than the half-odd ones up to k = 134.

    e^z K_nu(z) ~ sqrt(pi/(2z)) sum_k a_k(nu) z^-k with
    a_k = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k) (DLMF 10.40.2),
    summed by Horner in u = z_h/z over the coefficients t_k = a_k z_h^-k,
    which stay below about 1 where a_k alone would overflow at large
    orders.  The sum stops before the first t_N below 1e-17, a count
    that depends on nu only, so an entry's value does not depend on the
    other arguments of the call.
    """
    return np.sqrt(0.5 * np.pi / z) * _horner(_hankel_coefficients(nu, z_h), z_h / z)


def _hankel_coefficients(nu: float, z_h: float) -> tuple:
    """The coefficients t_k = a_k(nu) z_h^-k of ``_hankel_scaled``, up to
    the last one not below 1e-17 in modulus."""
    mu = 4.0 * nu * nu
    coeffs = []
    t, k = 1.0, 0
    while abs(t) >= _HANKEL_STOP:
        coeffs.append(t)
        k += 1
        t *= (mu - (2 * k - 1) ** 2) / (8.0 * k * z_h)
    return tuple(coeffs)


def _gauss_hermite_scaled(nu: float, z: np.ndarray) -> np.ndarray:
    """e^z K_nu(z) by the fixed Gauss-Hermite rule of the module docstring:
    the nodes r_j > 0 of ``_GAUSS_NODES`` with doubled weights, the first
    ``_GAUSS_COLUMNS`` of them for this order, each entry summed along its
    own row, so no entry depends on its call.  At complex z the terms can
    cancel; each carries a rounding of about 2^-52 (1 + |2 nu asinh v|) of
    its modulus, and where the sum of those exceeds _REL_TOL of the value
    the call raises ConvergenceError rather than return a wrong value.
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


def _temme_scaled(mu: float, z: np.ndarray, upper: bool) -> tuple:
    """(e^z K_mu(z),) and, with ``upper``, e^z K_{mu+1}(z) by Temme's
    series, for |mu| <= 1/2 and reach(z) < 1 (so |z| < 2).

    With d = z^2/4 and sigma = mu ln(2/z): K_mu = sum d^k/k! f_k and
    K_{mu+1} = (2/z) sum d^k/k! (p_k - k f_k), where p_0 = Gamma(1+mu) e^sigma/2,
    q_0 = Gamma(1-mu) e^-sigma/2, f_0 = pi mu/sin(pi mu) (cosh(sigma) Gamma_1
    + sinh(sigma)/mu Gamma_2), p_k = p_{k-1}/(k-mu), q_k = q_{k-1}/(k+mu) and
    f_k = (k f_{k-1} + p_{k-1} + q_{k-1})/(k^2 - mu^2).  f_k is linear in
    (f_0, p_0, q_0), so each value is three polynomials in d (``_temme_rows``)
    whose terms each entry adds in order: no entry depends on its call.
    e^sigma = (2/z)^mu is taken by pow on |z|, since exp(sigma) is |sigma|
    ulps off at tiny z, and sinh(sigma) from it at |sigma| >= 1/2; a
    subnormal z never forms 2/z, and K_{mu+1}, which overflows there where
    K_mu may not, is only computed with ``upper``.  The modulus of a
    complex z below 2^-1000 is taken of z 2^64, exact and normal, since
    |z| would round to the subnormal grid.
    """
    rows, c_cosh, c_sinh, half_gamma_plus, half_gamma_minus = _temme_rows(mu)
    lz = math.log(2.0) - np.log(z)
    sigma = mu * lz
    mags, turn = (np.abs(z), np.angle(z)) if np.iscomplexobj(z) else (z, None)
    lift = 1.0
    if turn is not None and mags.min() < 2.0**-1000:
        lift = np.where(mags < 2.0**-1000, 2.0**64, 1.0)
        mags = np.abs(z * lift)

    def power(a):  # (2/z)^a
        value = 2.0**a * np.power(mags, -a) * lift**a
        return value if turn is None else value * np.exp((-1j * a) * turn)

    grow = power(mu)
    shrink = 1.0 / grow
    if abs(mu) < 1e-6:  # |sigma| < 1e-3: sinh(sigma)/mu by its series
        sinh_mu = lz * (1.0 + sigma * sigma / 6.0 + sigma**4 / 120.0)
    else:
        sinh_mu = np.where(np.abs(sigma) < 0.5, np.sinh(sigma), 0.5 * (grow - shrink)) / mu
    f0 = c_cosh * (grow + shrink) + c_sinh * sinh_mu
    p0, q0 = half_gamma_plus * grow, half_gamma_minus * shrink
    powers = np.power(0.25 * z * z, _TEMME_POWERS)
    sums = (rows[:, :6 if upper else 3] * powers[:, None, :]).sum(axis=0)
    scale = np.exp(z)
    low = scale * (f0 * sums[0] + p0 * sums[1] + q0 * sums[2])
    if not upper:
        return (low,)
    p1 = half_gamma_plus * power(1.0 + mu)  # (2/z) p_0
    return low, scale * (p1 * sums[3] + 0.5 * z * (f0 * sums[4] + q0 * sums[5]))


def _temme_rows(mu: float) -> tuple:
    """``_temme_scaled``'s polynomials and factors at order mu.  With
    f_k = A_k f_0 + B_k p_0 + C_k q_0 and p_k = P_k p_0, row k holds
    A_k, B_k, C_k (K_mu's f_0, p_0, q_0 parts) and P_k - k B_k,
    -A_{k+1} k, -C_{k+1} k (K_{mu+1}'s (2/z) p_0, (z/2) f_0
    and (z/2) q_0 parts), over k!.  Temme's Gamma_1 = (1/Gamma(1-mu) -
    1/Gamma(1+mu))/(2 mu) and Gamma_2 = (1/Gamma(1-mu) + 1/Gamma(1+mu))/2 are
    minus the odd part over mu and the even part of ``_RGAMMA``'s series, so
    nothing cancels near mu = 0."""
    m2 = mu * mu
    even = functools.reduce(lambda s, c: s * m2 + c, _RGAMMA[-1::-2])
    odd = functools.reduce(lambda s, c: s * m2 + c, _RGAMMA[-2::-2])
    a, b, c, p, q, inv_fact = 1.0, 0.0, 0.0, 1.0, 1.0, 1.0
    rows = []  # row k: the four of K_mu's and (2/z) p_0's, then the two of step k + 1
    for k in range(_TEMME_TERMS + 1):
        if k:
            inv_fact /= k
            den = k * k - m2
            a, b, c = k * a / den, (k * b + p) / den, (k * c + q) / den
            p, q = p / (k - mu), q / (k + mu)
            rows += (-k * a * inv_fact, -k * c * inv_fact)
        if k < _TEMME_TERMS:
            rows += (a * inv_fact, b * inv_fact, c * inv_fact, (p - k * b) * inv_fact)
    ratio = math.pi * mu / math.sin(math.pi * mu) if mu else 1.0
    return (np.array(rows).reshape(_TEMME_TERMS, 6, 1), -0.5 * ratio * odd, ratio * even,
            0.5 / (even + mu * odd), 0.5 / (even - mu * odd))


def _order_recurrence_scaled(nu: float, z: np.ndarray) -> np.ndarray:
    """e^z K_nu(z) at an order nu >= 0 from the base pair at mu = nu - round(nu)
    by the forward order recurrence (module docstring); every step is
    elementwise, so no entry depends on its call.

    Raises ConvergenceError upfront where the recurrence would take more
    than ``_MAX_STEPS`` steps, or where ln(e^r K_nu(r)) passes
    ``_LN_OVERFLOW`` at the call's smallest r = |z|.  That bounds every
    entry: e^x K_nu(x) falls with x (DLMF 10.32.9), |e^z K_nu(z)| <=
    e^|z| K_nu(|z|) at nu >= 1/2 (DLMF 10.32.8), and K_m(x) grows with m,
    so no step of the recurrence overflows either: a step's product
    (2m/z) e^z K_m is the difference of two such values, at most twice
    the bound.  ln(e^r K_nu(r)) is taken as its small-r limit
    ln(Gamma(nu) (2/r)^nu / 2), plus r, less the uniform expansion's fall
    from that limit (DLMF 10.41.3), nu (s - 1 - ln((1 + s)/2)) + ln(s)/2 with
    s = sqrt(1 + (r/nu)^2): within 2e-5 of mpmath near the overflow at
    orders 0.06 to 3000.  At orders up to 0.05, K_nu never overflows.
    """
    mags = np.abs(z) if np.iscomplexobj(z) else z
    r = float(mags.min())
    if nu > 0.05:
        s = math.hypot(1.0, r / nu)
        ln_peak = (math.lgamma(nu) + nu * (math.log(2.0) - math.log(r)) - math.log(2.0) + r
                   - nu * (s - 1.0 - math.log(0.5 * (1.0 + s))) - 0.5 * math.log(s))
        if ln_peak > _LN_OVERFLOW:
            raise ConvergenceError(
                f"K_nu value overflows double precision (nu={nu:g}, |z|={r:g})"
            )
    n = round(nu)
    if n - 1 > _MAX_STEPS:
        raise ConvergenceError(
            f"the order recurrence would take {n - 1} steps, past {_MAX_STEPS} (nu={nu})"
        )
    mu = nu - n
    if abs(mu) == 0.5:
        # pi/(2z) overflows below about 1e-308: there the root is taken of
        # pi/(2z) over an exact 2^200 and multiplied back by 2^100
        lift = np.where(mags < 2.0**-1000, 2.0**100, 1.0) if r < 2.0**-1000 else 1.0
        root = np.sqrt(0.5 * np.pi / (z * (lift * lift))) * lift
        pair = [root, root * (1.0 + 1.0 / z) if mu > 0.0 else root] if n else [root]
    else:
        orders = (abs(mu), mu + 1.0) if n else (abs(mu),)
        pair = [np.empty(z.shape, dtype=complex if np.iscomplexobj(z) else float)
                for _ in orders]
        series = (0.5 * (mags + z.real) if np.iscomplexobj(z) else z) < _GAUSS_FLOOR
        if series.any():
            for values, part in zip(pair, _temme_scaled(mu, z[series], n > 0)):
                values[series] = part
        if not series.all():
            for values, order in zip(pair, orders):
                values[~series] = _gauss_hermite_scaled(order, z[~series])
    if n == 0:
        return pair[0]
    low, high = pair
    for m in range(1, n):
        low, high = high, low + (2.0 * (mu + m)) / z * high
    return high


def bessel_k_scaled_many(nu: float, z: np.ndarray) -> np.ndarray:
    """Vectorized e^z K_nu(z) over an array of any shape with Re(z) > 0,
    each entry on its route of the module docstring: at half-odd orders up
    to k = 134 ``_order_recurrence_scaled`` from the closed pair; at every
    other order the Hankel sum at |z| >= Z_H(nu), the fixed rule at
    reach(z) >= Z_G(nu) below it (real z is its own reach) and
    ``_order_recurrence_scaled`` below Z_G.
    A call whose entries all take one route hands the whole array to it.
    The order must be real and finite (``_order_of``), and every entry
    finite with Re z > 0.
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
        return _order_recurrence_scaled(round(order.nu - 0.5) + 0.5, z).reshape(shape)
    nu = order.nu
    z_h = max(_HANKEL_FLOOR, (4.0 * nu * nu - 1.0) / 8.0)
    is_complex = np.iscomplexobj(z)
    mags = np.abs(z) if is_complex else z  # real z is its own modulus
    far = mags >= z_h
    n_far = np.count_nonzero(far)
    if n_far == z.size:
        return _hankel_scaled(nu, z_h, z).reshape(shape)
    z_g = max(_GAUSS_FLOOR, nu * nu / _GAUSS_ORDER_SCALE)
    reach = 0.5 * (mags + z.real) if is_complex else z
    near = reach < z_g  # never far: reach > |z|/2 >= Z_H/2 > Z_G
    n_near = np.count_nonzero(near)
    if n_far == n_near == 0:
        return _gauss_hermite_scaled(nu, z).reshape(shape)
    if n_near == z.size:
        return _order_recurrence_scaled(nu, z).reshape(shape)
    out = np.empty(z.shape, dtype=z.dtype if is_complex else float)
    if n_far:
        out[far] = _hankel_scaled(nu, z_h, z[far])
    if n_far + n_near < z.size:
        mid = ~(far | near)
        out[mid] = _gauss_hermite_scaled(nu, z[mid])
    if n_near:
        out[near] = _order_recurrence_scaled(nu, z[near])
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
    return complex(np.exp(-complex(z)) * scaled)


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
