"""Complex-capable elementary special functions.

Gamma, log-Gamma, Pochhammer, Beta and principal-branch powers; all
powers and logarithms use the principal branch |arg z| <= pi.  Each is a
``complex -> complex`` function, and ``gamma``, ``rgamma`` and ``beta``
also take complex arrays, elementwise, so that a quadrature call's nodes
are one call.  A scalar argument (a 0-d array too) takes the ``cmath``
path, whose values do not depend on the array path, behind one
``isinstance`` test (``np.ndim`` would cost each scalar call about 2 us).
An array takes the same formulas in numpy, as accurate against exact
values but rounded differently: the two differ by up to 3e-14 relative
at |Im z| = 100, where exp's argument is large.

Gamma uses a single Lanczos-class rational approximation (15 coefficients)
for Re(z) >= 1/2 and the reflection formula below that, so real and complex
arguments share one code path.  Near Gamma's own overflow (z ~ 171) the
power is taken in two halves, so both paths give Gamma up to 1.7e308;
where an intermediate still overflows, both raise ``OverflowError``, as
``cmath.exp`` does.  Beta takes a log-ratio form where a Gamma of its
product overflows, or Gamma(a) Gamma(b) underflows, but the Beta does not,
and Stirling's series where one argument is too large for that form.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, PoleError

_SQRT_TWO_PI = 2.5066282746310005024
# brings a Gamma past 1.3e308 into the range of the complex quotient
_RECIP_SCALE = 2.0**-4
# 1/Gamma below this in both parts is past the complex quotient's range
_QUOTIENT_FLOOR = 2.0**-1024
_NORMAL_MIN = 2.0**-1022  # the smallest normal double, about 2.2e-308
_EPS = 2.0**-52
_LANCZOS_SHIFT = 5.2421875  # = g + 1/2 with g = 607/128

_LANCZOS_BASE = 0.999999999999997092
_LANCZOS_COEFFS = (
    57.1562356658629235,
    -59.5979603554754912,
    14.1360979747417471,
    -0.491913816097620199,
    0.339946499848118887e-4,
    0.465236289270485756e-4,
    -0.983744753048795646e-4,
    0.158088703224912494e-3,
    -0.210264441724104883e-3,
    0.217439618115212643e-3,
    -0.164318106536763890e-3,
    0.844182239838527433e-4,
    -0.261908384015814087e-4,
    0.368991826595316234e-5,
)


def is_nonpositive_integer(z: complex) -> bool:
    """True when z sits exactly on a Gamma pole (0, -1, -2, ...)."""
    z = complex(z)
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


def _lanczos_series(z):
    s = _LANCZOS_BASE
    for j, c in enumerate(_LANCZOS_COEFFS, start=1):
        s += c / (z + j)
    return s


def _poles(z: np.ndarray) -> np.ndarray:
    """``is_nonpositive_integer`` of every entry of a complex array."""
    return (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.round(z.real))


def _raise_at_poles(z: np.ndarray, message: str):
    pole = _poles(z)
    if pole.any():
        raise PoleError(message, complex(z[pole][0]))


def gamma(z):
    """Gamma function for complex z off the non-positive integers, or
    elementwise over a complex array z (an array of the same shape).

    Relative error is at machine-noise level (< 1e-13) for moderate
    arguments; reflection is used for Re(z) < 1/2.

    Raises
    ------
    PoleError
        If z, or any entry of it, is a non-positive integer.
    OverflowError
        If an intermediate of the formula overflows at a finite entry.
    """
    if isinstance(z, np.ndarray) and z.ndim:
        z = np.asarray(z, dtype=complex)
        _raise_at_poles(z, "gamma pole at non-positive integer")
        out, overflow = _gamma_array(z)
        if (overflow & np.isfinite(z)).any():
            raise OverflowError("gamma overflows double precision")
        return out
    z = complex(z)
    if is_nonpositive_integer(z):
        raise PoleError("gamma pole at non-positive integer", z)
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.pi / (_sin_pi(z) * gamma(1.0 - z))
    t = z + _LANCZOS_SHIFT
    power = (z + 0.5) * cmath.log(t) - t
    try:
        out = _SQRT_TWO_PI * cmath.exp(power) * _lanczos_series(z) / z
        if cmath.isfinite(out) or not cmath.isfinite(z):
            return out
    except OverflowError:
        pass
    out = _split_power_form(power, z, cmath.exp)
    if not cmath.isfinite(out):
        raise OverflowError("gamma overflows double precision")
    return out


def _split_power_form(power, z, exp):
    """sqrt(2 pi) e^power S(z) / z with e^power taken in two halves and
    multiplied in last: near Gamma's own overflow (Re z ~ 171.6) the
    one-piece e^power, or its product with sqrt(2 pi), overflows first."""
    half = exp(power / 2.0)
    return half * (_lanczos_series(z) / z) * half * _SQRT_TWO_PI


def _gamma_array(z: np.ndarray):
    """Gamma of a complex array off the poles, and the mask of the entries
    where an intermediate overflowed (their values are meaningless)."""
    left = z.real < 0.5
    w = np.where(left, 1.0 - z, z)
    t = w + _LANCZOS_SHIFT
    with np.errstate(all="ignore"):
        power = (w + 0.5) * np.log(t) - t
        out = _SQRT_TWO_PI * np.exp(power) * _lanczos_series(w) / w
        big = ~np.isfinite(out)
        if big.any():
            out[big] = _split_power_form(power[big], w[big], np.exp)
        # sin(pi z) as _sin_pi takes it, with n = round(Re z) taken out first
        n = np.round(z[left].real)
        sine = np.sin(math.pi * (z[left] - n)) * (1.0 - 2.0 * (n % 2))
        # where cmath.exp or cmath.sin would raise, numpy returns inf
        overflow = ~np.isfinite(out)
        overflow[left] |= ~np.isfinite(sine)
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        out[left] = math.pi / (sine * out[left])
    return out, overflow


def log_gamma(z: complex) -> complex:
    """A logarithm of Gamma(z), real on the positive real axis.

    For complex arguments the imaginary part is not reduced to the
    principal sheet; the intended use is in exponentiated sums and
    differences (the Meijer-G residue coefficients), where any 2*pi*i
    ambiguity cancels.
    """
    z = complex(z)
    if is_nonpositive_integer(z):
        raise PoleError("log_gamma pole at non-positive integer", z)
    if z.real < 0.5:
        return cmath.log(math.pi) - cmath.log(_sin_pi(z)) - log_gamma(1.0 - z)
    t = z + _LANCZOS_SHIFT
    return (
        math.log(_SQRT_TWO_PI)
        + (z + 0.5) * cmath.log(t)
        - t
        + cmath.log(_lanczos_series(z) / z)
    )


def rgamma(z):
    """Reciprocal Gamma, entire: returns 0 at the poles of Gamma;
    elementwise over a complex array z.  Where Gamma underflows to 0,
    1/Gamma overflows, and that raises ``OverflowError``.

    Past |Gamma| ~ 1.3e308 the complex quotient 1/Gamma (Smith's method,
    in cmath and in numpy) overflows its denominator and comes out 0,
    though 1/Gamma is a subnormal number; there it is taken of Gamma/16
    and scaled back."""
    if isinstance(z, np.ndarray) and z.ndim:
        z = np.asarray(z, dtype=complex)
        pole = _poles(z)
        g = gamma(z[~pole])
        if not g.all():
            raise OverflowError("rgamma overflows double precision")
        with np.errstate(over="ignore"):
            r = 1.0 / g
        lost = r == 0
        r[lost] = _RECIP_SCALE * (1.0 / (_RECIP_SCALE * g[lost]))
        out = np.zeros(z.shape, dtype=complex)
        out[~pole] = r
        return out
    z = complex(z)
    if is_nonpositive_integer(z):
        return 0.0 + 0.0j
    g = gamma(z)
    if g == 0:
        raise OverflowError("rgamma overflows double precision")
    r = 1.0 / g
    return r if r != 0 else _RECIP_SCALE * (1.0 / (_RECIP_SCALE * g))


def _product_lost(prod, r):
    """Whether beta's product form prod * r (prod = Gamma(a) Gamma(b),
    r = 1/Gamma(a+b), or each entry of arrays) lost its digits though a + b
    is no pole: prod is below the normal range, or r is past the complex
    quotient's range, both parts below 2^-1024 (see ``rgamma``)."""
    past_quotient = (abs(r.real) < _QUOTIENT_FLOOR) & (abs(r.imag) < _QUOTIENT_FLOOR)
    return (r != 0) & (past_quotient | (abs(prod) < _NORMAL_MIN))


def pochhammer(lam: complex, n: int) -> complex:
    """Pochhammer symbol (lam)_n = lam (lam+1) ... (lam+n-1) for an integer n >= 0.

    The n-term product is valid for every lam, Gamma poles included.
    """
    if not float(n).is_integer() or n < 0:
        raise DomainError(f"pochhammer needs a non-negative integer n, got {n}")
    lam = complex(lam)
    out = 1.0 + 0.0j
    for k in range(int(n)):
        out *= lam + k
    return out


def beta(alpha, bta):
    """Classical Beta function Gamma(a)Gamma(b)/Gamma(a+b), elementwise
    when either argument is an array (the two broadcast).

    Symmetric in its arguments by construction.  A pole of Gamma(a+b)
    alone yields 0 (the correct limit); poles of Gamma(a) or Gamma(b)
    raise.  Where a Gamma of the product overflows but the Beta need not,
    1/Gamma(a+b) is past the complex quotient's range (see ``rgamma``) or
    Gamma(a) Gamma(b) is below the normal range though a + b is no pole
    (B(1.3+400i, 1.2-100i) = 3.1e-138), the value comes from a log-ratio
    form (both Re a, Re b >= 1/2) or, with one argument left of 1/2, from
    reflecting onto such a Beta (``_beta_reflected``).  Past the quotient's
    range the product form carries Gamma's own error, up to 3.5e-13 at 150
    random points with a + b near 171.5 + 3i, where the log-ratio form
    keeps within 2e-14.  Where neither applies and an argument is left
    of 1/2, it is shifted right onto a Beta with both in the half-plane
    Re >= 1/2 (``_beta_shifted``), as in B(0.25+300i, 1) and
    B(-171.3, 0.25).  Where the log-ratio form's error would pass 1e-12,
    as at B(1e300, 1) = 1e-300, one argument is far larger than the other,
    and Stirling's series for log Gamma(a+b) - log Gamma(a) takes over
    (``_beta_large_first``).  Where B itself overflows or underflows, as
    B(1e-310, 2) and B(1e300, 2.5), or neither form keeps 1e-12, this
    raises ``OverflowError``.
    """
    if ((isinstance(alpha, np.ndarray) and alpha.ndim)
            or (isinstance(bta, np.ndarray) and bta.ndim)):
        alpha, bta = np.broadcast_arrays(np.asarray(alpha, dtype=complex),
                                         np.asarray(bta, dtype=complex))
        _raise_at_poles(alpha, "beta pole in first argument")
        _raise_at_poles(bta, "beta pole in second argument")
        try:
            with np.errstate(all="ignore"):
                out = (prod := gamma(alpha) * gamma(bta)) * (recip := rgamma(alpha + bta))
            bad = ~np.isfinite(out) | _product_lost(prod, recip)
        except OverflowError:
            out = np.empty(alpha.shape, dtype=complex)
            bad = np.ones(alpha.shape, dtype=bool)
        if bad.any():
            # where the product form overflows, the scalar path and its
            # log-ratio fallback answer entry by entry
            out[bad] = [beta(a, b) for a, b in zip(alpha[bad], bta[bad])]
        return out
    alpha = complex(alpha)
    bta = complex(bta)
    if is_nonpositive_integer(alpha):
        raise PoleError("beta pole in first argument", alpha)
    if is_nonpositive_integer(bta):
        raise PoleError("beta pole in second argument", bta)
    try:
        out = (prod := gamma(alpha) * gamma(bta)) * (recip := rgamma(alpha + bta))
        if cmath.isfinite(out) and not _product_lost(prod, recip):
            return out
    except OverflowError:
        pass
    if (1.0 - alpha - bta).real >= 0.5:
        if alpha.real < 0.5 <= bta.real:
            return _beta_reflected(alpha, bta)
        if bta.real < 0.5 <= alpha.real:
            return _beta_reflected(bta, alpha)
    if alpha.real < 0.5 or bta.real < 0.5:
        return _beta_shifted(alpha, bta)
    return _beta_log_ratio(alpha, bta)


def _sin_pi(z: complex) -> complex:
    """sin(pi z), with the nearest integer to Re z taken out first so that
    the argument stays small."""
    n = round(z.real)
    s = cmath.sin(math.pi * (z - n))
    return -s if n % 2 else s


def _beta_reflected(alpha: complex, bta: complex) -> complex:
    """B(a, b) where a Gamma of the product form overflows, for Re a < 1/2
    <= Re b and Re(1-a-b) >= 1/2, by reflecting Gamma(a) and Gamma(a+b):

        B(a, b) = sin(pi (a+b)) / sin(pi a) * B(b, 1-a-b),

    whose Beta has both arguments in the half-plane Re >= 1/2."""
    return _sin_pi(alpha + bta) / _sin_pi(alpha) * beta(bta, 1.0 - alpha - bta)


def _beta_shifted(alpha: complex, bta: complex) -> complex:
    """B(a, b) where a Gamma of the product form overflows, Re a or Re b
    < 1/2 and no reflection applies, by raising each such argument to
    Re >= 1/2 with

        B(a, b) = (a+b)/a * B(a+1, b) = (a+b)/b * B(a, b+1).

    Each step's ratio carries about one rounding, so past the log-ratio
    form's budget of 1e-12 (about 1100 steps) this raises
    ``OverflowError``, as it does where B itself overflows or underflows.
    A pole of Gamma(a+b) gives 0, as in the product form."""
    if is_nonpositive_integer(alpha + bta):
        return 0j
    steps = [math.ceil(0.5 - z.real) if z.real < 0.5 else 0 for z in (alpha, bta)]
    if 4.0 * _EPS * sum(steps) > 1e-12:
        raise OverflowError("beta needs too many argument shifts past a Gamma overflow")
    factor = 1.0
    for _ in range(steps[0]):
        factor *= (alpha + bta) / alpha
        alpha += 1.0
    for _ in range(steps[1]):
        factor *= (alpha + bta) / bta
        bta += 1.0
    out = factor * beta(alpha, bta)
    if out == 0 or not cmath.isfinite(out):  # a + b is no pole, so 0 underflowed
        raise OverflowError("beta overflows or underflows double precision")
    return out


def _beta_log_ratio(alpha: complex, bta: complex) -> complex:
    """B(a, b) where a Gamma of the product form overflows, for
    Re a, Re b >= 1/2.

    The Lanczos form of Gamma(a) Gamma(b) / Gamma(a+b) with the terms
    that grow like z log z cancelled into two log-ratios, t = z + g + 1/2:

        sqrt(2 pi) e^{-(g+1/2)} (ta/ts)^(a+1/2) (tb/ts)^(b+1/2) ts^(1/2)
        * (S(a)/a) (S(b)/b) / (S(a+b)/(a+b)).

    exp(log Gamma(a) + log Gamma(b) - log Gamma(a+b)) would keep the
    rounding of log-Gammas of size 10^3, 1.9e-13 at B(150, 150); the
    ratios leave about 4 eps (|a| + |b|).  Where that passes 1e-12, one
    argument is huge, and ``_beta_large_first`` answers.
    """
    if 4.0 * _EPS * (abs(alpha) + abs(bta)) > 1e-12:
        if abs(alpha) < abs(bta):
            alpha, bta = bta, alpha
        return _beta_large_first(alpha, bta)
    total = alpha + bta
    ta, tb, ts = alpha + _LANCZOS_SHIFT, bta + _LANCZOS_SHIFT, total + _LANCZOS_SHIFT
    power = (
        (alpha + 0.5) * cmath.log(ta / ts)
        + (bta + 0.5) * cmath.log(tb / ts)
        + 0.5 * cmath.log(ts)
        - _LANCZOS_SHIFT
    )
    return (
        _SQRT_TWO_PI
        * cmath.exp(power)
        * (_lanczos_series(alpha) / alpha)
        * (_lanczos_series(bta) / bta)
        / (_lanczos_series(total) / total)
    )


# B_2k / (2k (2k-1)), k = 1, 2, 3: Stirling's series of log Gamma(z) past
# (z-1/2) log z - z + log(2 pi)/2; at |z| > 500 the next term is below 1e-22
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0)


def _stirling_tail(z: complex) -> complex:
    """sum_k _STIRLING[k-1] z^(1-2k), by Horner in 1/z^2."""
    r = 1.0 / z
    r2 = r * r
    return r * (_STIRLING[0] + r2 * (_STIRLING[1] + r2 * _STIRLING[2]))


def _log1p(z: complex) -> complex:
    """log(1 + z), accurate at small |z|: log(u) z / (u - 1) with u = 1 + z
    rounded cancels the rounding of u (Kahan)."""
    u = 1.0 + z
    return z if u == 1.0 else cmath.log(u) * z / (u - 1.0)


def _beta_large_first(alpha: complex, bta: complex) -> complex:
    """B(a, b) = Gamma(b) Gamma(a) / Gamma(a+b) for |a| >= |b|, |a| > 500
    and Re a, Re b >= 1/2, where the log-ratio form's budget fails.

    Stirling's series gives

        log Gamma(a+b) - log Gamma(a) = (a - 1/2) log1p(b/a) + b log(a+b)
                                        - b + S(a+b) - S(a),

    so B = Gamma(b) (a+b)^(-b) exp(b - (a - 1/2) log1p(b/a) - S(a+b) + S(a)),
    whose exponent is O((1 + |b|) |b| / |a|).  The power is taken in two
    halves, Gamma(b) between them, so that it need not be representable
    where B is.  The roundings cost about eps |b| (|log(a+b)| + 1); where
    that passes 1e-12, or B is past the normal range, this raises
    ``OverflowError``.
    """
    total = alpha + bta
    if 4.0 * _EPS * abs(bta) * (abs(cmath.log(total)) + 1.0) > 1e-12:
        raise OverflowError("beta past a Gamma overflow would lose more than 1e-12")
    expo = bta - (alpha - 0.5) * _log1p(bta / alpha) - _stirling_tail(total) + _stirling_tail(alpha)
    half = total ** (-0.5 * bta)
    out = gamma(bta) * half * half * cmath.exp(expo)
    if not (cmath.isfinite(out) and abs(out) >= _NORMAL_MIN):
        raise OverflowError("beta overflows or underflows double precision")
    return out


def principal_power(base: complex, exponent: complex) -> complex:
    """base**exponent with the principal logarithm.

    base = 0 is allowed only for Re(exponent) > 0 (limit 0) or
    exponent = 0 (empty product, 1).
    """
    base = complex(base)
    exponent = complex(exponent)
    if base == 0:
        if exponent == 0:
            return 1.0 + 0.0j
        if exponent.real > 0.0:
            return 0.0 + 0.0j
        raise DomainError(
            f"0 ** exponent undefined for Re(exponent) <= 0, got {exponent}"
        )
    if exponent == 0:
        return 1.0 + 0.0j
    return cmath.exp(exponent * cmath.log(base))
