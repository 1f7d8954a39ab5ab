"""Complex-capable elementary special functions.

Gamma, log-Gamma, Pochhammer, Beta and principal-branch powers.
Everything here is a plain ``complex -> complex`` scalar function; all
powers and logarithms use the principal branch |arg z| <= pi.

Gamma uses a single Lanczos-class rational approximation (15 coefficients)
for Re(z) >= 1/2 and the reflection formula below that, so real and complex
arguments share one code path.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, PoleError

_SQRT_TWO_PI = 2.5066282746310005024
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


def _lanczos_series(z: complex) -> complex:
    s = _LANCZOS_BASE
    for j, c in enumerate(_LANCZOS_COEFFS, start=1):
        s += c / (z + j)
    return s


def gamma(z: complex) -> complex:
    """Gamma function for complex z off the non-positive integers.

    Relative error is at machine-noise level (< 1e-13) for moderate
    arguments; reflection is used for Re(z) < 1/2.

    Raises
    ------
    PoleError
        If z is a non-positive integer.
    """
    z = complex(z)
    if is_nonpositive_integer(z):
        raise PoleError("gamma pole at non-positive integer", z)
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    t = z + _LANCZOS_SHIFT
    return (
        _SQRT_TWO_PI
        * cmath.exp((z + 0.5) * cmath.log(t) - t)
        * _lanczos_series(z)
        / z
    )


def log_gamma(z: complex) -> complex:
    """A logarithm of Gamma(z), real on the positive real axis.

    For complex arguments the imaginary part is not reduced to the
    principal sheet; the intended use is in exponentiated differences
    (Pochhammer and Beta ratios), where any 2*pi*i ambiguity cancels.
    """
    z = complex(z)
    if is_nonpositive_integer(z):
        raise PoleError("log_gamma pole at non-positive integer", z)
    if z.real < 0.5:
        return cmath.log(math.pi) - cmath.log(cmath.sin(math.pi * z)) - log_gamma(1.0 - z)
    t = z + _LANCZOS_SHIFT
    return (
        math.log(_SQRT_TWO_PI)
        + (z + 0.5) * cmath.log(t)
        - t
        + cmath.log(_lanczos_series(z) / z)
    )


def rgamma(z: complex) -> complex:
    """Reciprocal Gamma, entire: returns 0 at the poles of Gamma."""
    z = complex(z)
    if is_nonpositive_integer(z):
        return 0.0 + 0.0j
    return 1.0 / gamma(z)


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


def beta(alpha: complex, bta: complex) -> complex:
    """Classical Beta function Gamma(a)Gamma(b)/Gamma(a+b).

    Symmetric in its arguments by construction.  A pole of Gamma(a+b)
    alone yields 0 (the correct limit); poles of Gamma(a) or Gamma(b)
    raise.
    """
    alpha = complex(alpha)
    bta = complex(bta)
    if is_nonpositive_integer(alpha):
        raise PoleError("beta pole in first argument", alpha)
    if is_nonpositive_integer(bta):
        raise PoleError("beta pole in second argument", bta)
    return gamma(alpha) * gamma(bta) * rgamma(alpha + bta)


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
