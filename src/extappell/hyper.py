"""Classical hypergeometric layer.

The generalized pFq series, and the first Appell two-variable function
F1 both as a double power series and as its Euler-type integral.

The double series is summed along its diagonals m + n = k, as
sum_k c_k diag(k) with c_k the convolution of the two Pochhammer ladders;
summation stops once three consecutive diagonal terms stay below
tolerance (guards against accidental zeros when parameters make
individual terms vanish), within ``MAX_TERMS`` = 4000 diagonals.  A diagonal
factor may carry one row per parameter set, as the Mellin contour's
(b1+s)_k/(c1+2s)_k does over its nodes s; each row then stops where its
own scalar sum would.  The pFq series stops by the same rule, in the
same loop ``_scalar_sum`` as a scalar diagonal sum.

F1 and F_{1,p,nu} share one normaliser, B(b1, c1-b1) from ``euler_beta``,
and one Euler-integral domain, ``check_euler_domain``: F_{1,p,nu}'s
series divides its diagonals by that B and every Euler integral divides
its quadrature by it, and the routes, the Mellin routines, the
Theorem-1 forms and the bound take both from here; a quadrature takes B
through ``euler_integral_beta``, which refuses a cancelling integral.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError
from .extbeta import appell_powers, euler_integrand, real_or_complex
from .quadrature import DEFAULT_TOL, integrate_unit_interval
from .scalar import beta, is_nonpositive_integer

# diagonal coefficients computed up front; a longer sum doubles them
_FIRST_DIAGONALS = 32
# where F1 double series and pFq stop: three consecutive terms below F1_TOL |total|
F1_TOL = 1e-14
# the most terms a pFq series, or diagonals a double series, may take
MAX_TERMS = 4000
# |B(b1, c1-b1)| below this share of B(Re b1, Re(c1-b1)) leaves an Euler
# integral's rounding, about 2.2e-16 of the latter, above 2e-3 of B
_EULER_CANCELLATION = 1e-13


def _terminating_index(a: complex) -> int | None:
    """n such that (a)_k = 0 for all k > n, when a is a non-positive integer."""
    if is_nonpositive_integer(a):
        return int(-complex(a).real)
    return None


@dataclass(frozen=True)
class PFQParams:
    """Numerator/denominator parameter lists and argument of pFq."""

    numerator: tuple
    denominator: tuple
    z: complex

    def __post_init__(self):
        object.__setattr__(self, "numerator", tuple(complex(a) for a in self.numerator))
        object.__setattr__(
            self, "denominator", tuple(complex(b) for b in self.denominator)
        )
        object.__setattr__(self, "z", complex(self.z))
        for b in self.denominator:
            if is_nonpositive_integer(b):
                raise PoleError("pFq denominator parameter at a pole", b)


def _pfq_terms(a: tuple, b: tuple, z: complex):
    """(1.0, t_n), n < ``MAX_TERMS``: t_0 = 1 and t_{n+1} = t_n * prod(a_j + n)
    / prod(b_j + n) * z / (n + 1)."""
    term = 1.0 + 0.0j
    for n in range(MAX_TERMS):
        yield 1.0, term
        num = math.prod((aj + n for aj in a), start=1.0 + 0.0j)
        den = math.prod((bj + n for bj in b), start=1.0 + 0.0j)
        term = term * num / den * z / (n + 1)


def pfq(params: PFQParams) -> complex:
    """Sum of the pFq series by term recursion, stopped by ``_scalar_sum``
    at ``F1_TOL`` within ``MAX_TERMS`` terms; a terminating series ends in
    exact zeros, which that rule stops on."""
    a, b, z = params.numerator, params.denominator, params.z
    if len(a) > len(b) + 1:
        raise DomainError(f"pFq needs p <= q+1 for convergence, got p={len(a)}, q={len(b)}")
    if z == 0:
        return 1.0 + 0.0j
    terminates = any(_terminating_index(aj) is not None for aj in a)
    if not terminates and len(a) == len(b) + 1 and abs(z) >= 1.0:
        raise DomainError(
            f"series for {len(a)}F{len(b)} diverges at |z| = {abs(z):g} >= 1"
        )
    total = _scalar_sum(_pfq_terms(a, b, z), F1_TOL)
    if total is None:
        raise ConvergenceError(f"pFq did not converge within {MAX_TERMS} terms")
    return total


@dataclass(frozen=True)
class AppellParams:
    """Parameters (b1, b2, b3; c1) and variables (x, y) of Appell F1."""

    b1: complex
    b2: complex
    b3: complex
    c1: complex
    x: complex
    y: complex

    def __post_init__(self):
        for name in ("b1", "b2", "b3", "c1", "x", "y"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if is_nonpositive_integer(self.c1):
            raise PoleError("Appell denominator parameter c1 at a pole", self.c1)


def _power_ladder(b: complex, x: complex, m: int) -> np.ndarray:
    """(b)_k * x^k / k! for k = 0..m."""
    b, x = complex(b), complex(x)
    v = [1.0 + 0.0j]
    for k in range(1, m + 1):
        v.append(v[k - 1] * (b + (k - 1)) * x / k)
    return np.asarray(v)


def _diagonal_terms(diag, b2, b3, x, y):
    """(c_k, diag(k)) for k < MAX_TERMS, the c_k table doubling as it runs out."""
    coeffs = f1_diagonal_coefficients(b2, b3, x, y, _FIRST_DIAGONALS)
    for k in range(MAX_TERMS):
        if k == coeffs.size:
            coeffs = f1_diagonal_coefficients(b2, b3, x, y, 2 * k)
        yield coeffs[k], diag(k)


def _scalar_sum(terms, tol: float) -> complex | None:
    """sum c d over ``terms``, stopped after three consecutive terms with
    |c d| <= tol |total|; None if the terms run out first."""
    total = 0.0 + 0.0j
    small = 0
    for c, d in terms:
        term = c * complex(d)
        total += term
        if abs(term) <= tol * abs(total):
            small += 1
            if small >= 3:
                return complex(total)
        else:
            small = 0
    return None


def _row_sums(terms, tol: float) -> np.ndarray | None:
    """``_scalar_sum`` of every row, each row frozen where its own sum stops.

    Products and magnitudes are taken component by component: numpy's
    vector loops for complex multiply and abs may round differently from
    one complex, and each row must round exactly as ``_scalar_sum`` does.
    """
    re = im = 0.0
    small = 0
    live = True
    for c, d in terms:
        d = np.asarray(d, dtype=complex)
        t_re = c.real * d.real - c.imag * d.imag
        t_im = c.real * d.imag + c.imag * d.real
        re = np.where(live, re + t_re, re)
        im = np.where(live, im + t_im, im)
        small = np.where(np.hypot(t_re, t_im) <= tol * np.hypot(re, im), small + 1, 0)
        live = live & (small < 3)
        if not live.any():
            out = np.empty(re.shape, dtype=complex)
            out.real, out.imag = re, im
            return out
    return None


def block_double_sum(diag, b2, b3, x, y, tol: float):
    """sum_{m,n} diag(m+n) (b2)_m (b3)_n x^m y^n / (m! n!) along the diagonals.

    The sum is sum_k c_k diag(k), c_k from ``f1_diagonal_coefficients``;
    ``diag(k)`` is called once for each k = 0, 1, 2, ... in turn, so
    callers can memoize cheaply.  Stops after three consecutive terms
    with |c_k diag(k)| <= tol |total|, at most ``MAX_TERMS`` diagonals.

    ``diag(k)`` may return an array, one value per row; the result is then
    the array of row sums.  A row stops where its scalar sum would stop
    and rounds as that sum does, so it equals the scalar sum of its own
    diagonal bit for bit; the array sum ends when every row has stopped.
    """
    terms = _diagonal_terms(diag, b2, b3, x, y)
    first = next(terms, None)
    if first is not None:
        sums = _row_sums if np.ndim(first[1]) else _scalar_sum
        total = sums(itertools.chain([first], terms), tol)
        if total is not None:
            return total
    raise ConvergenceError(
        f"double series did not converge within {MAX_TERMS} diagonals"
    )


def pochhammer_diagonal(b1, c1):
    """diag(k) = (b1)_k / (c1)_k by its recurrence, memoized.

    ``b1`` and ``c1`` may be complex arrays of one shape, one row each, as
    ``block_double_sum`` takes them.
    """
    vals = [np.ones(np.shape(b1), dtype=complex) if np.ndim(b1) else 1.0 + 0.0j]

    def diag(k: int):
        while len(vals) <= k:
            j = len(vals)
            vals.append(vals[j - 1] * (b1 + j - 1) / (c1 + j - 1))
        return vals[k]

    return diag


def check_unit_disc(params: AppellParams, what: str):
    """|x| < 1 and |y| < 1, where ``what``, a sum or transform of the
    F_{1,p,nu} double series, is defined; the classical series alone also
    sums a terminating b2 or b3 past it (``_check_series_domain``)."""
    for name, v in (("x", params.x), ("y", params.y)):
        if abs(v) >= 1.0:
            raise DomainError(f"{what} needs |x| < 1 and |y| < 1, got |{name}| = {abs(v):g}")


def _check_series_domain(params: AppellParams):
    if abs(params.x) >= 1.0 and _terminating_index(params.b2) is None:
        raise DomainError(f"F1 series needs |x| < 1, got |x| = {abs(params.x):g}")
    if abs(params.y) >= 1.0 and _terminating_index(params.b3) is None:
        raise DomainError(f"F1 series needs |y| < 1, got |y| = {abs(params.y):g}")


def appell_f1_series(params: AppellParams) -> complex:
    """Appell F1 by its double power series (|x| < 1, |y| < 1), with the
    diagonal factor (b1)_k / (c1)_k."""
    _check_series_domain(params)
    return block_double_sum(
        pochhammer_diagonal(params.b1, params.c1),
        params.b2, params.b3, params.x, params.y, F1_TOL,
    )


def euler_beta(b1: complex, c1: complex) -> complex:
    """B(b1, c1-b1), the normaliser of F1, of F_{1,p,nu} and of their
    Mellin transform.

    Raises ``OverflowError`` where B underflows to 0, since 1/B then
    overflows; a pole of b1 or c1-b1 raises ``PoleError`` from ``beta``.
    """
    norm = beta(b1, c1 - b1)
    if norm == 0:
        raise OverflowError(f"B(b1, c1-b1) underflows to 0 at b1={b1}, c1={c1}")
    return norm


def euler_integral_beta(b1: complex, c1: complex) -> complex:
    """``euler_beta`` as the divisor of a quadrature of t^(b1-1) (1-t)^(c1-b1-1)
    times other factors, as of every Euler integral and F_{1,p,nu}'s series
    diagonals.  Raises ``ConvergenceError`` where, in the Euler domain, |B| is
    below ``_EULER_CANCELLATION`` of B(Re b1, Re(c1-b1)), the integral of the
    modulus, so that the quadrature's rounding swamps B."""
    norm = euler_beta(b1, c1)
    if (b1.imag or c1.imag) and b1.real > 0 and (c1 - b1).real > 0:
        moduli = beta(b1.real, (c1 - b1).real).real
        if abs(norm) < _EULER_CANCELLATION * moduli:
            raise ConvergenceError(
                f"the Euler integral cancels below double precision: |B(b1, c1-b1)| = "
                f"{abs(norm):.3g}, B(Re b1, Re(c1-b1)) = {moduli:.3g}")
    return norm


def check_euler_domain(b1: complex, c1: complex, x: complex, y: complex):
    """Raise DomainError outside the Euler integral's domain:
    Re(c1) > Re(b1) > 0, and x, y off the branch cut [1, inf)."""
    if not (c1.real > b1.real > 0.0):
        raise DomainError(
            f"Euler integral needs Re(c1) > Re(b1) > 0, got b1={b1}, c1={c1}"
        )
    for name, v in (("x", x), ("y", y)):
        if v.imag == 0.0 and v.real >= 1.0:
            raise DomainError(f"{name} on the branch cut [1, inf): {v}")


def appell_f1_integral(params: AppellParams, tol: float = DEFAULT_TOL) -> complex:
    """Appell F1 by the Euler integral, in its domain (``check_euler_domain``):
    ``euler_integrand`` with no kernel and the ``appell_powers``, by
    tanh-sinh at ``tol``, over ``euler_integral_beta``.  The integrand is real
    when every parameter and variable is."""
    a = params
    check_euler_domain(a.b1, a.c1, a.x, a.y)
    norm = euler_integral_beta(a.b1, a.c1)
    b1, b2, b3, c1, x, y = real_or_complex(a.b1, a.b2, a.b3, a.c1, a.x, a.y)
    integrand = euler_integrand(b1 - 1.0, c1 - b1 - 1.0, extra=appell_powers(b2, b3, x, y))
    res = integrate_unit_interval(integrand, tol)
    return res.converged_value("F1 Euler integral") / norm


def f1_diagonal_coefficients(b2, b3, x, y, kmax: int) -> np.ndarray:
    """c_k = sum_{m+n=k} (b2)_m (b3)_n x^m y^n / (m! n!) for k = 0..kmax.

    Lets F1-type series collapse to a single sum over the diagonal:
    F1 = sum_k diag(k) c_k, for any diagonal factor depending on m+n only.
    """
    r2 = _power_ladder(b2, x, kmax)
    r3 = _power_ladder(b3, y, kmax)
    return np.convolve(r2, r3)[: kmax + 1]
