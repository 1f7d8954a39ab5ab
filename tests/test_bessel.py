import cmath
import math

import numpy as np
import pytest

from extappell.bessel import (
    BesselOrder,
    _scaled_generic_bucket,
    bessel_k,
    bessel_k_scaled,
    bessel_k_scaled_many,
    bessel_k_upper_bound,
)
from extappell.errors import ConvergenceError, DomainError

# K_{0.8}(1.5) by a 1e5-node trapezoid of the cosh integral at 30 digits
K_08_15 = 0.25277243086539649


def test_order_flag_detection():
    assert BesselOrder.from_nu(0.5).half_odd_integer
    assert BesselOrder.from_nu(2.5).half_odd_integer
    assert not BesselOrder.from_nu(0.0).half_odd_integer
    assert not BesselOrder.from_nu(1.0).half_odd_integer
    assert not BesselOrder.from_nu(0.5 + 1e-6).half_odd_integer
    # a negative order is never flagged, and K_{-nu} = K_nu (DLMF 10.27.3)
    assert not BesselOrder.from_nu(-1.5).half_odd_integer
    assert bessel_k(-1.5, 2.0) == bessel_k(1.5, 2.0)
    assert abs(bessel_k(-1.5, 2.0) - 0.17990665795209218) <= 1e-15
    # half-odd orders take the terminating Hankel sum up to k = 134 only
    assert BesselOrder.from_nu(134.5).half_odd_integer
    for nu in (135.5, 200.5, 20000.5, 1e300):
        assert not BesselOrder.from_nu(nu).half_odd_integer


def test_large_half_odd_order_takes_the_generic_route():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        ref = complex(mp.besselk(200.5, 1000) * mp.exp(1000))
    assert abs(bessel_k_scaled(200.5, 1000.0) - ref) <= 1e-13 * abs(ref)
    # the last order of the terminating sum agrees with the generic route
    closed = bessel_k_scaled(134.5, 300.0)
    generic = complex(_scaled_generic_bucket(134.5, np.array([300.0]))[0])
    assert abs(generic - closed) <= 1e-12 * abs(closed)


def test_half_order_closed_forms():
    z = 1.0
    assert abs(bessel_k(0.5, z) - math.sqrt(math.pi / 2.0) * math.exp(-1.0)) < 1e-16
    val = bessel_k(1.5, 2.0)
    ref = math.sqrt(math.pi / 4.0) * math.exp(-2.0) * 1.5
    assert abs(val - ref) <= 1e-14 * ref


def test_generic_order_against_trapezoid_oracle():
    assert abs(bessel_k(0.8, 1.5) - K_08_15) <= 1e-12 * K_08_15


def test_scaled_large_argument_asymptotics():
    # sqrt(pi/2z) (1 - c1/(8z) + c2/(2(8z)^2) - c3/(6(8z)^3)) with
    # ck = prod_j (4 nu^2 - (2j-1)^2); 4-term tail < 1e-10 at z = 300
    nu, z = 1.3, 300.0
    mu4 = 4.0 * nu * nu
    c1 = mu4 - 1.0
    c2 = c1 * (mu4 - 9.0)
    c3 = c2 * (mu4 - 25.0)
    ref = math.sqrt(math.pi / (2.0 * z)) * (
        1.0 + c1 / (8.0 * z) + c2 / (2.0 * (8.0 * z) ** 2) + c3 / (6.0 * (8.0 * z) ** 3)
    )
    assert abs(bessel_k_scaled(nu, z) - ref) <= 1e-9 * ref


def test_scaled_half_order_values():
    for z in (0.7, 3.0, 50.0):
        assert abs(bessel_k_scaled(0.5, z) - math.sqrt(math.pi / (2.0 * z))) < 1e-14
    v = bessel_k_scaled(1.5, 10.0)
    assert abs(v - math.sqrt(math.pi / 20.0) * 1.1) <= 1e-14


def test_half_order_below_the_reciprocal_overflow():
    # 1/(2z) overflows at z = 1e-320, but K_{1/2}(z) ~ 1.25e160 does not
    mp = pytest.importorskip("mpmath")
    z = 1e-320
    ref = float(mp.besselk(0.5, mp.mpf(z)))
    assert abs(bessel_k(0.5, z) - ref) <= 1e-15 * ref


def test_scaled_huge_argument_finite():
    # leading asymptotics only: the first correction term is ~7e-9 here
    v = bessel_k_scaled(1.3, 1e8)
    assert np.isfinite(abs(v))
    assert abs(v - math.sqrt(math.pi / 2e8)) <= 1e-7 * abs(v)


def test_half_odd_orders_against_mpmath_or_raise():
    # the terminating Hankel sum cancels at complex z for large k: each
    # value is right to 5e-14 or raises, and small orders never raise
    mp = pytest.importorskip("mpmath")
    raised = 0
    for k in (0, 3, 10, 60, 134):
        for arg in (0.0, 0.7, -1.2, 1.5):
            for r in np.logspace(-3.0, 4.0, 8):
                z = complex(r * cmath.exp(1j * arg))
                with mp.workdps(30):
                    ref = complex(mp.besselk(k + 0.5, z) * mp.exp(z))
                if not cmath.isfinite(ref):  # K overflows a double
                    continue
                try:
                    value = bessel_k_scaled(k + 0.5, z)
                except ConvergenceError:
                    assert k > 10
                    raised += 1
                    continue
                assert abs(value - ref) <= 5e-14 * abs(ref), (k, z)
    assert raised > 0


def test_closed_vs_cosh_route():
    # the generic-route integral must reproduce the closed half-odd forms,
    # also at complex z, where the step comes from the strip of analyticity
    for nu in (0.5, 1.5, 2.5):
        for arg in (0.0, 1.0, -1.0, 1.4, -1.4):
            for r in (0.5, 1.0, 5.0, 20.0):
                z = r * cmath.exp(1j * arg)
                closed = bessel_k_scaled(nu, z)
                generic = complex(_scaled_generic_bucket(nu, np.array([complex(z)]))[0])
                assert abs(generic - closed) <= 1e-10 * abs(closed)


@pytest.mark.parametrize("nu", [6.1, 10.7, 20.3, 30.3])
def test_high_generic_orders_against_mpmath(nu):
    # orders whose grids refine past the first level (every new level must
    # fill in the whole grid, not its first half)
    mp = pytest.importorskip("mpmath")
    for z in (0.01, 1.0, 10.0, 100.0):
        ref = float(mp.besselk(nu, z))
        assert abs(bessel_k(nu, z) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("nu, z, tol", [
    (0.3, 1e-20, 1e-14),
    (1.3, 1e-30, 1e-14),
    (2.6, 1e-20, 1e-14),
    (0.7, 1e-17 * (1 + 1j), 1e-14),
    (0.3, 1e-300, 1e-13),
    (1.3, 1e-200, 1e-13),
])
def test_generic_order_at_tiny_argument(nu, z, tol):
    # Re z below about 1e-15 stretches the cosh grid past tau = 40, where
    # log(cosh tau - 1) takes its large-tau form
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        ref = complex(mp.besselk(nu, mp.mpc(z)))
    assert abs(bessel_k(nu, z) - ref) <= tol * abs(ref)


def test_complex_argument_is_right_or_raises():
    # where the cosh integral cancels (large order, |arg z| near pi/2) the
    # trapezoid cannot settle in double precision: it must raise, never
    # return a wrong value
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    finite = raised = 0
    for _ in range(150):
        nu = rng.uniform(4.0, 31.0)
        arg = rng.uniform(1.2, 1.5) * rng.choice((-1.0, 1.0))
        z = math.exp(rng.uniform(math.log(0.5), math.log(200.0))) * cmath.exp(1j * arg)
        try:
            value = bessel_k(nu, z)
        except ConvergenceError:
            raised += 1
            continue
        ref = complex(mp.besselk(nu, z))
        assert abs(value - ref) <= 1e-10 * abs(ref)
        finite += 1
    assert finite >= 20 and raised >= 20


def test_recurrence_property():
    rng = np.random.default_rng(12)
    for _ in range(200):
        nu = rng.uniform(0.1, 3.0)
        z = rng.uniform(0.5, 30.0)
        lhs = bessel_k(nu + 1.0, z)
        rhs = bessel_k(nu - 1.0, z) + (2.0 * nu / z) * bessel_k(nu, z)
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_scaled_unscaled_consistency():
    rng = np.random.default_rng(13)
    for _ in range(50):
        nu = rng.uniform(0.0, 3.0)
        z = rng.uniform(0.1, 200.0)
        a = bessel_k_scaled(nu, z) * math.exp(-z)
        b = bessel_k(nu, z)
        if b != 0:
            assert abs(a - b) <= 1e-12 * abs(b)


def test_upper_bound_values_and_strictness():
    # nu = 1, z = 2: (1/2) * 1^{3/2} * Gamma(3/2) = sqrt(pi)/4
    assert abs(bessel_k_upper_bound(1.0, 2.0 + 0j) - math.sqrt(math.pi) / 4.0) < 1e-14
    # real z, nu = 0: bound sqrt(pi/2z) vs K_{1/2} = sqrt(pi/2z) e^-z
    for z in (0.3, 1.0, 8.0):
        assert bessel_k_upper_bound(0.0, z) > abs(bessel_k(0.5, z))
    rng = np.random.default_rng(14)
    for _ in range(200):
        nu = rng.uniform(0.0, 2.5)
        z = complex(rng.uniform(0.2, 20.0), rng.uniform(-10.0, 10.0))
        assert abs(bessel_k(nu + 0.5, z)) < bessel_k_upper_bound(nu, z)


def test_complex_argument_domain():
    with pytest.raises(DomainError):
        bessel_k(0.7, -1.0)
    with pytest.raises(DomainError):
        bessel_k_scaled(0.7, complex(0.0, 2.0))
    with pytest.raises(DomainError):
        bessel_k_upper_bound(-0.5, 1.0)
    with pytest.raises(DomainError, match=r"Re\(z\) > 0"):
        bessel_k_upper_bound(0.5, -1.0)


@pytest.mark.parametrize("nu, z", [
    (math.inf, 1.0),  # was an OverflowError from round
    (1.0 + 1.0j, 1.0),  # was a TypeError from float
    (math.nan, 1.0),
    (1.0, math.inf),  # was 0j
    (1.0, complex(math.inf, 1.0)),
], ids=["inf-order", "complex-order", "nan-order", "inf-z", "inf-re-z"])
def test_bessel_k_refuses_a_non_real_order_or_an_infinite_argument(nu, z):
    with pytest.raises(DomainError):
        bessel_k(nu, z)


def test_an_order_with_a_zero_imaginary_part_is_its_real_part():
    # the CLI hands every number as a complex
    for nu in (0.7, 1.5, -2.5):
        assert bessel_k(complex(nu), 2.0 + 1.0j) == bessel_k(nu, 2.0 + 1.0j)


def test_a_real_array_with_an_infinite_entry_is_refused():
    # its Hankel sum gave 0 there
    with pytest.raises(DomainError, match="finite z"):
        bessel_k_scaled_many(0.7, np.array([1.0, np.inf]))


def test_grid_refuses_work_past_its_budget():
    # |arg z| = pi/2 - 1e-6: the cosh integrand oscillates so fast that the
    # grid would need 137666263 nodes, past _MAX_WORK; it refuses at once
    z = 5.0 * cmath.exp(1j * (math.pi / 2.0 - 1e-6))
    with pytest.raises(ConvergenceError, match="would need 137666263 nodes"):
        bessel_k_scaled(1.3, z)


def test_vectorized_matches_scalar():
    zs = np.array([0.001, 0.37, 2.0, 55.0, 700.0])
    many = bessel_k_scaled_many(0.9, zs)
    for z, v in zip(zs, many):
        assert abs(v - bessel_k_scaled(0.9, z)) <= 1e-13 * abs(v)
