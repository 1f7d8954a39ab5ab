"""The Bessel kernel below the fixed rule's floor Z_G(nu) = max(1, nu^2/40)
at generic orders, and at every z at half-odd orders: the base pair at
mu = nu - round(nu) (closed at |mu| = 1/2, else Temme's series at reach < 1
and the fixed rule elsewhere) and the forward order recurrence up to nu,
against mpmath, entry by entry, and its bounds."""

import cmath
import math
import time

import numpy as np
import pytest

from extappell import AppellParams, ExtendedAppellInput, ExtensionParams, bessel, f1pv_integral
from extappell.bessel import bessel_k_scaled, bessel_k_scaled_many
from extappell.errors import ConvergenceError

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def z_g(nu):
    return max(1.0, nu * nu / 40.0)


def scaled_reference(mp, nu, z):
    with mp.workdps(40):
        return complex(mp.besselk(nu, z) * mp.exp(z))


def half_odd(nu):
    return abs(nu - round(nu - 0.5) - 0.5) < 1e-9


def test_reciprocal_gamma_table_is_the_taylor_series():
    # 1/Gamma(x) about x = 1 is 1/Gamma(1 + mu) about mu = 0
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        coeffs = mp.taylor(mp.rgamma, 1, len(bessel._RGAMMA) + 1)
    np.testing.assert_allclose(bessel._RGAMMA, [float(c) for c in coeffs[:-2]],
                               rtol=2e-16, atol=0.0)
    # the first two terms left out are below 3e-19 at |mu| <= 1/2
    n = len(bessel._RGAMMA)
    assert sum(abs(float(c)) * 0.5 ** (n + k) for k, c in enumerate(coeffs[n:])) < 3e-19


def test_grid_below_the_floor_against_mpmath():
    # generic orders up to 40, |z| from 1e-12 up to Z_G, real z and phases
    # up to 1.5
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(33)
    worst, count = 0.0, 0
    while count < 240:
        nu = rng.uniform(0.0, 40.0)
        if half_odd(nu):
            continue
        r = math.exp(rng.uniform(math.log(1e-12), math.log(z_g(nu))))
        z = cmath.rect(r, rng.uniform(-1.5, 1.5)) if count % 3 else r
        if 0.5 * (abs(z) + complex(z).real) >= z_g(nu):
            continue
        ref = scaled_reference(mp, nu, z)
        if not cmath.isfinite(ref) or abs(ref) > 1e300:  # K overflows a double
            continue
        worst = max(worst, abs(bessel_k_scaled(nu, z) - ref) / abs(ref))
        count += 1
    assert worst <= 1e-14


@pytest.mark.parametrize("z", [1e-300, 1e-310, 1e-300 * cmath.exp(1.2j)])
def test_tiny_and_subnormal_arguments(z):
    # (2/z)^mu is taken by pow, and a subnormal z never forms 2/z; orders
    # whose K is near or past the largest double are refused
    mp = pytest.importorskip("mpmath")
    worst, refused = 0.0, 0
    for nu in np.linspace(0.0, 1.1, 45):
        if half_odd(nu):
            continue
        with mp.workdps(40):
            ref = mp.besselk(nu, mp.mpmathify(z))
        try:
            value = bessel.bessel_k(nu, z)
        except ConvergenceError as exc:
            assert "overflows" in str(exc) and abs(ref) > 1e300
            refused += 1
            continue
        worst = max(worst, abs(value - complex(ref)) / abs(complex(ref)))
    assert worst <= 5e-14 and refused <= 10


def test_entry_below_the_floor_does_not_depend_on_its_call():
    # the half-odd orders take the closed pair at every z; K_{60.5}
    # overflows below |z| = 4e-4, so its entries start at 1e-3
    for nu in (0.3, 1.3, 4.2, 11.7, 25.6, 0.5, 1.5, 2.5, 60.5):
        low = 1e-3 if nu > 30.0 else 1e-9
        for arg in (0.0, 0.9, -1.4):
            for r in np.geomspace(low, 0.99 * z_g(nu), 5):
                z = cmath.rect(r, arg) if arg else r
                others = np.geomspace(max(low, 1e-6), 0.95 * z_g(nu), 40)
                others = others * cmath.exp(1j * arg) if arg else others
                alone = bessel_k_scaled_many(nu, np.array([z]))[0]
                for k in (0, 1, 7, 40):
                    shared = bessel_k_scaled_many(nu, np.insert(others, k, z))
                    assert shared[k] == alone


@pytest.mark.parametrize("nu, z", [
    (0.7, 1.744e-321 - 1.27e-321j),  # was 5.7e-4 off
    (0.3, 1.744e-321 - 1.27e-321j),  # was 2.4e-4 off
    (0.7, 3e-315 + 4e-315j),  # was 2.8e-10 off
    (0.9548, 1.744e-321 - 1.27e-321j),  # refused by the guard on Re z
])
def test_complex_subnormal_argument(nu, z):
    # |z| of a subnormal z rounds to the subnormal grid: Temme's series
    # takes the modulus of z 2^64
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        ref = complex(mp.besselk(nu, mp.mpc(z)))
    assert abs(bessel.bessel_k(nu, z) - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("nu, z", [
    (38.823, 9.725e-8 + 8.092e-7j),
    (38.806, 7.01e-8 - 5.68e-7j),
    (22.710, 1.06e-13 - 1.16e-12j),
])
def test_steep_phase_near_the_overflow_answers(nu, z):
    # finite values the overflow guard refused when it took the smallest
    # Re z, not the smallest |z|
    mp = pytest.importorskip("mpmath")
    ref = scaled_reference(mp, nu, z)
    assert abs(bessel_k_scaled(nu, z) - ref) <= 1e-14 * abs(ref)


def test_around_the_overflow_guard_answers_or_raises():
    # |z| within e^{+-0.3} of where ln(Gamma(nu) (2/|z|)^nu / 2) = 705 (the
    # guard's small-|z| limit; at order 300 its edge lies 8 % higher), at
    # phases up to 1.55: each point answers to 1e-13 or raises, and a
    # point whose K overflows a double raises
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(34)
    answered = raised = 0
    for nu in (2.3, 10.7, 38.8, 77.1, 150.3, 300.3, 1.5, 10.5, 60.5, 134.5):
        edge = 2.0 * math.exp((math.lgamma(nu) - math.log(2.0) - 705.0) / nu)
        for _ in range(8):
            z = cmath.rect(edge * math.exp(rng.uniform(-0.3, 0.3)), rng.uniform(-1.55, 1.55))
            ref = scaled_reference(mp, nu, z)
            try:
                value = bessel_k_scaled(nu, z)
            except ConvergenceError as exc:
                assert "overflows" in str(exc)
                raised += 1
                continue
            assert cmath.isfinite(ref) and abs(value - ref) <= 1e-13 * abs(ref), (nu, z)
            answered += 1
    assert answered >= 20 and raised >= 20


@pytest.mark.parametrize("nu, z, ref", [
    (134.5, 0.508, 1.6024486998069362e+307),  # ln(e^z K) = 707.4
    (300.3, 22.3, 2.874018723051048e+307),  # 707.9
])
def test_guard_answers_up_to_the_largest_double(nu, z, ref):
    # values within a factor 12 of DBL_MAX, ln(e^z K) under the guard's
    # 709; references: mpmath at 30 digits
    assert abs(bessel_k_scaled(nu, z) - ref) <= 1e-14 * ref


@pytest.mark.parametrize("nu, z, ref", [
    (300.3, 21.5, None),  # ln(e^z K) = 718.1; the recurrence overflowed
    (1000.3, 370.0, None),  # 1021.0, where the small-|z| limit gives 685
    (300.3, 23.0, 5.2491665965577978e+303),  # 699.3
    (1000.3, 5000.0, 3.6023437330240624e+41),  # 96.0; that limit times e^z, 3080
])
def test_overflow_guard_at_large_orders(nu, z, ref):
    # at large orders e^z K_nu(z) falls far below its small-|z| limit
    # Gamma(nu) (2/z)^nu / 2 times e^z: the guard takes the uniform
    # expansion's fall from that limit.  References: mpmath at 30 digits
    if ref is None:
        with pytest.raises(ConvergenceError, match="overflows"):
            bessel_k_scaled(nu, z)
    else:
        assert abs(bessel_k_scaled(nu, z) - ref) <= 1e-14 * ref


def test_integral_route_at_steep_complex_p_and_order_10_3():
    # the baseline point with |p| = 0.3 at arg p = 1.2 and nu = 10.3, where
    # the cosh trapezoid did not settle: the kernel's smallest arguments
    # fall below Z_G = 2.65; reference by mpmath quadrature of the Euler
    # form at 30 digits
    ref = 93816605.56882189 + 16969795.82006377j
    inp = ExtendedAppellInput(AppellParams(1.2, 0.5, -0.7, 3.1, 0.4, -0.3),
                              ExtensionParams(0.3 * cmath.exp(1.2j), 10.3))
    assert abs(f1pv_integral(inp) - ref) <= 1e-13 * abs(ref)


def test_recurrence_bound_refuses_fast_and_names_the_order():
    # K_{100000.3}(2e8) is below Z_G = 2.5e8 and would take 99999 steps
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match=r"recurrence .*nu=100000\.3"):
        bessel_k_scaled(100000.3, 2e8)
    assert time.perf_counter() - start < 1.0
    # at the bound, 65536 steps, it still answers
    value = bessel_k_scaled(bessel._MAX_STEPS + 1.3, 1e8)
    assert math.isfinite(value.real) and value.real > 0.0
