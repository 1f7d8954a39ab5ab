"""The Bessel kernel below the fixed rule's floor Z_G(nu) = max(1, nu^2/40)
at generic orders: the base pair at mu = nu - round(nu) (Temme's series at
reach < 1, the fixed rule elsewhere) and the forward order recurrence up to
nu, against mpmath, entry by entry, and its bound."""

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
    for nu in (0.3, 1.3, 4.2, 11.7, 25.6):
        for arg in (0.0, 0.9, -1.4):
            for r in np.geomspace(1e-9, 0.99 * z_g(nu), 5):
                z = cmath.rect(r, arg) if arg else r
                others = np.geomspace(1e-6, 0.95 * z_g(nu), 40)
                others = others * cmath.exp(1j * arg) if arg else others
                alone = bessel_k_scaled_many(nu, np.array([z]))[0]
                for k in (0, 1, 7, 40):
                    shared = bessel_k_scaled_many(nu, np.insert(others, k, z))
                    assert shared[k] == alone


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
