"""The Hankel route of the Bessel kernel, its one band below the
threshold Z_H(nu) = max(30, (4 nu^2 - 1)/8), and the terminating half-odd sum
where K overflows."""

import cmath
import math

import numpy as np
import pytest

from extappell import bessel
from extappell.bessel import bessel_k, bessel_k_scaled, bessel_k_scaled_many

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# 40 generic orders in (0, 12], none of them half-odd
ORDERS = [0.037 + 0.3 * k for k in range(40)]


def z_h(nu):
    return max(30.0, (4.0 * nu * nu - 1.0) / 8.0)


def at_least(r, arg, floor):
    """r e^{i arg}, nudged up by ulps until numpy's |z| is >= floor."""
    z = cmath.rect(r, arg)
    while np.abs(np.complex128(z)) < floor:
        z *= 1.0 + 2.0**-52
    return z


def test_hankel_route_against_mpmath():
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    for i, nu in enumerate(ORDERS):
        sign = 1.0 if i % 2 else -1.0
        for r in (z_h(nu), 1.01 * z_h(nu), 100.0, 1e4, 1e8, 1e12):
            for arg in (0.0, 0.5, 1.0, 1.4, 1.5):
                z = at_least(r, sign * arg, z_h(nu))
                with mp.workdps(20):
                    ref = complex(mp.besselk(nu, z) * mp.exp(z))
                worst = max(worst, abs(bessel_k_scaled(nu, z) - ref) / abs(ref))
    assert worst <= 1e-14


def test_hankel_entry_does_not_depend_on_its_call():
    for nu in (0.3, 1.3, 4.2, 11.7, 30.3):
        for r in (z_h(nu), 2.5 * z_h(nu), 1e6):
            for arg in (0.0, 0.9, -1.4):
                z = at_least(r, arg, z_h(nu))
                alone = bessel_k_scaled_many(nu, np.array([z]))[0]
                shared = bessel_k_scaled_many(nu, np.array([0.5, 5.0, z, 1e4]))[2]
                assert alone == shared
            alone = bessel_k_scaled_many(nu, np.array([r]))[0]
            assert alone == bessel_k_scaled_many(nu, np.array([0.5, 5.0, r, 1e4]))[2]


def test_one_trapezoid_band_below_the_threshold(monkeypatch):
    calls = []
    bucket = bessel._scaled_generic_bucket

    def counted(nu, z):
        calls.append(z.size)
        return bucket(nu, z)

    monkeypatch.setattr(bessel, "_scaled_generic_bucket", counted)
    z = np.geomspace(2.0, 1e4, 13)
    values = bessel_k_scaled_many(1.3, z)
    assert len(calls) == 1 and calls[0] == np.count_nonzero(z < 30.0)
    assert np.all(np.isfinite(values))


def test_large_orders_stay_on_the_grid(monkeypatch):
    # at nu = 30.3, Z_H = 458.9: z = 100 would sum terms far above 1
    mp = pytest.importorskip("mpmath")
    calls = []
    hankel = bessel._hankel_scaled

    def counted(nu, threshold, z):
        calls.append(z.size)
        return hankel(nu, threshold, z)

    monkeypatch.setattr(bessel, "_hankel_scaled", counted)
    value = bessel_k_scaled(30.3, 100.0)
    assert calls == []
    with mp.workdps(30):
        ref = complex(mp.besselk(30.3, 100) * mp.exp(100))
    assert abs(value - ref) <= 1e-12 * abs(ref)


def test_huge_arguments_to_double_precision():
    mp = pytest.importorskip("mpmath")
    for nu, z in ((1.3, 1e8), (0.7, 1e12), (2.3, 1e6 * cmath.exp(1.4j))):
        with mp.workdps(30):
            ref = complex(mp.besselk(nu, z) * mp.exp(z))
        assert abs(bessel_k_scaled(nu, z) - ref) <= 1e-15 * abs(ref)


def test_half_odd_overflow_is_infinite_not_nan():
    # below z ~ 1e-308 every K_{k+1/2} with k >= 1 overflows
    for nu in (1.5, 2.5, 7.5):
        for z in (1e-320, 1e-320 * cmath.exp(0.7j)):
            value = bessel_k(nu, z)
            assert cmath.isinf(value) and not cmath.isnan(value)
    many = bessel_k_scaled_many(1.5, np.array([1e-320, 1e-320j + 1e-320, 2.0]))
    assert np.all(np.isinf(many[:2])) and not np.any(np.isnan(many))
    assert abs(many[2] - math.sqrt(math.pi / 4.0) * 1.5) <= 1e-15
    # K_{1/2} itself is still finite there
    mp = pytest.importorskip("mpmath")
    ref = complex(mp.besselk(0.5, mp.mpc(1e-320, 1e-320)))
    assert abs(bessel_k(0.5, 1e-320 + 1e-320j) - ref) <= 1e-15 * abs(ref)
