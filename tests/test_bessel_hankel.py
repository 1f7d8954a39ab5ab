"""The Hankel route of the Bessel kernel, its one band below the
threshold Z_H(nu) = max(30, (4 nu^2 - 1)/8), the terminating half-odd sum
where K overflows, and how an array call is dispatched: its shortcuts,
shapes and domain check."""

import cmath
import math

import numpy as np
import pytest

from extappell import bessel
from extappell.bessel import bessel_k, bessel_k_scaled, bessel_k_scaled_many
from extappell.errors import DomainError

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


def banded_reference(nu, z):
    """e^z K_nu(z) by the docstring's rule, built here: the Hankel sum
    for every |z| >= Z_H, and one grid for each band
    [Z_H/16^(k+1), Z_H/16^k) of the rest.  Returns the values and the
    number of bands."""
    threshold = z_h(nu)
    mags = np.abs(z)
    out = np.empty(z.shape, dtype=z.dtype)
    far = mags >= threshold
    if far.any():
        out[far] = bessel._hankel_scaled(nu, threshold, z[far])

    def band(m):
        k = 0
        while m < threshold / 16.0 ** (k + 1):
            k += 1
        return k

    near = np.flatnonzero(~far)
    bands = np.array([band(m) for m in mags[near]], dtype=int)
    for b in np.unique(bands):
        group = near[bands == b]
        out[group] = bessel._scaled_generic_bucket(nu, z[group])
    return out, np.unique(bands).size


def shortcut_cases(nu):
    """(|z| list, number of bands) for every dispatch route, with entries
    exactly at Z_H/16 and Z_H."""
    t = z_h(nu)
    return [
        ([t, 1.5 * t, 10.0 * t, 1e3 * t], 0),
        ([t / 16.0, 0.1 * t, 0.5 * t, 0.99 * t], 1),
        ([2.0 * t / 16.0**3, 3.0 * t / 16.0**2, t / 16.0, 0.25 * t], 3),
        ([t, 5.0 * t, t / 16.0, t / 100.0, 0.5 * t], 2),
    ]


@pytest.mark.parametrize("nu", [0.3, 1.3, 4.2, 11.7])
def test_dispatch_shortcuts_are_bit_identical_to_the_band_rule(monkeypatch, nu):
    calls = []
    bucket = bessel._scaled_generic_bucket

    def counted(order, z):
        calls.append(z.size)
        return bucket(order, z)

    monkeypatch.setattr(bessel, "_scaled_generic_bucket", counted)
    for radii, band_count in shortcut_cases(nu):
        real = np.array(radii)
        # complex entries keep |z| on the same side of each band edge
        complex_ = np.array([at_least(r, arg, r) for r, arg in zip(radii, (0.0, 0.6, -0.8, 0.4, -0.2))])
        for z in (real, complex_):
            ref, bands = banded_reference(nu, z)
            assert bands == band_count
            calls.clear()
            values = bessel_k_scaled_many(nu, z)
            assert values.dtype == ref.dtype
            assert np.all(values == ref)
            assert len(calls) == band_count


@pytest.mark.parametrize("nu", [1.3, 1.5])
def test_two_dimensional_arguments_match_the_flattened_call(nu):
    for z in (np.array([[1.0, 2.0], [40.0, 3.0]]),
              np.array([[0.01, 40.0 + 3.0j, 2.0 - 1.0j], [7.0, 0.5 + 0.5j, 300.0]])):
        values = bessel_k_scaled_many(nu, z)
        assert values.shape == z.shape
        assert np.all(values.ravel() == bessel_k_scaled_many(nu, z.ravel()))


@pytest.mark.parametrize("nu, good", [
    (1.5, [1.0, 2.0]),  # half-odd
    (1.3, [40.0, 300.0]),  # all far
    (1.3, [3.0, 20.0]),  # one band
    (1.3, [0.01, 3.0, 40.0]),  # several bands and far
])
def test_bad_entries_raise_on_every_route(nu, good):
    # complex(1, nan), not 1+nanj: the literal makes the real part NaN too
    for bad in (math.nan, 0.0, -1.0, complex(math.nan, 1.0), complex(-0.5, 2.0),
                complex(1.0, math.nan), complex(1.0, math.inf), complex(1.0, -math.inf)):
        z = np.array(good + [bad])
        with pytest.raises(DomainError):
            bessel_k_scaled_many(nu, z)
        with pytest.raises(DomainError):
            bessel_k(nu, bad)


def test_empty_input_is_an_empty_complex_array():
    for nu in (1.3, 1.5):
        values = bessel_k_scaled_many(nu, np.array([]))
        assert values.size == 0 and values.dtype == complex
