"""The Hankel route of the Bessel kernel above the threshold
Z_H(nu) = max(30, (4 nu^2 - 1)/8), the fixed Gauss-Hermite rule and the
order recurrence below it, the half-odd orders where K overflows, and how
an array call is dispatched: its shortcuts, shapes and domain check."""

import cmath
import math

import numpy as np
import pytest

from extappell import bessel
from extappell.bessel import bessel_k, bessel_k_scaled, bessel_k_scaled_many
from extappell.errors import ConvergenceError, DomainError

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# 40 generic orders in (0, 12], none of them half-odd
ORDERS = [0.037 + 0.3 * k for k in range(40)]


def z_h(nu):
    return max(30.0, (4.0 * nu * nu - 1.0) / 8.0)


def z_g(nu):
    return max(1.0, nu * nu / 40.0)


def reach(z):
    """(|z| + Re z)/2 as numpy takes it: the Gauss-Hermite rule serves
    reach >= Z_G below Z_H."""
    z = np.complex128(z)
    return 0.5 * (np.abs(z) + z.real)


def with_reach(r, arg):
    """A z of phase about ``arg`` whose reach is r, nudged up by ulps until
    numpy's reach is >= r; real z is r itself."""
    if arg == 0.0:
        return r
    z = cmath.rect(2.0 * r / (1.0 + math.cos(arg)), arg)
    while reach(z) < r:
        z *= 1.0 + 2.0**-52
    return z


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


def test_one_recurrence_call_below_the_floor(monkeypatch):
    # at nu = 1.3: the Hankel sum from Z_H = 30, the Gauss-Hermite rule on
    # [Z_G, Z_H) = [1, 30) and one call of the order recurrence below it,
    # whose base pair is Temme's series there
    calls = {"recurrence": [], "rule": []}
    for name, key in (("_order_recurrence_scaled", "recurrence"),
                      ("_gauss_hermite_scaled", "rule")):
        def counted(nu, z, route=getattr(bessel, name), key=key):
            calls[key].append(z.size)
            return route(nu, z)

        monkeypatch.setattr(bessel, name, counted)
    z = np.geomspace(0.125, 1e4, 13)
    values = bessel_k_scaled_many(1.3, z)
    assert calls["recurrence"] == [np.count_nonzero(z < 1.0)] and calls["recurrence"][0] > 1
    assert calls["rule"] == [np.count_nonzero((z >= 1.0) & (z < 30.0))]
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


def test_half_odd_overflow_raises():
    # below z ~ 1e-308 every K_{k+1/2} with k >= 1 overflows, and the
    # order recurrence's guard refuses it as at every other order (the
    # terminating Hankel sum returned inf there)
    for nu in (1.5, 2.5, 7.5):
        for z in (1e-320, 1e-320 * cmath.exp(0.7j)):
            with pytest.raises(ConvergenceError, match="overflows"):
                bessel_k(nu, z)
    with pytest.raises(ConvergenceError, match="overflows"):
        bessel_k_scaled_many(1.5, np.array([1e-320, 1e-320j + 1e-320, 2.0]))
    many = bessel_k_scaled_many(1.5, np.array([1e-100, 1e-100j + 1e-100, 2.0]))
    assert np.all(np.isfinite(many))
    assert abs(many[2] - math.sqrt(math.pi / 4.0) * 1.5) <= 1e-15
    # K_{1/2} itself is still finite there
    mp = pytest.importorskip("mpmath")
    ref = complex(mp.besselk(0.5, mp.mpc(1e-320, 1e-320)))
    assert abs(bessel_k(0.5, 1e-320 + 1e-320j) - ref) <= 1e-15 * abs(ref)


def route_reference(nu, z):
    """e^z K_nu(z) by the docstring's rule, built here one entry at a
    time: the Hankel sum for |z| >= Z_H, the Gauss-Hermite rule for
    reach >= Z_G below it, and the base pair with the order recurrence for
    the rest.  Returns the values and the number of recurrence entries."""
    threshold, floor = z_h(nu), z_g(nu)
    out = np.empty(z.shape, dtype=z.dtype)
    below = 0
    for i, entry in enumerate(z):
        one = z[i:i + 1]
        if np.abs(entry) >= threshold:
            out[i] = bessel._hankel_scaled(nu, threshold, one)[0]
        elif reach(entry) >= floor:
            out[i] = bessel._gauss_hermite_scaled(nu, one)[0]
        else:
            out[i] = bessel._order_recurrence_scaled(nu, one)[0]
            below += 1
    return out, below


def shortcut_cases(nu):
    """Reach lists for every dispatch route, with entries exactly at Z_G
    and Z_H and far below Z_G."""
    t, h = z_g(nu), z_h(nu)
    return [
        [h, 1.5 * h, 10.0 * h, 1e3 * h, h],
        [t, 1.5 * t, 0.3 * h, 0.5 * h, t],
        [t / 16.0, 0.1 * t, 0.5 * t, 0.99 * t, t / 16.0],
        [2.0 * t / 16.0**3, 3.0 * t / 16.0**2, t / 16.0, 0.25 * t, t / 16.0],
        [h, 5.0 * h, t / 16.0, t / 100.0, 0.5 * t],
        [h, t, 2.0 * t, t / 16.0, 0.5 * t],
    ]


@pytest.mark.parametrize("nu", [0.3, 1.3, 4.2, 11.7])
def test_dispatch_shortcuts_are_bit_identical_to_the_band_rule(monkeypatch, nu):
    # each route computes an entry on its own, so a call's values are
    # those of the routes one entry at a time, and the entries below Z_G
    # take one recurrence call
    calls = []
    recurrence = bessel._order_recurrence_scaled

    def counted(order, z):
        calls.append(z.size)
        return recurrence(order, z)

    for radii in shortcut_cases(nu):
        real = np.array(radii)
        # complex entries keep their reach on the same side of each edge
        complex_ = np.array([complex(with_reach(r, arg))
                             for r, arg in zip(radii, (0.0, 0.6, -0.8, 0.4, -0.2))])
        for z in (real, complex_):
            ref, below = route_reference(nu, z)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(bessel, "_order_recurrence_scaled", counted)
                values = bessel_k_scaled_many(nu, z)
            assert values.dtype == ref.dtype
            assert np.all(values == ref)
            assert calls == ([below] if below else [])


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
    (1.3, [3.0, 20.0]),  # the Gauss-Hermite rule
    (1.3, [0.01, 3.0, 40.0]),  # the recurrence, the rule and far
    (1.3, [0.1, 0.5]),  # the recurrence
    (1.3, [1e-4, 0.01, 0.5, 3.0, 40.0]),  # the recurrence over decades, the rule and far
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
