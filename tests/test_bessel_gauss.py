"""The fixed Gauss-Hermite rule of the Bessel kernel: e^z K_nu(z) at
generic orders between the floor Z_G(nu) and the Hankel threshold Z_H(nu),
its node table, its accuracy against mpmath, and the points it answers
where the former cosh trapezoid refused."""

import cmath
import math

import numpy as np
import pytest

from extappell import AppellParams, ExtendedAppellInput, ExtensionParams, bessel, f1pv_integral
from extappell.bessel import bessel_k_scaled, bessel_k_scaled_many
from extappell.errors import ConvergenceError

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def z_h(nu):
    return max(30.0, (4.0 * nu * nu - 1.0) / 8.0)


def reach(z):
    z = np.complex128(z)
    return 0.5 * (np.abs(z) + z.real)


def served(nu, z):
    """Whether an argument takes the rule: the docstring's criterion,
    written out here."""
    return np.abs(np.complex128(z)) < z_h(nu) and reach(z) >= max(1.0, nu * nu / 40.0)


def scaled_reference(mp, nu, z):
    with mp.workdps(30):
        return complex(mp.besselk(nu, z) * mp.exp(z))


def test_node_table_is_the_positive_half_of_hermgauss_96():
    hermite = pytest.importorskip("numpy.polynomial.hermite")
    nodes, weights = hermite.hermgauss(96)
    positive = nodes > 0.0
    np.testing.assert_allclose(bessel._GAUSS_NODES, nodes[positive], rtol=1e-15, atol=0.0)
    # hermgauss' own weights are right to about 4e-14 relative in the far tail
    np.testing.assert_allclose(bessel._GAUSS_WEIGHTS, 2.0 * weights[positive], rtol=1e-13, atol=0.0)
    assert abs(bessel._GAUSS_WEIGHTS.sum() - math.sqrt(math.pi)) <= 1e-15


def test_an_entry_does_not_depend_on_its_call_dtype(monkeypatch):
    # a real z takes the same route in a real and in a complex call: the
    # floor Z_G = 1 holds for every entry, where a complex call once took
    # the rule down to reach 0.68 (0.95 took it in [0.95+0j] but not in
    # [0.95]), and the values agree
    mp = pytest.importorskip("mpmath")
    calls = []
    rule = bessel._gauss_hermite_scaled

    def counted(nu, z):
        calls.append((z.dtype.kind, z.size))
        return rule(nu, z)

    monkeypatch.setattr(bessel, "_gauss_hermite_scaled", counted)
    for nu in (0.01, 0.7, 1.3, 2.2):
        z = np.array([0.6, 0.75, 0.95, 0.999, 1.0, 1.2, 2.0])
        calls.clear()
        real = bessel_k_scaled_many(nu, z)
        as_complex = bessel_k_scaled_many(nu, z + 0j)
        assert calls == [("f", 3), ("c", 3)]
        assert np.all(np.abs(as_complex - real) <= 1e-15 * real)
    # 4.8e-15 off mpmath in a complex call when the rule took it
    ref = scaled_reference(mp, 0.01, 0.75).real
    for z in (np.array([0.75]), np.array([0.75 + 0j])):
        assert abs(bessel_k_scaled_many(0.01, z)[0] - ref) <= 4e-16 * ref


def test_dropped_columns_do_not_move_a_value():
    # the column count of order nu is that of ceil(nu); at the smallest
    # |z| the rule serves, where the terms grow fastest, the dropped ones
    # are below the rounding of the sum
    counts = bessel._GAUSS_COLUMNS
    assert list(counts) == sorted(counts) and counts[0] == 27 and counts[-1] == 43
    assert not served(0.6, 0.9999 + 0j) and served(0.6, 1.0 + 0j)
    for nu in (0.01, 0.7, 1.2, 2.7, 4.5, 10.0, 33.3, 170.2, 400.9):
        z = max(1.0, nu * nu / 40.0)
        v = bessel._GAUSS_NODES / math.sqrt(2.0 * z)
        terms = np.cosh(2.0 * nu * np.arcsinh(v)) / np.sqrt(1.0 + v * v) * bessel._GAUSS_WEIGHTS
        kept = counts[min(math.ceil(nu), len(counts) - 1)]
        assert terms[kept:].sum() <= 1e-17 * terms.sum()


def test_rule_against_mpmath_on_a_seeded_grid():
    # 160 points at orders up to 15.5 with |arg z| <= 1.45 between the floor
    # and Z_H, and 40 real ones at large orders on the floor Z_G = nu^2/40
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(32)
    points = []
    while len(points) < 160:
        nu = rng.uniform(0.0, 15.5)
        arg = rng.uniform(-1.45, 1.45)
        r = math.exp(rng.uniform(math.log(0.6), math.log(z_h(nu))))
        z = cmath.rect(r, arg) if len(points) % 4 else r
        if served(nu, z):
            points.append((nu, z))
    # at large orders each term's rounding grows with |2 nu asinh v|, up to
    # about 100: at a phase of 0.2 the error reaches 1e-14 (the complex
    # large-order cases are below)
    points += [(nu, nu * nu / 40.0) for nu in rng.uniform(15.5, 300.0, 40)]
    worst = 0.0
    for nu, z in points:
        ref = scaled_reference(mp, nu, z)
        worst = max(worst, abs(bessel_k_scaled(nu, z) - ref) / abs(ref))
    assert worst <= 1e-14


def test_real_arguments_at_small_orders():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(100):
        nu = rng.uniform(0.0, 4.5)
        z = math.exp(rng.uniform(0.0, math.log(30.0)))
        ref = scaled_reference(mp, nu, z).real
        worst = max(worst, abs(bessel_k_scaled(nu, z).real - ref) / ref)
    assert worst <= 2e-15


def test_rule_entry_does_not_depend_on_its_call():
    for nu in (0.3, 1.3, 4.2, 11.7, 15.3):
        floor = max(1.0, nu * nu / 40.0)
        for arg in (0.0, 0.9, -1.4):
            for r in np.geomspace(2.0 * floor / (1.0 + math.cos(arg)) * 1.001, 0.9 * z_h(nu), 4):
                z = cmath.rect(r, arg) if arg else r
                others = np.geomspace(1.1 * r, 0.95 * z_h(nu), 40)
                others = others * cmath.exp(1j * arg) if arg else others
                alone = bessel_k_scaled_many(nu, np.array([z]))[0]
                for k in (0, 1, 7, 40):
                    shared = bessel_k_scaled_many(nu, np.insert(others, k, z))
                    assert shared[k] == alone


@pytest.mark.parametrize("nu, z", [
    (7.237, 20.0 * cmath.exp(1.5j)),  # was ConvergenceError from the trapezoid
    (8.8, 5.0 * cmath.exp(1.3j)),  # was "did not settle"
])
def test_complex_points_the_trapezoid_refused(nu, z):
    mp = pytest.importorskip("mpmath")
    ref = scaled_reference(mp, nu, z)
    assert abs(bessel_k_scaled(nu, z) - ref) <= 1e-14 * abs(ref)


def test_integral_route_at_steep_complex_p_and_a_larger_order():
    # the baseline point with |p| = 0.3 at arg p = 1.4 and nu = 4.3: the
    # kernel's smallest argument, 4p, has reach 0.702 < Z_G = 1 and takes
    # Temme's series and the order recurrence; reference by mpmath
    # quadrature of the Euler form at 25 digits
    ref = 53.77749447810024 + 11.982051935468878j
    inp = ExtendedAppellInput(AppellParams(1.2, 0.5, -0.7, 3.1, 0.4, -0.3),
                              ExtensionParams(0.3 * cmath.exp(1.4j), 4.3))
    assert abs(f1pv_integral(inp) - ref) <= 1e-14 * abs(ref)


def test_cancelling_terms_raise_or_are_right():
    # large orders near |arg z| = pi/2: the terms cancel, and the rule
    # either answers to 1e-13 or raises; real z never raises
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(34)
    answered = raised = 0
    for _ in range(60):
        nu = rng.uniform(16.0, 300.0)
        arg = rng.uniform(0.9, 1.55) * rng.choice((-1.0, 1.0))
        z = cmath.rect(2.0 * nu * nu / 40.0 / (1.0 + math.cos(arg)) * rng.uniform(1.01, 1.5), arg)
        assert served(nu, z)
        try:
            value = bessel_k_scaled(nu, z)
        except ConvergenceError as exc:
            assert "cancel" in str(exc)
            raised += 1
            continue
        ref = scaled_reference(mp, nu, z)
        assert abs(value - ref) <= 1e-13 * abs(ref)
        answered += 1
    assert answered >= 10 and raised >= 10
    assert np.isfinite(bessel_k_scaled(300.0, 2250.0))
