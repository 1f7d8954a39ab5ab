import cmath
import importlib
import math

import numpy as np
import pytest

from extappell import extbeta
from extappell.errors import DomainError, PoleError
from extappell.extbeta import ExtensionParams, chaudhry_beta, extended_beta
from extappell.f1pv import (
    ExtendedAppellInput,
    f1pv,
    f1pv_bound,
    f1pv_bound_simple,
    f1pv_derivative,
    f1pv_integral,
    f1pv_recursion_b2,
    f1pv_recursion_b3,
    f1pv_series,
    f1pv_transform,
    route_for,
)
from extappell.hyper import AppellParams, appell_f1_series, block_double_sum
from extappell.oracles import bruteforce_f1pv
from extappell.scalar import beta

f1pv_module = importlib.import_module("extappell.f1pv")  # ``extappell.f1pv`` is the function

# brute-force 200x200 double sum over 20-digit extended-Beta quadratures
F1PV_ORACLE = 0.0109287346969606465

BASE = ExtendedAppellInput(AppellParams(1, 1, 1, 3, 0.3, 0.4), ExtensionParams(1.0, 0.5))


def _inp(b1, b2, b3, c1, x, y, p, nu):
    return ExtendedAppellInput(AppellParams(b1, b2, b3, c1, x, y), ExtensionParams(p, nu))


def test_series_oracle():
    val = f1pv_series(BASE)
    assert abs(val - F1PV_ORACLE) <= 1e-10 * F1PV_ORACLE


@pytest.mark.parametrize("p, nodes", [(1.5, 193), (0.3, 385)], ids=["level4", "level5"])
def test_integral_stopping_at_level_4_or_5_makes_one_kernel_call(monkeypatch, p, nodes):
    # the kernel quadrature runs at 1e-10, so its first call samples levels 0-5
    results, kernel_calls = [], []
    quad, kernel = extbeta.integrate_unit_interval, extbeta.bessel_k_scaled_many
    monkeypatch.setattr(extbeta, "integrate_unit_interval",
                        lambda *args: results.append(quad(*args)) or results[-1])
    monkeypatch.setattr(extbeta, "bessel_k_scaled_many",
                        lambda *args: kernel_calls.append(args) or kernel(*args))
    f1pv_integral(_inp(1.2, 0.5, -0.7, 3.1, 0.4, -0.3, p, 0.7))
    assert [r.nodes_used for r in results] == [nodes]
    assert len(kernel_calls) == 1


# the same (b1, c1, p, nu): FAR sums past 32 diagonals, NEAR fewer
FAR = _inp(1.3, 0.6, -0.4, 3.2, 0.85, -0.8, 1.1, 0.7)
NEAR = _inp(1.3, 1.7, 0.2, 3.2, 0.2, 0.1, 1.1, 0.7)


def test_a_shared_family_gives_the_same_values_in_either_order(monkeypatch):
    """Bit for bit: the values go through the moments' matrix-vector
    product, whose summation order the BLAS picks per CPU, so their bits
    hold per machine, and this compares two orders on one."""
    families = []

    class Recorded(f1pv_module.ExtendedBetaFamily):
        def __init__(self, *args):
            super().__init__(*args)
            families.append(self)

    monkeypatch.setattr(f1pv_module, "ExtendedBetaFamily", Recorded)
    far_first = [f1pv_series(FAR), f1pv_series(NEAR)]
    assert len(families) == 1 and families[0]._vals.size > 32
    f1pv_module._series_diagonal.cache_clear()
    near_first = [f1pv_series(NEAR), f1pv_series(FAR)]
    assert len(families) == 2 and families[1]._vals.size == families[0]._vals.size
    assert near_first[::-1] == far_first


def test_integral_oracle_and_cross_route():
    vi = f1pv_integral(BASE)
    assert abs(vi - F1PV_ORACLE) <= 1e-10 * F1PV_ORACLE
    assert abs(vi - f1pv_series(BASE)) <= 1e-8 * (1.0 + abs(vi))


def test_origin_reduces_to_extended_beta_ratio():
    inp = _inp(1.2, 0.8, -0.9, 3.1, 0.0, 0.0, 1.0, 0.5)
    ratio = extended_beta(1.2, 3.1 - 1.2, inp.ext) / beta(1.2, 3.1 - 1.2)
    for val in (f1pv_series(inp), f1pv_integral(inp)):
        assert abs(val - ratio) <= 1e-10 * (1.0 + abs(ratio))


def test_power_free_case_ignores_xy():
    a = f1pv_integral(_inp(1.1, 0.0, 0.0, 2.6, 0.4, -0.6, 1.5, 0.9))
    b = f1pv_integral(_inp(1.1, 0.0, 0.0, 2.6, -0.2, 0.7, 1.5, 0.9))
    assert abs(a - b) <= 1e-11 * (1.0 + abs(a))


def test_route_equivalence_random():
    rng = np.random.default_rng(41)
    for _ in range(40):
        b1 = rng.uniform(0.5, 3.0)
        c1 = b1 + rng.uniform(0.5, 3.0)
        inp = _inp(
            b1, rng.uniform(-2, 2), rng.uniform(-2, 2), c1,
            rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8),
            rng.uniform(0.25, 4.0), rng.uniform(0.0, 2.0),
        )
        s, i = f1pv_series(inp), f1pv_integral(inp)
        assert abs(s - i) <= 1e-8 * (1.0 + abs(s))


def test_symmetry_under_pair_swap():
    rng = np.random.default_rng(42)
    for _ in range(60):
        b1 = rng.uniform(0.5, 3.0)
        c1 = b1 + rng.uniform(0.5, 3.0)
        b2, b3 = rng.uniform(-2, 2, 2)
        x, y = rng.uniform(-0.8, 0.8, 2)
        ext = ExtensionParams(rng.uniform(0.25, 4.0), rng.uniform(0.0, 2.0))
        a = f1pv_series(ExtendedAppellInput(AppellParams(b1, b2, b3, c1, x, y), ext))
        b = f1pv_series(ExtendedAppellInput(AppellParams(b1, b3, b2, c1, y, x), ext))
        assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


def test_nu_zero_matches_chaudhry_construction():
    rng = np.random.default_rng(43)
    for _ in range(20):
        b1 = rng.uniform(0.5, 3.0)
        c1 = b1 + rng.uniform(0.5, 3.0)
        b2, b3 = rng.uniform(-2, 2, 2)
        x, y = rng.uniform(-0.8, 0.8, 2)
        p = rng.uniform(0.25, 4.0)
        inp = _inp(b1, b2, b3, c1, x, y, p, 0.0)
        b0 = beta(b1, c1 - b1)
        built = block_double_sum(
            lambda k: chaudhry_beta(b1 + k, c1 - b1, p) / b0, b2, b3, x, y, 1e-12
        )
        val = f1pv_series(inp)
        assert abs(val - built) <= 1e-9 * (1.0 + abs(val))


def test_transform_identity():
    for inp in (
        BASE,
        _inp(1.0, 1.0, 1.0, 3.0, -0.5, 0.25, 1.0, 0.5),
        _inp(0.8, -1.2, 1.7, 2.9, 0.55, -0.7, 2.2, 1.4),
    ):
        lhs = f1pv_integral(inp)
        rhs = f1pv_transform(inp)
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))


def test_transform_origin_uses_beta_symmetry():
    inp = _inp(1.1, 0.7, 1.3, 2.9, 0.0, 0.0, 1.0, 0.8)
    assert abs(f1pv_transform(inp) - f1pv_integral(inp)) <= 1e-9


def test_transform_moebius_involution():
    for x in (-0.7, -0.1, 0.4, 0.9):
        xi = x / (x - 1.0)
        assert abs(xi / (xi - 1.0) - x) < 1e-14


def test_transform_domain_error():
    with pytest.raises(DomainError):
        f1pv_transform(_inp(2.5, 1.0, 1.0, 2.5, 0.3, 0.1, 1.0, 0.5))


def test_derivative_trivial_and_finite_difference():
    assert abs(f1pv_derivative(BASE, 0, 0) - f1pv(BASE)) <= 1e-12

    inp = _inp(1, 1, 1, 2, 0.2, 0.3, 1.0, 0.5)

    def at(x, y):
        return f1pv_series(
            ExtendedAppellInput(AppellParams(1, 1, 1, 2, x, y), inp.ext)
        )

    h = 1e-5
    fd = (at(0.2 + h, 0.3) - at(0.2 - h, 0.3)) / (2 * h)
    an = f1pv_derivative(inp, 1, 0)
    assert abs(an - fd) <= 1e-5 * abs(fd)

    h = 5e-4
    fd_xy = (
        at(0.2 + h, 0.3 + h) - at(0.2 + h, 0.3 - h)
        - at(0.2 - h, 0.3 + h) + at(0.2 - h, 0.3 - h)
    ) / (4 * h * h)
    an_xy = f1pv_derivative(inp, 1, 1)
    assert abs(an_xy - fd_xy) <= 1e-4 * abs(fd_xy)


def test_derivative_shifted_pole():
    bad = _inp(1.0, 1.0, 1.0, -0.5, 0.2, 0.1, 1.0, 0.5)
    with pytest.raises(PoleError):
        AppellParams(1.0, 1.0, 1.0, -2.0, 0.2, 0.1)
    # c1 = -0.5: c1 + M + N hits a pole only at non-integer shifts, never here
    assert np.isfinite(abs(f1pv_derivative(bad, 1, 0)))


@pytest.mark.parametrize("orders", [(0.5, 0), (0, 1.5), (-1, 0), (0.25, 0.75)])
def test_derivative_rejects_non_integer_orders(orders):
    # the parameter-shift identity holds for integer orders only; (0.5, 0)
    # used to return a value (5.381e-4 at this point) instead of raising
    inp = _inp(1.2, 0.5, -0.7, 3.1, 0.4, -0.3, 1.5, 0.7)
    with pytest.raises(DomainError):
        f1pv_derivative(inp, *orders)
    assert abs(f1pv_derivative(inp, 1.0, 0) - f1pv_derivative(inp, 1, 0)) == 0.0


def test_recursions():
    inp = _inp(1.0, 0.5, 0.7, 2.5, 0.3, 0.2, 1.0, 0.8)
    for n in (1, 2, 3):
        direct = f1pv_series(_inp(1.0, 0.5 + n, 0.7, 2.5, 0.3, 0.2, 1.0, 0.8))
        assert abs(direct - f1pv_recursion_b2(inp, n)) <= 1e-9 * (1.0 + abs(direct))
        direct = f1pv_series(_inp(1.0, 0.5, 0.7 + n, 2.5, 0.3, 0.2, 1.0, 0.8))
        assert abs(direct - f1pv_recursion_b3(inp, n)) <= 1e-9 * (1.0 + abs(direct))


def test_recursion_zero_variable_adds_nothing():
    inp = _inp(1.0, 0.5, 0.7, 2.5, 0.0, 0.2, 1.0, 0.8)
    assert abs(f1pv_recursion_b2(inp, 2) - f1pv_series(inp)) <= 1e-12
    inp = _inp(1.0, 0.5, 0.7, 2.5, 0.3, 0.0, 1.0, 0.8)
    assert abs(f1pv_recursion_b3(inp, 3) - f1pv_series(inp)) <= 1e-12


def test_bound_holds_and_nu0_shape():
    # nu = 0, real p: the bound collapses to the classical F1 value
    inp0 = _inp(1.0, 1.0, 1.0, 3.0, 0.3, 0.4, 1.0, 0.0)
    bnd = f1pv_bound(inp0)
    ref = appell_f1_series(AppellParams(1.0, 1.0, 1.0, 3.0, 0.3, 0.4)).real
    assert abs(bnd - ref) <= 1e-10 * ref
    assert abs(f1pv_integral(inp0)) < bnd

    rng = np.random.default_rng(44)
    for _ in range(50):
        b1 = rng.uniform(0.5, 3.0)
        c1 = b1 + rng.uniform(0.5, 3.0)
        inp = _inp(
            b1, rng.uniform(-2, 2), rng.uniform(-2, 2), c1,
            rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8),
            rng.uniform(0.25, 4.0), 0.0,
        )
        assert abs(f1pv_integral(inp)) < f1pv_bound(inp)


def test_bound_symmetric_under_pair_swap():
    a = f1pv_bound(_inp(1.2, 0.9, -0.4, 3.0, 0.35, -0.6, 1.3, 0.7))
    b = f1pv_bound(_inp(1.2, -0.4, 0.9, 3.0, -0.6, 0.35, 1.3, 0.7))
    assert abs(a - b) <= 1e-14 * a


# the bound at the baseline point, nu = 0.7, by mpmath at 40 digits on the
# double-precision inputs
BOUND_BASE = (
    (1.5, 0.2235198442545447264722),
    (1.5 * cmath.exp(0.6j), 0.3543257207958489211573),
)


def test_bound_matches_frozen_reference():
    for p, ref in BOUND_BASE:
        inp = _inp(1.2, 0.5, -0.7, 3.1, 0.4, -0.3, p, 0.7)
        bnd = f1pv_bound(inp)
        assert abs(bnd - ref) <= 1e-14 * ref
        assert abs(f1pv_integral(inp)) < bnd


def test_bound_simple_subdomain():
    inp = _inp(1.0, 1.0, 1.0, 3.0, -0.3, -0.4, 1.0, 0.5)
    assert abs(f1pv_integral(inp)) < f1pv_bound_simple(inp)
    with pytest.raises(DomainError):
        f1pv_bound_simple(_inp(1.0, 1.0, 1.0, 3.0, 0.3, 0.4, 1.0, 0.5))
    with pytest.raises(DomainError):
        f1pv_bound(ExtendedAppellInput(
            AppellParams(1.0, complex(1, 1), 1.0, 3.0, 0.3, 0.4),
            ExtensionParams(1.0, 0.5),
        ))


def test_degenerate_prefactor_is_error():
    with pytest.raises((DomainError, PoleError)):
        f1pv_series(_inp(2.0, 1.0, 1.0, 2.0, 0.3, 0.1, 1.0, 0.5))
    with pytest.raises((DomainError, PoleError)):
        f1pv_integral(_inp(2.0, 1.0, 1.0, 2.0, 0.3, 0.1, 1.0, 0.5))


@pytest.mark.parametrize("b1, c1", [(0.0, 2.0), (1.5, 1.5)], ids=["b1=0", "c1=b1"])
def test_a_pole_of_the_normaliser_fails_alike_on_the_series_routes(b1, c1):
    # B(b1, c1-b1) has a pole: the series routes raise it, never falling
    # back to the integral route, whose domain excludes these points
    for x, y in ((0.3, 0.4), (0.9, -0.9)):
        inp = _inp(b1, 1.0, 1.0, c1, x, y, 1.0, 0.5)
        for route in ("auto", "series"):
            with pytest.raises(PoleError, match="beta pole"):
                f1pv(inp, route)
        with pytest.raises(DomainError, match=r"needs Re\(c1\) > Re\(b1\) > 0"):
            f1pv_integral(inp)


@pytest.mark.parametrize("b1, x, y, match", [
    (0.0, 0.3, 0.4, "Re"),
    (-0.5, 0.3, 0.4, "Re"),
    (complex(0.0, 2.0), 0.3, 0.4, "Re"),
    (1.0, 1.0, 0.4, "x on the branch cut"),  # x/(x-1) is never formed
    (1.0, 2.5, 0.4, "x on the branch cut"),
    (1.0, 0.3, 1.0, "y on the branch cut"),
])
def test_transform_domain_gate(b1, x, y, match):
    with pytest.raises(DomainError, match=match):
        f1pv_transform(_inp(b1, 1.0, 1.0, 3.0, x, y, 1.0, 0.5))


@pytest.mark.parametrize("x, y, name", [
    (1.0, 0.4, "x"),
    (0.3, -1.2, "y"),
    (complex(0.95, 0.4), 0.4, "x"),  # |x| = 1.03: the disc bounds |x|, not Re x
], ids=["x=1", "y=-1.2", "x=0.95+0.4i"])
def test_series_route_refuses_points_off_the_unit_disc(x, y, name):
    with pytest.raises(DomainError,
                       match=rf"series route needs \|x\| < 1 and \|y\| < 1, got \|{name}\|"):
        f1pv_series(_inp(1.0, 1.0, 1.0, 3.0, x, y, 1.0, 0.5))


def test_bounds_reject_the_branch_cut():
    # x, y > 0 with b2, b3 < 0 is the simple bound's second case; on
    # [1, inf) F_{1,p,nu} is not defined
    for x, y in ((2.0, 0.5), (0.5, 1.0)):
        inp = _inp(1.0, -0.5, -0.5, 3.0, x, y, 1.0, 0.5)
        for bound in (f1pv_bound, f1pv_bound_simple):
            with pytest.raises(DomainError, match="on the branch cut"):
                bound(inp)


def test_auto_route_selection():
    assert route_for(BASE.appell) == "series"
    assert f1pv(BASE) == f1pv_series(BASE)
    wide = _inp(1.0, 1.0, 1.0, 3.0, 0.95, 0.1, 1.0, 0.5)
    assert route_for(wide.appell) == "integral"
    assert abs(f1pv(wide) - f1pv_integral(wide)) == 0.0


# F_{1,p,nu}(1, -2, 1; 3; 1.5, 0.1) at p = 1.5, nu = 0.5: b2 = -2 ends the x
# ladder, so the series holds at |x| = 1.5; mpmath quadrature of the Euler
# form (whose x factor is the polynomial (1 - 1.5 t)^2) at 30 digits
TERMINATING_B2 = _inp(1.0, -2.0, 1.0, 3.0, 1.5, 0.1, 1.5, 0.5)
F1PV_TERMINATING_B2 = 1.03439760598315800983e-4


def test_a_terminating_parameter_lifts_the_series_disc():
    assert route_for(TERMINATING_B2.appell) == "series"
    assert abs(f1pv_series(TERMINATING_B2) - F1PV_TERMINATING_B2) <= 1e-13
    assert f1pv(TERMINATING_B2) == f1pv_series(TERMINATING_B2)


@pytest.mark.parametrize("b2, b3, x, y, series", [
    (1.0, 1.0, 0.9, -0.9, True),
    (1.0, 1.0, 0.95, 0.1, False),
    (-2.0, 1.0, 1.5, 0.1, True),  # x's ladder is a polynomial
    (-2.5, 1.0, 1.5, 0.1, False),
    (1.0, 0.0, 0.1, -40.0, True),
    (-2.0, 1.0, 1.5, 0.95, False),  # y still counts
])
def test_prefers_series_ignores_a_variable_whose_parameter_terminates(b2, b3, x, y, series):
    # the auto rule, which ``route_for`` alone writes
    assert route_for(AppellParams(1.0, b2, b3, 3.0, x, y)) == ("series" if series else "integral")


@pytest.mark.parametrize("recursion", [f1pv_recursion_b2, f1pv_recursion_b3])
def test_recursion_refuses_a_step_count_below_one(recursion):
    with pytest.raises(DomainError, match="step count must be >= 1"):
        recursion(BASE, 0)


def test_oracle_refuses_a_non_integer_order():
    with pytest.raises(DomainError, match="integer nu >= 0"):
        bruteforce_f1pv(1.0, 1.0, 1.0, 3.0, 0.3, 0.4, 1.0, 0.5)


def test_unknown_route_is_a_domain_error():
    with pytest.raises(DomainError, match="unknown route 'contour'"):
        f1pv(BASE, "contour")


def test_integral_route_at_steep_complex_p():
    # baseline point with |p| = 0.3 at arg p = 1.4, against an mpmath value
    ref = -0.22463165195748377 - 0.8039613397295093j
    val = f1pv_integral(_inp(1.2, 0.5, -0.7, 3.1, 0.4, -0.3, 0.3 * cmath.exp(1.4j), 0.7))
    assert abs(val - ref) <= 1e-9 * abs(ref)
