import math

import numpy as np
import pytest

from extappell import hyper, mellin, quadrature
from extappell.bessel import bessel_k_upper_bound
from extappell.errors import DomainError
from extappell.extbeta import ExtensionParams, extended_beta
from extappell.f1pv import ExtendedAppellInput, f1pv_integral, f1pv_series
from extappell.hyper import AppellParams, appell_f1_series
from extappell.mellin import (
    _P_DEAD,
    _P_LIMIT_FORM,
    _inversion_integrand,
    _limit_coefficient,
    _radial,
    check_mellin_point,
    mellin_forward_closed,
    mellin_forward_numeric,
    mellin_inverse_numeric,
)
from extappell.quadrature import _semi_level
from extappell.scalar import beta, gamma
from extappell.suites import MELLIN_PAIR_TOL, sample_input

AP = AppellParams(1, 1, 1, 3, 0.3, 0.4)
# the ROADMAP baseline point, its transform at nu = 0.7, s = 2.7 by the
# corrected closed form, and lim_{p->0} p^nu F_{1,p,nu} = 2^nu
# Gamma(nu+1/2)/sqrt(pi) R(nu) with R the shifted-Appell factor, by
# mpmath's appellf1 at 40 digits from the double-precision inputs
BASE = AppellParams(1.2, 0.5, -0.7, 3.1, 0.4, -0.3)
FORWARD_BASE_27 = 0.03086569771085350544021
LIMIT_BASE = {0.7: 0.2968793342908272393537, 1.0: 0.2158566314574441621915,
              1.9: 0.1361192995939547715069}


def test_mellin_point_constraints():
    check_mellin_point(1.5, 0.5, 3.0)
    with pytest.raises(DomainError):
        check_mellin_point(0.5, 0.5, 3.0)  # Re(s - nu) = 0
    with pytest.raises(DomainError):
        check_mellin_point(complex(0.2, 1.0), 0.9, 3.0)
    with pytest.raises(DomainError):
        check_mellin_point(1.0, 0.5, -4.0)  # c1 + 2s at a pole
    with pytest.raises(DomainError):
        # nu in (-1, 0) is off the extension's nu >= 0, which is what
        # makes Re(s - nu) > 0 imply Re(s) > 0
        check_mellin_point(-0.1, -0.5, 3.0)


def test_forward_pair_generic():
    num = mellin_forward_numeric(AP, 0.5, 1.5)
    clo = mellin_forward_closed(AP, 0.5, 1.5)
    assert abs(num - clo) <= 1e-6 * (1.0 + max(abs(num), abs(clo)))


def test_forward_pair_origin_case():
    # x = y = 0, nu = 0, b1 = 1, c1 = 2: both routes, plus the explicit
    # extended-Beta reduction of the closed form
    ap0 = AppellParams(1.0, 1.0, 1.0, 2.0, 0.0, 0.0)
    s, nu = 1.25, 0.0
    num = mellin_forward_numeric(ap0, nu, s)
    clo = mellin_forward_closed(ap0, nu, s)
    assert abs(num - clo) <= 1e-6 * (1.0 + abs(clo))
    explicit = (
        2.0 ** (s - 1.0) / math.sqrt(math.pi)
        * gamma((s - nu) / 2.0).real * gamma((s + nu + 1.0) / 2.0).real
        * beta(1.0 + s, 1.0 + s).real / beta(1.0, 1.0).real
    )
    assert abs(clo - explicit) <= 1e-12 * abs(explicit)


def test_forward_closed_complex_s():
    s = complex(1.4, 0.8)
    val = mellin_forward_closed(AP, 0.5, s)
    conj = mellin_forward_closed(AP, 0.5, s.conjugate())
    assert abs(val - conj.conjugate()) <= 1e-10 * abs(val)


def test_inverse_reconstructs():
    direct = f1pv_series(ExtendedAppellInput(AP, ExtensionParams(1.0, 0.5)))
    rec = mellin_inverse_numeric(AP, 0.5, 1.0)
    assert abs(rec - direct) <= 1e-5 * (1.0 + abs(direct))


def test_inverse_origin_case():
    ap0 = AppellParams(1.3, 0.6, -0.4, 2.8, 0.0, 0.0)
    nu, p = 0.7, 1.6
    rec = mellin_inverse_numeric(ap0, nu, p)
    ref = extended_beta(1.3, 1.5, ExtensionParams(p, nu)) / beta(1.3, 1.5)
    assert abs(rec - ref) <= 1e-5 * (1.0 + abs(ref))


def test_inverse_abscissa_independence():
    a = mellin_inverse_numeric(AP, 0.5, 1.0, c=1.5)
    b = mellin_inverse_numeric(AP, 0.5, 1.0, c=2.0)
    assert abs(a - b) <= 1e-6 * (1.0 + abs(a))


def test_inverse_contour_validation():
    with pytest.raises(DomainError):
        mellin_inverse_numeric(AP, 0.5, -1.0)
    with pytest.raises(DomainError):
        mellin_inverse_numeric(AP, 0.5, 1.0, c=0.4)


def test_integrand_gamma_pair_decay_rate():
    # |Gamma-pair integrand| should decay at least like e^{-pi |tau|/2};
    # measure the empirical rate over a tau window
    f = _inversion_integrand(AP, 0.5, 1.0, 1.5)
    taus = np.array([4.0, 8.0, 12.0, 16.0])
    mags = np.abs(f(taus))
    rates = np.log(mags[:-1] / mags[1:]) / 4.0
    assert np.all(rates >= math.pi / 2.0 - 0.15)


def test_series_domain_required():
    wide = AppellParams(1.0, 1.0, 1.0, 3.0, 1.2, 0.1)
    with pytest.raises(DomainError):
        mellin_forward_closed(wide, 0.5, 1.5)
    with pytest.raises(DomainError):
        mellin_inverse_numeric(wide, 0.5, 1.0)


def test_forward_numeric_refuses_points_off_the_unit_disc():
    # the series route's rule: |y| = 1.2 fails before any quadrature
    with pytest.raises(DomainError, match=r"Mellin pair needs \|x\| < 1 and \|y\| < 1, got \|y\|"):
        mellin_forward_numeric(AppellParams(1.0, 1.0, 1.0, 3.0, 0.1, -1.2), 0.5, 1.5)


@pytest.mark.parametrize("call, match", [
    (lambda: mellin_forward_closed(AP, -0.3, 1.5), "needs nu >= 0"),
    (lambda: mellin_forward_numeric(AP, -0.3, 1.5), "needs nu >= 0"),
    (lambda: mellin_inverse_numeric(AP, -0.3, 1.0), "needs nu >= 0"),
    (lambda: mellin_forward_closed(BASE, 0.7 + 1j, 2.0), "needs nu >= 0"),
    (lambda: bessel_k_upper_bound(0.5 + 1j, 1.0), "needs nu >= 0"),
    (lambda: mellin_inverse_numeric(BASE, 0.7, 1.5 + 0.5j), "needs a real p"),
    (lambda: mellin_inverse_numeric(BASE, 0.7, math.inf), r"needs Re\(p\) > 0 and a finite p"),
], ids=["forward_closed", "forward_numeric", "inverse", "forward_closed-complex_nu",
        "bound-complex_nu", "inverse-complex_p", "inverse-infinite_p"])
def test_every_routine_refuses_a_negative_order(call, match):
    # s = 1.5 (or the default c = 0.7) is in the strip of nu = -0.3; the
    # order is not an extension's, and neither is a complex one.  Every
    # routine that takes a (p, nu) pair refuses it by the one rule of
    # ``bessel.check_extension_order`` and ``ExtensionParams``; the
    # inverse also needs a real p
    with pytest.raises(DomainError, match=match):
        call()


def test_inverse_abscissa_is_checked_on_the_strip():
    with pytest.raises(DomainError, match=r"Re\(s - nu\) > 0"):
        mellin_inverse_numeric(AP, 0.5, 1.0, c=0.5)
    # an infinite c fails before the contour, not in it
    with pytest.raises(DomainError, match="need a finite s"):
        mellin_inverse_numeric(BASE, 0.7, 1.5, c=math.inf)
    with pytest.raises(DomainError, match="non-positive integer"):
        mellin_inverse_numeric(AppellParams(1.0, 1.0, 1.0, -3.5, 0.3, 0.4), 0.5, 1.0, c=1.25)


# M(1.5) at c1 = -1.5, where c1 + s = 0: mpmath's appellf1 in the closed
# form at 30 digits.  Only c1 + 2s is a denominator of the corrected form
C1_PLUS_S_ZERO = AppellParams(0.3, 0.5, -0.7, -1.5, 0.4, -0.3)
FORWARD_C1_PLUS_S_ZERO = -2.386459426149464002508


def test_c1_plus_s_at_a_pole_is_on_the_strip():
    clo = mellin_forward_closed(C1_PLUS_S_ZERO, 0.5, 1.5)
    assert abs(clo - FORWARD_C1_PLUS_S_ZERO) <= 1e-13 * abs(FORWARD_C1_PLUS_S_ZERO)
    near = mellin_inverse_numeric(C1_PLUS_S_ZERO, 0.5, 1.0, c=1.4)
    assert abs(mellin_inverse_numeric(C1_PLUS_S_ZERO, 0.5, 1.0, c=1.5) - near) <= 1e-6 * abs(near)


# the shifted-Appell factor is complex when x or b1 is: the numeric
# transform keeps its imaginary part at real s
@pytest.mark.parametrize("appell", [
    AppellParams(1.2, 0.5, -0.7, 3.1, 0.3 + 0.4j, -0.3),
    AppellParams(1.2 + 0.5j, 0.5, -0.7, 3.1, 0.4, -0.3),
], ids=["x=0.3+0.4i", "b1=1.2+0.5i"])
def test_forward_numeric_is_complex_where_the_transform_is(appell):
    num = mellin_forward_numeric(appell, 0.7, 2.7)
    clo = mellin_forward_closed(appell, 0.7, 2.7)
    assert abs(clo.imag) > 0.1 * abs(clo)
    assert abs(num - clo) <= MELLIN_PAIR_TOL * abs(clo)


# M(1.5) of F_{1,p,0.5}(1, -2, 1; 3; 1.5, 0.1) by mpmath's appellf1 in the
# closed form at 30 digits: b2 = -2 ends the x ladder, so |x| = 1.5 is on
# the series domain
TERMINATING_B2 = AppellParams(1.0, -2.0, 1.0, 3.0, 1.5, 0.1)
FORWARD_TERMINATING_B2 = 0.02071476636083682245


def test_a_terminating_parameter_lifts_the_disc_of_the_pair():
    clo = mellin_forward_closed(TERMINATING_B2, 0.5, 1.5)
    assert abs(clo - FORWARD_TERMINATING_B2) <= 1e-14 * FORWARD_TERMINATING_B2
    # the numeric transform's kernel integral meets real x = 1.5, where
    # 1 - xt goes negative: the polynomial (1 - xt)^2 is taken by its
    # complex log, with no NaN sample (a numpy warning fails the test)
    num = mellin_forward_numeric(TERMINATING_B2, 0.5, 1.5)
    assert abs(num - clo) <= 1e-13 * abs(clo)


def test_forward_numeric_matches_frozen_reference():
    val = mellin_forward_numeric(BASE, 0.7, 2.7)
    assert abs(val - FORWARD_BASE_27) <= 1e-10 * FORWARD_BASE_27


def test_forward_closed_matches_frozen_reference():
    val = mellin_forward_closed(BASE, 0.7, 2.7)
    assert abs(val - FORWARD_BASE_27) <= 1e-14 * FORWARD_BASE_27


@pytest.mark.parametrize("nu", sorted(LIMIT_BASE))
def test_limit_coefficient_matches_frozen_reference(nu):
    val = _limit_coefficient(BASE, nu)
    assert abs(val - LIMIT_BASE[nu]) <= 1e-14 * LIMIT_BASE[nu]


def test_exp_sinh_level_0_reaches_the_limit_form():
    # the forward integrand takes the limit coefficient up front because
    # its first call, which holds level 0, always has p below the limit form
    assert _semi_level(0)[0].min() < _P_LIMIT_FORM


def test_batched_radial_values_match_per_p_integral():
    for nu in (0.7, 1.0):  # generic and half-odd kernel orders
        ps = np.array([1.5 * _P_LIMIT_FORM, 1e-6, 0.3, 1.0, _P_DEAD * (1.0 - 1e-9)])
        batch = _radial(BASE, nu, 1.0)(ps)  # p^0 F, every p in one batch
        for p, val in zip(ps, batch):
            ref = f1pv_integral(ExtendedAppellInput(BASE, ExtensionParams(p, nu)), 1e-9)
            assert abs(val - ref) <= 1e-10 * abs(ref)


def test_vectorised_inversion_integrand_matches_per_node_series():
    nu, p, c = 0.5, 1.3, 1.5
    f = _inversion_integrand(AP, nu, p, c)
    taus = np.array([-20.0, -3.0, 0.0, 0.5, 7.0, 31.0])
    for tau, val in zip(taus, f(taus)):
        s = complex(c, tau)
        shifted = AppellParams(AP.b1 + s, AP.b2, AP.b3, AP.c1 + 2 * s, AP.x, AP.y)
        ref = ((2.0 / p) ** s * gamma((s - nu) / 2.0) * gamma((s + nu + 1.0) / 2.0)
               * beta(AP.b1 + s, AP.c1 - AP.b1 + s) / beta(AP.b1, AP.c1 - AP.b1)
               * appell_f1_series(shifted))
        assert abs(val - ref) <= 1e-12 * abs(ref)


def test_forward_numeric_matches_closed_form_over_the_suites_box():
    # 60 seeded points over the suites' sampling box, s - nu from just
    # right of the first pole to far out, every fifth s complex
    rng = np.random.default_rng(7)
    for i in range(60):
        b1 = rng.uniform(0.5, 3.0)
        c1 = b1 + rng.uniform(0.5, 3.0)
        b2, b3 = rng.uniform(-2.0, 2.0, 2)
        x, y = rng.uniform(-0.8, 0.8, 2)
        nu = rng.uniform(0.0, 2.0)
        im = rng.uniform(-3.0, 3.0) if i % 5 == 0 else 0.0
        s = complex(nu + (0.1, 0.3, 0.6, 2.0, 4.0, 6.0)[i % 6], im)
        ap = AppellParams(b1, b2, b3, c1, x, y)
        num = mellin_forward_numeric(ap, nu, s)
        clo = mellin_forward_closed(ap, nu, s)
        assert abs(num - clo) <= 1e-9 * abs(clo), (i, s)


def test_an_array_of_s_gives_the_one_s_transforms(monkeypatch):
    # the rows of one quadrature refine until every row passes: a row
    # whose one-s transform stops at the rows' level has its bits, and one
    # that stops sooner is within that transform's own error estimate
    results = []

    def recorded(f, tol):
        results.append(quadrature.integrate_semi_infinite(f, tol))
        return results[-1]

    monkeypatch.setattr(mellin, "integrate_semi_infinite", recorded)
    rng = np.random.default_rng(5)
    same = deeper = 0
    for i in range(8):  # points of the suites' box, one s of each complex
        inp = sample_input(rng)
        a, nu = inp.appell, inp.ext.nu
        s = nu + np.array([0.1, 0.6, 2.0, 6.0], dtype=complex)
        s[i % 4] += 1j * rng.uniform(-3.0, 3.0)
        results.clear()
        one = [mellin_forward_numeric(a, nu, v) for v in s]
        rows = mellin_forward_numeric(a, nu, s)
        assert rows.shape == (4,) and all(type(v) is complex for v in one)
        for value, v, res in zip(rows, one, results):
            if res.nodes_used == results[-1].nodes_used:
                same += 1
                assert value == v, (i, s)
            else:
                deeper += 1
                assert abs(value - v) <= res.abs_error_estimate, (i, s)
    assert same and deeper
    with pytest.raises(DomainError, match="at least one s"):
        mellin_forward_numeric(BASE, 0.7, [])
    with pytest.raises(DomainError, match=r"Re\(s - nu\) > 0"):
        mellin_forward_numeric(BASE, 0.7, [2.7, 0.5])


def test_a_forward_transform_does_not_depend_on_what_ran_before():
    # a transform keeps nothing for the next: another point at the same
    # (b1, c1, nu), so the same batch families and nodes, between two
    # transforms of one point leaves the second the first's bits
    other = AppellParams(BASE.b1, BASE.b2, BASE.b3, BASE.c1, -0.5, 0.6)
    first = mellin_forward_numeric(BASE, 0.7, 2.7)
    assert mellin_forward_numeric(other, 0.7, 2.7) != first
    mellin_forward_numeric(other, 0.7, [2.7, 1.9])
    assert mellin_forward_numeric(BASE, 0.7, 2.7) == first


def test_inversion_integrand_gamma_calls_do_not_grow_with_the_nodes(monkeypatch):
    calls = {"gamma": 0, "beta": 0, "euler_beta": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(mellin, name, counted(name, getattr(mellin, name)))
    f = _inversion_integrand(BASE, 0.7, 1.3, 1.7)
    per_call = []
    for n in (1, 3, 257):
        calls.update(gamma=0, beta=0, euler_beta=0)
        f(np.linspace(-40.0, 40.0, n))
        per_call.append(dict(calls))
    assert per_call == [{"gamma": 2, "beta": 1, "euler_beta": 1}] * 3


@pytest.mark.parametrize("appell, nu, p", [(AP, 0.5, 1.0), (BASE, 0.7, 1.3)])
def test_inverse_at_the_default_tol_makes_two_integrand_calls(monkeypatch, appell, nu, p):
    # the probe call and one call for levels 0-6, where the contour stops;
    # sampled with a first call through level 3 only, as one call per
    # level after it, the value has the same bits
    calls = []

    def counted(*args):
        f = _inversion_integrand(*args)

        def sampled(taus):
            calls.append(len(taus))
            return f(taus)

        return sampled

    monkeypatch.setattr(mellin, "_inversion_integrand", counted)
    value = mellin_inverse_numeric(appell, nu, p)
    assert calls == [25, 513]
    calls.clear()
    monkeypatch.setattr(quadrature, "_LINE_FIRST_CALL_LEVEL", 3)
    assert mellin_inverse_numeric(appell, nu, p) == value
    assert calls == [25, 65, 64, 128, 256]


def test_forward_closed_and_limit_take_the_scalar_sum(monkeypatch):
    def refuse(*args):
        raise AssertionError("a one-s factor summed its F1 as a stack of rows")

    monkeypatch.setattr(hyper, "_row_sums", refuse)
    assert abs(mellin_forward_closed(BASE, 0.7, 2.7) - FORWARD_BASE_27) <= 1e-14 * FORWARD_BASE_27
    val = _limit_coefficient(BASE, 0.7)
    assert abs(val - LIMIT_BASE[0.7]) <= 1e-14 * LIMIT_BASE[0.7]


@pytest.mark.parametrize("c", [1.5 + 2j, 1.5 + 50j])
def test_inverse_needs_a_real_abscissa(c):
    # at c = 1.5+2j the inverse integrated the line Re s = 1.5 with a shifted
    # parameter and returned 0.0012315833832318706; at 1.5+50j it raised
    # ConvergenceError
    with pytest.raises(DomainError, match="needs a real abscissa, got c = "):
        mellin_inverse_numeric(BASE, 0.7, 1.5, c=c)


def test_inverse_takes_a_complex_abscissa_with_no_imaginary_part_as_real():
    # the CLI hands every number as a complex
    assert (mellin_inverse_numeric(BASE, 0.7, 1.5, c=complex(1.5))
            == mellin_inverse_numeric(BASE, 0.7, 1.5, c=1.5))
