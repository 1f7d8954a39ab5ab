import math

import numpy as np
import pytest

from extappell import hyper, mellin
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
        check_mellin_point(1.0, 0.5, -4.0)  # c1 + s at a pole
    with pytest.raises(DomainError):
        # nu in (-1, 0) would allow tiny s; Re(s) > 0 still binds
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


def test_forward_closed_and_limit_take_the_scalar_sum(monkeypatch):
    def refuse(*args):
        raise AssertionError("a one-s factor summed its F1 as a stack of rows")

    monkeypatch.setattr(hyper, "_row_sums", refuse)
    assert abs(mellin_forward_closed(BASE, 0.7, 2.7) - FORWARD_BASE_27) <= 1e-14 * FORWARD_BASE_27
    val = _limit_coefficient(BASE, 0.7)
    assert abs(val - LIMIT_BASE[0.7]) <= 1e-14 * LIMIT_BASE[0.7]
