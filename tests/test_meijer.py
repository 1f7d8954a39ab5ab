import math

import numpy as np
import pytest

from extappell import meijer
from extappell.bessel import bessel_k, bessel_k_scaled
from extappell.errors import ConvergenceError, DegenerateIdentity, DomainError
from extappell.extbeta import ExtensionParams
from extappell.f1pv import ExtendedAppellInput, f1pv_integral
from extappell.hyper import AppellParams
from extappell.meijer import (
    _SERIES_EXP_LIMIT,
    GSpec,
    K_G_IDENTITIES,
    THEOREM1_FORMS,
    _exp_scale,
    _identity_spec,
    _residue_safe,
    meijer_g,
    verify_k_g_identity,
    verify_theorem1,
)

# mpmath meijerg at 25 digits, frozen cross-checks for the residue route
MPMATH_REFS = {
    ("G2012", (0.5,), (0.3, -0.3), 2.4): 0.0556851195197409582,
    ("G2112", (0.9,), (0.7, 0.1), 1.6): 4.76071115798334043,
    ("G2002", (), (0.35, -0.15), 0.36): 0.622266158666465046,
    ("G4004", (), (0.2, 0.7, -0.05, 0.45), 0.0016): 4.88200502636393611,
}

# mpmath meijerg at 25 digits, frozen cross-checks for the Bessel-K route:
# complex arguments past the residue series' reach, one per shape, with
# parameters matching identities 1.7, 1.10, 1.9 and 1.11 (nu = 0.3, mu = 0.4)
MPMATH_K_ROUTE_REFS = {
    ("G2012", (0.5,), (0.3, -0.3), complex(40, 10)):
        complex(-5.055248689065889869722511e-19, 4.230497792618967506933308e-19),
    ("G2112", (0.9,), (0.7, 0.1), complex(40, -20)):
        complex(3.639770644310131198199594, 0.1632634432588321541806468),
    ("G2002", (), (0.35, 0.05), complex(300, 50)):
        complex(-1.029873885450167657918938e-15, -2.703013067072269500960893e-16),
    ("G4004", (), (0.175, 0.675, 0.025, 0.525), 1e6j):
        complex(-2.432003631785446675880496e-51, 9.540187394059030020507301e-51),
    ("G4004", (), (0.175, 0.675, 0.025, 0.525), 1e6): 6.480025123642291676583489e-55,
}

BASE = ExtendedAppellInput(AppellParams(1, 1, 1, 3, 0.3, 0.4), ExtensionParams(1.0, 0.5))


def test_gspec_validation():
    with pytest.raises(DomainError):
        GSpec("G9999", (), (0.1, 0.2), 1.0)
    with pytest.raises(DomainError):
        GSpec("G2002", (0.5,), (0.1, 0.2), 1.0)  # alpha length
    with pytest.raises(DomainError):
        GSpec("G2002", (), (0.1, 0.2), 0.0)  # z = 0
    with pytest.raises(DomainError):
        GSpec("G2012", (0.5,), (0.1, -0.1), complex(-1.0, 0.0))  # |arg z| = pi > pi/2


def test_residue_route_against_frozen_mpmath():
    for (case, alpha, beta, z), ref in MPMATH_REFS.items():
        val = meijer_g(GSpec(case, alpha, beta, z))
        assert abs(val - ref) <= 1e-12 * abs(ref)


# beta spacing exactly 1: 2 K_1(1), 2 sqrt(2) K_1(2 sqrt(2)) and e^{-1},
# by mpmath meijerg at 25 digits
DEGENERATE_REFS = {
    ("G2002", (), (0.5, -0.5), 0.25): 1.20381446039446915,
    ("G2002", (), (1.0, 0.0), 2.0): 0.1396674740152931428575196,
    ("G2012", (0.5,), (0.5, -0.5), 1.0): 0.3678794411714423215955238,
}


def test_degenerate_spacing_takes_the_k_form():
    for (case, alpha, beta, z), ref in DEGENERATE_REFS.items():
        spec = GSpec(case, alpha, beta, z)
        assert not _residue_safe(spec)
        assert abs(meijer_g(spec) - ref) <= 1e-13 * abs(ref), (case, beta)
    # the K-G checks whose G sides these are check nothing: identity 1.9 at
    # nu = 1 (mu = 0, 1) and 1.7 at nu = 1/2 collide the pole families
    for which, nu, z, mu in (("1.9", 1.0, 1.0, 0.0), ("1.9", 1.0, 2.0 * math.sqrt(2.0), 1.0),
                             ("1.7", 0.5, 0.5, 0.0)):
        with pytest.raises(DegenerateIdentity, match="degenerate beta spacing"):
            verify_k_g_identity(which, nu, z, mu)


def test_degenerate_spacing_without_an_identity_raises():
    # pole families collide and no K identity matches: never a number
    with pytest.raises(ConvergenceError):
        meijer_g(GSpec("G4004", (), (1.0, 2.0, 3.0, 4.0), 0.5))
    # identity 1.8 at nu = 1/2: its cos(pi nu) factor vanishes
    with pytest.raises(ConvergenceError):
        meijer_g(GSpec("G2112", (0.5,), (0.5, -0.5), 1.0))
    # identity 1.10 at nu = 1/2 - 1.1e-16 (2.3 - 1.3 in floats), within the
    # spacing tolerance: a rounded cos(pi nu) there would be 40% off
    with pytest.raises(ConvergenceError):
        meijer_g(GSpec("G2112", (2.3,), (2.3, 1.3), 40.0))


def test_k_route_against_frozen_mpmath_at_complex_z():
    for (case, alpha, beta, z), ref in MPMATH_K_ROUTE_REFS.items():
        spec = GSpec(case, alpha, beta, z)
        assert _exp_scale(spec) > _SERIES_EXP_LIMIT
        assert abs(meijer_g(spec) - ref) <= 1e-13 * abs(ref), (case, z)


@pytest.mark.parametrize("which", K_G_IDENTITIES)
def test_k_route_inverts_each_identity(which):
    nu, z, mu = 0.3, 20.0, 0.4
    spec, factor = _identity_spec(which, nu, z, mu)
    assert _exp_scale(spec) > _SERIES_EXP_LIMIT
    k = bessel_k(nu, z)
    assert abs(factor * meijer_g(spec) - k) <= 1e-13 * abs(k)


def test_k_form_identity_1_9_pattern():
    # G2002 with beta=((mu+nu)/2, (mu-nu)/2) at z=w^2/4 recovers K_nu(w)
    nu, w, mu = 0.3, 1.2, 0.4
    val = meijer_g(GSpec("G2002", (), ((mu + nu) / 2, (mu - nu) / 2), w * w / 4.0))
    k = w ** (-mu) * 2.0 ** (mu - 1.0) * val
    assert abs(k - bessel_k(nu, w)) <= 1e-12 * abs(bessel_k(nu, w))


def test_mu_independence_of_recovered_k():
    nu, w = 0.45, 0.9
    vals = []
    for mu in (-0.5, 0.0, 0.7, 1.3):
        g = meijer_g(GSpec("G2002", (), ((mu + nu) / 2, (mu - nu) / 2), w * w / 4.0))
        vals.append(w ** (-mu) * 2.0 ** (mu - 1.0) * g)
    for v in vals[1:]:
        assert abs(v - vals[0]) <= 1e-9 * abs(vals[0])


def test_large_argument_fallback():
    # residue series refuses beyond its cancellation budget; the K route
    # takes over for matching parameter patterns
    nu, w = 0.3, 40.0
    spec = GSpec("G2002", (), (nu / 2, -nu / 2), w * w / 4.0)
    via_fallback = meijer_g(spec)
    ref = 2.0 * bessel_k(nu, w)
    assert abs(via_fallback - ref) <= 1e-10 * abs(ref)
    # the K-G check takes the residue route only, so there it raises
    assert _identity_spec("1.9", nu, w, 0.0)[0] == spec
    with pytest.raises(ConvergenceError):
        verify_k_g_identity("1.9", nu, w, 0.0)
    # G2012 with alpha != 1/2 matches no identity: fail loudly
    with pytest.raises(ConvergenceError):
        meijer_g(GSpec("G2012", (0.9,), (0.3, -0.3), 80.0))


def test_identity_grid():
    for nu in (0.25, 0.3, 0.75, 1.2):
        for z in (0.5, 1.0, 2.0):
            k = bessel_k(nu, z)
            for which in K_G_IDENTITIES:
                side = verify_k_g_identity(which, nu, z, 0.4)
                assert abs(side - k) <= 1e-7 * abs(k), (which, nu, z)


def test_identity_degenerate_skips():
    with pytest.raises(DegenerateIdentity, match=r"^cos\(pi nu\)=0 degeneracy$"):
        verify_k_g_identity("1.8", 0.5, 1.0)
    with pytest.raises(DegenerateIdentity, match=r"^cos\(pi nu\)=0 degeneracy$"):
        verify_k_g_identity("1.10", 1.5, 1.0, 0.3)
    with pytest.raises(DegenerateIdentity,
                       match=r"^degenerate beta spacing \(integer order distance\)$"):
        verify_k_g_identity("1.7", 1.0, 0.8)  # 2nu integer
    with pytest.raises(DomainError, match="unknown identity"):
        verify_k_g_identity("1.12", 0.3, 1.0)
    with pytest.raises(DomainError, match="real z > 0"):
        verify_k_g_identity("1.7", 0.3, -1.0)


def _theorem1_error(which, inp, mu):
    f = f1pv_integral(inp)
    return abs(verify_theorem1(which, inp, mu) - f) / abs(f)


def test_theorem1_forms_pass():
    for which in THEOREM1_FORMS:
        assert _theorem1_error(which, BASE, 0.0) <= 1e-8, which


def test_theorem1_mu_independence():
    for which in ("2.5", "2.6", "2.7"):
        for mu in (-0.5, 0.0, 0.7, 1.3):
            assert _theorem1_error(which, BASE, mu) <= 1e-8, (which, mu)


def test_theorem1_origin_reduction():
    # x = y = 0: every form reduces to the extended Beta ratio
    inp = ExtendedAppellInput(AppellParams(1.2, 0.7, -0.4, 2.9, 0.0, 0.0),
                              ExtensionParams(1.5, 0.8))
    for which in THEOREM1_FORMS:
        assert _theorem1_error(which, inp, 0.6) <= 1e-8, which


def test_theorem1_integer_nu_skips():
    # cos(pi(nu+1/2)) = 0 at integer nu for the two G2112 forms
    inp = ExtendedAppellInput(AppellParams(1, 1, 1, 3, 0.3, 0.4),
                              ExtensionParams(1.0, 1.0))
    for which, mu in (("2.4", 0.0), ("2.6", 0.3)):
        with pytest.raises(DegenerateIdentity, match=r"^cos\(pi \(nu\+1/2\)\)=0 degeneracy$"):
            verify_theorem1(which, inp, mu)
    assert _theorem1_error("2.3", inp, 0.0) <= 1e-8


@pytest.mark.parametrize("which, appell, match", [
    # on the branch cut, where f1pv_integral refuses too
    ("2.5", AppellParams(1, 1, 1, 3, 1.02, 0.4), "x on the branch cut"),
    # b2 = -2 admits x = 1.5 on the series route only
    ("2.3", AppellParams(1, -2, 1, 3, 1.5, 0.1), "x on the branch cut"),
    ("2.4", AppellParams(1, 1, 1, 0.8, 0.3, 0.4), r"Re\(c1\) > Re\(b1\) > 0"),
    ("2.9", AppellParams(1, 1, 1, 3, 0.3, 0.4), "unknown form '2.9'"),
], ids=["cut", "terminating-b2", "euler-domain", "unknown-form"])
def test_theorem1_refuses_what_its_integral_side_refuses(which, appell, match):
    inp = ExtendedAppellInput(appell, ExtensionParams(1.5, 0.5))
    with pytest.raises(DomainError, match=match):
        verify_theorem1(which, inp, 0.7)


def test_theorem1_forms_at_complex_p():
    # the suites sample real p only
    inp = ExtendedAppellInput(AppellParams(1.2, 0.5, -0.7, 3.1, 0.4, -0.3),
                              ExtensionParams(complex(1.2, 0.8), 0.7))
    for which in THEOREM1_FORMS:
        for mu in (-0.5, 0.0, 0.7, 1.3):
            assert _theorem1_error(which, inp, mu) <= 1e-12, (which, mu)


def test_a_planted_identity_constant_moves_its_check_and_its_form(monkeypatch):
    # every reader takes C from the identity's row: planting 1 + 1e-6 in the
    # C of 1.9 moves the 1.9 check by that factor and form 2.5, which divides
    # by it, by the reciprocal, and leaves every other side as it was
    nu, z, mu = 0.3, 1.2, 0.4
    k_g = {which: verify_k_g_identity(which, nu, z, mu) for which in K_G_IDENTITIES}
    forms = {which: verify_theorem1(which, BASE, mu) for which in THEOREM1_FORMS}
    row = meijer._K_G_ROWS["1.9"]
    monkeypatch.setitem(meijer._K_G_ROWS, "1.9", row._replace(
        constant=lambda nu, mu: row.constant(nu, mu) * (1.0 + 1e-6)))
    for which, before in k_g.items():
        factor = 1.0 + 1e-6 if which == "1.9" else 1.0
        assert abs(verify_k_g_identity(which, nu, z, mu) - factor * before) <= 1e-15 * abs(before)
    for which, before in forms.items():
        factor = 1.0 + 1e-6 if which == "2.5" else 1.0
        assert abs(factor * verify_theorem1(which, BASE, mu) - before) <= 1e-15 * abs(before)


def test_gspec_refuses_a_non_finite_parameter_or_argument():
    # an infinite z raised a K_nu DomainError from the K route
    with pytest.raises(DomainError, match="got z = "):
        meijer_g(GSpec("G2002", (), (0.3, -0.2), math.inf))
    with pytest.raises(DomainError, match="got b2 = "):
        GSpec("G4004", (), (0.1, math.nan, -0.1, 0.4), 1.5)
    with pytest.raises(DomainError, match="got a1 = "):
        GSpec("G2012", (complex(math.inf, 1.0),), (0.3, -0.3), 1.5)


@pytest.mark.parametrize("nu", [0.5 + 1j, math.nan], ids=["complex", "nan"])
def test_k_g_identity_refuses_a_complex_or_nan_order(nu):
    # a complex order raised a TypeError from float, a NaN one a ValueError
    # from round
    with pytest.raises(DomainError):
        verify_k_g_identity("1.7", nu, 1.0)
