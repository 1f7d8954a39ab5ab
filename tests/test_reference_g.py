"""B_{p,nu} against its exact Meijer-G form, evaluated by mpmath.

    B_{p,nu}(x, y) = 2^(1/2-x-y) G^{6,0}_{4,6}(4p^2 | s, s+1/4, s+1/2, s+3/4;
                     -nu/2, (nu+1)/2, x/2, (x+1)/2, y/2, (y+1)/2),  s = (x+y)/4

(the extbeta module docstring derives it).  Points marked xfail are
where the package's absolute stopping tests lose relative accuracy on
small values; they are strict, so a fix shows up as an XPASS failure.
"""

import cmath

import pytest

from extappell.extbeta import ExtendedBetaFamily, ExtensionParams, extended_beta

mp = pytest.importorskip("mpmath")

REL_TOL = 1e-13


def g_form(x, y, p, nu):
    with mp.workdps(30):
        x, y, p, nu = (mp.mpmathify(v) for v in (x, y, p, nu))
        s = (x + y) / 4
        top = [s, s + 0.25, s + 0.5, s + 0.75]
        bottom = [-nu / 2, (nu + 1) / 2, x / 2, (x + 1) / 2, y / 2, (y + 1) / 2]
        return complex(2 ** (0.5 - x - y) * mp.meijerg([[], top], [bottom, []], 4 * p**2))


def _relerr(value, ref):
    return abs(value - ref) / abs(ref)


def _small_value(reason):
    return pytest.mark.xfail(strict=True, reason=f"absolute stopping test: {reason}")


@pytest.mark.parametrize("x, y, p, nu", [
    (2.0, 3.0, 1.5, 0.7),
    (2.0, 3.0, 1.5 * cmath.exp(1j), 0.7),
    (2.0, 3.0, 0.8 * cmath.exp(1.3j), 0.7),
    (2.0, 3.0, 1.5, 10.0),
    (0.3, 2.2, 0.4, 3.3),
    (1.2 + 0.5j, 3.0, 1.5, 0.7),
    pytest.param(2.0, 3.0, 4.0, 0.7, marks=_small_value("4.4e-7 off")),
    pytest.param(2.0, 3.0, 6.0, 0.7, marks=_small_value("2.6e-6 off")),
    pytest.param(2.0, 3.0, 10.0, 0.7, marks=_small_value("3.4e-3 off")),
    pytest.param(2.0, 3.0, 20.0, 0.7, marks=_small_value("0.087 off")),
    pytest.param(2.0, 3.0, 50.0, 0.7, marks=_small_value("0.58 off")),
])
def test_extended_beta_matches_g_form(x, y, p, nu):
    value = extended_beta(x, y, ExtensionParams(p, nu))
    assert _relerr(value, g_form(x, y, p, nu)) <= REL_TOL


@pytest.mark.parametrize("k", [
    0,
    20,
    pytest.param(42, marks=_small_value("3.9e-11 off")),
])
def test_family_diagonal_matches_g_form(k):
    a, b, p, nu = 1.2, 1.9, 1.5, 0.7
    value = ExtendedBetaFamily(a, b, p, nu).value(k)
    assert _relerr(value, g_form(a + k, b, p, nu)) <= REL_TOL
