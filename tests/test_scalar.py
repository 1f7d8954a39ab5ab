import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest

from extappell.errors import DomainError, PoleError
from extappell.scalar import (
    beta,
    gamma,
    log_gamma,
    pochhammer,
    principal_power,
    rgamma,
)



def test_gamma_trivial_values():
    assert abs(gamma(1.0) - 1.0) < 1e-15
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-15
    assert abs(gamma(5.0) - 24.0) < 24.0 * 1e-14


def test_gamma_real_axis_accuracy():
    rng = np.random.default_rng(11)
    for z in rng.uniform(0.05, 50.0, 300):
        assert abs(gamma(z).real - math.gamma(z)) <= 1e-13 * math.gamma(z)


def test_gamma_recurrence_property():
    rng = np.random.default_rng(5)
    for z in rng.uniform(1e-6, 30.0, 1000):
        lhs = gamma(z + 1.0)
        assert abs(lhs - z * gamma(z)) <= 1e-12 * abs(lhs)


def test_gamma_reflection_property():
    rng = np.random.default_rng(6)
    count = 0
    while count < 500:
        z = rng.uniform(-5.0, 5.0)
        if abs(z - round(z)) < 1e-3:
            continue
        count += 1
        target = math.pi / math.sin(math.pi * z)
        assert abs(gamma(z) * gamma(1.0 - z) - target) <= 1e-11 * abs(target)


# next to a negative integer, sin(pi z) of the unreduced z kept the rounding
# of pi z: Gamma(-3.0000001) was 1.6e-9 off and Gamma(-3 + 1e-10 i) 1.2e-6
@pytest.mark.parametrize("z", [-3.0000001, -20.001, complex(-5, 1e-6), complex(-3, 1e-10)])
def test_gamma_next_to_a_negative_integer_matches_mpmath(z):
    with mpmath.workdps(30):
        ref = complex(mpmath.gamma(mpmath.mpc(z)))
    for value in (gamma(z), gamma(np.array([z, 2.5]))[0], cmath.exp(log_gamma(z))):
        assert abs(value - ref) <= 1e-14 * abs(ref)


def test_gamma_pole_error_carries_value():
    with pytest.raises(PoleError) as err:
        gamma(-3.0)
    assert err.value.value == complex(-3.0)


def test_log_gamma_matches_gamma():
    for z in (0.3, 2.7, complex(1.5, 2.0), complex(-0.7, 0.4)):
        assert abs(cmath.exp(log_gamma(z)) - gamma(z)) <= 1e-12 * abs(gamma(z))


def test_rgamma_zero_at_poles():
    assert rgamma(0.0) == 0.0
    assert rgamma(-7.0) == 0.0


def test_pochhammer_values():
    assert pochhammer(7.3, 0) == 1.0
    assert abs(pochhammer(1.0, 4) - 24.0) < 1e-13  # (1)_n = n!
    assert abs(pochhammer(3.0, 2) - 12.0) < 1e-13
    # product form covers Gamma poles
    assert pochhammer(-2.0, 3) == 0.0
    # only the product is defined: a non-integer or negative count is rejected
    with pytest.raises(DomainError):
        pochhammer(-2.0, 0.5)
    with pytest.raises(DomainError):
        pochhammer(3.0, -1)


def test_pochhammer_additivity_property():
    rng = np.random.default_rng(7)
    for _ in range(200):
        lam = complex(rng.uniform(0.2, 4.0), rng.uniform(-1.0, 1.0))
        m, n = rng.integers(0, 11, 2)
        lhs = pochhammer(lam, int(m + n))
        rhs = pochhammer(lam, int(m)) * pochhammer(lam + int(m), int(n))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1e-30)


def test_beta_values_and_symmetry():
    assert abs(beta(2.0, 3.0) - 1.0 / 12.0) < 1e-15
    assert abs(beta(1.0, 1.0) - 1.0) < 1e-15
    assert abs(beta(0.5, 0.5) - math.pi) < math.pi * 1e-14
    rng = np.random.default_rng(8)
    for _ in range(200):
        a = complex(rng.uniform(0.1, 5.0), rng.uniform(-2.0, 2.0))
        b = complex(rng.uniform(0.1, 5.0), rng.uniform(-2.0, 2.0))
        lhs, rhs = beta(a, b), beta(b, a)
        assert abs(lhs - rhs) <= 1e-14 * abs(lhs)


def test_principal_power():
    assert abs(principal_power(4.0, 0.5) - 2.0) < 1e-15
    assert principal_power(complex(2.3, -1.0), 0.0) == 1.0
    assert abs(principal_power(-1.0, 0.5) - 1j) < 1e-15
    assert principal_power(0.0, 2.5) == 0.0
    with pytest.raises(DomainError):
        principal_power(0.0, -1.0)


# the Mellin contour's range: Re z from -5 to 8 (Re z < 1/2 is the
# reflection side), |Im z| up to 100
_CONTOUR = (np.random.default_rng(21).uniform(-5.0, 8.0, 300)
            + 1j * np.random.default_rng(22).uniform(-100.0, 100.0, 300))
# the scalar path's measured worst relative error over _CONTOUR against
# mpmath is 9.1e-14 for gamma and rgamma and 1.9e-13 for beta; both paths
# are held to those, rounded up
_GAMMA_ERR = 1e-13
_BETA_ERR = 2e-13


def _rel_err(values, ref):
    return np.abs(np.asarray(values) - ref) / np.abs(ref)


def test_array_gamma_and_rgamma_match_mpmath_over_the_contour_range():
    with mpmath.workdps(30):
        ref = np.array([complex(mpmath.gamma(mpmath.mpc(z))) for z in _CONTOUR])
    scalar = np.array([gamma(z) for z in _CONTOUR])
    left = _CONTOUR.real < 0.5
    assert 50 < left.sum() < 250  # both sides of the reflection are sampled
    for err in (_rel_err(scalar, ref), _rel_err(gamma(_CONTOUR), ref),
                _rel_err(1.0 / rgamma(_CONTOUR), ref)):
        assert err.max() <= _GAMMA_ERR


def test_array_beta_matches_mpmath_over_the_contour_range():
    a, b = _CONTOUR[:150], _CONTOUR[150:]
    with mpmath.workdps(30):
        ref = np.array([complex(mpmath.beta(mpmath.mpc(x), mpmath.mpc(y)))
                        for x, y in zip(a, b)])
    scalar = np.array([beta(x, y) for x, y in zip(a, b)])
    assert _rel_err(scalar, ref).max() <= _BETA_ERR
    assert _rel_err(beta(a, b), ref).max() <= _BETA_ERR
    # a scalar argument broadcasts against an array
    assert np.array_equal(beta(a, 2.5), beta(a, np.full(a.shape, 2.5)))


def test_array_gamma_keeps_the_shape_of_its_argument():
    z = _CONTOUR[:12].reshape(3, 4)
    for f in (gamma, rgamma):
        values = f(z)
        assert values.shape == (3, 4) and values.dtype == complex
        assert np.array_equal(values.ravel(), f(z.ravel()))
    values = beta(z, z[:1])  # (3, 4) broadcast with (1, 4)
    assert values.shape == (3, 4)
    assert np.array_equal(values.ravel(), beta(z.ravel(), np.tile(z[0], 3)))


def test_array_poles_raise_or_give_zero():
    with pytest.raises(PoleError) as err:
        gamma(np.array([1.5, -3.0, 2.0]))
    assert err.value.value == complex(-3.0)
    values = rgamma(np.array([0.0, -7.0, 1.0]))
    assert values[0] == 0.0 and values[1] == 0.0 and abs(values[2] - 1.0) < 1e-15
    # a pole of Gamma(a+b) alone gives 0; one of Gamma(a) or Gamma(b) raises
    values = beta(np.array([0.5, 2.0]), np.array([-1.5, 3.0]))
    assert values[0] == 0.0 and abs(values[1] - 1.0 / 12.0) < 1e-15
    with pytest.raises(PoleError):
        beta(np.array([0.5, -2.0]), 1.0)
    with pytest.raises(PoleError):
        beta(1.0, np.array([0.5, 0.0]))


@pytest.mark.parametrize("z", [200.0, -200.5, complex(0.25, 300.0), 1e300])
def test_array_overflow_raises_without_a_warning(z):
    # the scalar path raises there too: cmath.exp or cmath.sin overflows
    with pytest.raises(OverflowError):
        gamma(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (gamma, rgamma):
            with pytest.raises(OverflowError):
                f(np.array([2.0, z]))


@pytest.mark.parametrize("x", [170.5, 170.8, 171.0, 171.6])
def test_gamma_holds_up_to_its_own_overflow(x):
    # the one-piece e^power, or sqrt(2 pi) times it, overflows before Gamma does
    ref = math.gamma(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (gamma(x), gamma(np.array([2.0, x]))[1]):
            assert abs(value - ref) <= 1e-13 * ref


def test_gamma_past_its_own_overflow_raises():
    with pytest.raises(OverflowError):  # Gamma(171.7) = 2.65e308
        gamma(171.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            gamma(np.array([2.0, 171.7]))


# mpmath beta at 30 digits; every one overflows a Gamma of the product form
BETA_PAST_GAMMA_OVERFLOW = {
    (100.0, 80.0): 7.4807039968504291435e-55,
    (150.0, 150.0): 1.4220750427973277936e-91,
    (200.0, 1.0): 0.005,
    (101.0, 102.0): 2.74721479253669472e-62,  # the Beta of M(100) below
}


def test_array_overflow_of_a_reciprocal_or_product_raises_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):  # Gamma(3+500i) underflows to 0
            rgamma(np.array([2.0, complex(3.0, 500.0)]))
        # past a + b ~ 171 the Beta comes from log-ratios, not the product
        for (a, b), ref in BETA_PAST_GAMMA_OVERFLOW.items():
            for value in (beta(a, b), beta(np.array([2.0, a]), np.array([2.0, b]))[1]):
                assert abs(value - ref) <= 1e-13 * ref, (a, b)
        # B(1e-310, 2) = 1e310 really overflows; the log-ratio form covers
        # Re a, Re b >= 1/2 only, and loses digits like eps (|a| + |b|); the
        # reflection onto it needs Re(1-a-b) >= 1/2 and the other argument
        # right of 1/2
        for a, b in ((1e-310, 2.0), (-171.3, 0.25), (complex(0.25, 300.0), 1.0), (1e300, 1.0)):
            with pytest.raises(OverflowError):
                beta(np.array([2.0, a]), np.array([2.0, b]))
            with pytest.raises(OverflowError):
                beta(a, b)
    # the scalar path raises there too
    with pytest.raises(OverflowError):
        rgamma(complex(3.0, 500.0))


def test_rgamma_keeps_a_subnormal_reciprocal():
    # Gamma(171.6-0.5i) ~ 1.6e308 overflows the denominator of the complex
    # quotient 1/Gamma, which came out 0
    z = complex(171.6, -0.5)
    with mpmath.workdps(30):
        ref = complex(mpmath.rgamma(mpmath.mpc(z)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (rgamma(z), rgamma(np.array([2.0, z]))[1]):
            assert value != 0 and abs(value - ref) <= 2e-13 * abs(ref)


def test_beta_past_the_reciprocal_quotient():
    # 1/Gamma(171.6-0.5i) is past the quotient's range: the log-ratio form
    # answers, where the product form carries Gamma's error (1.05e-13 here)
    a, b = 1.3, complex(170.3, -0.5)
    with mpmath.workdps(30):
        ref = complex(mpmath.beta(a, mpmath.mpc(b)))
    for value in (beta(a, b), beta(np.array([2.0, a]), np.array([2.0, b]))[1]):
        assert abs(value - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("a, b", [(-200.5, 1.0), (1.0, -200.5), (-180.25, 0.5),
                                  (-175.1, 0.9), (-300.3, 2.2)])
def test_beta_left_of_one_half_reflects_past_gamma_overflow(a, b):
    # B(a, b) = sin(pi (a+b)) / sin(pi a) * B(b, 1-a-b) once Gamma(a) overflows
    with mpmath.workdps(30):
        ref = float(mpmath.beta(a, b))
    for value in (beta(a, b), beta(np.array([2.0, a]), np.array([2.0, b]))[1]):
        assert abs(value - ref) <= 2e-13 * abs(ref)


def test_scalar_values_are_pinned_bit_for_bit():
    assert repr(gamma(0.5)) == "(1.7724538509055159+0j)"
    assert repr(gamma(7.25)) == "(1155.3810139199882+0j)"
    assert repr(gamma(complex(1.5, 2.0))) == "(0.16591510893899095+0.14946347326641934j)"
    assert repr(gamma(complex(-0.7, 0.4))) == "(-1.8230314038421214+0.9114011372122447j)"
    assert repr(rgamma(-2.5)) == "(-1.0578554691520432-0j)"
    assert repr(beta(2.5, 1.25)) == "(0.27242156408229823+0j)"
    assert repr(beta(complex(1.2, 3.0), 0.4)) == "(1.2269927010764525-0.6878233447967632j)"
