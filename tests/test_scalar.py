import cmath
import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from extappell.bessel import bessel_k_upper_bound
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


@pytest.mark.parametrize("re_lo, re_hi, floor", [(-20.0, 60.0, 25.0), (60.0, 171.0, 100.0)])
def test_gamma_error_grows_with_the_imaginary_part(re_lo, re_hi, floor):
    # the docstring's bound, 2.5e-15 (|Im z| + floor); Gamma(1.25 + 150i)
    # is 1.0e-13 off mpmath
    rng = np.random.default_rng(36)
    points = [complex(rng.uniform(re_lo, re_hi), rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 300.0))
              for _ in range(100)]
    points += [complex(rng.uniform(re_lo, re_hi), rng.uniform(-2.0, 2.0)) for _ in range(40)]
    points += [1.25 + 150j] if re_lo < 0 else []
    with mpmath.workdps(30):
        for z in points:
            ref = complex(mpmath.gamma(mpmath.mpc(z)))
            if ref == 0 or not cmath.isfinite(ref):
                continue  # past the range of a double
            # past |Im z| ~ 226 at Re z < 1/2 the reflection is taken in logs
            assert abs(gamma(z) - ref) <= 2.5e-15 * (abs(z.imag) + floor) * abs(ref), z


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


@pytest.mark.parametrize("z", [0.0, -4.0])
def test_log_gamma_pole_error_carries_value(z):
    with pytest.raises(PoleError, match="log_gamma pole") as err:
        log_gamma(z)
    assert err.value.value == complex(z)


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
    assert principal_power(0, 0) == 1.0  # the empty product
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


@pytest.mark.parametrize("z", [200.0, -200.5, 1e300])
def test_array_overflow_raises_without_a_warning(z):
    # the scalar path raises there too: cmath.exp overflows
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


# mpmath exp(loggamma(a) + loggamma(b) - loggamma(a+b)) at 700 digits, for
# one argument far larger than the other; None where B is past the range
# of a double (1e100 and 1e300 are the doubles nearest them)
BETA_ONE_HUGE_ARGUMENT = {
    1e6: (complex(0.0017724540724622612378, 0.0), 1.0e-6,
          complex(1.3293378956699075851e-15, 0.0), complex(3.6286367081911831698e-55, 0.0),
          complex(8.611116865487644563e-19, -4.4403508660660285118e-19)),
    1e10: (complex(0.000017724538509276717004, 0.0), 1.0e-10,
           complex(1.3293403879298856977e-25, 0.0), complex(3.6287999836704000419e-95, 0.0),
           complex(9.6777666413712258931e-31, -4.5724177193667084073e-32)),
    1e16: (complex(1.7724538509055160495e-8, 0.0), 1.0e-16,
           complex(1.3293403881791367712e-40, 0.0), complex(3.6287999999999836704e-155, 0.0),
           complex(-8.0175829780917256591e-49, -5.4393566173793871357e-49)),
    1e100: (complex(1.7724538509055160132e-50, 0.0), 9.999999999999999841e-101,
            complex(1.3293403881791369676e-250, 0.0), None,
            complex(9.5359915583917669477e-301, 1.7126302052387383473e-301)),
    1e300: (complex(1.7724538509055159808e-150, 0.0), 9.999999999999999475e-301,
            None, None, None),
    complex(1e16, 5.0): (complex(1.7724538509055160495e-8, -4.4311346272637902344e-24),
                         complex(1.0e-16, -5.0e-32),
                         complex(1.3293403881791367712e-40, -1.6616754852239208394e-55),
                         complex(3.6287999999999836704e-155, -1.8143999999999910187e-169),
                         complex(-8.0175829780917418357e-49, -5.4393566173793805487e-49)),
}
SMALL_ARGUMENTS = (0.5, 1.0, 2.5, 10.0, complex(3.0, 2.0))


@pytest.mark.parametrize("a", list(BETA_ONE_HUGE_ARGUMENT), ids=repr)
def test_beta_with_one_huge_argument(a):
    # past the log-ratio form's budget, Stirling's series for
    # log Gamma(a+b) - log Gamma(a) with a log1p keeps B(a, b) ~ Gamma(b) a^-b
    for b, ref in zip(SMALL_ARGUMENTS, BETA_ONE_HUGE_ARGUMENT[a]):
        for args in ((a, b), (b, a)):
            if ref is None:
                with pytest.raises(OverflowError):
                    beta(*args)
                continue
            assert abs(beta(*args) - ref) <= 1e-13 * abs(ref), args
            value = beta(np.array([2.0, args[0]]), np.array([2.0, args[1]]))[1]
            assert abs(value - ref) <= 1e-13 * abs(ref), args


def test_array_overflow_of_a_reciprocal_or_product_raises_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):  # Gamma(3+500i) underflows to 0
            rgamma(np.array([2.0, complex(3.0, 500.0)]))
        # past a + b ~ 171 the Beta comes from log-ratios, not the product
        for (a, b), ref in BETA_PAST_GAMMA_OVERFLOW.items():
            for value in (beta(a, b), beta(np.array([2.0, a]), np.array([2.0, b]))[1]):
                assert abs(value - ref) <= 1e-13 * ref, (a, b)
        # B(1e-310, 2) = 1e310 really overflows, and B(1e300, 2.5) =
        # 1.3e-750 underflows
        for a, b in ((1e-310, 2.0), (1e300, 2.5)):
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


def test_beta_reflection_keeps_1e_12_or_raises():
    # 300 seeded points, a from -0.6 to -1e5 and b right of 1/2, every
    # fourth complex: the reflection's sine takes a + b rounded, which put
    # B(-67848.36138382438, 3.362628526647624) 2.7e-9 off with no error
    rng = np.random.default_rng(1)
    answered = 0
    with mpmath.workdps(40):
        for i in range(300):
            a = -10.0 ** rng.uniform(math.log10(0.6), 5.0)
            b = 10.0 ** rng.uniform(math.log10(0.5), math.log10(min(1000.0, -a)))
            if i % 4 == 0:
                a, b = complex(a, rng.uniform(-50.0, 50.0)), complex(b, rng.uniform(-50.0, 50.0))
            ref = complex(mpmath.beta(mpmath.mpc(a), mpmath.mpc(b)))
            try:
                value = beta(a, b)
            except OverflowError:
                continue
            answered += 1
            assert abs(value - ref) <= 1e-12 * abs(ref), (a, b)
    assert answered > 150


@pytest.mark.parametrize("a, b", [(complex(0.25, 300.0), 1.0), (1.0, complex(0.25, 300.0)),
                                  (-171.3, 0.25), (0.25, -171.3), (-180.7, -3.2),
                                  (complex(-171.3, 2.0), complex(0.1, -0.3)),
                                  (-600.7, 0.3), (-1000.3, 0.1),
                                  # the shifted Gamma product underflows; B is 7e-138
                                  (complex(0.3, 400.0), complex(0.2, -100.0))])
def test_beta_left_of_one_half_shifts_past_gamma_overflow(a, b):
    # no reflection applies; B(a, b) = (a+b)/a B(a+1, b) until Re a >= 1/2
    with mpmath.workdps(30):
        ref = complex(mpmath.beta(a, b))
    for value in (beta(a, b), beta(np.array([2.0, a]), np.array([2.0, b]))[1]):
        assert abs(value - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("a, b", [(-171.3, -0.7), (-300.25, 0.25), (complex(-180.6, 2.0),
                                                                     complex(-0.4, -2.0))])
def test_beta_shift_keeps_a_pole_of_gamma_a_plus_b_at_zero(a, b):
    # the rounded a + b is a pole of Gamma, so B is 0, as the product form
    # gives at B(-1.3, -0.7); the shifted ratios would leave 1e-14 there
    assert beta(-1.3, -0.7) == 0
    for value in (beta(a, b), beta(np.array([2.0, a]), np.array([2.0, b]))[1]):
        assert value == 0


@pytest.mark.parametrize("a, b", [(complex(-2000.5, 0.1), 0.2),  # 2001 shifts
                                  # B is 1.0e-683: the shifted Beta underflows too
                                  (complex(0.3, 500.0), complex(0.2, -500.0))])
def test_beta_shift_raises_past_its_budget_or_on_underflow(a, b):
    for args in ((a, b), (np.array([2.0, a]), np.array([2.0, b]))):
        with pytest.raises(OverflowError):
            beta(*args)


def test_beta_where_the_gamma_product_underflows():
    # Gamma(a) Gamma(b) is 1.5e-337, below the normal range, so the product
    # form returned 0 for a B of 3.1e-138; the log-ratio form answers
    a, b = complex(1.3, 400.0), complex(1.2, -100.0)
    with mpmath.workdps(30):
        ref = complex(mpmath.beta(mpmath.mpc(a), mpmath.mpc(b)))
    for value in (beta(a, b), beta(np.array([2.0, a]), np.array([2.0, b]))[1]):
        assert abs(value - ref) <= 1e-12 * abs(ref)


def test_scalar_values_are_pinned_bit_for_bit():
    assert repr(gamma(0.5)) == "(1.7724538509055159+0j)"
    assert repr(gamma(7.25)) == "(1155.3810139199882+0j)"
    assert repr(gamma(complex(1.5, 2.0))) == "(0.16591510893899095+0.14946347326641934j)"
    assert repr(gamma(complex(-0.7, 0.4))) == "(-1.8230314038421214+0.9114011372122447j)"
    assert repr(rgamma(-2.5)) == "(-1.0578554691520432-0j)"
    assert repr(beta(2.5, 1.25)) == "(0.27242156408229823+0j)"
    assert repr(beta(complex(1.2, 3.0), 0.4)) == "(1.2269927010764525-0.6878233447967632j)"


@pytest.mark.parametrize("call, z", [
    (lambda: gamma(400.5), "400.5"),  # cmath.exp in the split power form
    (lambda: gamma(-400.3), "-400.3"),  # Gamma(1 - z) of the reflection
    (lambda: bessel_k_upper_bound(400, 1.5), "400.5"),
    (lambda: gamma(np.array([2.5, 400.5])), "400.5"),
], ids=["split-power", "reflection-gamma", "bessel-bound", "array"])
def test_gamma_overflow_names_gamma_and_its_argument(call, z):
    # each was a bare "math range error" from cmath on the scalar path
    with pytest.raises(OverflowError, match=f"gamma overflows double precision at z = "
                                            f"\\({re.escape(z)}"):
        call()


# Gamma is finite and small there; each raised where cmath.sin(pi z) overflows
@pytest.mark.parametrize("z", [0.25 + 230j, -5.55 - 268.15j, 0.2 + 300j, 0.25 + 300j,
                               0.2 - 300j, -19.5 + 227j])
def test_gamma_answers_past_the_overflow_of_sin(z):
    with mpmath.workdps(30):
        ref = complex(mpmath.gamma(mpmath.mpc(z.real, z.imag)))
    bound = 2.5e-15 * (abs(z.imag) + 25.0) * abs(ref)  # the docstring's
    assert abs(gamma(z) - ref) <= bound
    # an array takes the scalar path at that entry, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = gamma(np.array([2.5, z]))
        assert abs(rgamma(np.array([2.5, z]))[1] * ref - 1.0) <= 2.0 * bound / abs(ref)
    assert values[1] == gamma(z) and abs(values[0] - 0.75 * math.sqrt(math.pi)) < 1e-15


def test_gamma_below_the_normal_range_past_the_overflow_of_sin_raises():
    # |Gamma(-100+300i)| is about 1e-390 (mpmath)
    for call in (lambda: gamma(-100 + 300j), lambda: gamma(np.array([2.0, -100 + 300j]))):
        with pytest.raises(OverflowError, match="gamma overflows double precision"):
            call()


@pytest.mark.parametrize("z", [0.2 + 300j, 0.2 - 300j, -0.3 + 250j, -5 + 300j, -0.3 - 250j])
def test_log_gamma_answers_past_the_overflow_of_sin(z):
    # cmath.sin(pi z) overflows past |Im z| ~ 226; mpmath's loggamma is on
    # the principal branch, which log_gamma need not be
    with mpmath.workdps(30):
        ref = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
    diff = log_gamma(z) - ref
    turns = round(diff.imag / (2 * math.pi))
    assert abs(diff - 2j * math.pi * turns) <= 4e-16 * abs(ref)


def test_log_gamma_pinned_past_the_overflow_of_sin():
    # mpmath gives -472.03109415877213+1410.6634923876868i
    assert log_gamma(0.2 + 300j) == complex(-472.03109415877213, 1410.663492387687)
