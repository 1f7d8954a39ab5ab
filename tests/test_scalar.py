import cmath
import math

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
