import math

import numpy as np
import pytest

from extappell.errors import DomainError
from extappell.quadrature import (
    ENDPOINT_CUTOFF,
    QuadratureConfig,
    _edge_tail,
    _tail_estimate,
    integrate_semi_infinite,
    integrate_unit_interval,
    integrate_vertical_line,
)

# B(2,2;1) = int_0^1 t (1-t) exp(-1/(t(1-t))) dt by a 1e6-panel midpoint rule
CHAUDHRY_B221 = 0.001623023972519449


def test_unit_constant():
    res = integrate_unit_interval(lambda t, tc: np.ones_like(t))
    assert res.converged
    assert abs(res.value - 1.0) < 1e-14


def test_unit_beta_moment():
    res = integrate_unit_interval(lambda t, tc: t * tc**2)
    assert abs(res.value - 1.0 / 12.0) < 1e-14  # = B(2, 3)


def test_unit_chaudhry_kernel_vs_dense_oracle():
    def f(t, tc):
        expo = -1.0 / (t * tc)
        out = np.zeros_like(t)
        live = expo > -ENDPOINT_CUTOFF
        out[live] = t[live] * tc[live] * np.exp(expo[live])
        return out

    res = integrate_unit_interval(f)
    assert res.converged
    assert abs(res.value - CHAUDHRY_B221) <= 1e-9 * CHAUDHRY_B221


def test_unit_nonfinite_sample_raises():
    with pytest.raises(DomainError):
        integrate_unit_interval(lambda t, tc: t / (t - t))


def test_semi_exponential():
    res = integrate_semi_infinite(lambda u: np.exp(-u))
    assert res.converged
    assert abs(res.value - 1.0) < 1e-13


def test_semi_bessel_halforder_mellin():
    # int_0^inf u^{s-1/2} K_{1/2}(u) du at s = 1 equals sqrt(pi/2)
    def f(u):
        return u ** 0.5 * np.sqrt(np.pi / (2.0 * u)) * np.exp(-u)

    res = integrate_semi_infinite(f)
    assert abs(res.value - math.sqrt(math.pi / 2.0)) < 1e-12


def test_semi_gaussian_moment():
    res = integrate_semi_infinite(lambda u: u**2 * np.exp(-(u**2)))
    assert abs(res.value - math.sqrt(math.pi) / 4.0) < 1e-13


def test_semi_algebraic_origin():
    res = integrate_semi_infinite(lambda u: u**-0.5 * np.exp(-u))
    assert abs(res.value - math.sqrt(math.pi)) < 1e-12


def test_vertical_gaussian():
    res = integrate_vertical_line(lambda tau: np.exp(-(tau**2)))
    assert res.converged
    assert abs(res.value - math.sqrt(math.pi)) < 1e-12


def test_vertical_no_decay_raises():
    with pytest.raises(DomainError):
        integrate_vertical_line(lambda tau: np.ones_like(tau))


def test_level_doubling_error_contract():
    # doubling the budget never moves a converged value by more than 2x
    # its reported error estimate
    def f(t, tc):
        return np.exp(-t) * tc**0.3

    small = integrate_unit_interval(f, QuadratureConfig(target_rel_tol=1e-8, max_levels=6))
    big = integrate_unit_interval(f, QuadratureConfig(target_rel_tol=1e-8, max_levels=12))
    assert small.converged
    assert abs(small.value - big.value) <= 2.0 * small.abs_error_estimate + 1e-15


def test_linearity():
    f = lambda t, tc: np.sin(3.0 * t)
    g = lambda t, tc: t**2 * tc
    a, b = 2.25, -0.75
    combo = integrate_unit_interval(lambda t, tc: a * f(t, tc) + b * g(t, tc))
    parts = a * integrate_unit_interval(f).value + b * integrate_unit_interval(g).value
    assert abs(combo.value - parts) <= 1e-12 * (1.0 + abs(parts))


def test_symmetry_reparameterization():
    # f(t) = f(1-t) leaves the computed value invariant under t -> 1-t
    def f(t, tc):
        return np.exp(-1.0 / np.maximum(t * tc, 1e-280))

    direct = integrate_unit_interval(lambda t, tc: f(t, tc))
    flipped = integrate_unit_interval(lambda t, tc: f(tc, t))
    assert abs(direct.value - flipped.value) <= 1e-13 * (1.0 + abs(direct.value))


def test_unconverged_is_flagged_not_raised():
    # cos(40 t) needs more than 2 levels; with max_levels=2 the engine
    # must hand back its best value with converged=False
    res = integrate_unit_interval(
        lambda t, tc: np.cos(40.0 * t), QuadratureConfig(target_rel_tol=1e-12, max_levels=2)
    )
    assert not res.converged
    assert res.abs_error_estimate > 0.0


def test_edge_tail_of_a_stack_equals_the_per_row_rule():
    rng = np.random.default_rng(3)
    level0 = (rng.standard_normal((6, 13)) + 1j * rng.standard_normal((6, 13))) * 1e-3
    level0[0] = 0.0  # dead row
    level0[1, [0, -1]] = 0.0  # zero edges
    level0[2, 0] = level0[2, 1]  # no decay on the left
    level0[3, 1] = 0.0  # inner sample zero, outer not
    level0[4, [0, 1, -2, -1]] = [1e-9, 1e-5, 2e-6, 3e-12]
    expect = [max(_tail_estimate(abs(r[1]), abs(r[0])), _tail_estimate(abs(r[-2]), abs(r[-1])))
              for r in level0]
    for stack in (level0, level0.real):
        assert list(_edge_tail(stack)) == [_edge_tail(r) for r in stack]
    assert list(_edge_tail(level0)) == expect
    assert expect[:4] == [0.0, 0.0, math.inf, math.inf] and 0.0 < expect[4] < math.inf

