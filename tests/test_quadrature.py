import math

import numpy as np
import pytest

from extappell.errors import ConvergenceError, DomainError
from extappell.hyper import AppellParams
from extappell.mellin import _inversion_integrand
from extappell.quadrature import (
    _FIRST_TEST_LEVEL,
    _MAX_LEVELS,
    ENDPOINT_CUTOFF,
    _block,
    _edge_tail,
    _first_call_level,
    _line_level,
    _semi_level,
    _tail_estimate,
    _unit_level,
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
    with pytest.raises(DomainError), np.errstate(divide="ignore", invalid="ignore"):
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


@pytest.mark.parametrize("engine, f", [
    (integrate_unit_interval, lambda t, tc: t**-0.5),
    (integrate_semi_infinite, lambda u: np.exp(-u)),
    (integrate_vertical_line, lambda tau: np.exp(-(tau**2))),
], ids=["unit", "semi", "line"])
@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
def test_tolerance_must_be_positive(engine, f, tol):
    with pytest.raises(DomainError, match="tolerance must be positive"):
        engine(f, tol)


def test_level_doubling_error_contract():
    # tightening the tolerance never moves a converged value by more than
    # 2x its reported error estimate
    def f(t, tc):
        return np.exp(-t) * tc**0.3

    small = integrate_unit_interval(f, 1e-8)
    big = integrate_unit_interval(f, 1e-14)
    assert small.converged and small.nodes_used < big.nodes_used
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
    # a step at t = 1/3 keeps the level differences at ~1e-5 through the
    # whole budget; the engine must hand back its best value with
    # converged=False
    res = integrate_unit_interval(lambda t, tc: np.where(t < 1.0 / 3.0, 1.0, 0.0), 1e-12)
    assert not res.converged
    assert res.nodes_used == sum(_unit_level(lvl)[-1].size for lvl in range(_MAX_LEVELS + 1))
    assert res.abs_error_estimate > 0.0
    assert abs(res.value - 1.0 / 3.0) < 1e-3


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


def _counting(f):
    """``f`` with a record of the node arrays of every call."""
    calls = []

    def counted(*nodes):
        calls.append(nodes)
        return f(*nodes)

    return counted, calls


def _stop_level(table, nodes_used):
    """The level L whose levels 0..L hold ``nodes_used`` nodes."""
    total = 0
    for level in range(17):
        total += table(level)[-1].size
        if total == nodes_used:
            return level
    raise AssertionError(f"{nodes_used} nodes is no whole number of levels")


@pytest.mark.parametrize("engine, table, f, tol", [
    (integrate_unit_interval, _unit_level, lambda t, tc: np.cos(40.0 * t), 1e-10),
    (integrate_unit_interval, _unit_level, lambda t, tc: t**-0.5, 0.5),
    (integrate_unit_interval, _unit_level, lambda t, tc: t**-0.5, 1e-12),
    (integrate_semi_infinite, _semi_level, lambda u: u**-0.5 * np.exp(-u), 1e-10),
    (integrate_semi_infinite, _semi_level, lambda u: np.exp(-u), 0.5),
], ids=["unit-cos40", "unit-rsqrt-loose", "unit-rsqrt-tight", "semi-rsqrt", "semi-loose"])
def test_first_test_level_block_takes_one_integrand_call(engine, table, f, tol):
    # one call for the block of levels 0 to the first-call level, then one
    # per later level; a quadrature stopping inside the block makes one call
    counted, calls = _counting(f)
    res = engine(counted, tol)
    assert res.converged
    last = _first_call_level(tol)
    assert len(calls) == max(1, _stop_level(table, res.nodes_used) - last + 1)
    first = calls[0]
    for i, block in enumerate(first):
        assert np.array_equal(
            block, np.concatenate([table(lvl)[i] for lvl in range(last + 1)])
        )
    # the block's arrays are cached and shared by every quadrature
    again, calls_again = _counting(f)
    engine(again, tol)
    assert all(a is b for a, b in zip(calls_again[0], first))


def test_kernel_tolerance_samples_levels_0_to_5_in_one_call():
    # t^-1/2 stops at level 3 at 1e-10: its nodes_used counts levels 0-3
    # only, though its one call sampled levels 0-5
    counted, calls = _counting(lambda t, tc: t**-0.5)
    res = integrate_unit_interval(counted, 1e-10)
    assert res.converged and res.value == 2.0
    assert res.nodes_used == 97 == sum(_unit_level(lvl)[-1].size for lvl in range(4))
    assert len(calls) == 1
    assert np.array_equal(calls[0][0], np.concatenate([_unit_level(lvl)[0] for lvl in range(6)]))
    assert calls[0][0].size == 385


@pytest.mark.parametrize("engine, table, f, tol, last, nodes", [
    (integrate_unit_interval, _unit_level, lambda t, tc: t**-0.5, 2e-7, 3, 97),
    (integrate_semi_infinite, _semi_level, lambda u: u**-0.5 * np.exp(-u), 2e-7, 3, 89),
    (integrate_unit_interval, _unit_level, lambda t, tc: t**-0.5, 1e-9, 4, 193),
], ids=["unit-outer", "semi-outer", "unit-batch"])
def test_mellin_tolerances_keep_the_first_call_shallow(engine, table, f, tol, last, nodes):
    # the forward Mellin transform's outer exp-sinh quadrature runs at
    # 2e-7, and every node of its first call costs a row of an inner
    # kernel batch; those tanh-sinh batches run at 1e-9, stop at level 4
    # or 5, and pay per row too.  The first-call level follows the
    # tolerance alone, so tanh-sinh at 2e-7 also samples levels 0-3 only
    counted, calls = _counting(f)
    assert engine(counted, tol).converged
    assert calls[0][0].size == nodes
    assert np.array_equal(calls[0][0], np.concatenate([table(lvl)[0] for lvl in range(last + 1)]))


# results of the engine that made one integrand call per level: sampling
# levels 0 to the first-call level as one block must leave a pointwise
# integrand's bits alone.  rsqrt-loose passes its test at the first test
# level, so it has rsqrt-tight's value and nodes.
# The contour entries are the results of the contour on ``_refine``; the
# loop it replaced reached the same nodes_used (129 and 1025).
def _stacked_moments(t, tc):
    g = np.exp(-t) * tc**0.25
    return np.cumprod(np.vstack([g, np.broadcast_to(t, (4, t.size))]), axis=0)


@pytest.mark.parametrize("engine, f, tol, value, error, nodes", [
    (integrate_unit_interval, lambda t, tc: np.cos(40.0 * t), 1e-10,
     0.018627829011983454, 1.9081958235744878e-16, 385),
    (integrate_unit_interval, lambda t, tc: t**-0.5, 0.5,
     2.0, 3.1086244689504383e-15, 97),
    (integrate_unit_interval, lambda t, tc: t**-0.5, 1e-12,
     2.0, 3.1086244689504383e-15, 97),
    (integrate_unit_interval, _stacked_moments, 1e-10,
     [0.5323196102794018, 0.19771912312865397, 0.11026753988872368,
      0.07319879826976759, 0.05349107125010888], 0.0, 193),
    (integrate_semi_infinite, lambda u: u**-0.5 * np.exp(-u), 1e-10,
     1.7724538509055159, 1.9308776799675798e-11, 177),
    (integrate_semi_infinite, lambda u: np.vstack([np.exp(-u), u * np.exp(-2.0 * u)]), 1e-10,
     [0.9999999999999999, 0.25], 1.842581642819141e-11, 177),
    (integrate_vertical_line, lambda tau: np.exp(-(tau**2)), 1e-10,
     1.772453850905516, 0.0, 129),
    # int e^{i tau} / cosh(tau) = pi / cosh(pi/2) = 1.2520403312521475
    (integrate_vertical_line, lambda tau: np.exp(1j * tau) / np.cosh(tau), 1e-10,
     1.2520403312521475 + 1.3877787807832903e-17j, 4.443059973708347e-16, 1025),
], ids=["cos40", "rsqrt-loose", "rsqrt-tight", "stack", "semi-rsqrt", "semi-stack",
        "line-gauss", "line-sech"])
def test_pointwise_integrands_match_frozen_results(engine, f, tol, value, error, nodes):
    res = engine(f, tol)
    assert np.ndim(res.value) == np.ndim(value)
    assert np.all(res.value == value)
    assert res.abs_error_estimate == error
    assert res.nodes_used == nodes
    assert res.converged is True


def test_contour_stopping_at_the_first_test_level_makes_two_integrand_calls():
    # the probe call, then one call for the block of levels 0-6, whatever
    # the tolerance; nodes_used counts levels 0.._FIRST_TEST_LEVEL only
    counted, calls = _counting(lambda tau: np.exp(-(tau**2)))
    res = integrate_vertical_line(counted, 1e-3)
    assert res.converged
    levels = range(_FIRST_TEST_LEVEL + 1)
    assert res.nodes_used == sum(_line_level(lvl)[0].size for lvl in levels) == 65
    assert len(calls) == 2
    probes = calls[0][0]
    assert probes[0] == 0.0 and np.array_equal(probes[1:13], -probes[13:])
    trunc = 8.0  # twice the first probe, 4, where exp(-tau^2) < 1e-5
    block = np.concatenate([_line_level(lvl)[0] for lvl in range(7)])
    assert block.size == 513
    assert np.array_equal(calls[1][0], trunc * block)


@pytest.mark.parametrize("engine, table, f, nodes", [
    (integrate_unit_interval, _unit_level, lambda t, tc: np.ones_like(t), 97),
    (integrate_semi_infinite, _semi_level, lambda u: np.exp(-u), 89),
    (integrate_vertical_line, _line_level, lambda tau: np.exp(-(tau**2)), 65),
], ids=["unit", "semi", "line"])
def test_no_engine_stops_before_the_first_test_level(engine, table, f, nodes):
    # at a loose tolerance an integrand that settles at once would pass the
    # level-difference test at level 1; every engine still runs the block
    res = engine(f, 0.5)
    assert res.converged
    assert res.nodes_used == nodes == sum(
        table(lvl)[-1].size for lvl in range(_FIRST_TEST_LEVEL + 1)
    )


def test_line_levels_are_the_trapezoid_rule_on_minus_one_to_one():
    u = np.concatenate([_line_level(lvl)[0] for lvl in range(4)])
    assert np.array_equal(np.sort(u), np.arange(-32, 33) / 32.0)
    for level in range(4):
        # level 0 integrates 1 over [-1, 1]; a later level holds every other
        # node of its rule, so its weights times 2**-L integrate 1 over half
        w = _line_level(level)[1]
        assert math.fsum(w) * 2.0**-level == (2.0 if level == 0 else 1.0)


# (Appell parameters, nu, p, c - nu) of inversion contours at tol 1e-7, and
# the nodes_used and real value of the loop that integrated the contour
# before ``_refine`` did
_INVERSION_CONTOURS = [
    ((1, 1, 1, 3, 0.3, 0.4), 0.0, 0.3, 3.0, 257, 5.418258884812888),
    ((1, 1, 1, 3, 0.3, 0.4), 0.7, 1.5, 1.0, 513, 0.028419637886737917),
    ((1.2, 0.5, -0.7, 3.1, 0.4, -0.3), 0.7, 1.5, 3.0, 129, 0.02743144093313077),
    ((1.2, 0.5, -0.7, 3.1, 0.4, -0.3), 1.0, 4.0, 3.0, 129, 7.985230035885691e-07),
    ((1.9, 0.8, 1.2, 4.4, 0.0, 0.6), 1.75, 0.66, 1.0, 1025, 2.973433608066764),
    ((1.9, 0.8, 1.2, 4.4, 0.0, 0.6), 1.75, 0.66, 3.0, 257, 2.9734336080667587),
]


@pytest.mark.parametrize("appell, nu, p, dc, nodes, value", _INVERSION_CONTOURS)
def test_inversion_contours_keep_their_nodes(appell, nu, p, dc, nodes, value):
    res = integrate_vertical_line(_inversion_integrand(AppellParams(*appell), nu, p, nu + dc),
                                  1e-7)
    assert res.converged
    assert res.nodes_used == nodes
    assert abs(res.value - value) <= 1e-12 * abs(value)


def test_flat_edge_downgrades_a_settled_value():
    # weighted samples exp(-tau^2) + 1e-9 at t = sigmoid(pi sinh tau): the
    # levels agree at level 3, but the flat edge is mass beyond the table
    def f(t, tc):
        tau = np.arcsinh(np.log(t / tc) / math.pi)
        return (np.exp(-tau**2) + 1e-9) / (math.pi * np.cosh(tau) * t * tc)

    res = integrate_unit_interval(f, 1e-10)
    assert not res.converged
    assert res.abs_error_estimate == math.inf
    assert res.nodes_used == 97  # levels 0-3
    with pytest.raises(ConvergenceError, match="flat edge stalled at error inf"):
        res.converged_value("flat edge")


def _moment_stack(f, rows):
    """The rows t^k f(t), k < ``rows``, as one stacked integrand."""
    def stacked(t, tc):
        return np.cumprod(np.vstack([f(t, tc), np.broadcast_to(t, (rows - 1, t.size))]), axis=0)

    return stacked


# (integrand, whether it stops past the first-call block at both
# tolerances); none cancels much, so the moments are relatively accurate
_MOMENT_INTEGRANDS = {
    "smooth": (lambda t, tc: np.exp(-t) * tc**0.25, False),
    "complex": (lambda t, tc: np.exp(5j * t) * tc**0.3, False),
    "peak": (lambda t, tc: 1.0 / (1.0 + 400.0 * (t - 0.5)**2), True),
    "complex-peak": (lambda t, tc: np.exp(2j * t) / (1.0 + 400.0 * (t - 0.5)**2), True),
}


@pytest.mark.parametrize("tol", [1e-10, 1e-14])
@pytest.mark.parametrize("name", list(_MOMENT_INTEGRANDS))
def test_moments_match_the_stacked_integrand(name, tol):
    # the power-weight table t^k w times one sample per node gives the
    # stack's rows, with the same stop level and verdict
    (f, deep), rows = _MOMENT_INTEGRANDS[name], 40
    res = integrate_unit_interval(f, tol, moments=rows)
    ref = integrate_unit_interval(_moment_stack(f, rows), tol)
    assert res.value.shape == (rows,)
    assert np.all(np.abs(res.value - ref.value) <= 2e-15 * np.abs(ref.value))
    assert res.nodes_used == ref.nodes_used
    assert res.converged is ref.converged is True
    assert (_stop_level(_unit_level, res.nodes_used) > _first_call_level(tol)) is deep


@pytest.mark.parametrize("f", [
    lambda t, tc: np.vstack([t, tc]),
    lambda t, tc: t[1:],
    lambda t, tc: t / (t - t),
], ids=["stack", "short", "nonfinite"])
def test_moment_samples_must_be_one_finite_value_per_node(f):
    with pytest.raises(DomainError), np.errstate(divide="ignore", invalid="ignore"):
        integrate_unit_interval(f, 1e-10, moments=3)


@pytest.mark.parametrize("moments", [0, -2])
def test_moments_must_be_positive(moments):
    with pytest.raises(DomainError, match="number of moments must be positive"):
        integrate_unit_interval(lambda t, tc: t, 1e-10, moments=moments)


def test_edge_mass_of_one_moment_downgrades_the_result():
    # t^-0.999 keeps its weighted samples flat at the left edge of the
    # table; t^(k-0.999) for k >= 1 decays there.  The level test passes
    # at level 6, but the edge tail of row 0 is infinite
    res = integrate_unit_interval(lambda t, tc: t**-0.999, 1e-2, moments=3)
    assert not res.converged
    assert res.abs_error_estimate == math.inf
    assert _stop_level(_unit_level, res.nodes_used) == 6
    assert abs(res.value[1] - 1.0 / 1.001) <= 1e-12 and abs(res.value[2] - 1.0 / 2.001) <= 1e-12


def test_the_unit_engine_hands_its_integrand_cached_read_only_node_arrays_only():
    # t^-0.99 runs past the first-call block through every level; every
    # call's t and tc are the cached arrays of the block or of a level
    seen = []

    def f(t, tc):
        seen.append((t, tc))
        return t**-0.99

    integrate_unit_interval(f, 1e-12)
    (t, tc, _), _ = _block(_unit_level, _first_call_level(1e-12))
    cached = [(t, tc)] + [_unit_level(lvl)[:2] for lvl in range(6, _MAX_LEVELS + 1)]
    assert len(seen) == len(cached)
    assert all(a is b for pair, table in zip(seen, cached) for a, b in zip(pair, table))
    assert not any(a.flags.writeable for pair in seen for a in pair)
