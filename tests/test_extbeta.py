import cmath
import math

import numpy as np
import pytest

from extappell import extbeta, quadrature
from extappell.errors import DomainError
from extappell.extbeta import (
    ExtendedBetaFamily,
    ExtensionParams,
    chaudhry_beta,
    extended_beta,
)
from extappell.hyper import block_double_sum
from extappell.quadrature import integrate_semi_infinite
from extappell.scalar import beta, gamma

# 1e6-panel midpoint oracles (closed-form half-odd kernel)
BPN_2311 = 0.0010007025093382623  # B_{1,1}(2, 3)
CHAUDHRY_341 = 0.00018919052307853784  # B(3, 4; 1)
# B_{1.5,0.7}(1.2 + k, 1.9) by mpmath quadrature at 40 digits
FAMILY_MP = {
    0: 4.0415258138289232684367258990903e-4,
    20: 4.7463091074651753392439509137254e-8,
    42: 2.003466527869521025127793133996e-10,
}


def test_extension_params_validation():
    with pytest.raises(DomainError):
        ExtensionParams(-1.0, 0.5)
    with pytest.raises(DomainError):
        ExtensionParams(complex(0.0, 1.0), 0.5)
    with pytest.raises(DomainError):
        ExtensionParams(1.0, -0.2)
    assert extbeta.ExtendedBetaKernel(1.0, 0.25).order == 0.75


def test_extended_beta_oracle():
    val = extended_beta(2.0, 3.0, ExtensionParams(1.0, 1.0))
    assert abs(val - BPN_2311) <= 1e-9 * BPN_2311


def test_chaudhry_oracle():
    val = chaudhry_beta(3.0, 4.0, 1.0)
    assert abs(val - CHAUDHRY_341) <= 1e-9 * CHAUDHRY_341


# the rule of ExtensionParams, which also asks for a finite p
@pytest.mark.parametrize("p", [0.0, -1.0, complex(-0.5, 2.0), math.inf])
def test_chaudhry_beta_refuses_re_p_at_or_below_zero(p):
    with pytest.raises(DomainError, match=r"needs Re\(p\) > 0"):
        chaudhry_beta(3.0, 4.0, p)


def test_symmetry():
    rng = np.random.default_rng(31)
    for _ in range(200):
        x, y = rng.uniform(-1.0, 4.0, 2)
        ext = ExtensionParams(rng.uniform(0.25, 4.0), rng.uniform(0.0, 2.0))
        a = extended_beta(x, y, ext)
        b = extended_beta(y, x, ext)
        assert abs(a - b) <= 1e-10 * (1.0 + abs(a))


def test_nu_zero_reduces_to_chaudhry():
    rng = np.random.default_rng(32)
    for _ in range(200):
        x, y = rng.uniform(0.2, 4.0, 2)
        p = rng.uniform(0.25, 4.0)
        a = extended_beta(x, y, ExtensionParams(p, 0.0))
        b = chaudhry_beta(x, y, p)
        assert abs(a - b) <= 1e-9 * (1.0 + abs(a))


def test_monotone_decay_in_p():
    for nu in (0.0, 0.8, 1.7):
        prev = math.inf
        for p in (0.3, 0.8, 1.5, 3.0, 6.0):
            val = extended_beta(1.7, 2.4, ExtensionParams(p, nu)).real
            assert 0.0 < val < prev
            prev = val


# chaudhry_beta values, repr for repr: real and complex x and p
@pytest.mark.parametrize("x, y, p, pinned", [
    (3.0, 4.0, 1.0, "(0.00018919052307853784+0j)"),
    (0.5, 0.7, 5.0, "(6.932906731870534e-10+0j)"),
    (-1.5, 2.0, 0.3, "(2.2707801629231126+0j)"),
    (2.5 + 0.5j, 1.5, 0.8, "(0.003805752049697837-0.0012821252541333167j)"),
    (2.0, 3.0, 1.2 - 0.7j, "(-0.00032572263988285425+4.91020560319914e-05j)"),
])
def test_chaudhry_pinned_values(x, y, p, pinned):
    assert repr(chaudhry_beta(x, y, p)) == pinned


def test_chaudhry_small_p_limit():
    val = chaudhry_beta(2.0, 2.0, 1e-10)
    ref = beta(2.0, 2.0).real
    assert abs(val - ref) <= 1e-5 * ref


def test_small_p_convergence_rate_is_recorded_not_assumed():
    # the p -> 0 defect shrinks like sqrt(p) (kernel eats a boundary layer)
    ref = beta(2.0, 2.0).real
    defects = [
        ref - chaudhry_beta(2.0, 2.0, p).real for p in (1e-4, 1e-6, 1e-8)
    ]
    assert defects[0] > defects[1] > defects[2] > 0.0
    ratio = defects[1] / defects[2]
    assert 50 < ratio < 200  # ~100 per hundredfold p step


def test_negative_and_complex_arguments():
    # the kernel regularizes every x, y
    v = extended_beta(-1.2, 2.5, ExtensionParams(2.0, 0.0))
    assert np.isfinite(abs(v))
    vc = extended_beta(complex(0.5, 1.0), 2.0, ExtensionParams(1.0, 0.7))
    assert np.isfinite(abs(vc))


def test_complex_p():
    ext = ExtensionParams(complex(1.0, 0.8), 0.7)
    v = extended_beta(1.5, 2.5, ext)
    conj = extended_beta(1.5, 2.5, ExtensionParams(complex(1.0, -0.8), 0.7))
    # Schwarz reflection: conjugate parameters conjugate the value
    assert abs(v - conj.conjugate()) <= 1e-10 * abs(v)


def test_mellin_building_block():
    # int_0^inf p^{s-1/2} K_{nu+1/2}(p) dp
    #   = 2^{s-3/2} Gamma((s-nu)/2) Gamma((s+nu+1)/2)
    from extappell.bessel import bessel_k_scaled_many

    for nu in (0.0, 0.5, 1.2):
        order = nu + 0.5
        limit_const = 2.0 ** (order - 1.0) * gamma(order).real

        for s in (nu + 0.5, nu + 1.0, nu + 2.0):

            def f(u):
                # below u ~ 1e-8 use K's small-argument limit
                # (Gamma(m)/2) (2/u)^m: the exact factors overflow long
                # before their product stops mattering
                out = np.empty_like(u)
                tiny = u < 1e-8
                out[tiny] = u[tiny] ** (s - 0.5 - order) * limit_const
                ub = u[~tiny]
                out[~tiny] = (
                    ub ** (s - 0.5) * bessel_k_scaled_many(order, ub) * np.exp(-ub)
                )
                return out

            res = integrate_semi_infinite(f)
            ref = (
                2.0 ** (s - 1.5)
                * gamma((s - nu) / 2.0).real
                * gamma((s + nu + 1.0) / 2.0).real
            )
            assert abs(res.value - ref) <= 1e-8 * abs(ref)


def test_family_matches_scalar_calls():
    ext = ExtensionParams(1.3, 0.6)
    fam = ExtendedBetaFamily(0.9, 2.1, ext.p, ext.nu)
    for k in (0, 1, 5, 11):
        direct = extended_beta(0.9 + k, 2.1, ext)
        assert abs(fam.value(k) - direct) <= 1e-11 * (1.0 + abs(direct))


def test_family_high_diagonals_are_relatively_accurate():
    # small high-k moments must not stop on the absolute 1 + |D| floor
    fam = ExtendedBetaFamily(1.2, 1.9, 1.5, 0.7)
    for k, ref in FAMILY_MP.items():
        assert abs(fam.value(k) - ref) <= 1e-9 * ref


def test_family_regrowth_samples_the_kernel_again_and_keeps_its_values(monkeypatch):
    # reading past the first 64 moments integrates 128, sampling g again on
    # the first-call block; D(k) for k < 64 keeps the bits it was read with
    fam = ExtendedBetaFamily(1.2, 1.9, 1.5, 0.7)
    first = [fam.value(k) for k in range(64)]
    calls, stacks = [], []
    real_kernel, real_weigh = extbeta.bessel_k_scaled_many, quadrature._weigh
    monkeypatch.setattr(extbeta, "bessel_k_scaled_many",
                        lambda *args: calls.append(args) or real_kernel(*args))
    monkeypatch.setattr(quadrature, "_weigh",
                        lambda fvals, weights: stacks.append(weights.shape[0])
                        or real_weigh(fvals, weights))
    fam.value(70)
    assert stacks[0] == 128
    assert len(calls) == len(stacks)
    assert [fam.value(k) for k in range(64)] == first


def test_complex_p_family_matches_scalar_calls():
    # complex p makes g complex; k = 70 is a row of the regrown 128-row stack
    ext = ExtensionParams(1.2 + 0.8j, 0.7)
    fam = ExtendedBetaFamily(0.9, 2.1, ext.p, ext.nu)
    for k in (0, 5, 31, 40, 70):
        direct = extended_beta(0.9 + k, 2.1, ext)
        assert abs(fam.value(k) - direct) <= 1e-11 * (1.0 + abs(direct))


def test_families_share_one_cached_weight_table(monkeypatch):
    # the power weights t^k w of the first-call block depend on the nodes
    # alone: a second family integrates on the same read-only table
    tables, firsts = [], []
    real = quadrature._weigh
    monkeypatch.setattr(quadrature, "_weigh",
                        lambda fvals, weights: tables.append(weights) or real(fvals, weights))
    for p in (1.5, 0.4):
        tables.clear()
        ExtendedBetaFamily(1.2, 1.9, p, 0.7).value(0)
        firsts.append(tables[0])
    assert firsts[0].shape == (64, 385)
    assert firsts[1] is firsts[0]
    assert not firsts[0].flags.writeable


def test_extended_beta_far_below_the_cutoff():
    # t^-101.5 keeps nodes with kernel arguments w = p/(t(1-t)) up to about
    # 1360 above the endpoint cutoff, while the mass sits near w = 101.5;
    # mpmath at 40 digits, split at the t = p/101.5 + k p/101.5^1.5, |k| <= 12,
    # that lie in (0, 1)
    ref = 9.4230010752811491e+124
    assert abs(extended_beta(-100.0, 2.0, ExtensionParams(2.0, 0.7)) - ref) <= 1e-13 * ref


def test_batch_of_p_validation():
    # a batch of p is rows of the kernel (``ExtendedBetaKernel``), never an
    # ExtensionParams: that holds one p, so every accepted pair hashes
    for batch in (np.array([0.5, 2.0]), np.array([1.5]), np.array([[1.0]])):
        with pytest.raises((TypeError, DeprecationWarning)):
            ExtensionParams(batch, 0.7)
    for p, nu in ((-1.0, 0.5), (0.0, 0.5), (-2.0 + 1.0j, 0.5), (math.nan, 0.5),
                  (complex(math.nan, 1.0), 0.5), (1.0, -0.2), (1.0, math.nan),
                  (math.inf, 0.5), (complex(1.0, math.inf), 0.5), (1.0, math.inf),
                  (1.0, 0.5 + 1.0j)):
        with pytest.raises(DomainError):
            ExtensionParams(p, nu)
    accepted = [ExtensionParams(1.5, 0.7), ExtensionParams(1.2 + 0.8j, 0),
                ExtensionParams(np.float64(2.0), np.float64(1.0)), ExtensionParams(np.array(0.5), 3)]
    assert len({hash(ext) for ext in accepted}) == len(set(accepted)) == 4
    assert ExtensionParams(np.float64(1.5), 0.7) in set(accepted)


def test_appell_sum_is_the_diagonal_series_in_closed_form():
    # sum_k c_k D(k) by the moment stack and by the single Appell integral
    b2, b3, x, y = 0.5, -0.7, 0.4, -0.3
    for p in (0.4, 1.5):
        fam = ExtendedBetaFamily(1.2, 1.9, p, 0.7)
        series = block_double_sum(fam.value, b2, b3, x, y, 1e-14)
        assert abs(fam.appell_sum(b2, b3, x, y) - series) <= 1e-10 * abs(series)


# B_{1.5,nu}(2, 3) by mpmath at 30 digits; the kernel orders nu + 1/2 are
# generic and high enough to refine the Bessel grid past its first level
@pytest.mark.parametrize("nu, ref", [
    (10.3, 0.192952532354462773891720576366),
    (30.3, 3789478484057907.52913784598298),
])
def test_extended_beta_at_high_generic_order(nu, ref):
    assert abs(extended_beta(2.0, 3.0, ExtensionParams(1.5, nu)) - ref) <= 1e-9 * ref


@pytest.mark.parametrize("p", [1.5, np.array([0.4, 1.5, 6.0])])
@pytest.mark.parametrize("nu", [0.7, 1.0])
def test_all_live_integrand_matches_the_masked_path(p, nu):
    # one mask serves every node array: nodes that are all live give the
    # values the same nodes give with a dead endpoint node appended, whose
    # value is exactly 0 and which changes no other node's value
    kernel = extbeta.ExtendedBetaKernel(p, nu)
    g = extbeta.euler_integrand(0.7, -0.4, kernel)
    t = np.linspace(0.02, 0.98, 41)
    t_dead = np.append(t, 1e-276)
    live = g(t, 1.0 - t)
    masked = g(t_dead, 1.0 - t_dead)
    assert live.shape == np.shape(p) + t.shape
    assert np.all(masked[..., :-1] == live)
    assert np.all(masked[..., -1] == 0.0)
    assert np.all(live != 0.0)


@pytest.mark.parametrize("dead_end", [False, True], ids=["all-live", "masked"])
def test_a_nan_exponent_stays_live_for_the_quadrature_to_refuse(dead_end):
    # a NaN exponent, as a real log of a negative number gives, is no
    # endpoint zero: its sample stays NaN whether every other node is live
    # or a dead one is masked, and the quadrature refuses it
    g = extbeta.euler_integrand(0.7, -0.4, extbeta.ExtendedBetaKernel(1.5, 0.7),
                                extra=lambda t, tc: np.where(t > 0.5, np.nan, 0.0))
    t = np.linspace(0.02, 0.98, 41)
    if dead_end:
        t = np.append(t, 1e-276)
    values = g(t, 1.0 - t)
    assert np.all(np.isnan(values[t > 0.5]))
    assert np.all(np.isfinite(values[t <= 0.5]))
    with pytest.raises(DomainError, match="non-finite integrand sample"):
        quadrature.integrate_unit_interval(g, 1e-10)


def _recording_kernel(monkeypatch):
    """The arguments of every Bessel call the kernel makes."""
    args = []
    real = extbeta.bessel_k_scaled_many
    monkeypatch.setattr(extbeta, "bessel_k_scaled_many",
                        lambda nu, z: args.append(np.array(z)) or real(nu, z))
    return args


def _live_arguments(kernel, xt, yt, t, tc):
    w = kernel.argument(t, tc)
    expo = xt * np.log(t) + yt * np.log(tc) - w
    return w, np.real(expo) > -quadrature.ENDPOINT_CUTOFF


# scalar, complex and batched p, a generic and a half-odd order; the
# powers (-1.4, 60) and (60, -1.4) at p = 1e-3 leave live nodes whose
# mirror node, at 1 - t, is dead, on either side of t = 1/2
TWIN_CASES = [
    (1.5, 0.7, 0.7, -0.4),
    (1.5, 1.0, 0.7, -0.4),
    (1.2 + 0.8j, 0.7, 0.7, -0.4),
    (np.array([0.4, 1.5, 6.0]), 0.7, 0.7, -0.4),
    (1e-3, 0.7, -1.4, 60.0),
    (1e-3, 0.7, 60.0, -1.4),
]


@pytest.mark.parametrize("p, nu, xt, yt", TWIN_CASES)
def test_the_kernel_takes_each_distinct_live_argument_once(monkeypatch, p, nu, xt, yt):
    # one call takes every live w: mirror nodes share w = p/(t(1-t)) to
    # the bit, and each live node of a pair hands its own copy
    kernel = extbeta.ExtendedBetaKernel(p, nu)
    (t, tc, _), _ = quadrature._block(quadrature._unit_level, 5)
    w, live = _live_arguments(kernel, xt, yt, t, tc)
    args = _recording_kernel(monkeypatch)
    values = extbeta.euler_integrand(xt, yt, kernel)(t, tc)
    assert len(args) == 1 and args[0].tobytes() == w[live].tobytes()
    assert np.array_equal(np.unique(args[0]), np.unique(w[live]))
    assert np.array_equal(values == 0.0, ~live)


def _per_pair(monkeypatch):
    """Make the kernel evaluate each distinct argument of a call once and
    spread the values, as one evaluation per mirror pair would."""
    real = extbeta.bessel_k_scaled_many

    def once(nu, z):
        u, inverse = np.unique(z, return_inverse=True)
        return real(nu, u)[inverse]

    monkeypatch.setattr(extbeta, "bessel_k_scaled_many", once)


@pytest.mark.parametrize("p, nu, xt, yt", TWIN_CASES)
def test_one_evaluation_per_pair_is_the_same_bits_as_one_per_live_node(monkeypatch, p, nu, xt, yt):
    # a Bessel entry is the same bits whatever else its call holds, so
    # taking a mirror pair's shared w once changes no value
    g = extbeta.euler_integrand(xt, yt, extbeta.ExtendedBetaKernel(p, nu))
    (t, tc, _), _ = quadrature._block(quadrature._unit_level, 5)
    every = g(t, tc)
    _per_pair(monkeypatch)
    assert g(t, tc).tobytes() == every.tobytes()


@pytest.mark.parametrize("xt, yt", [(-1.4, 60.0), (60.0, -1.4)])
def test_a_live_node_with_a_dead_twin_is_evaluated(xt, yt):
    # the p = 1e-3 cases above hold such nodes: below t = 1/2 for
    # (-1.4, 60) and above it for (60, -1.4); each is the same bits as
    # when evaluated alone
    kernel = extbeta.ExtendedBetaKernel(1e-3, 0.7)
    (t, tc, _), _ = quadrature._block(quadrature._unit_level, 5)
    _, live = _live_arguments(kernel, xt, yt, t, tc)
    _, mirror_live = _live_arguments(kernel, xt, yt, tc, t)
    lone = live & ~mirror_live
    assert np.count_nonzero(lone) >= 4
    assert np.all((t[lone] < 0.5) == (xt < 0.0))
    g = extbeta.euler_integrand(xt, yt, kernel)
    values, alone = g(t, tc)[lone], g(t[lone], tc[lone])
    assert np.all(values != 0.0) and values.tobytes() == alone.tobytes()


@pytest.mark.parametrize("call", [
    lambda: extended_beta(math.inf, 3.0, ExtensionParams(1.5, 0.7)),
    lambda: extended_beta(2.0, complex(math.nan, 1.0), ExtensionParams(1.5, 0.7)),
    lambda: chaudhry_beta(2.0, -math.inf, 1.5),
], ids=["extended_beta-x", "extended_beta-y", "chaudhry_beta-y"])
def test_euler_integrand_refuses_a_non_finite_power(call):
    # extended_beta(inf, 3, ext) ended in numpy's RuntimeWarning
    with pytest.raises(DomainError, match="needs a finite power of"):
        call()
