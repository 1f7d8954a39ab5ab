import math
import warnings

import mpmath
import numpy as np
import pytest

from extappell import hyper
from extappell.errors import ConvergenceError, DomainError, PoleError
from extappell.extbeta import chaudhry_beta
from extappell.hyper import (
    MAX_TERMS,
    AppellParams,
    appell_f1_integral,
    appell_f1_series,
    block_double_sum,
    chaudhry_f1_integral,
    check_euler_domain,
    euler_beta,
    euler_integral_beta,
    f1_diagonal_coefficients,
    _scalar_sum,
    pfq,
    pochhammer_diagonal,
)
from extappell.scalar import beta, pochhammer

# 2F1(1/2, 1/2; 3/2; 0.7) by a 1e5-term sum at 30 digits
#  (= arcsin(sqrt 0.7)/sqrt 0.7)
GAUSS_HALF_07 = 1.18465870843277873
# F1(1,1,1;2;0.3,0.5) by a brute-force 400x400 double sum at 30 digits
F1_ORACLE = 1.68236118310606465


def test_pfq_binomial_collapse():
    for a in (0.7, -1.3, 2.2):
        val = pfq((a, 1.3), (1.3,), 0.4)
        assert abs(val - (1.0 - 0.4) ** (-a)) <= 1e-13 * abs(val)


def test_pfq_at_origin():
    assert pfq((0.3, 1.9, 2.2), (1.1, 0.7), 0.0) == 1.0


def test_pfq_derived_oracle():
    val = pfq((0.5, 0.5), (1.5,), 0.7)
    assert abs(val - GAUSS_HALF_07) <= 1e-13 * GAUSS_HALF_07


def test_pfq_term_recursion_matches_pochhammer_ratio():
    # the recursion t_{n+1} = t_n prod(a+n)/prod(b+n) z/(n+1) must track
    # the direct Pochhammer-ratio terms of the defining series
    a, b, z = (0.4, 1.7), (2.3,), 0.35
    term = 1.0 + 0.0j
    for n in range(20):
        term = term * (a[0] + n) * (a[1] + n) / (b[0] + n) * z / (n + 1)
        direct = (
            pochhammer(a[0], n + 1) * pochhammer(a[1], n + 1)
            / pochhammer(b[0], n + 1) * z ** (n + 1) / math.factorial(n + 1)
        )
        assert abs(term - direct) <= 1e-13 * abs(direct)
    full = pfq(a, b, z)
    by_ratio = sum(
        pochhammer(a[0], n) * pochhammer(a[1], n) / pochhammer(b[0], n)
        * z**n / math.factorial(n)
        for n in range(60)
    )
    assert abs(full - by_ratio) <= 1e-13 * abs(full)


def test_pfq_domain_errors():
    with pytest.raises(DomainError):
        pfq((1.0, 1.0, 1.0), (2.0,), 0.5)  # p > q+1
    with pytest.raises(DomainError):
        pfq((1.0, 1.0), (3.0,), 1.2)  # |z| >= 1 at p = q+1
    with pytest.raises(PoleError):
        pfq((1.0,), (-2.0,), 0.5)
    # terminating numerator lifts the |z| < 1 restriction
    val = pfq((-3.0, 1.0), (2.0,), 2.5)
    assert np.isfinite(abs(val))


def test_pfq_runs_out_of_terms():
    # 2F1(1, 1; 2; z) = -log(1 - z)/z: at z = 0.9999 term n is about
    # 0.9999^n / n, still 1e-5 of the sum after MAX_TERMS terms
    with pytest.raises(ConvergenceError, match="did not converge"):
        pfq((1.0, 1.0), (2.0,), 0.9999)


def test_scalar_sum_returns_none_when_the_terms_run_out():
    assert _scalar_sum([(1.0, 0.5)] * 10, 1e-14) is None
    assert _scalar_sum([(1.0, 2.0), (1.0, 0.0), (1.0, 0.0), (1.0, 0.0)], 1e-14) == 2.0


# pfq values, repr for repr: real and complex z, and terminating series at |z| >= 1
@pytest.mark.parametrize("a, b, z, pinned", [
    ((0.5, 0.5), (1.5,), 0.7, "(1.1846587084327678+0j)"),
    ((1.2, 0.3), (2.1,), 0.4 + 0.3j, "(1.0694063967018603+0.07662405627089577j)"),
    ((0.7,), (), -0.6, "(0.7196411885164522+0j)"),
    ((-4.0, 1.5), (2.2,), 3.0, "(4.7571705638111865+0j)"),
    ((-3.0, 0.5 + 0.2j), (1.7,), -2.5 + 1.0j, "(9.306784725902373-2.1729082023199666j)"),
    ((1.1, -2.0, 0.4), (1.3, 2.9), 1.5, "(0.735936765345138+0j)"),
])
def test_pfq_pinned_values(a, b, z, pinned):
    assert repr(pfq(a, b, z)) == pinned


def test_appell_series_trivial_cases():
    assert appell_f1_series(AppellParams(1.3, 0.8, -0.4, 2.6, 0.0, 0.0)) == 1.0
    # b2 = 0 kills the x series
    val = appell_f1_series(AppellParams(0.9, 0.0, 1.4, 2.2, 0.7, 0.25))
    ref = pfq((0.9, 1.4), (2.2,), 0.25)
    assert abs(val - ref) <= 1e-12 * abs(ref)


def test_appell_series_oracle():
    val = appell_f1_series(AppellParams(1, 1, 1, 2, 0.3, 0.5))
    assert abs(val - F1_ORACLE) <= 1e-13 * F1_ORACLE


def test_appell_forms_agree():
    # (b1)_k / (c1)_k = B(b1+k, c1-b1) / B(b1, c1-b1): the diagonal shape
    # shared with the extended function
    p = AppellParams(1.4, -0.8, 2.1, 3.0, 0.45, -0.3)
    norm = beta(p.b1, p.c1 - p.b1)
    by_beta = block_double_sum(
        lambda k: beta(p.b1 + k, p.c1 - p.b1) / norm, p.b2, p.b3, p.x, p.y, 1e-14
    )
    a = appell_f1_series(p)
    assert abs(a - by_beta) <= 1e-12 * abs(a)


def test_appell_integral_matches_series():
    cases = [
        (2.0, 1.0, 1.0, 4.0, 0.0, 0.0),
        (1.0, 1.0, 1.0, 2.0, 0.3, 0.5),
        (0.7, -1.4, 2.2, 2.9, -0.55, 0.35),
    ]
    for tup in cases:
        p = AppellParams(*tup)
        s = appell_f1_series(p)
        i = appell_f1_integral(p)
        assert abs(s - i) <= 1e-9 * (1.0 + abs(s))


def test_appell_equal_arguments_collapse_to_2f1():
    # x = y merges the power factors: F1 -> 2F1(b1, b2+b3; c1; x)
    p = AppellParams(1.2, 0.7, 1.1, 3.0, 0.4, 0.4)
    val = appell_f1_integral(p)
    ref = pfq((1.2, 1.8), (3.0,), 0.4)
    assert abs(val - ref) <= 1e-10 * abs(ref)


def test_appell_series_integral_random_domain():
    rng = np.random.default_rng(21)
    for _ in range(60):
        b1 = rng.uniform(0.5, 3.0)
        c1 = b1 + rng.uniform(0.5, 3.0)
        b2, b3 = rng.uniform(-2.0, 2.0, 2)
        x, y = rng.uniform(-0.8, 0.8, 2)
        p = AppellParams(b1, b2, b3, c1, x, y)
        s = appell_f1_series(p)
        i = appell_f1_integral(p)
        assert abs(s - i) <= 1e-8 * (1.0 + abs(s))


def test_appell_symmetry_property():
    rng = np.random.default_rng(22)
    for _ in range(100):
        p = AppellParams(
            rng.uniform(0.3, 3.0),
            rng.uniform(-2.0, 2.0),
            rng.uniform(-2.0, 2.0),
            rng.uniform(3.2, 6.0),
            rng.uniform(-0.8, 0.8),
            rng.uniform(-0.8, 0.8),
        )
        a = appell_f1_series(p)
        b = appell_f1_series(AppellParams(p.b1, p.b3, p.b2, p.c1, p.y, p.x))
        assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


def test_appell_polynomial_termination():
    # negative-integer b2 terminates the x index: any |x| is fine
    p = AppellParams(1.5, -3.0, 0.5, 2.5, 1.7, 0.2)
    val = appell_f1_series(p)
    # mpmath appellf1(1.5, -3, 0.5, 2.5, 1.7, 0.2) at 25 digits
    assert abs(val - 0.0137573766170518736) < 1e-15


def test_appell_domain_errors():
    with pytest.raises(DomainError):
        appell_f1_series(AppellParams(1.0, 1.0, 1.0, 2.0, 1.2, 0.1))
    with pytest.raises(DomainError):
        appell_f1_integral(AppellParams(3.0, 1.0, 1.0, 2.0, 0.1, 0.1))  # c1 < b1
    with pytest.raises(DomainError):
        appell_f1_integral(AppellParams(1.0, 1.0, 1.0, 2.0, 1.5, 0.1))  # x on cut
    with pytest.raises(PoleError):
        AppellParams(1.0, 1.0, 1.0, -2.0, 0.1, 0.1)


def test_chaudhry_f1_integral_matches_the_per_diagonal_series():
    # the reduction suite's old Chaudhry side, a diagonal sum of one
    # Chaudhry Beta quadrature per diagonal, kept here as an oracle
    rng = np.random.default_rng(44)
    for _ in range(20):
        b1 = rng.uniform(0.5, 3.0)
        c1 = b1 + rng.uniform(0.5, 3.0)
        b2, b3 = rng.uniform(-2.0, 2.0, 2)
        x, y = rng.uniform(-0.8, 0.8, 2)
        p = rng.uniform(0.25, 4.0)
        b0 = beta(b1, c1 - b1)
        series = block_double_sum(
            lambda k: chaudhry_beta(b1 + k, c1 - b1, p) / b0, b2, b3, x, y, 1e-12)
        value = chaudhry_f1_integral(AppellParams(b1, b2, b3, c1, x, y), p)
        assert abs(value - series) <= 1e-12 * (1.0 + abs(series))


def test_chaudhry_f1_integral_against_mpmath():
    args = (1.2, 0.5, -0.7, 3.1, 0.4, -0.3)  # the ROADMAP baseline point
    with mpmath.workdps(30):
        b1, b2, b3, c1, x, y, p = map(mpmath.mpf, args + (1.5,))

        def f(t):
            return (t ** (b1 - 1) * (1 - t) ** (c1 - b1 - 1) * (1 - x * t) ** -b2
                    * (1 - y * t) ** -b3 * mpmath.exp(-p / (t * (1 - t))))

        ref = float(mpmath.quad(f, [0, 0.5, 1]) / mpmath.beta(b1, c1 - b1))
    value = chaudhry_f1_integral(AppellParams(*args), 1.5)
    assert value.imag == 0.0 and abs(value.real - ref) <= 2e-15 * ref


def test_chaudhry_f1_integral_refusals():
    with pytest.raises(DomainError, match="Re\\(p\\) > 0"):
        chaudhry_f1_integral(AppellParams(1.0, 1.0, 1.0, 2.0, 0.1, 0.1), -0.5)
    with pytest.raises(DomainError, match="Euler integral"):
        chaudhry_f1_integral(AppellParams(3.0, 1.0, 1.0, 2.0, 0.1, 0.1), 1.0)  # c1 < b1


def test_euler_beta_is_taken_once_per_b1_c1(monkeypatch):
    calls = []
    monkeypatch.setattr(hyper, "beta", lambda a, b: calls.append((a, b)) or beta(a, b))
    first = euler_beta(1.3, 2.9)
    assert euler_beta(1.3, 2.9) == first and euler_integral_beta(1.3, 2.9) == first
    assert calls == [(1.3, 2.9 - 1.3)]


@pytest.mark.parametrize("name, bad", [("x", math.nan), ("b2", math.inf), ("c1", math.inf),
                                       ("y", complex(math.nan, 1.0))])
def test_appell_params_refuse_a_non_finite_value(name, bad):
    # at the baseline point, a NaN x ran the series 4000 diagonals to a
    # ConvergenceError, an infinite b2 ended the integral route in a numpy
    # RuntimeWarning and an infinite c1 in an OverflowError from beta
    values = dict(b1=1.2, b2=0.5, b3=-0.7, c1=3.1, x=0.4, y=-0.3)
    with pytest.raises(DomainError, match=f"got {name} = "):
        AppellParams(**{**values, name: bad})


def test_diagonal_coefficients_collapse():
    b2, b3, x, y = 0.8, -1.1, 0.35, 0.55
    ck = f1_diagonal_coefficients(b2, b3, x, y, 160)
    diag = np.empty(161, dtype=complex)
    diag[0] = 1.0
    for k in range(1, 161):
        diag[k] = diag[k - 1] * (1.3 + k - 1) / (2.9 + k - 1)
    collapsed = complex((ck * diag).sum())
    direct = appell_f1_series(AppellParams(1.3, b2, b3, 2.9, x, y))
    assert abs(collapsed - direct) <= 1e-12 * abs(direct)


def test_diagonal_coefficients_with_one_variable_switched_off():
    b3, y = complex(-1.3), complex(0.62)
    ck = f1_diagonal_coefficients(0.0, b3, 0.45, y, 60)
    ladder = [1.0 + 0.0j]
    for n in range(60):
        ladder.append(ladder[-1] * (b3 + n) * y / (n + 1))
    assert ck.tolist() == ladder


def test_block_double_sum_rows_equal_their_scalar_sums():
    # rows of very different (b1, c1) stop at different diagonals; each
    # must stop where the scalar sum of its own diagonal values stops, and
    # agree with that sum up to numpy's vector complex multiply and abs,
    # which may round an ulp apart from one complex's
    b1 = np.array([0.3, 1.7 + 2.0j, -0.45 + 0.5j, 4.0 - 9.0j, 2.5 + 60.0j])
    c1 = np.array([2.2, 3.1 - 1.0j, 0.8 + 6.0j, 5.5 + 18.0j, 3.0 + 120.0j])
    b2, b3, x, y = 0.8 - 0.3j, -1.4, 0.55, -0.62 + 0.1j
    diag = pochhammer_diagonal(b1, c1)
    rows = block_double_sum(diag, b2, b3, x, y, 1e-14)
    stops = []
    for i in range(b1.size):
        seen = []

        def one(k, i=i, seen=seen):
            seen.append(k)
            return diag(k)[i]

        scalar = block_double_sum(one, b2, b3, x, y, 1e-14)
        assert abs(rows[i] - scalar) <= 4 * 2.0**-52 * abs(scalar)
        stops.append(seen[-1])
    assert len(set(stops)) == len(stops)

    def scaled_from(first):
        # each row's diagonal values from diagonal first[i] on, times 1e100
        return lambda k: np.where(k >= first, 1e100, 1.0) * diag(k)

    # a row stops at diagonal s when its sum ignores the diagonals past s
    # but not the diagonal s itself
    stops = np.array(stops)
    past = block_double_sum(scaled_from(stops + 1), b2, b3, x, y, 1e-14)
    assert past.tolist() == rows.tolist()
    at = block_double_sum(scaled_from(stops), b2, b3, x, y, 1e-14)
    assert (at != rows).all()


def test_block_double_sum_rows_raise_when_a_row_runs_out():
    # at x = 0.9999 the terms fall like 0.9999^k: 1e-14 needs ~3e5 diagonals
    diag = pochhammer_diagonal(np.array([0.3, 0.3]), np.array([2.2, 2.2]))
    with pytest.raises(ConvergenceError, match=f"within {MAX_TERMS} diagonals"):
        block_double_sum(diag, 1.0, 1.0, 0.9999, 0.0, 1e-14)



# Row sums take the diagonals a block of _FIRST_DIAGONALS at a time.  With
# b2 = 1, b3 = 0, x = 1 every c_k is exactly 1, so a designed diagonal's
# values are the terms
_BLOCK = hyper._FIRST_DIAGONALS
_UNIT_COEFFICIENTS = (1.0, 0.0, 1.0, 0.0)


def _stepped(small, value=1.0):
    """A row's terms: ``value`` at every diagonal, 1e-15 k times it at the
    diagonals k in ``small``.  Such a term is below 1e-14 of a sum of the
    k - 3 or more large terms before it, yet moves its last bits, so a row
    that stops one diagonal early or late has other bits."""
    return lambda k: value * (1e-15 * k if k in small else 1.0)


def _row_sums_and_their_stops(rows):
    """The array sum of the designed ``rows`` and the last diagonal it
    read; and each row's scalar sum with the diagonal that sum stopped at."""
    read = []

    def diag(k):
        read.append(k)
        return np.array([complex(row(k)) for row in rows])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        total = block_double_sum(diag, *_UNIT_COEFFICIENTS, 1e-14)
    scalar = []
    for row in rows:
        seen = []

        def one(k, row=row, seen=seen):
            seen.append(k)
            return row(k)

        scalar.append((block_double_sum(one, *_UNIT_COEFFICIENTS, 1e-14), seen[-1]))
    return total, read[-1], scalar


@pytest.mark.parametrize("rows, stops", [
    # a run of three small terms straddling the first block boundary
    ([_stepped({_BLOCK - 2, _BLOCK - 1, _BLOCK})], [_BLOCK]),
    # a run broken at the boundary by one large term, then a new run
    ([_stepped({_BLOCK - 2, _BLOCK - 1, _BLOCK + 1, _BLOCK + 2, _BLOCK + 3}, 0.6 - 0.8j)],
     [_BLOCK + 3]),
    # rows stopping in the first, second and third block
    ([_stepped({3, 4, 5}), _stepped({_BLOCK + 6, _BLOCK + 7, _BLOCK + 8}, 2.5j),
      _stepped({2 * _BLOCK + 1, 2 * _BLOCK + 2, 2 * _BLOCK + 3}, -1.5 + 0.5j)],
     [5, _BLOCK + 8, 2 * _BLOCK + 3]),
    # terminating rows: exact zeros from diagonal 3 on, and all zeros
    ([lambda k: 1.0 if k < 3 else 0.0, lambda k: 0.0, _stepped({40, 41, 42})], [5, 2, 42]),
], ids=["straddle", "broken", "blocks", "zeros"])
def test_blocked_row_sums_equal_their_scalar_sums(rows, stops):
    # each row stops where its scalar sum does and has its bits; the array
    # sum reads to the end of the block in which its last row stops
    total, last_read, scalar = _row_sums_and_their_stops(rows)
    assert [stop for _, stop in scalar] == stops
    assert total.tolist() == [value for value, _ in scalar]
    assert last_read == (max(stops) // _BLOCK + 1) * _BLOCK - 1


def test_blocked_row_sums_raise_when_a_row_runs_out():
    # a row of ones never stops: every block up to MAX_TERMS is read, and
    # the row that stopped in the first block does not end the sum
    read = []

    def diag(k):
        read.append(k)
        return np.array([1.0 if k < 1 else 0.0, 1.0], dtype=complex)

    with warnings.catch_warnings(), pytest.raises(ConvergenceError, match="diagonals"):
        warnings.simplefilter("error")
        block_double_sum(diag, *_UNIT_COEFFICIENTS, 1e-14)
    assert read == list(range(MAX_TERMS))


def test_euler_beta_is_beta_and_raises_where_it_vanishes():
    for b1, c1 in ((1.2, 3.1), (complex(0.7, 0.4), 2.9), (150.0, 300.0)):
        assert euler_beta(b1, c1) == beta(b1, c1 - b1)
    # B(560, 560) = 1.05e-338 by mpmath underflows to 0, so 1/B overflows
    assert beta(560.0, 560.0) == 0
    with pytest.raises(OverflowError, match=r"B\(b1, c1-b1\) underflows to 0"):
        euler_beta(560.0, 1120.0)
    for b1, c1 in ((0.0, 2.0), (1.5, 1.5), (-1.0, 0.5)):
        with pytest.raises(PoleError, match="beta pole"):
            euler_beta(b1, c1)


def test_euler_integral_beta_refuses_where_the_integral_cancels():
    # |B(b1, c1-b1)| over B(Re b1, Re(c1-b1)) is 3.3e-4 at Im b1 = 10, 9.8e-15
    # at Im b1 = 40 and 5e-138 at Im b1 = 400; left of Re b1 = 0 there is
    # no Euler integral to cancel
    for b1, c1 in ((1.2, 3.1), (150.0, 300.0), (complex(1.3, 10.0), complex(2.5, 7.5)),
                   (complex(-0.5, 40.0), complex(2.5, 30.0))):
        assert euler_integral_beta(b1, c1) == euler_beta(b1, c1)
    for b1, c1 in ((complex(1.3, 40.0), complex(2.5, 30.0)),
                   (complex(1.3, 400.0), complex(2.5, 300.0))):
        euler_beta(b1, c1)
        with pytest.raises(ConvergenceError, match="cancels below double precision"):
            euler_integral_beta(b1, c1)
    with pytest.raises(OverflowError, match=r"B\(b1, c1-b1\) underflows to 0"):
        euler_integral_beta(560.0, 1120.0)


@pytest.mark.parametrize("b1, c1, x, y, match", [
    (0.0, 2.0, 0.3, 0.4, "Re"),
    (-0.5, 2.0, 0.3, 0.4, "Re"),
    (1.5, 1.5, 0.3, 0.4, "Re"),
    (complex(1.0, 5.0), complex(0.5, 5.0), 0.3, 0.4, "Re"),
    (1.0, 2.0, 1.0, 0.4, "x on the branch cut"),
    (1.0, 2.0, complex(7.5, -0.0), 0.4, "x on the branch cut"),
    (1.0, 2.0, 0.3, 1.0, "y on the branch cut"),
])
def test_check_euler_domain_rejects(b1, c1, x, y, match):
    with pytest.raises(DomainError, match=match):
        check_euler_domain(complex(b1), complex(c1), complex(x), complex(y))


def test_check_euler_domain_accepts_off_the_cut():
    for x in (0.999, -40.0, complex(3.0, 1e-9), complex(1.0, -2.0)):
        check_euler_domain(0.1 + 0j, 0.2 + 0j, complex(x), 0j)


# mpmath appellf1 at 30 digits; x and y inside and outside the unit disc
APPELL_REAL_REFS = {
    (1.2, 0.5, -0.7, 3.1, 0.4, -0.3): 1.18340778034553387114518648649,
    (0.7, -1.4, 2.2, 2.9, -0.55, 0.35): 1.53839018483078524800269493426,
    (2.0, 1.5, 0.5, 2.5, -3.0, 0.9): 0.350000776188529795241688800526,
    (0.4, 2.5, -1.5, 1.3, 0.95, -2.0): 173.665846724977805473372319479,
}


def _integral_and_integrand(monkeypatch, params):
    """appell_f1_integral(params), and its integrand at three nodes."""
    seen = []
    quad = hyper.integrate_unit_interval
    monkeypatch.setattr(hyper, "integrate_unit_interval",
                        lambda f, tol: seen.append(f) or quad(f, tol))
    value = appell_f1_integral(params)
    t = np.array([0.1, 0.5, 0.9])
    return value, seen[0](t, 1.0 - t)


def test_appell_integral_is_real_arithmetic_at_real_points(monkeypatch):
    for args, ref in APPELL_REAL_REFS.items():
        value, integrand = _integral_and_integrand(monkeypatch, AppellParams(*args))
        assert integrand.dtype == np.float64, args
        assert abs(value - ref) <= 1e-14 * abs(ref), args
        assert value.imag == 0.0


@pytest.mark.parametrize("index", range(6))
def test_appell_integral_is_complex_when_one_parameter_is(monkeypatch, index):
    args = [1.2, 0.5, -0.7, 3.1, 0.4, -0.3]
    args[index] += 0.25j
    p = AppellParams(*args)
    value, integrand = _integral_and_integrand(monkeypatch, p)
    assert integrand.dtype == np.complex128
    if abs(p.x) < 1.0 and abs(p.y) < 1.0:
        series = appell_f1_series(p)
        assert abs(value - series) <= 1e-13 * abs(series)
