import importlib
import re

import pytest

from extappell import suites
from extappell.errors import DegenerateIdentity, DomainError
from extappell.suites import SUITES, _checks, _compare, _guarded, run_suite

f1pv_module = importlib.import_module("extappell.f1pv")  # ``extappell.f1pv`` is the function

TOL = 1e-12  # below some mellin and diff errors, so re-judging turns those to fail


def test_any_exception_becomes_a_failing_record():
    rec = _guarded("routes", "trial3", {"p": 1.5}, lambda: 1 / 0)
    assert rec.status == "fail"
    assert "ZeroDivisionError" in rec.method
    assert (rec.suite, rec.case_id, rec.params) == ("routes", "trial3", {"p": 1.5})


def test_error_record_names_the_check_that_raised(monkeypatch):
    def broken(inp):
        raise ArithmeticError("broken transform")

    monkeypatch.setattr(suites, "f1pv_transform", broken)
    records = run_suite("transform", 2, 5)
    assert [(r.suite, r.case_id, r.status) for r in records] == [
        ("transform", "trial0", "fail"), ("transform", "trial1", "fail"),
    ]
    assert all(r.method == "error: ArithmeticError: broken transform" for r in records)
    assert {"b1", "c1", "p", "nu"} <= set(records[0].params)


@pytest.mark.parametrize("suite, trials, match", [
    ("nosuch", 1, "unknown suite 'nosuch'"),
    ("routes", 0, "trials must be >= 1"),
])
def test_run_suite_refuses_an_unknown_suite_or_no_trials(suite, trials, match):
    with pytest.raises(DomainError, match=match):
        run_suite(suite, trials, 1)


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan")])
def test_run_suite_refuses_a_tol_that_is_not_positive(tol):
    # a tol of 0 fell back to every check's default, and a negative one
    # failed every check
    with pytest.raises(DomainError, match="tol must be positive"):
        run_suite("routes", 1, 1, tol)


def test_a_degenerate_side_files_the_check_as_skipped():
    def degenerate():
        raise DegenerateIdentity("cos(pi nu)=0 degeneracy")

    for lhs, rhs in ((degenerate, lambda: 1.0), (lambda: 1.0, degenerate)):
        case_id, params, check = _compare("meijer", "c", {"nu": 0.5}, lhs, rhs, 1e-7, "m")
        rec = _guarded("meijer", case_id, params, check)
        assert (rec.status, rec.skip_reason) == ("skipped", "cos(pi nu)=0 degeneracy")
        assert (rec.tol, rec.method, rec.params) == (1e-7, "m", {"nu": 0.5})


def test_a_meijer_trial_evaluates_f_once(monkeypatch):
    original, calls = suites.f1pv_integral, []

    def counted(inp):
        calls.append(inp)
        return original(inp)

    monkeypatch.setattr(suites, "f1pv_integral", counted)
    records = run_suite("meijer", 2, 3)
    theorem1 = [r for r in records if r.method == "g-to-k-rewrite"]
    assert len(theorem1) == 28 and {r.status for r in theorem1} <= {"pass", "skipped"}
    assert len(calls) == 2 and calls[0] != calls[1]


# the distinct (b1, c1, p, nu) of a trial's F_{1,p,nu} families: a diff
# trial's 15 series calls take (b1+j, c1+j) for j = 0, 1, 2, a recursion
# trial's 6 take j = 0, 1, and a reduction trial's 4 series calls take two
# (nu and nu = 0) beside its 2 integrals' own families
@pytest.mark.parametrize("suite, per_trial", [("diff", 3), ("recursion", 2), ("reduction", 4)])
def test_series_calls_share_a_family_per_b1_c1_p_nu(monkeypatch, suite, per_trial):
    original, built = f1pv_module.ExtendedBetaFamily, []

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(f1pv_module, "ExtendedBetaFamily", counted)
    records = run_suite(suite, 2, 3)
    assert {r.status for r in records} == {"pass"}
    assert len(built) == 2 * per_trial


@pytest.mark.parametrize("suite", ["diff", "recursion", "reduction"])
def test_shared_families_leave_the_records_unchanged(suite):
    """The records go through the moments' matrix-vector product, whose
    summation order the BLAS picks per CPU: their bits hold per machine,
    and this compares two runs on one."""
    cold = run_suite(suite, 2, 1)  # the caches start empty
    warm = run_suite(suite, 2, 1)
    assert [repr(r) for r in warm] == [repr(r) for r in cold]


@pytest.mark.parametrize("suite", SUITES)
def test_case_ids_are_unique_and_in_trial_order(suite):
    ids = [case_id for case_id, _params, _check in _checks(suite, 2, 3, None)]
    assert len(set(ids)) == len(ids)
    trials = [int(re.match(r"trial(\d+)", case_id).group(1)) for case_id in ids
              if case_id.startswith("trial")]
    assert trials == sorted(trials) and set(trials) == {0, 1}
    # only the meijer suite's fixed probes stand outside the trials, ahead of them
    assert ids[: len(ids) - len(trials)] == (
        ["probe-eq1.8", "probe-eq1.10", "probe-eq1.7"] if suite == "meijer" else []
    )


@pytest.mark.parametrize("suite", SUITES)
def test_tol_override_rejudges_every_compare_record(suite):
    plain = run_suite(suite, 2, 3)
    judged = run_suite(suite, 2, 3, tol=TOL)
    # every record carries the runner's case id, so a report's ids are unique
    ids = [case_id for case_id, _params, _check in _checks(suite, 2, 3, None)]
    assert [rec.case_id for rec in plain] == ids
    # and the runner's suite name: the meijer suite's Theorem-1 checks too
    assert {rec.suite for rec in plain + judged} == {suite}
    if suite == "meijer":
        assert len(plain) == 41
    assert len(plain) == len(judged)
    for before, rec in zip(plain, judged):
        assert not rec.method.startswith("error")
        assert (rec.case_id, rec.lhs, rec.rhs) == (before.case_id, before.lhs, before.rhs)
        if suite == "bound":
            assert rec.tol == 0.0 and rec.status == before.status
        elif before.status == "skipped":
            assert rec.status == "skipped"
        else:
            assert rec.tol == TOL
            assert (rec.status == "pass") == (rec.rel_err <= TOL)


def test_a_bessel_kernel_defect_moves_only_the_series_side_of_f_nu0(monkeypatch):
    """The nu = 0 check compares the series route, on the Bessel kernel
    K_{1/2}, with the Euler integral on Chaudhry's kernel, so a kernel
    planted off by 1 + 1e-7 moves its left side alone.  Records judge
    abs_err / (1 + max |side|), so a record fails once |F| passes about
    0.01; below that a 1e-7 shift stays under the tolerance."""
    healthy = [r for r in run_suite("reduction", 20, 1) if r.case_id.endswith("-f-nu0")]
    kernel = importlib.import_module("extappell.extbeta").ExtendedBetaKernel
    scaled = kernel.scaled_values
    monkeypatch.setattr(kernel, "scaled_values", lambda self, w: scaled(self, w) * (1 + 1e-7))
    f1pv_module._series_diagonal.cache_clear()
    planted = [r for r in run_suite("reduction", 20, 1) if r.case_id.endswith("-f-nu0")]
    assert len(planted) == 20 and {r.status for r in healthy} == {"pass"}
    for before, rec in zip(healthy, planted):
        assert rec.rhs == before.rhs
        assert abs(rec.lhs / before.lhs - (1 + 1e-7)) <= 1e-9
        if abs(rec.lhs) >= 0.02:
            assert rec.status == "fail"
    assert any(rec.status == "fail" for rec in planted)


def test_a_meijer_trial_takes_the_normaliser_once(monkeypatch):
    scalar = importlib.import_module("extappell.scalar")
    original, taken = scalar.beta, []

    def counted(a, b):
        taken.append((complex(a), complex(b)))
        return original(a, b)

    for name in ("hyper", "f1pv", "meijer", "mellin", "suites"):
        module = importlib.import_module(f"extappell.{name}")
        if getattr(module, "beta", None) is original:
            monkeypatch.setattr(module, "beta", counted)
    records = run_suite("meijer", 2, 3)
    points = {(r.params["b1"], r.params["c1"]) for r in records if "b1" in r.params}
    assert len(points) == 2
    for b1, c1 in points:
        assert taken.count((complex(b1), complex(c1 - b1))) == 1


def test_a_mellin_trial_builds_one_forward_batch_family(monkeypatch):
    """The three forward transforms of a trial share one point, and F(p)
    does not depend on s: they take one batch family between them, and
    their values are those of three fresh transforms."""
    mellin = importlib.import_module("extappell.mellin")
    original, built = mellin.ExtendedBetaFamily, []

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(mellin, "ExtendedBetaFamily", counted)
    records = run_suite("mellin", 2, 1)
    assert len(built) == 2
    rng = suites._rng("mellin", 1)  # a mellin trial draws one point
    for i, inp in enumerate([suites.sample_input(rng) for _ in range(2)]):
        for rec in [r for r in records if r.case_id.startswith(f"trial{i}-s=")]:
            mellin._radial_factors.cache_clear()
            fresh = mellin.mellin_forward_numeric(inp.appell, inp.ext.nu, rec.params["s_re"])
            assert rec.lhs == fresh
