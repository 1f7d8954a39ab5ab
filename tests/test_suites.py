import re

import pytest

from extappell import suites
from extappell.errors import DegenerateIdentity
from extappell.suites import SUITES, _checks, _compare, _guarded, run_suite

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
