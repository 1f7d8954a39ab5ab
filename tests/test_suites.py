from extappell.suites import _timed


def test_any_exception_becomes_a_failing_record():
    rec = _timed(lambda: 1 / 0)
    assert rec.status == "fail"
    assert "ZeroDivisionError" in rec.method
