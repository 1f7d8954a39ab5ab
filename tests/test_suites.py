from extappell.suites import _guarded


def test_any_exception_becomes_a_failing_record():
    rec = _guarded(lambda: 1 / 0)
    assert rec.status == "fail"
    assert "ZeroDivisionError" in rec.method
