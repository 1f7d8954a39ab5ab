import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from extappell.cli import _EVAL, _keys, run
from extappell.meijer import G_SHAPES
from extappell.report import VerificationRecord, make_record, record_to_dict, write_report


def _cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "extappell.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc


def test_eval_f1pv_origin(tmp_path):
    proc = _cli("eval", "f1pv", "b1=1", "b2=1", "b3=1", "c1=3",
                "x=0", "y=0", "p=1", "nu=0")
    assert proc.returncode == 0
    re_part, im_part = map(float, proc.stdout.split())
    # B_{1,0}(1,2)/B(1,2) via the library
    from extappell.extbeta import ExtensionParams, extended_beta
    from extappell.scalar import beta

    ref = (extended_beta(1.0, 2.0, ExtensionParams(1.0, 0.0)) / beta(1.0, 2.0)).real
    assert abs(re_part - ref) <= 1e-10 * abs(ref)
    assert im_part == 0.0
    assert proc.stderr.strip()  # one-line method trace


def test_eval_bessel():
    proc = _cli("eval", "bessel_k", "nu=0.5", "z=1")
    assert proc.returncode == 0
    val = float(proc.stdout.split()[0])
    assert abs(val - math.sqrt(math.pi / 2.0) * math.exp(-1.0)) < 1e-14


def test_eval_domain_error_exit_2():
    proc = _cli("eval", "f1pv", "b1=1", "b2=1", "b3=1", "c1=1",
                "x=0.1", "y=0", "p=1", "nu=0")
    assert proc.returncode == 2
    assert "pole" in proc.stderr.lower()


def test_eval_missing_params_exit_2():
    proc = _cli("eval", "f1pv", "b1=1")
    assert proc.returncode == 2
    assert "missing" in proc.stderr


def test_unknown_flag_exit_64():
    proc = _cli("--definitely-not-a-flag")
    assert proc.returncode == 64
    assert "usage" in proc.stderr.lower()


def test_unknown_subcommand_flag_exit_64():
    proc = _cli("verify", "routes", "--bogus=3")
    assert proc.returncode == 64


def test_verify_exit_codes_and_summary():
    proc = _cli("verify", "routes", "--trials", "3", "--seed", "9")
    assert proc.returncode == 0
    assert proc.stdout.startswith("suite=routes pass=3/3")


def test_verify_report_deterministic(tmp_path):
    r1 = tmp_path / "a.json"
    r2 = tmp_path / "b.json"
    for path in (r1, r2):
        code = run(["verify", "recursion", "--trials", "2", "--seed", "4",
                    "--report", str(path)])
        assert code == 0
    assert r1.read_bytes() == r2.read_bytes()
    records = json.loads(r1.read_text())
    assert isinstance(records, list) and records
    for rec in records:
        assert set(rec) == {
            "suite", "case_id", "params", "lhs", "rhs", "abs_err", "rel_err",
            "tol", "status", "skip_reason", "elapsed_ms", "method",
        }
        if rec["status"] != "skipped":
            expect = rec["abs_err"] / (
                1.0 + max(abs(complex(rec["lhs"]["re"], rec["lhs"]["im"])),
                          abs(complex(rec["rhs"]["re"], rec["rhs"]["im"])))
            )
            assert abs(rec["rel_err"] - expect) <= 1e-12 * (1.0 + expect)
            assert (rec["status"] == "pass") == (rec["rel_err"] <= rec["tol"])


def test_verify_meijer_reports_skips(tmp_path):
    path = tmp_path / "m.json"
    code = run(["verify", "meijer", "--trials", "1", "--seed", "3",
                "--report", str(path)])
    assert code == 0
    records = json.loads(path.read_text())
    skipped = [r for r in records if r["status"] == "skipped"]
    assert any("cos(pi nu)" in (r["skip_reason"] or "") for r in skipped)


def test_verify_trials_validation():
    # a bad option value is a usage error, like --seed -1 and --tol 0
    for trials in ("0", "-3", "1.5"):
        assert run(["verify", "routes", "--trials", trials]) == 64


def test_golden_roundtrip(tmp_path):
    out = tmp_path / "golden.csv"
    code = run(["golden", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert "date" not in lines[0].replace("date-free", "")
    rows = lines[1:]
    assert len(rows) >= 50

    from extappell.extbeta import ExtensionParams
    from extappell.f1pv import ExtendedAppellInput, f1pv_series
    from extappell.hyper import AppellParams

    for row in rows[::7]:  # spot-check a deterministic subset
        cells = row.split(",")
        p, nu, b1, b2, b3, c1, x, y, vre, vim = map(float, cells[:10])
        assert cells[10]  # oracle tag present
        inp = ExtendedAppellInput(AppellParams(b1, b2, b3, c1, x, y),
                                  ExtensionParams(p, nu))
        val = f1pv_series(inp)
        assert abs(val - complex(vre, vim)) <= 1e-8 * (1.0 + abs(val))


def test_golden_bad_path_exit_2(tmp_path):
    assert run(["golden", str(tmp_path / "nope" / "golden.csv")]) == 2


def test_golden_checks_path_before_oracle_work(tmp_path, monkeypatch):
    import extappell.oracles

    def oracle(*args, **kwargs):
        raise AssertionError("oracle ran before the output path was checked")

    monkeypatch.setattr(extappell.oracles, "bruteforce_f1pv", oracle)
    assert run(["golden", str(tmp_path / "nope" / "golden.csv")]) == 2


def test_report_writer_rejects_bad_path(tmp_path):
    rec = make_record("s", "c", {}, 1.0, 1.0, 1e-8, "m")
    with pytest.raises(Exception):
        write_report([rec], str(tmp_path / "nope" / "r.json"))


def test_record_semantics():
    rec = make_record("s", "c", {"a": 1.0}, 2.0, 2.0 + 1e-12, 1e-8, "m")
    assert rec.status == "pass"
    assert abs(rec.rel_err - 1e-12 / 3.0) < 1e-15
    rec = make_record("s", "c", {}, 1.0, 2.0, 1e-8, "m")
    assert rec.status == "fail"
    rec = make_record("s", "c", {}, 0, 0, 1e-8, "m", skip_reason="why")
    assert rec.status == "skipped" and rec.skip_reason == "why"
    d = record_to_dict(
        VerificationRecord("s", "c", {}, 1j, 0j, math.inf, math.nan, 0.0,
                           "fail", None, "m")
    )
    assert d["elapsed_ms"] == 0.0  # no time enters a report
    assert d["abs_err"] == 1e308 and d["rel_err"] == -1.0  # JSON-safe


_F1PV = ("eval", "f1pv", "b1=1", "b2=1", "b3=1", "c1=3", "x=0.1", "y=0", "p=1")
_MELLIN = ("b1=1", "b2=1", "b3=1", "c1=3", "x=0.1", "y=0", "nu=0.5")


@pytest.mark.parametrize("argv, code", [
    (["eval", "mellin_fwd", *_MELLIN, "s=1e300"], 3),
    (["eval", "mellin_fwd", *_MELLIN, "s=1+1e300j"], 3),
    # Gamma(c1+2s) underflows, and |s| is past the Beta's log-ratio form
    (["eval", "mellin_fwd", *_MELLIN, "s=3+600j"], 3),
    (["eval", "mellin_inv", *_MELLIN, "p=1", "c=1e300"], 3),
    (["eval", "meijer_g", "case=G2112", "a1=0.5", "b1=0.3", "b2=-0.3", "z=1e300"], 3),
    # integer b spacing collides two pole families, and no K identity matches
    (["eval", "meijer_g", "case=G4004", "b1=1", "b2=2", "b3=3", "b4=4", "z=0.5"], 3),
    (["verify", "routes", "--trials", "1", "--seed", "-1"], 64),
    (["eval", "bessel_k", "nu=1.5", "z=1e-320"], 3),  # K_{3/2} ~ z^-1.5 overflows
    # the K route's factor z^-mu overflows; mpmath gives 1.0e-300 and 3.3234e-300
    (["eval", "meijer_g", "case=G2002", "b1=2", "b2=1", "z=1e-300"], 3),
    (["eval", "meijer_g", "case=G4004", "b1=1", "b2=2", "b3=3", "b4=4.5", "z=1e-300"], 3),
    # K_nu and the G values underflow to 0: mpmath gives 1.6e-349 and 2.8e-386
    (["eval", "bessel_k", "nu=0.3", "z=800"], 3),
    (["eval", "meijer_g", "case=G2002", "b1=1", "b2=0.5", "z=2e5"], 3),
    (["eval", "meijer_g", "case=G4004", "b1=0.1", "b2=0.6", "b3=-0.1", "b4=0.4", "z=1e11"], 3),
], ids=["mellin_fwd-s", "mellin_fwd-im-s", "mellin_fwd-far-im-s", "mellin_inv-c", "meijer_g-z",
         "meijer_g-degenerate", "seed", "bessel-z", "meijer_g-tiny-z", "meijer_g-tiny-z-no-match",
         "bessel-underflow", "meijer_g-underflow", "meijer_g-g4004-underflow"])
def test_overflow_and_bad_seed_fail_in_one_line(argv, code):
    proc = _cli(*argv)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, ref, tol", [
    # 2 sqrt(2) K_1(2 sqrt(2)), by mpmath meijerg at 25 digits
    (["meijer_g", "case=G2002", "b1=1", "b2=0", "z=2"], 0.1396674740152931428575196, 1e-13),
    # the corrected closed form at s = 100, where Gamma(b1+s+c1-b1+s) overflows
    (["mellin_fwd", *_MELLIN, "s=100"], 5.4166745016420498935e94, 1e-13),
    # Gamma(c1+2s) underflows; the Beta holds 2.4e-14 here, but each Gamma of
    # the pair, at Im = 150, is about 1e-13 off, and M is 2.05e-13 off
    (["mellin_fwd", *_MELLIN, "s=3+300j"],
     5.801860113246656517942207e-202 - 4.352581293706428071609049e-202j, 3e-13),
    # 1/Gamma(c1+2s) is subnormal, and the complex quotient 1/Gamma loses it;
    # mpmath at 40 digits
    (["mellin_fwd", "b1=0.8", "b2=0.5", "b3=0.5", "c1=1.6", "x=0.1", "y=0.1", "nu=0.5",
      "s=85-0.25j"], 1.412447771668406037e74 - 1.345536056838734725e74j, 1e-12),
], ids=["meijer_g-degenerate", "mellin_fwd-large-s", "mellin_fwd-far-im-s",
        "mellin_fwd-subnormal-reciprocal"])
def test_eval_past_a_gamma_pole_or_overflow(capsys, argv, ref, tol):
    assert run(["eval", *argv]) == 0
    captured = capsys.readouterr()
    re_part, im_part = map(float, captured.out.split())
    assert abs(complex(re_part, im_part) - ref) <= tol * abs(ref)
    if isinstance(ref, float):  # a real value has an exact 0 imaginary part
        assert im_part == 0.0
    if argv[0] == "meijer_g":  # the trace names both routes
        assert "slater-residue" in captured.err and "Bessel-K" in captured.err


def test_f1pv_tol_is_the_quadrature_tolerance(capsys):
    # the series stops its diagonal sum at tol/100, so --tol 1e-8 lands
    # within 1e-8 of the default-tolerance value
    point = ("eval", "f1pv", "b1=1.2", "b2=.5", "b3=-.7", "c1=3.1", "x=.85", "y=-.3",
             "p=0.5", "nu=1")
    values = []
    for extra in ((), ("--tol", "1e-8")):
        assert run([*point, *extra]) == 0
        captured = capsys.readouterr()
        values.append(complex(*map(float, captured.out.split())))
        assert "route=series" in captured.err
    assert "quadrature tol=1e-08" in captured.err
    assert abs(values[1] - values[0]) <= 1e-8 * abs(values[0])


# one point per eval function; f1's x = 0.95 takes its integral route
_POINTS = {
    "beta_pv": ["x=2", "y=3", "p=1", "nu=0.5"],
    "chaudhry_beta": ["x=2", "y=3", "p=1"],
    "f1": [*_MELLIN[:4], "x=0.95", "y=0"],
    "f1pv": [*_F1PV[2:], "nu=0.5"],
    "bessel_k": ["nu=0.5", "z=1"],
    "meijer_g": ["case=G2002", "b1=1", "b2=0", "z=2"],
    "mellin_fwd": [*_MELLIN, "s=1"],
    "mellin_inv": [*_MELLIN, "p=1"],
}
# the (function, option) pairs that something reads
_READ = {("beta_pv", "--tol"), ("chaudhry_beta", "--tol"), ("f1", "--tol"), ("f1pv", "--tol"),
         ("mellin_inv", "--tol"), ("f1", "--route"), ("f1pv", "--route")}


@pytest.mark.parametrize("option, value", [("--tol", "1e-6"), ("--route", "auto")],
                         ids=["tol", "route"])
@pytest.mark.parametrize("fn", list(_EVAL))
def test_eval_refuses_an_option_nothing_reads(capsys, fn, option, value):
    assert run(["eval", fn, *_POINTS[fn], option, value]) == (0 if (fn, option) in _READ else 64)
    captured = capsys.readouterr()
    if (fn, option) not in _READ:
        assert captured.out == ""
        assert captured.err == f"usage error: extappell: eval {fn} reads no {option}\n"


@pytest.mark.parametrize("route", [[], ["--route", "series"]], ids=["auto", "series"])
def test_f1_series_reads_no_tol(capsys, route):
    # the classical series stops at the fixed F1_TOL
    assert run(["eval", "f1", *_MELLIN[:6], *route, "--tol", "1e-8"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: extappell: eval f1 reads no --tol on its series route\n"


def test_meijer_g_case_message_lists_the_shapes(capsys):
    assert run(["eval", "meijer_g", "b1=0.3", "b2=-0.2", "z=1.5"]) == 2
    assert "case=G2012|G2112|G2002|G4004" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_nonpositive_tol_exit_64(tol):
    assert run([*_F1PV, "nu=0.5", "--tol", tol]) == 64
    assert run(["verify", "routes", "--trials", "1", "--tol", tol]) == 64


def test_complex_or_word_order_exit_2(capsys):
    # the library's refusal (``bessel.check_extension_order``) names the key
    assert run([*_F1PV, "nu=0.5+1j"]) == 2
    assert "got nu = (0.5+1j)" in capsys.readouterr().err
    assert run([*_F1PV, "nu=abc"]) == 2
    assert run(["eval", "mellin_inv", *_F1PV[2:], "nu=0.5", "c=1.5+2j"]) == 2


@pytest.mark.parametrize("bad", ["x=nan", "x=-inf", "y=-inf", "b1=nan", "b2=nan",
                                 "b3=inf", "c1=inf", "nu=inf", "p=nan+1j"])
def test_non_finite_parameter_exit_2(capsys, bad):
    key = bad.partition("=")[0]
    argv = [a for a in [*_F1PV, "nu=0.5"] if not a.startswith(key + "=")]
    assert run([*argv, bad]) == 2
    captured = capsys.readouterr()
    # refused by ``AppellParams`` or ``ExtensionParams``, which name the key
    assert captured.out == "" and f"got {key} = " in captured.err


# a valid value of every number key of ``_EVAL`` and of the meijer_g cases
_VALID = {"b1": "1.2", "b2": "0.5", "b3": "-0.7", "b4": "0.4", "c1": "3.1", "x": "0.4",
          "y": "-0.3", "p": "1.5", "nu": "0.7", "s": "1.5", "c": "1.5", "z": "1.5",
          "a1": "0.25"}
# the keys that must be real: the extension's nu, K_nu's order, and the
# Mellin inverse's p and abscissa c
_REAL_ONLY = {"beta_pv": ("nu",), "f1pv": ("nu",), "bessel_k": ("nu",),
              "mellin_fwd": ("nu",), "mellin_inv": ("nu", "p", "c")}


def _contract_points():
    """(tag, function, its point with every number key and option): one per
    ``_EVAL`` row, and one per G shape for meijer_g."""
    for fn, row in _EVAL.items():
        for case in G_SHAPES if fn == "meijer_g" else (None,):
            head = {"case": case} if case else {}
            keys = (*_keys(fn, head), *row.optional)
            yield f"{fn}-{case}" if case else fn, fn, {**head, **{k: _VALID[k] for k in keys}}


def _contract_calls():
    """Every call that the library must refuse: each number of each point
    made non-finite, and each real-only key made complex."""
    for tag, fn, point in _contract_points():
        for key in (k for k in point if k != "case"):
            for bad in ("inf", "-inf", "nan", "nan+1j"):
                yield pytest.param(fn, {**point, key: bad}, id=f"{tag}-{key}={bad}")
        for key in _REAL_ONLY.get(fn, ()):
            yield pytest.param(fn, {**point, key: f"{point[key]}+1j"}, id=f"{tag}-{key}-complex")


@pytest.mark.parametrize("fn, point", [pytest.param(fn, point, id=tag)
                                       for tag, fn, point in _contract_points()])
def test_contract_points_evaluate(capsys, fn, point):
    assert run(["eval", fn, *(f"{k}={v}" for k, v in point.items())]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("fn, point", list(_contract_calls()))
def test_library_types_refuse_every_bad_number(capsys, fn, point):
    # the CLI checks no number: each is refused by the type it flows into
    assert run(["eval", fn, *(f"{k}={v}" for k, v in point.items())]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("domain error: ")


@pytest.mark.parametrize("argv, unknown", [
    (["mellin_inv", *_F1PV[2:], "nu=0.5", "C=0.4"], "C"),
    (["beta_pv", "x=2", "y=3", "p=1", "nu=0.5", "q=7"], "q"),
    (["meijer_g", "case=G2002", "b1=0.3", "b2=-0.2", "z=1.5", "mu=7"], "mu"),
    (["meijer_g", "case=G2012", "a1=0.5", "b1=0.3", "b2=-0.3", "b3=1", "z=1.5"], "b3"),
    (["bessel_k", "nu=0.5", "z=1", "c=2"], "c"),  # c belongs to mellin_inv only
], ids=["mellin_inv-C", "beta_pv-q", "meijer_g-mu", "meijer_g-b3", "bessel_k-c"])
def test_unknown_parameter_exit_2(capsys, argv, unknown):
    assert run(["eval", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].endswith(f"unknown parameters for {argv[0]}: {unknown}")


@pytest.mark.parametrize("argv, key", [
    (["f1pv", *_F1PV[2:6], "x=0.1", "x=0.5", "y=0", "p=1", "nu=0"], "x"),
    (["meijer_g", "case=G2002", "b1=0.3", "b2=-0.2", "z=1.5", "case=G2012"], "case"),
], ids=["f1pv-x", "meijer_g-case"])
def test_repeated_parameter_exit_2(capsys, argv, key):
    assert run(["eval", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].endswith(f"repeated parameter: {key}")


_BASELINE = ("eval", "f1pv", "b1=1.2", "b2=0.5", "b3=-0.7", "c1=3.1", "x=0.4", "y=-0.3",
             "p=1.5", "nu=0.7")


def test_python_dash_m_package_runs_the_cli(capsys):
    proc = subprocess.run([sys.executable, "-m", "extappell", *_BASELINE],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0
    assert run(list(_BASELINE)) == 0
    assert proc.stdout == capsys.readouterr().out
    assert proc.stdout.split()[0] != "0"


def test_unsettled_bessel_grid_exit_3(capsys):
    cases = [
        # a large order at |arg z| = 1.3: the cosh integral cancels below
        # double precision and the grid never settles
        ("8.8", "1.3374875590+4.8177888740j", "did not settle"),
        # a large half-odd order at |arg z| = 1.5: the terminating Hankel
        # sum cancels below double precision too
        ("100.5", "5.6165+79.2112j", "cancels"),
    ]
    for nu, z, message in cases:
        assert run(["eval", "bessel_k", f"nu={nu}", f"z={z}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("nu", ["20000.5", "1e300"])
def test_huge_half_odd_order_exit_3_fast(capsys, nu):
    # orders past the terminating sum's k <= 134 take the generic route, whose
    # guard refuses a K that overflows before any grid work
    start = time.perf_counter()
    assert run(["eval", "bessel_k", f"nu={nu}", "z=1"]) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "overflows" in captured.err


def test_large_half_odd_order_underflows_to_zero(capsys):
    # K_{200.5}(1000) ~ 1e-427 is below the smallest double, so bessel_k
    # returns 0, which K_nu never is: the CLI reports the underflow, not
    # "0 0".  The scaled value is checked against mpmath in test_bessel
    from extappell.bessel import bessel_k

    assert bessel_k(200.5, 1000.0) == 0
    assert run(["eval", "bessel_k", "nu=200.5", "z=1000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "underflows" in captured.err


@pytest.mark.parametrize("argv", [
    ["beta_pv", "x=2", "y=3", "p=800", "nu=0.7"],
    ["chaudhry_beta", "x=2", "y=3", "p=800"],
    [*_F1PV[1:-1], "p=800", "nu=0.7", "--route", "series"],
    [*_F1PV[1:-1], "p=800", "nu=0.7", "--route", "integral"],
], ids=["beta_pv", "chaudhry_beta", "f1pv-series", "f1pv-integral"])
def test_kernel_integral_underflow_exit_3(capsys, argv):
    # B_{p,nu} ~ exp(-4p) is far below the smallest double at p = 800; the
    # value is never exactly 0, so printing "0 0" would be a silent wrong value
    assert run(["eval", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].endswith(f"{argv[0]} underflows double precision (evaluated to 0)")


# B(560, 560) = 1.05e-338 by mpmath underflows to 0, so 1/B(b1, c1-b1) overflows
_UNDERFLOW_B = ["b1=560", "b2=.5", "b3=.5", "c1=1120", "x=.1", "y=.1"]


@pytest.mark.parametrize("argv", [
    ["mellin_fwd", *_UNDERFLOW_B, "nu=.5", "s=1"],
    ["f1pv", *_UNDERFLOW_B, "p=1", "nu=.5"],
    ["f1pv", *_UNDERFLOW_B, "p=1", "nu=.5", "--route", "series"],
    ["f1pv", *_UNDERFLOW_B, "p=1", "nu=.5", "--route", "integral"],
    ["f1", *_UNDERFLOW_B, "--route", "integral"],
], ids=["mellin_fwd", "f1pv-auto", "f1pv-series", "f1pv-integral", "f1-integral"])
def test_underflowing_normaliser_exit_3(capsys, argv):
    assert run(["eval", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert "B(b1, c1-b1) underflows to 0" in err[0]


# |B(b1, c1-b1)| = 3.1e-138 against 0.62 for B(Re b1, Re(c1-b1)): the Euler
# integral cancels far below double precision, and divided by B came out
# 30 orders of magnitude off mpmath
_CANCELLING_B = ["b1=1.3+400j", "b2=.5", "b3=.5", "c1=2.5+300j", "x=.1", "y=.2"]


@pytest.mark.parametrize("argv", [
    ["f1pv", *_CANCELLING_B, "p=1", "nu=.7"],
    ["f1pv", *_CANCELLING_B, "p=1", "nu=.7", "--route", "series"],
    ["f1pv", *_CANCELLING_B, "p=1", "nu=.7", "--route", "integral"],
    ["f1", *_CANCELLING_B, "--route", "integral"],
], ids=["f1pv-auto", "f1pv-series", "f1pv-integral", "f1-integral"])
def test_cancelling_euler_integral_exit_3(capsys, argv):
    assert run(["eval", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert "the Euler integral cancels below double precision" in err[0]


def test_complex_parameters_short_of_cancelling(capsys):
    # |B| is 3.3e-4 of B(Re b1, Re(c1-b1)) here; 30-digit mpmath quadrature
    ref = complex(0.12262718122778673833, 0.33256446309688659644)
    args = ["b1=1.3+10j", "b2=.5", "b3=.5", "c1=2.5+7.5j", "x=.1", "y=.2", "p=1", "nu=.7"]
    for route in ("series", "integral"):
        assert run(["eval", "f1pv", *args, "--route", route]) == 0
        value = complex(*map(float, capsys.readouterr().out.split()[:2]))
        assert abs(value - ref) <= 1e-13 * abs(ref)


def test_mellin_closed_form_integrates_nothing(capsys):
    # |B(b1, c1-b1)| is 9.8e-15 of B(Re b1, Re(c1-b1)), which refuses F, but the
    # closed form is a ratio of Betas times an F1 series; 30-digit mpmath
    ref = complex(-1.6492632632483461436, -0.52824618057255039692)
    args = ["b1=1.3+40j", "b2=.5", "b3=.5", "c1=2.5+30j", "x=.1", "y=.2", "nu=.7"]
    assert run(["eval", "mellin_fwd", *args, "s=1"]) == 0
    value = complex(*map(float, capsys.readouterr().out.split()[:2]))
    assert abs(value - ref) <= 1e-13 * abs(ref)
    assert run(["eval", "f1pv", *args, "p=1"]) == 3


def test_classical_series_needs_no_normaliser(capsys):
    # mpmath appellf1(560, 0.5, 0.5, 1120, 0.1, 0.1) at 30 digits
    assert run(["eval", "f1", *_UNDERFLOW_B]) == 0
    re_part, im_part = map(float, capsys.readouterr().out.split())
    assert abs(re_part - 1.0526341801057340582) <= 1e-14 and im_part == 0.0


_TERMINATING_B2 = ["b1=1", "b2=-2", "b3=1", "c1=3", "x=1.5", "y=0.1"]


@pytest.mark.parametrize("fn, extra, ref", [
    # mpmath appellf1(1, -2, 1, 3, 1.5, 0.1) at 30 digits
    ("f1", [], 0.381007591888092694109),
    # mpmath quadrature of the Euler form at 30 digits
    ("f1pv", ["p=1.5", "nu=0.5"], 1.03439760598315800983e-4),
])
def test_auto_route_takes_the_series_where_b2_terminates(capsys, fn, extra, ref):
    # |x| = 1.5 is past the auto rule's 0.9, but b2 = -2 ends x's ladder
    assert run(["eval", fn, *_TERMINATING_B2, *extra]) == 0
    captured = capsys.readouterr()
    re_part, im_part = map(float, captured.out.split())
    assert abs(re_part - ref) <= 1e-13 * abs(ref) and im_part == 0.0
    assert "route=series" in captured.err


def test_bessel_k_takes_any_sign_of_order(capsys):
    # K_{-nu} = K_nu (DLMF 10.27.3)
    for nu in ("1.5", "-1.5"):
        assert run(["eval", "bessel_k", f"nu={nu}", "z=2"]) == 0
        assert capsys.readouterr().out == "0.17990665795209218 0\n"


@pytest.mark.parametrize("fn, last", [("mellin_fwd", "s=1.5"), ("mellin_inv", "p=1")])
def test_mellin_pair_refuses_a_negative_order(capsys, fn, last):
    assert run(["eval", fn, *_MELLIN[:6], "nu=-0.3", last]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("domain error: the extension needs nu >= 0, real and finite, "
                            "got nu = -0.3\n")
