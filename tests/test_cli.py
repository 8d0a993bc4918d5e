"""End-to-end tests of the command-line surface via main(argv)."""
import dataclasses
import gc
import json
import math
import re

import numpy as np
import pytest

from trapcube.adaptive import refine, refine_mean
from trapcube.cli import BUILTINS, main, table_rows
from trapcube.cubature import _TRACE_TOL, enclosure, s_minus, s_plus
from trapcube.oracle import brute_force_integral, ref_exp_integral
from trapcube.univariate import Interval, _romberg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_builtins_are_fully_wired():
    """Every built-in has closed forms for the line integrals along both
    axes, so no CLI path integrates a trace by Romberg, which fails when
    it runs out of refinement levels."""
    assert set(BUILTINS) == {"exp_xy", "sin_xy", "poly_x2y2", "bilinear_xy"}
    for b in BUILTINS.values():
        assert b.integrand.d22_sign in ("nonnegative", "nonpositive")
        g_x, g_y = b.integrand.exact_traces
        assert callable(g_x) and callable(g_y)
        assert callable(b.proven)
        assert isinstance(b.condition, str) and b.condition
    assert {fn_id for fn_id, b in BUILTINS.items() if b.reference} == {"exp_xy", "sin_xy"}


@pytest.mark.parametrize("fn_id", sorted(BUILTINS))
@pytest.mark.parametrize("iv", [Interval(0.0, 1.0), Interval(0.25, 1.75), Interval(1e-9, 0.5)])
def test_builtin_exact_traces_match_numeric_integration(fn_id, iv):
    """The closed-form line integrals agree with adaptive integration of
    the actual restriction, along both axes at the ends and the midpoint,
    on the default and two shifted squares.  The edges at 1e-9 freeze a
    coordinate where exp(cb) - exp(ca) and cos(ca) - cos(cb) cancel."""
    b = BUILTINS[fn_id]
    f = b.integrand.f
    g_x, g_y = b.integrand.exact_traces
    for c in (iv.a, iv.midpoint, iv.b):
        for g, trace in ((g_x, lambda t: f(c, t)), (g_y, lambda t: f(t, c))):
            numeric = _romberg(trace, iv, _TRACE_TOL)
            assert g(c, iv) == pytest.approx(numeric, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("c", [5e-324, -5e-324, 1e-310, 4e-308])
def test_exp_line_integral_at_a_subnormal_coordinate(c):
    """Where c * width is subnormal, exp(c t) rounds to 1 on the whole
    edge, so the edge integral is the width: expm1(c * width) / c would
    give 0.0 at c = 5e-324 and 0.49999999999999994 at c = 4e-308."""
    iv = Interval(c, 0.5)
    assert BUILTINS["exp_xy"].integrand.exact_traces[0](c, iv) == iv.width


@pytest.mark.parametrize("rule", ["plus", "mean"])
def test_integrate_holds_the_integral_on_a_square_with_a_subnormal_corner(capsys, rule):
    code, out, _ = run(
        capsys, "integrate", "--fn", "exp_xy", "--a", "5e-324", "--b", "0.5",
        "--rule", rule, "--tol", "1e-3", "--format", "json",
    )
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    truth = brute_force_integral(lambda x, y: np.exp(x * y), Interval(5e-324, 0.5), 6)
    assert abs(summary["final_value"] - truth) <= summary["final_bound"]


#: A call on the square [0, b]^2, and the rule and level whose value it
#: refuses there.
_OVERFLOWING_CALLS = {
    "s_minus at 4": (lambda F, iv: s_minus(F, iv, 4), "s_minus", 4),
    "s_minus at 5": (lambda F, iv: s_minus(F, iv, 5), "s_minus", 5),
    "s_plus at 4": (lambda F, iv: s_plus(F, iv, 4), "s_plus", 4),
    "s_plus at 5": (lambda F, iv: s_plus(F, iv, 5), "s_plus", 5),
    "enclosure": (lambda F, iv: enclosure(F, iv, 4, 4), "s_plus", 4),
    "refine s_minus": (lambda F, iv: refine(F, iv, "s_minus", tol=1.0), "s_minus", 4),
    "refine s_plus": (lambda F, iv: refine(F, iv, "s_plus", tol=1.0), "s_plus", 4),
    "refine_mean": (lambda F, iv: refine_mean(F, iv, tol=1.0), "s_plus", 4),
    "cli": (None, "s_minus", 4),
}


@pytest.mark.parametrize("fn_id,b", [("poly_x2y2", 1e60), ("bilinear_xy", 1e100)])
@pytest.mark.parametrize("call", sorted(_OVERFLOWING_CALLS))
def test_a_rule_value_outside_the_float_range_is_refused(capsys, fn_id, b, call):
    """Every grid value and trace integral is finite on these squares, and
    their signs are proven on any square, but C_n overflows to inf.  The
    rule value built from it is refused, naming the rule, the level and the
    square, where it used to come out nan (and the enclosure as empty)."""
    solve, rule, n = _OVERFLOWING_CALLS[call]
    message = f"the {rule} value at level {n} on the square [0.0, {b!r}]^2 leaves the float range"
    if solve is None:
        code, out, err = run(capsys, "integrate", "--fn", fn_id, "--rule", "minus", "--tol", "1", "--a", "0", "--b", repr(b))
        assert (code, out, err) == (2, "", f"error: {message}\n")
    else:
        with pytest.raises(ValueError, match=re.escape(message)):
            solve(BUILTINS[fn_id].integrand, Interval(0.0, b))


def test_no_arguments_is_a_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0


def _library_exp_minus():
    """The library solve behind ``integrate --fn exp_xy --rule minus --tol 1e-4``."""
    report = refine(BUILTINS["exp_xy"].integrand, Interval(0.0, 1.0), "s_minus", tol=1e-4)
    assert abs(report.final_value - ref_exp_integral().value) <= report.final_bound
    return report


def test_integrate_minus_text(capsys):
    code, out, _ = run(capsys, "integrate", "--fn", "exp_xy", "--rule", "minus", "--tol", "1e-4")
    assert code == 0
    assert "final value: 1.3178761499948879" in out
    assert "certified bound: 7.691394e-05" in out
    assert "table bound" not in out
    assert "termination: tolerance_met" in out
    assert _library_exp_minus().final_value == 1.3178761499948879
    assert out.splitlines()[1].split() == ["n", "estimate", "diff", "bound", "budget"]
    # Level 12 follows level 8, not its half level 6: no bound of its own.
    row_12 = next(line.split() for line in out.splitlines() if line.split()[:1] == ["12"])
    assert row_12[3:] == ["-", "0.000e+00"]


def test_integrate_output_is_pinned(capsys):
    # Polynomial arithmetic with exact traces: no libm value enters the text.
    code, out, err = run(
        capsys, "integrate", "--fn", "poly_x2y2", "--rule", "minus", "--tol", "1e-4",
        "--a", "0.5", "--b", "1.5",
    )
    assert (code, err) == (0, "")
    assert out == (
        "fn=poly_x2y2  rule=s_minus  square=[0.5, 1.5]^2\n"
        "     n                  estimate        diff       bound      budget\n"
        "     4        1.1754557291666665           -           -   0.000e+00\n"
        "     8        1.1740519205729165  -1.404e-03   6.510e-04   0.000e+00\n"
        "    12        1.1738053519375853  -2.466e-04           -   0.000e+00\n"
        "    24         1.173659420144247  -1.459e-04   7.297e-05   0.000e+00\n"
        "final value: 1.1735864542475778\n"
        "certified bound: 7.296590e-05\n"
        "termination: tolerance_met\n"
    )


def test_integrate_bilinear_converges_at_first_doubling(capsys):
    code, out, _ = run(capsys, "integrate", "--fn", "bilinear_xy", "--rule", "plus", "--tol", "1e-12")
    assert code == 0
    assert "final value: 0.25" in out
    rows = [line for line in out.splitlines() if line.strip() and line.split()[0].isdigit()]
    assert len(rows) == 2  # levels 4 and 8


def test_integrate_mean_hits_reference(capsys):
    code, out, _ = run(capsys, "integrate", "--fn", "sin_xy", "--rule", "mean", "--tol", "1e-5")
    assert code == 0
    final = float(next(l for l in out.splitlines() if l.startswith("final value:")).split()[-1])
    assert abs(final - 0.239811742) < 1e-5


def test_integrate_exit_3_still_prints_report(capsys):
    code, out, _ = run(
        capsys, "integrate", "--fn", "exp_xy", "--rule", "plus",
        "--tol", "1e-12", "--max-n", "16",
    )
    assert code == 3
    assert "termination: max_n_reached" in out
    assert "final value:" in out


def test_integrate_json_levels_and_summary(capsys):
    code, out, _ = run(
        capsys, "integrate", "--fn", "exp_xy", "--rule", "minus",
        "--tol", "1e-4", "--format", "json",
    )
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    summary = lines[-1]
    assert summary["termination"] == "tolerance_met"
    assert summary["final_n"] == 24
    assert [row["n"] for row in lines[:-1]] == [4, 8, 12, 24]
    assert lines[1]["centre"] == lines[1]["estimate"] - lines[1]["aposteriori_bound"]
    assert lines[2]["aposteriori_bound"] is None and lines[2]["centre"] is None
    assert summary["final_value"] == lines[-2]["centre"]
    report = _library_exp_minus()
    assert [lv.n for lv in report.levels] == [4, 8, 12, 24]
    assert (summary["final_value"], summary["final_bound"]) == (report.final_value, report.final_bound)


def test_json_key_order_is_pinned(capsys):
    _, out, _ = run(
        capsys, "integrate", "--fn", "exp_xy", "--rule", "minus",
        "--tol", "1e-4", "--format", "json",
    )
    lines = [list(json.loads(l)) for l in out.strip().splitlines()]
    level_keys = [
        "n", "estimate", "diff_to_previous", "aposteriori_bound", "centre", "trace_budget",
    ]
    assert lines[:-1] == [level_keys] * 4
    assert lines[-1] == ["fn", "rule", "final_n", "final_value", "final_bound", "termination"]
    _, out, _ = run(capsys, "table", "--fn", "exp_xy", "--n-list", "4,8", "--format", "json")
    lines = [list(json.loads(l)) for l in out.strip().splitlines()]
    assert lines[0] == ["fn", "reference_value", "reference_abs_err", "reference_method"]
    assert lines[1:] == [["n", "rem_minus", "half_diff_minus", "rem_plus", "bound_plus"]] * 2


def test_integrate_csv_round_trips(capsys):
    code, out, _ = run(
        capsys, "integrate", "--fn", "exp_xy", "--rule", "minus",
        "--tol", "1e-4", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,estimate,diff_to_previous,aposteriori_bound,centre,trace_budget"
    last = lines[-1].split(",")
    assert float(last[1]) == 1.3179530639373169
    assert float(last[4]) == 1.3178761499948879
    report = _library_exp_minus()
    assert (float(last[1]), float(last[4])) == (report.levels[-1].estimate, report.final_value)


def test_integrate_usage_errors(capsys):
    assert run(capsys, "integrate", "--fn", "nope", "--rule", "minus", "--tol", "1e-4")[0] == 2
    assert run(capsys, "integrate", "--fn", "exp_xy", "--rule", "minus", "--tol", "-1")[0] == 2
    for tol in ("inf", "nan"):
        code, out, err = run(capsys, "integrate", "--fn", "exp_xy", "--rule", "mean", "--tol", tol)
        assert (code, out) == (2, "")
        assert err == f"error: tolerance must be finite and positive, got {tol}\n"
    assert run(capsys, "integrate", "--fn", "exp_xy", "--rule", "minus", "--tol", "1e-4", "--a", "2", "--b", "1")[0] == 2
    assert run(capsys, "integrate", "--fn", "exp_xy", "--rule", "minus", "--tol", "1e-4", "--max-n", "7")[0] == 2
    # The refinement always starts at level 4: there is no --n0.
    assert run(capsys, "integrate", "--fn", "exp_xy", "--rule", "minus", "--tol", "1e-4", "--n0", "8")[0] == 2
    # An unreachable tolerance sends the refinement to the cap, so the cap
    # itself is bounded.
    code, out, err = run(
        capsys, "integrate", "--fn", "exp_xy", "--rule", "plus", "--tol", "1e-15", "--max-n", "100000000"
    )
    assert (code, out) == (2, "")
    assert err == "error: max-n must be at most 16384, got 100000000\n"
    # Finite ends whose difference overflows.
    code, out, err = run(
        capsys, "integrate", "--fn", "poly_x2y2", "--rule", "plus", "--tol", "1e-3",
        "--a=-1e308", "--b=1e308",
    )
    assert (code, out) == (2, "")
    assert err == "error: interval width b - a overflows: a=-1e+308, b=1e+308\n"


@pytest.mark.parametrize("fn_id,a,b,proven", [
    ("sin_xy", "0", "3", "a*b >= 0 and max(a*a, b*b) <= 1.414"),
    ("exp_xy", "-2", "2", "a*b >= -0.5857"),
])
def test_integrate_refuses_squares_where_the_sign_is_not_proven(capsys, fn_id, a, b, proven):
    """D22 changes sign on these squares: sin_xy on [0, 3]^2 used to be
    certified as 2.72009 +- 5.8e-4, where the integral is 2.719093."""
    code, out, err = run(
        capsys, "integrate", "--fn", fn_id, "--rule", "mean", "--tol", "1e-3",
        f"--a={a}", f"--b={b}",
    )
    assert code == 2
    assert out == ""
    assert f"proven only on squares [a, b]^2 with {proven}" in err


@pytest.mark.parametrize("fn_id", sorted(BUILTINS))
def test_integrate_refusal_quotes_the_record_condition(capsys, monkeypatch, fn_id):
    """integrate takes the proof test and its wording from the record."""
    record = BUILTINS[fn_id]
    monkeypatch.setitem(BUILTINS, fn_id, dataclasses.replace(record, proven=lambda a, b: False))
    code, out, err = run(capsys, "integrate", "--fn", fn_id, "--rule", "mean", "--tol", "1e-3")
    assert (code, out) == (2, "")
    assert err == (
        f"error: the {record.integrand.d22_sign} mixed derivative of {fn_id} is proven"
        f" only on squares [a, b]^2 with {record.condition}; got [0, 1]^2\n"
    )


@pytest.mark.parametrize("a,b", [("0", "1"), ("0", "1.18"), ("-1.18", "-0.5")])
def test_integrate_accepts_squares_where_the_sin_sign_is_proven(capsys, a, b):
    code, out, _ = run(
        capsys, "integrate", "--fn", "sin_xy", "--rule", "mean", "--tol", "1e-6",
        f"--a={a}", f"--b={b}", "--format", "json",
    )
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["termination"] == "tolerance_met"
    truth = brute_force_integral(lambda x, y: np.sin(x * y), Interval(float(a), float(b)), 7)
    assert abs(summary["final_value"] - truth) <= summary["final_bound"]


def test_table_text_shows_four_significant_digits(capsys):
    code, out, _ = run(capsys, "table", "--fn", "exp_xy", "--n-list", "4,8")
    assert code == 0
    assert "-1.947e-03" in out
    assert "7.411e-04" in out
    assert "3.615e-03" in out
    assert "3.101e-03" in out


def test_table_sin_row(capsys):
    code, out, _ = run(capsys, "table", "--fn", "sin_xy", "--n-list", "8")
    assert code == 0
    assert "1.507e-04" in out
    assert "5.674e-05" in out


def test_table_output_is_pinned(capsys):
    code, out, err = run(capsys, "table", "--fn", "sin_xy", "--n-list", "4,8")
    assert (code, err) == (0, "")
    assert out == (
        "fn=sin_xy  reference=0.23981174200056474  (abs err <= 2.1e-20)\n"
        "     n          rem-    half-diff-          rem+        bound+\n"
        "     4     6.300e-04     2.397e-04    -1.129e-03     9.697e-04\n"
        "     8     1.507e-04     5.674e-05    -2.886e-04     2.309e-04\n"
    )


def test_table_csv_round_trips_exactly(capsys):
    code, out, _ = run(capsys, "table", "--fn", "exp_xy", "--n-list", "4,8,16", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,rem_minus,half_diff_minus,rem_plus,bound_plus"
    _, rows = table_rows("exp_xy", [4, 8, 16])
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert int(cells[0]) == row.n
        assert float(cells[1]) == row.rem_minus
        assert float(cells[2]) == row.half_diff_minus
        assert float(cells[3]) == row.rem_plus
        assert float(cells[4]) == row.bound_plus


def test_table_json_has_reference_header(capsys):
    code, out, _ = run(capsys, "table", "--fn", "sin_xy", "--n-list", "4", "--format", "json")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines[0]["fn"] == "sin_xy"
    assert abs(lines[0]["reference_value"] - 0.239811742) < 5e-10
    assert lines[1]["n"] == 4


def test_table_rejects_unknown_fn_and_bad_n_list(capsys):
    assert run(capsys, "table", "--fn", "poly_x2y2")[0] == 2
    assert run(capsys, "table", "--fn", "exp_xy", "--n-list", "4,x")[0] == 2
    assert run(capsys, "table", "--fn", "exp_xy", "--n-list", ",")[0] == 2
    assert run(capsys, "table", "--fn", "exp_xy", "--n-list", "0")[0] == 2
    # Level 10^8 would start a pass over about 10^16 points.
    for level in ("1025", "100000000"):
        code, out, err = run(capsys, "table", "--fn", "exp_xy", "--n-list", f"4,{level}")
        assert (code, out) == (2, "")
        assert f"levels must be in 1..1024, got {level}" in err


@pytest.mark.parametrize("fn_id", sorted(BUILTINS))
def test_table_serves_exactly_the_builtins_with_a_reference(capsys, fn_id):
    code, out, err = run(capsys, "table", "--fn", fn_id, "--n-list", "4")
    if BUILTINS[fn_id].reference is None:
        assert (code, out) == (2, "")
        assert "invalid choice" in err
        with pytest.raises(ValueError, match="tables are defined for"):
            table_rows(fn_id, [4])
    else:
        assert (code, err) == (0, "")
        assert out.startswith(f"fn={fn_id}  reference=")


def test_scan_clean_kernel_exits_zero(capsys):
    code, out, _ = run(capsys, "scan", "--kernel", "k22-minus", "--n", "4")
    assert code == 0
    assert "expected sign: nonpositive" in out
    assert "violations: 0" in out


def test_scan_output_is_pinned(capsys):
    code, out, err = run(
        capsys, "scan", "--kernel", "phi-minus", "--n", "4", "--c", "0.9",
        "--resolution", "512",
    )
    assert (code, err) == (1, "")
    assert out == (
        "kernel=phi-minus  n=4  c=0.9  square=[0, 1]^2  resolution=512\n"
        "expected sign: nonnegative\n"
        "scale: 1.043701e-03  slack: 1.04e-17\n"
        "violations: 3352\n"
        "worst: value=-4.521463e-06 at (t, tau)=(0.494140625, 0.494140625)\n"
    )


def test_scan_subcritical_comparison_kernel_exits_one(capsys):
    code, out, _ = run(
        capsys, "scan", "--kernel", "phi-minus", "--n", "4", "--c", "0.9",
        "--resolution", "2048",
    )
    assert code == 1
    assert "worst: value=-" in out
    # the dip sits near the diagonal midline
    assert "0.49" in out


def test_scan_at_critical_constant_is_clean(capsys):
    code, out, _ = run(capsys, "scan", "--kernel", "phi-plus", "--n", "2", "--c", "1.4")
    assert code == 0


def test_scan_usage_errors(capsys):
    assert run(capsys, "scan", "--kernel", "simpson", "--n", "2")[0] == 2
    assert run(capsys, "scan", "--kernel", "k22-plus", "--n", "0")[0] == 2
    # The scan runs on [0, 1]^2, which decides every square: there is no
    # --a or --b.
    assert run(capsys, "scan", "--kernel", "k22-plus", "--n", "2", "--a", "0")[0] == 2
    assert run(capsys, "scan", "--kernel", "phi-minus", "--n", "2", "--c", "0.5", "--a=-1e308", "--b=1e308")[0] == 2


@pytest.mark.parametrize("argv,message", [
    (("--kernel", "phi-minus", "--n", "2"), "comparison kernels require a finite c > 0, got None"),
    (("--kernel", "k22-plus", "--n", "2", "--c", "1.0"),
     "c is only meaningful for comparison kernels, got 1.0"),
    (("--kernel", "phi-plus", "--n", "2", "--c", "0"), "comparison kernels require a finite c > 0, got 0.0"),
    # Every phi value is NaN at c = inf, which a scan would count as clean.
    (("--kernel", "phi-minus", "--n", "2", "--c", "inf", "--resolution", "16"),
     "comparison kernels require a finite c > 0, got inf"),
    (("--kernel", "phi-plus", "--n", "2", "--c", "nan"), "comparison kernels require a finite c > 0, got nan"),
    # Both are refused before any array is built: a level this large
    # overflows a float division, and the grid has (resolution + 1)^2 points.
    (("--kernel", "k22-minus", "--n", "1" + "0" * 400, "--resolution", "16"),
     "n must be at most 65536, got 1" + "0" * 400),
    (("--kernel", "k22-minus", "--n", "4", "--resolution", "1000000000"),
     "resolution must be at most 65536, got 1000000000"),
], ids=["missing", "k22", "zero", "inf", "nan", "huge-n", "huge-resolution"])
def test_scan_refuses_a_misused_c(capsys, argv, message):
    assert run(capsys, "scan", *argv) == (2, "", f"error: {message}\n")


def test_table_rows_rejects_non_table_builtins():
    with pytest.raises(ValueError):
        table_rows("bilinear_xy", [4])


def test_table_rows_rejects_an_empty_level_list():
    with pytest.raises(ValueError, match="must not be empty"):
        table_rows("exp_xy", [])


@pytest.mark.parametrize("fn_id", ["exp_xy", "sin_xy"])
def test_table_rows_on_odd_levels_equal_the_rules(fn_id):
    """Odd levels put the mid-lines off the grid; the table still holds
    exactly the values s_minus and s_plus return."""
    F, unit = BUILTINS[fn_id].integrand, Interval(0.0, 1.0)
    reference, rows = table_rows(fn_id, [3, 5])
    for row in rows:
        n = row.n
        minus = [s_minus(F, unit, k).value for k in (n, 2 * n)]
        plus = [s_plus(F, unit, k).value for k in (n, 2 * n)]
        assert row.rem_minus == reference.value - minus[0]
        assert row.half_diff_minus == 0.5 * abs(minus[1] - minus[0])
        assert row.rem_plus == reference.value - plus[0]
        factor = (4.0 * n - 1.0) / (4.0 * n - 3.0)
        assert row.bound_plus == factor * abs(plus[1] - plus[0])


def test_repeated_commands_leave_no_cyclic_garbage(capsys):
    """After a warm-up, integrate, table and scan create no reference
    cycles, so repeated calls of main() give the collector nothing to do."""
    commands = (
        ("integrate", "--fn", "exp_xy", "--rule", "mean", "--tol", "1e-4"),
        ("table", "--fn", "sin_xy", "--n-list", "4,8"),
        ("scan", "--kernel", "k22-minus", "--n", "2"),
    )
    for argv in commands:
        run(capsys, *argv)
    gc.collect()
    gc.disable()
    try:
        for argv in commands:
            assert run(capsys, *argv)[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
