"""Tests for the doubling driver and its certified stopping bounds."""
import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import trapcube.cubature as cubature
from trapcube.adaptive import definite_pair_bounds, refine, refine_mean
from trapcube.cli import BUILTINS
from trapcube.cubature import TRACE_IDS, Integrand2D, enclosure, s_minus, s_plus
from trapcube.oracle import ref_exp_integral, ref_sin_integral
from trapcube.univariate import Interval

UNIT = Interval(0.0, 1.0)
EXP = Integrand2D(f=lambda x, y: math.exp(x * y), d22_sign="nonnegative")
SIN = Integrand2D(f=lambda x, y: math.sin(x * y), d22_sign="nonpositive")


def test_refine_minus_level_sequence_and_stop():
    report = refine(EXP, UNIT, "s_minus", tol=1e-4)
    assert [lv.n for lv in report.levels] == [4, 8, 16, 32]
    assert report.termination == "tolerance_met"
    assert report.final_n == 32
    assert report.final_value == report.levels[-1].estimate
    # final bound = |diff| + 2e-12 Romberg trace budget
    assert report.final_bound == pytest.approx(8.619280484549725e-05, rel=1e-9)
    assert report.levels[-1].table_bound == pytest.approx(4.309640142274862e-05, rel=1e-9)


def test_refine_first_level_has_no_bound():
    report = refine(EXP, UNIT, "s_minus", tol=1e-3)
    first = report.levels[0]
    assert first.diff_to_previous is None
    assert first.aposteriori_bound is None
    assert first.table_bound is None


def test_refine_bound_columns_minus():
    report = refine(EXP, UNIT, "s_minus", tol=1e-5)
    for prev, lv in zip(report.levels, report.levels[1:]):
        diff = lv.estimate - prev.estimate
        assert lv.diff_to_previous == diff
        assert lv.aposteriori_bound == abs(diff)
        assert lv.table_bound == 0.5 * abs(diff)


def test_refine_bound_columns_plus_carry_the_level_factor():
    report = refine(EXP, UNIT, "s_plus", tol=1e-5)
    for prev, lv in zip(report.levels, report.levels[1:]):
        factor = (4.0 * prev.n - 1.0) / (4.0 * prev.n - 3.0)
        assert lv.aposteriori_bound == pytest.approx(factor * abs(lv.diff_to_previous), rel=1e-15)
        assert lv.table_bound == lv.aposteriori_bound


@pytest.mark.parametrize("F,ref,rule", [
    (EXP, ref_exp_integral, "s_minus"),
    (EXP, ref_exp_integral, "s_plus"),
    (SIN, ref_sin_integral, "s_minus"),
    (SIN, ref_sin_integral, "s_plus"),
])
def test_certified_bound_dominates_true_error(F, ref, rule):
    """The whole point: every refined level's bound covers its true error."""
    reference = ref().value
    report = refine(F, UNIT, rule, tol=1e-6, trace_tol=1e-13)
    assert report.termination == "tolerance_met"
    for lv in report.levels[1:]:
        true_error = abs(reference - lv.estimate)
        assert true_error <= lv.aposteriori_bound + lv.trace_budget + 1e-15


def test_refine_monotone_one_sided_approach():
    """Mid-line estimates decrease toward the integral from above for a
    nonnegative mixed derivative; edge estimates increase from below."""
    ref = ref_exp_integral().value
    upper = refine(EXP, UNIT, "s_minus", tol=1e-6)
    values = [lv.estimate for lv in upper.levels]
    assert values == sorted(values, reverse=True)
    assert all(v >= ref for v in values)
    lower = refine(EXP, UNIT, "s_plus", tol=1e-6)
    values_p = [lv.estimate for lv in lower.levels]
    assert values_p == sorted(values_p)
    assert all(v <= ref for v in values_p)


def test_refine_max_n_reached_still_reports():
    report = refine(EXP, UNIT, "s_minus", tol=1e-15, n0=4, max_n=16)
    assert report.termination == "max_n_reached"
    assert [lv.n for lv in report.levels] == [4, 8, 16]
    assert report.final_bound > 1e-15


def test_refine_validation():
    with pytest.raises(ValueError, match="definiteness not declared"):
        refine(Integrand2D(f=lambda x, y: x * y), UNIT, "s_minus", tol=1e-4)
    with pytest.raises(ValueError):
        refine(EXP, UNIT, "s_mid", tol=1e-4)
    with pytest.raises(ValueError):
        refine(EXP, UNIT, "s_minus", tol=0.0)
    with pytest.raises(ValueError):
        refine(EXP, UNIT, "s_minus", tol=1e-4, n0=8, max_n=8)
    with pytest.raises(ValueError):
        refine(EXP, UNIT, "s_minus", tol=1e-4, n0=0)


def test_refine_mean_estimates_are_rule_midpoints():
    report = refine_mean(SIN, UNIT, tol=1e-5)
    assert report.rule == "mean"
    for lv in report.levels:
        lo = s_plus(SIN, UNIT, lv.n).value
        hi = s_minus(SIN, UNIT, lv.n).value
        assert lv.estimate == pytest.approx(0.5 * (lo + hi), rel=1e-14)
        assert lv.aposteriori_bound >= abs(ref_sin_integral().value - lv.estimate)


def test_refine_mean_can_stop_at_the_first_level():
    report = refine_mean(EXP, UNIT, tol=1.0)
    assert [lv.n for lv in report.levels] == [4]
    assert report.termination == "tolerance_met"


def test_refine_mean_max_n_reached():
    report = refine_mean(EXP, UNIT, tol=1e-15, max_n=8)
    assert report.termination == "max_n_reached"
    assert report.levels[-1].n == 8


def test_refine_mean_bound_is_half_the_enclosure_width():
    """With exact edge traces and Romberg mid-lines the two rules carry
    unequal trace budgets; the mean's bound adds the larger one, which is
    the enclosure's slack."""
    F = BUILTINS["exp_xy"].integrand
    edges = ("left", "right", "down", "up")
    F = dataclasses.replace(F, exact_traces={tid: F.exact_traces[tid] for tid in edges})
    report = refine_mean(F, UNIT, tol=1e-6, max_n=64, trace_tol=1e-4)
    assert [lv.n for lv in report.levels] == [4, 8, 16, 32, 64]
    for lv in report.levels:
        enc = enclosure(F, UNIT, lv.n, lv.n, 1e-4)
        assert enc.slack > 0.0
        assert lv.trace_budget == enc.slack
        assert lv.aposteriori_bound == pytest.approx(0.5 * (enc.upper - enc.lower), rel=1e-12)


def test_refine_mean_beats_both_one_sided_rules_here():
    ref = ref_exp_integral().value
    mean_err = abs(refine_mean(EXP, UNIT, tol=1e-5).final_value - ref)
    assert mean_err < 1e-5


@given(
    c=st.floats(min_value=1e-3, max_value=10.0),
    s1=st.floats(min_value=-100, max_value=100),
    s2=st.floats(min_value=-100, max_value=100),
)
def test_definite_pair_bounds_arithmetic(c, s1, s2):
    tight, loose = definite_pair_bounds("pos_pair", c, s1, s2)
    assert tight == c * abs(s1 - s2)
    assert loose == (c + 1.0) * abs(s1 - s2)
    assert definite_pair_bounds("neg_pair", c, s1, s2) == (tight, loose)


def test_definite_pair_bounds_validation():
    with pytest.raises(ValueError):
        definite_pair_bounds("mixed_pair", 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        definite_pair_bounds("pos_pair", 0.0, 0.0, 1.0)
    for c in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            definite_pair_bounds("pos_pair", c, 1.0, 1.0)


def test_definite_pair_bounds_reproduce_the_refine_bounds():
    """refine's bounds are the definite-pair bounds with the rule's
    comparison constant: 1 for mid-line, (4n-1)/(4n-3) for edge."""
    report = refine(EXP, UNIT, "s_minus", tol=1e-5)
    lv_prev, lv = report.levels[-2], report.levels[-1]
    tight, _ = definite_pair_bounds("neg_pair", 1.0, lv.estimate, lv_prev.estimate)
    assert tight == lv.aposteriori_bound

    report_p = refine(EXP, UNIT, "s_plus", tol=1e-5)
    lv_prev, lv = report_p.levels[-2], report_p.levels[-1]
    c = (4.0 * lv_prev.n - 1.0) / (4.0 * lv_prev.n - 3.0)
    tight_p, _ = definite_pair_bounds("pos_pair", c, lv.estimate, lv_prev.estimate)
    assert tight_p == pytest.approx(lv.aposteriori_bound, rel=1e-15)


def test_refine_evaluates_each_level_grid_once_with_exact_traces(counted_exp_xy):
    F, calls = counted_exp_xy
    report = refine(F, UNIT, "s_minus", tol=1e-4, n0=4)
    assert [lv.n for lv in report.levels] == [4, 8, 16, 32]
    assert calls[0] == 25 + 81 + 289 + 1089
    for solve in (
        lambda: refine(F, UNIT, "s_plus", tol=1e-6, n0=4),
        lambda: refine_mean(F, UNIT, tol=1e-6, n0=4),
    ):
        calls[0] = 0
        report = solve()
        assert len(report.levels) >= 4
        assert calls[0] == sum((lv.n + 1) ** 2 for lv in report.levels)


@pytest.mark.parametrize("rule,traces", [("s_minus", 2), ("s_plus", 4), ("mean", 6)])
def test_refine_integrates_each_trace_once_per_solve(monkeypatch, rule, traces):
    """Romberg traces do not depend on the level, so a solve over several
    levels integrates each of its traces exactly once."""
    calls = []
    romberg = cubature.trace_integral

    def counted(g, iv, exact=None, tol=1e-12):
        calls.append(1)
        return romberg(g, iv, exact=exact, tol=tol)

    monkeypatch.setattr(cubature, "trace_integral", counted)
    if rule == "mean":
        report = refine_mean(EXP, UNIT, tol=1e-6)
    else:
        report = refine(EXP, UNIT, rule, tol=1e-6)
    assert len(report.levels) >= 3
    assert len(calls) == traces


def test_non_finite_exact_traces_are_refused():
    """A NaN from an exact-trace supplier is named, not reported as an
    empty enclosure or carried into a refinement result."""
    F = Integrand2D(
        f=lambda x, y: math.exp(x * y),
        d22_sign="nonnegative",
        exact_traces={tid: (lambda iv: math.nan) for tid in TRACE_IDS},
    )
    with pytest.raises(ValueError, match="exact trace integral returned non-finite value nan"):
        enclosure(F, UNIT, 4, 4)
    with pytest.raises(ValueError, match="exact trace integral returned non-finite value nan"):
        refine(F, UNIT, "s_minus", 1e-3, max_n=16)
