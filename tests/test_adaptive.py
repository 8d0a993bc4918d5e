"""Tests for the refinement driver, its predicted levels and its
certified stopping bounds."""
import dataclasses
import math
import sys
from fractions import Fraction

import pytest
import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import trapcube.adaptive as adaptive
import trapcube.cubature as cubature
from trapcube.adaptive import definite_pair_bounds, refine, refine_mean
from trapcube.cli import BUILTINS, table_rows
from trapcube.cubature import Integrand2D, enclosure, s_minus, s_plus
from trapcube.oracle import brute_force_integral, ref_exp_integral, ref_sin_integral
from trapcube.univariate import Interval

UNIT = Interval(0.0, 1.0)
EXP = Integrand2D(f=lambda x, y: math.exp(x * y), d22_sign="nonnegative")
SIN = Integrand2D(f=lambda x, y: math.sin(x * y), d22_sign="nonpositive")


def test_refine_minus_level_sequence_and_stop():
    """The pair (4, 8) predicts the pair (12, 24), which meets tol."""
    report = refine(EXP, UNIT, "s_minus", tol=1e-4)
    assert [lv.n for lv in report.levels] == [4, 8, 12, 24]
    assert report.termination == "tolerance_met"
    assert report.final_n == 24
    last = report.levels[-1]
    assert report.final_value == last.centre == last.estimate - last.aposteriori_bound
    # final bound = |diff| / 2 + the Romberg trace budget tol/1000 = 1e-7
    assert report.final_bound == pytest.approx(7.701394242903549e-05, rel=1e-9)
    assert report.final_value == pytest.approx(1.317876149996916, rel=1e-12)
    assert abs(report.final_value - ref_exp_integral().value) <= report.final_bound


def test_refine_first_level_has_no_bound():
    report = refine(EXP, UNIT, "s_minus", tol=1e-3)
    first = report.levels[0]
    assert first.diff_to_previous is None
    assert first.aposteriori_bound is None
    assert first.centre is None


def _half_level_pairs(report):
    """Consecutive rows (m, 2m): the rows that carry a one-sided bound."""
    pairs = [(p, lv) for p, lv in zip(report.levels, report.levels[1:]) if 2 * p.n == lv.n]
    assert pairs
    return pairs


def _reach(rule, prev, lv, other, overshoots):
    """How far from S(2m) the row's interval reaches, as refine rounds it,
    and whether the other rule's value ``other`` at 2m ends it.

    The pair bound c * |S(2m) - S(m)| reaches from S(2m) towards the
    integral; where the enclosure [S_under(2m), S_over(2m)] ends closer,
    the intersection ends at the other rule's value.
    """
    c = 1.0 if rule == "s_minus" else (4.0 * prev.n - 1.0) / (4.0 * prev.n - 3.0)
    pair = c * abs(lv.estimate - prev.estimate)
    if other is None:
        return pair, False
    gap = lv.estimate - other if overshoots else other - lv.estimate
    return (gap, True) if 0.0 <= gap < pair else (pair, False)


def _assert_covers(lv, lower, upper, ulps=4):
    """``centre -+ (aposteriori_bound + trace_budget)``, evaluated in floats,
    holds [lower - budget, upper + budget] exactly and passes its ends by at
    most ``ulps`` ulps of the rule value: the rounding of the centre."""
    r = lv.aposteriori_bound + lv.trace_budget
    low, high = Fraction(lv.centre - r), Fraction(lv.centre + r)
    budget, slack = Fraction(lv.trace_budget), ulps * Fraction(math.ulp(lv.estimate))
    assert low <= lower - budget <= low + slack, (lv, lower)
    assert high - slack <= upper + budget <= high, (lv, upper)


def _assert_bound_columns(F, rule, tol):
    """Every pair row reports the interval its pair bound and the declared
    sign give, or, when that bound plus the trace budget misses tol, that
    interval cut by the enclosure at the same level, with both rules at the
    solve's trace tolerance; the centre is S(2m) moved by half the reach.
    Returns whether some row was cut."""
    overshoots = _overshoots(rule, F.d22_sign)
    other = "s_plus" if rule == "s_minus" else "s_minus"
    level = cubature._levels(F, UNIT, tol / 2000)
    report = refine(F, UNIT, rule, tol)
    for prev, lv in zip(report.levels, report.levels[1:]):
        assert lv.diff_to_previous == lv.estimate - prev.estimate
    cut = False
    for prev, lv in _half_level_pairs(report):
        value = level(lv.n)
        assert value(rule).value == lv.estimate
        pair, _ = _reach(rule, prev, lv, None, overshoots)
        o = None if 0.5 * pair + lv.trace_budget <= tol else value(other)
        reach, ends_at_other = _reach(rule, prev, lv, None if o is None else o.value, overshoots)
        cut |= ends_at_other
        half = 0.5 * reach
        assert lv.centre == (lv.estimate - half if overshoots else lv.estimate + half)
        s = Fraction(lv.estimate)
        if ends_at_other:
            far = Fraction(o.value)
        else:
            far = s - Fraction(reach) if overshoots else s + Fraction(reach)
        _assert_covers(lv, *sorted((s, far)))
        assert lv.trace_budget == max(value(rule).trace_err_budget, o.trace_err_budget if ends_at_other else 0.0)
    return cut


def test_refine_bound_columns_minus():
    """The mid-line rule overshoots a nonnegative D22: the centre is below
    S(2m).  The probe pair (4, 8) misses 1e-5, and the enclosure at 8 cuts
    its interval."""
    assert _assert_bound_columns(EXP, "s_minus", 1e-5)


def test_refine_bound_columns_plus_carry_the_level_factor():
    assert _assert_bound_columns(EXP, "s_plus", 1e-5)


@pytest.mark.parametrize("F,ref,rule", [
    (EXP, ref_exp_integral, "s_minus"),
    (EXP, ref_exp_integral, "s_plus"),
    (SIN, ref_sin_integral, "s_minus"),
    (SIN, ref_sin_integral, "s_plus"),
])
def test_certified_bound_dominates_true_error(F, ref, rule):
    """The whole point: every bound a level carries covers its centre's
    true error, and the pair bound, twice that bound, the rule value's."""
    reference = ref().value
    report = refine(F, UNIT, rule, tol=1e-6)
    assert report.termination == "tolerance_met"
    for _, lv in _half_level_pairs(report):
        assert abs(reference - lv.centre) <= lv.aposteriori_bound + lv.trace_budget + 1e-15
        assert abs(reference - lv.estimate) <= 2 * lv.aposteriori_bound + lv.trace_budget + 1e-15


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
    report = refine(EXP, UNIT, "s_minus", tol=1e-15, max_n=16)
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
    with pytest.raises(ValueError, match="need >= 8, got 7"):
        refine(EXP, UNIT, "s_minus", tol=1e-4, max_n=7)
    # A max_n that is not an integer is refused before f is called, not
    # by trapezium_rule after the grid passes.
    never = Integrand2D(f=lambda x, y: pytest.fail("f was evaluated"), d22_sign="nonnegative")
    for max_n in (100.0, math.nan):
        with pytest.raises(ValueError, match="max_n must be an integer"):
            refine(never, UNIT, "s_minus", tol=1e-14, max_n=max_n)
        with pytest.raises(ValueError, match="max_n must be an integer"):
            refine_mean(never, UNIT, tol=1e-14, max_n=max_n)
    assert refine(EXP, UNIT, "s_minus", tol=1e-4, max_n=np.int64(64)).final_n == 24


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
def test_refine_refuses_a_tolerance_that_is_not_finite_and_positive(tol):
    """An infinite tol would make the tied trace tolerance, and so the
    certified bound, infinite."""
    never = Integrand2D(f=lambda x, y: pytest.fail("f was evaluated"), d22_sign="nonnegative")
    for solve in (lambda: refine(never, UNIT, "s_minus", tol), lambda: refine_mean(never, UNIT, tol)):
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            solve()


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
    """The mean's bound is half the rules' gap, widened where rounding
    needs it, and the certified bound adds the larger of the two rules'
    trace budgets, which is the enclosure's slack.  With Romberg traces
    both budgets are the same, 2 * width * 1e-12.  Unwidened, the row at
    n = 4 rounds inward: its bound is 0.0027810995187840253, where half
    the gap is 0.002781099518783803."""
    F = EXP
    report = refine_mean(F, UNIT, tol=1e-12, max_n=64)
    # The budget 2e-12 alone exceeds tol, so level 4 predicts the cap.
    assert [lv.n for lv in report.levels] == [4, 64]
    for lv in report.levels:
        enc = enclosure(F, UNIT, lv.n, lv.n)
        assert enc.slack > 0.0
        assert lv.trace_budget == enc.slack
        assert s_minus(F, UNIT, lv.n).trace_err_budget == s_plus(F, UNIT, lv.n).trace_err_budget == enc.slack
        ends = sorted((s_minus(F, UNIT, lv.n).value, s_plus(F, UNIT, lv.n).value))
        assert lv.aposteriori_bound >= 0.5 * (ends[1] - ends[0])
        _assert_covers(lv, *map(Fraction, ends))
        assert lv.aposteriori_bound + lv.trace_budget == pytest.approx(
            0.5 * (enc.upper - enc.lower), rel=1e-12
        )


def _assert_mean_rows_cover(F, iv, tol, max_n=1024):
    """Every 'mean' row holds the two rule values at its level, with the
    solve's trace tolerance, widened by its budget, in exact arithmetic."""
    level = cubature._levels(F, iv, max(tol / (2000 * iv.width), 1e-12))
    report = refine_mean(F, iv, tol, max_n=max_n)
    for lv in report.levels:
        value = level(lv.n)
        ends = sorted((value("s_minus").value, value("s_plus").value))
        assert lv.estimate == lv.centre == 0.5 * (ends[0] + ends[1])
        _assert_covers(lv, *map(Fraction, ends))
    return report


@pytest.mark.parametrize("tol", [1e-4, 1e-5])
def test_refine_mean_rows_hold_both_rule_values(tol):
    """With the bound at half the gap alone, ``centre - (bound + budget)``
    rounds inward on the level-4 row of both solves and on the level-72 row
    at 1e-5, by less than an ulp."""
    _assert_mean_rows_cover(EXP, UNIT, tol)


@given(
    k=st.floats(min_value=0.5, max_value=2.0),
    a=st.floats(min_value=0.0, max_value=0.5, exclude_max=True),
    w=st.floats(min_value=0.25, max_value=1.0, exclude_max=True),
    log_rtol=st.floats(min_value=-3.0, max_value=-2.0),
)
@settings(max_examples=40, deadline=None)
def test_refine_mean_rows_hold_both_rule_values_on_small_exp_squares(k, a, w, log_rtol):
    """The squares, tolerances and level cap of the certify-small
    benchmark, with Romberg traces."""
    iv = Interval(a, a + w)
    F = Integrand2D(f=lambda x, y: math.exp(k * x * y), d22_sign="nonnegative")
    ref = brute_force_integral(lambda x, y: np.exp(k * x * y), iv, 4)
    report = _assert_mean_rows_cover(F, iv, 10.0**log_rtol * abs(ref), max_n=64)
    assert report.termination == "tolerance_met"


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
    tight, loose = definite_pair_bounds(c, s1, s2)
    assert tight == c * abs(s1 - s2)
    assert loose == (c + 1.0) * abs(s1 - s2)


def test_definite_pair_bounds_validation():
    for c in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            definite_pair_bounds(c, 1.0, 1.0)


def test_definite_pair_bounds_reproduce_the_refine_bounds():
    """Where a pair meets tol on its own, refine's centre is S(2m) moved by
    half the definite-pair bound with the rule's comparison constant: 1 for
    mid-line, (4n-1)/(4n-3) for edge.  The bound is that half, widened by
    the rounding of the centre."""
    report = refine(EXP, UNIT, "s_minus", tol=1e-5)
    lv_prev, lv = report.levels[-2], report.levels[-1]
    tight, _ = definite_pair_bounds(1.0, lv.estimate, lv_prev.estimate)
    assert lv.centre == lv.estimate - 0.5 * tight
    assert 0.5 * tight <= lv.aposteriori_bound <= 0.5 * tight + 2 * math.ulp(lv.estimate)

    report_p = refine(EXP, UNIT, "s_plus", tol=1e-2)
    assert [lv.n for lv in report_p.levels] == [4, 8]
    lv_prev, lv = report_p.levels
    c = (4.0 * lv_prev.n - 1.0) / (4.0 * lv_prev.n - 3.0)
    tight_p, _ = definite_pair_bounds(c, lv.estimate, lv_prev.estimate)
    assert 0.5 * tight_p + lv.trace_budget <= 1e-2
    assert lv.centre == lv.estimate + 0.5 * tight_p
    assert 0.5 * tight_p <= lv.aposteriori_bound <= 0.5 * tight_p + 2 * math.ulp(lv.estimate)


@pytest.mark.parametrize("rule", ["s_minus", "s_plus", "mean"])
@pytest.mark.parametrize("F", [EXP, BUILTINS["exp_xy"].integrand], ids=["romberg", "exact"])
def test_final_value_and_bound_are_the_last_rows(F, rule):
    """For every rule the certified bound is the row's bound plus its
    trace budget, and the report's final figures are the last row's; the
    mean's centre is its estimate."""
    for tol in (1e-4, 1e-15):
        report = _solve(F, UNIT, rule, tol, max_n=64)
        last = report.levels[-1]
        assert report.final_value == last.centre
        assert report.final_bound == last.aposteriori_bound + last.trace_budget
        if rule == "mean":
            assert all(lv.centre == lv.estimate for lv in report.levels)


def test_table_columns_are_the_refinement_pair_bounds():
    """`trapcube table` and `refine` take their pair bounds from one place:
    the table prints half the mid-line pair bound, by which refine's centre
    moves from S(8), and the whole edge pair bound, twice that move.  At
    tol 1 both pairs meet tol on their own."""
    _, rows = table_rows("exp_xy", [4])
    F = BUILTINS["exp_xy"].integrand
    minus = refine(F, UNIT, "s_minus", tol=1.0).levels[1]
    plus = refine(F, UNIT, "s_plus", tol=1.0).levels[1]
    assert minus.n == plus.n == 8
    assert minus.centre == minus.estimate - rows[0].half_diff_minus
    assert plus.centre == plus.estimate + 0.5 * rows[0].bound_plus
    for lv, half in ((minus, rows[0].half_diff_minus), (plus, 0.5 * rows[0].bound_plus)):
        assert half <= lv.aposteriori_bound <= half + 2 * math.ulp(lv.estimate)


def test_refine_evaluates_each_level_grid_once_with_exact_traces(counted_exp_xy):
    F, calls = counted_exp_xy
    report = refine(F, UNIT, "s_minus", tol=1e-4)
    assert [lv.n for lv in report.levels] == [4, 8, 12, 24]
    assert calls[0] == 25 + 81 + 169 + 625
    # Capped predictions: s_plus's lands on the last row's level 8, which its
    # round does not evaluate again; s_minus's lands on 10, then on 10 again.
    for rule, max_n, ns in (("s_plus", 16, [4, 8, 16]), ("s_minus", 20, [4, 8, 10, 20])):
        calls[0] = 0
        report = refine(F, UNIT, rule, tol=1e-12, max_n=max_n)
        assert [lv.n for lv in report.levels] == ns
        assert calls[0] == sum((n + 1) ** 2 for n in ns)
    for solve in (
        lambda: refine(F, UNIT, "s_plus", tol=1e-6),
        lambda: refine_mean(F, UNIT, tol=1e-6),
    ):
        calls[0] = 0
        report = solve()
        assert len(report.levels) >= 2
        assert calls[0] == sum((lv.n + 1) ** 2 for lv in report.levels)


def _traces_integrated(monkeypatch, solve):
    """The trace ids a solve integrates, in order, and the tolerance of
    each Romberg integration it runs."""
    ids, calls = [], []
    integrate, romberg = cubature._trace_integrals, cubature._romberg

    def spy(F, iv, traces, tol):
        ids.extend(tid for tid, _, _ in traces)
        return integrate(F, iv, traces, tol)

    def counted(g, iv, tol):
        calls.append(tol)
        return romberg(g, iv, tol)

    with monkeypatch.context() as mp:
        mp.setattr(cubature, "_trace_integrals", spy)
        mp.setattr(cubature, "_romberg", counted)
        report = solve()
    return report, ids, calls


_EDGES = ["left", "right", "down", "up"]
_MIDS = ["vertical-mid", "horizontal-mid"]


@pytest.mark.parametrize("rule,traces", [
    ("s_minus", _MIDS + _EDGES), ("s_plus", _EDGES + _MIDS), ("mean", _EDGES + _MIDS),
])
def test_refine_integrates_each_trace_once_per_solve(monkeypatch, rule, traces):
    """Romberg traces do not depend on the level, so a solve over several
    levels integrates each of its traces at most once, at the solve's tied
    tolerance.  At 1e-6 the probe pair misses tol, so a one-sided solve
    also reads the other rule, whose traces come after its own."""
    report, ids, calls = _traces_integrated(monkeypatch, lambda: _solve(EXP, UNIT, rule, 1e-6))
    assert len(report.levels) >= 2
    assert ids == traces
    assert calls == [1e-6 / 2000] * 6


@pytest.mark.parametrize("rule,traces", [("s_minus", _MIDS), ("s_plus", _EDGES)])
def test_a_pair_that_meets_tol_integrates_only_its_own_traces(monkeypatch, rule, traces):
    """The other rule is read only when a pair misses tol: a solve that
    meets it at (4, 8) integrates the traces of its own rule alone."""
    report, ids, calls = _traces_integrated(monkeypatch, lambda: refine(EXP, UNIT, rule, 1e-2))
    assert [lv.n for lv in report.levels] == [4, 8]
    assert ids == traces
    assert len(calls) == len(traces)


@pytest.mark.parametrize("value", [math.nan, math.inf, None, 1j], ids=["nan", "inf", "None", "1j"])
def test_non_finite_exact_traces_are_refused(value):
    """A non-finite value from an exact-trace supplier, or one ``float()``
    refuses with a TypeError, is named with its line, not reported as an
    empty enclosure, carried into a refinement result or raised unnamed."""
    F = Integrand2D(
        f=lambda x, y: math.exp(x * y),
        d22_sign="nonnegative",
        exact_traces=(lambda c, iv: value, lambda c, iv: value),
    )
    if isinstance(value, float):
        reason = rf"exact trace integral returned non-finite value {value!r}"
    else:
        reason = rf"exact trace integral returned {value!r}, not a real number"
    with pytest.raises(ValueError, match=rf"^the left trace integral, on the line x = 0.0, failed: {reason}$"):
        enclosure(F, UNIT, 4, 4)
    with pytest.raises(ValueError, match=rf"^the vertical-mid trace integral, on the line x = 0.5, failed: {reason}$"):
        refine(F, UNIT, "s_minus", 1e-3, max_n=16)


def test_a_type_error_of_the_trace_supplier_itself_is_not_renamed():
    """Only the conversion of the supplier's value is checked: an error the
    supplier raises reaches the caller as it is."""

    def broken(c, iv):
        raise TypeError("supplier bug")

    F = Integrand2D(f=lambda x, y: math.exp(x * y), d22_sign="nonnegative", exact_traces=(broken, broken))
    with pytest.raises(TypeError, match="^supplier bug$"):
        enclosure(F, UNIT, 4, 4)


# --------------------------------------------------------------------------
# The Romberg trace tolerance of a refinement.


@pytest.mark.parametrize("rule", ["s_minus", "s_plus", "mean"])
@pytest.mark.parametrize("iv,tol", [
    (UNIT, 1e-4), (UNIT, 2e-9), (Interval(0.3, 0.55), 1e-6), (Interval(0.1, 1.2), 3e-3),
])
def test_romberg_trace_budget_is_a_thousandth_of_tol(iv, tol, rule):
    """Each trace is integrated to tol / (2000 * width), and every rule
    spends twice the width times that on its traces."""
    assert tol >= 2000 * iv.width * 1e-12
    report = _solve(EXP, iv, rule, tol, max_n=64)
    for lv in report.levels:
        assert lv.trace_budget == pytest.approx(tol / 1000, rel=1e-14)


@pytest.mark.parametrize("rule", ["s_minus", "s_plus", "mean"])
@pytest.mark.parametrize("iv,tol", [
    (UNIT, 2e-9), (UNIT, 1e-10), (Interval(0.3, 0.55), 5e-10), (Interval(0.1, 1.2), 1e-12),
])
def test_a_tolerance_at_the_floor_keeps_the_fixed_trace_tolerance(monkeypatch, iv, tol, rule):
    """Where tol / (2000 * width) is at most 1e-12, a refinement's result
    is that of the fixed trace tolerance, bit for bit."""
    assert tol <= 2000 * iv.width * 1e-12
    tied = _solve(EXP, iv, rule, tol, max_n=64)
    # The fixed tolerance is the default of the fixed-level rules.
    levels = cubature._levels
    monkeypatch.setattr(adaptive, "_levels", lambda F, iv, trace_tol: levels(F, iv))
    fixed = _solve(EXP, iv, rule, tol, max_n=64)
    assert repr(tied) == repr(fixed)
    assert all(lv.trace_budget == pytest.approx(2 * iv.width * 1e-12, rel=1e-14) for lv in tied.levels)


@given(
    k=st.floats(min_value=0.5, max_value=2.0),
    a=st.floats(min_value=0.0, max_value=0.5, exclude_max=True),
    w=st.floats(min_value=0.25, max_value=1.0, exclude_max=True),
    log_rtol=st.floats(min_value=-3.0, max_value=-2.0),
)
@settings(max_examples=60, deadline=None)
def test_tied_trace_tolerance_holds_on_small_exp_squares(k, a, w, log_rtol):
    """On certify-small's squares and tolerances, every Romberg trace of
    exp(kxy) at the tied tolerance lies within that tolerance of its closed
    form (exp(kcb) - exp(kca)) / (kc), written as a product so that it
    keeps its digits as kc approaches 0."""
    iv = Interval(a, a + w)
    F = Integrand2D(f=lambda x, y: math.exp(k * x * y), d22_sign="nonnegative")
    tol = 10.0**log_rtol * brute_force_integral(lambda x, y: np.exp(k * x * y), iv, 4)
    seen = []
    integrate = cubature._trace_integrals

    def spy(F, iv, traces, trace_tol):
        out = integrate(F, iv, traces, trace_tol)
        seen.append((trace_tol, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cubature, "_trace_integrals", spy)
        refine_mean(F, iv, tol, max_n=64)
    # The edges when s_plus is first read, then the mid-lines.
    assert len(seen) == 2
    (trace_tol, _), _ = seen
    assert trace_tol == max(tol / (2000 * iv.width), 1e-12)
    assert all(t == trace_tol for t, _ in seen)
    traces = {**seen[0][1], **seen[1][1]}
    assert len(traces) == 6
    ends = {tid: end for entries in cubature._RULE_TRACES.values() for tid, _, end in entries}
    for tid, (value, budget) in traces.items():
        x = k * getattr(iv, ends[tid])
        if abs(x * iv.width) < sys.float_info.min:
            closed = iv.width * math.exp(x * iv.a)
        else:
            closed = math.exp(x * iv.a) * math.expm1(x * iv.width) / x
        assert budget == trace_tol
        assert abs(value - closed) <= trace_tol, (tid, value, closed, trace_tol)


# --------------------------------------------------------------------------
# Predicted levels.


def _solve(F, iv, rule, tol, **kwargs):
    if rule == "mean":
        return refine_mean(F, iv, tol, **kwargs)
    return refine(F, iv, rule, tol, **kwargs)


def _assert_pair_rows(report):
    """Only a row whose previous row is its half level carries a bound;
    every 'mean' row carries one."""
    mean = report.rule == "mean"
    previous = [None] + [lv.n for lv in report.levels[:-1]]
    for prev_n, lv in zip(previous, report.levels):
        has_bound = mean or (prev_n is not None and 2 * prev_n == lv.n)
        assert (lv.aposteriori_bound is not None) == has_bound
        assert (lv.centre is not None) == has_bound


_RULE = st.sampled_from(["s_minus", "s_plus", "mean"])
_TOL = st.floats(min_value=-7.0, max_value=-3.0).map(lambda e: 10.0**e)


def _assert_certified_against_oracle(report, tol, ref):
    assert report.termination == "tolerance_met"
    assert report.final_bound <= tol
    assert abs(report.final_value - ref) <= report.final_bound + 1e-12 * abs(ref)
    _assert_pair_rows(report)


@given(
    rule=_RULE,
    tol=_TOL,
    k=st.floats(min_value=0.5, max_value=2.0),
    a=st.floats(min_value=0.0, max_value=0.5),
    w=st.floats(min_value=0.1, max_value=0.5),
)
@settings(max_examples=40, deadline=None)
def test_predicted_levels_certify_scalar_exp_with_romberg_traces(rule, tol, k, a, w):
    """D22 exp(kxy) >= 0 wherever xy >= 0, so the sign is proven here."""
    iv = Interval(a, a + w)
    F = Integrand2D(f=lambda x, y: math.exp(k * x * y), d22_sign="nonnegative")
    report = _solve(F, iv, rule, tol, max_n=4096)
    ref = brute_force_integral(lambda x, y: np.exp(k * x * y), iv, 6)
    _assert_certified_against_oracle(report, tol, ref)


@given(
    fn_id=st.sampled_from(["exp_xy", "sin_xy"]),
    rule=_RULE,
    tol=_TOL,
    a=st.floats(min_value=-0.5, max_value=0.9),
    w=st.floats(min_value=0.1, max_value=0.6),
)
@settings(max_examples=40, deadline=None)
@example(fn_id="exp_xy", rule="s_plus", tol=1e-3, a=5e-324, w=0.5)
def test_predicted_levels_certify_vectorized_builtins(fn_id, rule, tol, a, w):
    builtin = BUILTINS[fn_id]
    iv = Interval(a, a + w)
    assume(builtin.proven(iv.a, iv.b))
    report = _solve(builtin.integrand, iv, rule, tol, max_n=4096)
    ref = brute_force_integral(builtin.integrand.f, iv, 6)
    _assert_certified_against_oracle(report, tol, ref)


@pytest.mark.parametrize("rule,tol", [
    ("s_minus", 1e-6), ("s_plus", 1e-6), ("mean", 1e-6), ("s_minus", 1e-4), ("mean", 1e-4),
])
def test_predicted_levels_count_only_grid_points(counted_exp_xy, rule, tol):
    """With exact traces f is called once per grid point of each reported
    level: even levels put the mid-lines on the grid, so the mid-line
    rule makes no off-grid calls."""
    F, calls = counted_exp_xy
    report = _solve(F, UNIT, rule, tol, max_n=4096)
    assert report.termination == "tolerance_met"
    assert calls[0] == sum((lv.n + 1) ** 2 for lv in report.levels)
    if rule != "s_plus":
        assert all(lv.n % 2 == 0 for lv in report.levels)


@pytest.mark.parametrize("rule", ["mean", "s_minus"])
def test_predicted_levels_count_only_grid_points_off_the_unit_square(counted_exp_xy, rule):
    """On [0.3, 1] the node ``a + (n/2) h`` misses the midpoint at almost
    every even level, the levels these solves take among them; node n/2
    of the grid is the midpoint itself, so the mid-line rule still makes
    no off-grid calls."""
    F, calls = counted_exp_xy
    report = _solve(F, Interval(0.3, 1.0), rule, 1e-6)
    assert report.termination == "tolerance_met"
    assert calls[0] == sum((lv.n + 1) ** 2 for lv in report.levels)


def test_predicted_levels_evaluate_fewer_points_than_doubling(counted_exp_xy):
    """Doubling from level 4 would stop at the first power-of-two pair
    whose half difference meets tol, (128, 256) here, after 88,399 points.
    The probe pair's interval, cut by the enclosure at 8, predicts 112."""
    F, calls = counted_exp_xy
    report = refine(F, UNIT, "s_minus", 1e-6, max_n=4096)
    assert [lv.n for lv in report.levels] == [4, 8, 112, 224]
    assert calls[0] == 63_500
    ns = [4]
    values = [s_minus(F, UNIT, 4).value]
    while len(values) < 2 or 0.5 * abs(values[-1] - values[-2]) > 1e-6:
        ns.append(2 * ns[-1])
        values.append(s_minus(F, UNIT, ns[-1]).value)
    assert ns[-1] == 256
    assert sum((n + 1) ** 2 for n in ns) == 88_399


@pytest.mark.parametrize("rule", ["s_minus", "s_plus"])
def test_predicted_levels_end_on_the_cap_pair_below_the_trace_budget(rule):
    """A tolerance under the Romberg budget cannot be met at any level, so
    the refinement goes straight from (4, 8) to (max_n/2, max_n)."""
    report = refine(EXP, UNIT, rule, 1e-13, max_n=64)
    assert report.levels[-1].trace_budget > 1e-13
    assert report.termination == "max_n_reached"
    assert [lv.n for lv in report.levels] == [4, 8, 32, 64]
    assert report.final_bound == report.levels[-1].aposteriori_bound + report.levels[-1].trace_budget


def test_predicted_mean_ends_on_the_cap_below_the_trace_budget():
    report = refine_mean(EXP, UNIT, 1e-13, max_n=64)
    assert report.termination == "max_n_reached"
    assert [lv.n for lv in report.levels] == [4, 64]


def test_predicted_levels_cap_an_unmet_tolerance_with_exact_traces():
    """An exact-trace tolerance that max_n cannot reach: the predicted
    pairs stop at the cap, whatever the prediction."""
    F = BUILTINS["exp_xy"].integrand
    report = refine(F, UNIT, "s_plus", 1e-12, max_n=16)
    assert report.termination == "max_n_reached"
    assert [lv.n for lv in report.levels] == [4, 8, 16]
    report = refine(F, UNIT, "s_minus", 1e-12, max_n=20)
    assert [lv.n for lv in report.levels] == [4, 8, 10, 20]


@pytest.mark.parametrize("rule,c,rtol,levels", [
    ("s_plus", 30.0, 1e-1, [4, 8, 51, 102, 56, 112]),
    ("mean", 20.0, 1e-2, [4, 166, 192]),
])
def test_a_short_prediction_predicts_again(rule, c, rtol, levels):
    """On exp(c(x+y)) the coarse levels are far from the n^-2 regime, so
    the first prediction falls short and the next one is made from it.
    (s_plus on exp(20(x+y)) at 1e-2 now meets tol at its first predicted
    pair, 92 and 184, whose interval the enclosure cuts.)"""
    F = Integrand2D(f=lambda x, y: np.exp(c * (x + y)), d22_sign="nonnegative", vectorized=True)
    exact = ((math.exp(c) - 1.0) / c) ** 2
    report = _solve(F, UNIT, rule, rtol * exact, max_n=4096)
    assert [lv.n for lv in report.levels] == levels
    assert report.termination == "tolerance_met"
    assert report.final_bound <= rtol * exact
    assert abs(report.final_value - exact) <= report.final_bound
    _assert_pair_rows(report)



# --------------------------------------------------------------------------
# The centred pair interval.


def _overshoots(rule, sign):
    return (rule == "s_minus") == (sign == "nonnegative")


@pytest.mark.parametrize("tol", [1e-4, 1e-5, 1e-6, 1e-7])
@pytest.mark.parametrize("rule", ["s_minus", "s_plus"])
@pytest.mark.parametrize("fn_id,sign", [("exp_xy", "nonnegative"), ("sin_xy", "nonpositive")])
def test_centred_interval_reaches_from_the_rule_value_towards_the_integral(fn_id, sign, rule, tol):
    """The declared sign puts the integral on one side of S(2m): the
    reported interval has S(2m) at its upper end when the rule overshoots
    and at its lower end when it undershoots, and holds the series value.
    The traces are exact, so S(2m) is an end up to the rounding of
    ``centre -+ bound``."""
    builtin = BUILTINS[fn_id]
    assert builtin.integrand.d22_sign == sign
    report = refine(builtin.integrand, UNIT, rule, tol)
    assert report.termination == "tolerance_met"
    assert report.final_bound <= tol
    s = report.levels[-1].estimate
    lower, upper = report.final_value - report.final_bound, report.final_value + report.final_bound
    near, far = (upper, lower) if _overshoots(rule, sign) else (lower, upper)
    assert abs(near - s) <= 2 * math.ulp(s)
    assert abs(far - s) == pytest.approx(2 * report.final_bound, rel=1e-9)
    reference = builtin.reference().value
    assert lower <= reference <= upper
    assert (s >= reference) == _overshoots(rule, sign)


@given(
    rule=st.sampled_from(["s_minus", "s_plus"]),
    k=st.floats(min_value=0.5, max_value=2.0),
    a=st.floats(min_value=0.0, max_value=0.5, exclude_max=True),
    w=st.floats(min_value=0.25, max_value=1.0, exclude_max=True),
    log_rtol=st.floats(min_value=-3.0, max_value=-2.0),
)
@settings(max_examples=40, deadline=None)
def test_centred_interval_certifies_small_exp_squares(rule, k, a, w, log_rtol):
    """The squares, tolerances and level cap of the certify-small
    benchmark, with Romberg traces: the centred interval holds the
    brute-force integral within the benchmark's 1e-12 relative margin,
    and the rule value lies on the side the declared sign gives."""
    iv = Interval(a, a + w)
    F = Integrand2D(f=lambda x, y: math.exp(k * x * y), d22_sign="nonnegative")
    ref = brute_force_integral(lambda x, y: np.exp(k * x * y), iv, 6)
    margin = 1e-12 * abs(ref)
    tol = 10.0**log_rtol * abs(ref)
    report = refine(F, iv, rule, tol, max_n=64)
    assert report.termination == "tolerance_met"
    assert report.final_bound <= tol
    assert abs(report.final_value - ref) <= report.final_bound + margin
    s, budget = report.levels[-1].estimate, report.levels[-1].trace_budget
    if _overshoots(rule, F.d22_sign):
        assert s + budget + margin >= ref
    else:
        assert s - budget - margin <= ref


# --------------------------------------------------------------------------
# A missed pair cut by the enclosure at the same level.


@pytest.mark.parametrize("tol", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
@pytest.mark.parametrize("rule", ["s_minus", "s_plus"])
@pytest.mark.parametrize("fn_id", ["exp_xy", "sin_xy"])
def test_a_missed_pair_reports_its_intersection_with_the_enclosure(fn_id, rule, tol):
    """Each pair row, recomputed from the pair and from s_plus and s_minus
    at its level: where the pair alone misses tol, the row is the
    intersection of the pair interval and the enclosure, which lies in
    both, and every row holds the series reference."""
    builtin = BUILTINS[fn_id]
    F = builtin.integrand
    overshoots = _overshoots(rule, F.d22_sign)
    reference = Fraction(builtin.reference().value)
    report = refine(F, UNIT, rule, tol, max_n=4096)
    assert report.termination == "tolerance_met"
    for prev, lv in _half_level_pairs(report):
        s = Fraction(lv.estimate)
        pair, _ = _reach(rule, prev, lv, None, overshoots)
        pair_ends = sorted((s, s - Fraction(pair) if overshoots else s + Fraction(pair)))
        enc = enclosure(F, UNIT, lv.n, lv.n)
        assert enc.slack == lv.trace_budget == 0.0
        rule_value = (s_minus if rule == "s_minus" else s_plus)(F, UNIT, lv.n).value
        assert rule_value == lv.estimate
        if 0.5 * pair <= tol:
            lower, upper = pair_ends
            assert lv.centre == (lv.estimate - 0.5 * pair if overshoots else lv.estimate + 0.5 * pair)
        else:
            lower = max(pair_ends[0], Fraction(enc.lower))
            upper = min(pair_ends[1], Fraction(enc.upper))
            assert lower <= upper
            other = enc.lower if overshoots else enc.upper
            reach, _ = _reach(rule, prev, lv, other, overshoots)
            assert lv.centre == (lv.estimate - 0.5 * reach if overshoots else lv.estimate + 0.5 * reach)
        _assert_covers(lv, lower, upper)
        r = lv.aposteriori_bound + lv.trace_budget
        low, high = Fraction(lv.centre - r), Fraction(lv.centre + r)
        if 0.5 * pair > tol:
            # Inside both intervals, but for the rounding of the centre.
            slack = 4 * Fraction(math.ulp(lv.estimate))
            for a, b in (pair_ends, (Fraction(enc.lower), Fraction(enc.upper))):
                assert a - slack <= low and high <= b + slack
        assert low <= reference <= high


@pytest.mark.parametrize("rule", ["s_minus", "s_plus"])
def test_the_enclosure_cuts_the_interval_the_prediction_reads(rule):
    """The probe pair of exp_xy at 1e-6 misses tol for both rules, and the
    enclosure at 8 is tighter than either pair interval: the row's bound is
    half the gap between the rules, which the next prediction reads."""
    F = BUILTINS["exp_xy"].integrand
    report = refine(F, UNIT, rule, 1e-6, max_n=4096)
    probe = report.levels[1]
    assert probe.n == 8
    enc = enclosure(F, UNIT, 8, 8)
    half_gap = 0.5 * (enc.upper - enc.lower)
    assert half_gap <= probe.aposteriori_bound <= half_gap + 2 * math.ulp(probe.estimate)
    assert [lv.n for lv in report.levels] == ([4, 8, 112, 224] if rule == "s_minus" else [4, 8, 111, 222])


@pytest.mark.parametrize("rule,tol", [("s_minus", 1e-5), ("s_plus", 1e-5), ("s_plus", 1e-7)])
def test_the_other_rule_adds_no_grid_evaluation(counted_exp_xy, rule, tol):
    """Pair rows are at even levels, where the mid-lines are grid lines, so
    reading the other rule there costs no call of f: a counted exact-trace
    solve calls f exactly once per grid point of its levels."""
    F, calls = counted_exp_xy
    report = refine(F, UNIT, rule, tol, max_n=4096)
    assert report.termination == "tolerance_met"
    assert calls[0] == sum((lv.n + 1) ** 2 for lv in report.levels)
    # The probe pair missed tol, so the other rule was read.
    assert 0.5 * abs(report.levels[1].diff_to_previous) > tol


def _recorded(F):
    """F with exact traces that record the axis of each call."""
    seen = []

    def recording(axis, g):
        def line(c, iv):
            seen.append(axis)
            return g(c, iv)
        return line

    g_x, g_y = F.exact_traces
    return Integrand2D(F.f, F.d22_sign, (recording("x", g_x), recording("y", g_y))), seen


@pytest.mark.parametrize("sign", ["nonnegative", "nonpositive"])
@pytest.mark.parametrize("rule", ["s_minus", "s_plus"])
def test_an_exact_pair_on_bilinear_needs_no_enclosure(rule, sign):
    """D22 bilinear_xy = 0, so either declaration holds and S(4) = S(8): on
    [0.1, 0.7] at tol 1e-9 the pair bound is 0 and meets tol, and the other
    rule, whose enclosure is empty by rounding under one of the two
    declarations, is not read."""
    F, seen = _recorded(dataclasses.replace(BUILTINS["bilinear_xy"].integrand, d22_sign=sign))
    iv = Interval(0.1, 0.7)
    report = refine(F, iv, rule, 1e-9)
    assert report.termination == "tolerance_met"
    (first, last) = report.levels
    assert (first.n, last.n) == (4, 8)
    assert last.estimate == first.estimate
    assert (last.aposteriori_bound, last.centre) == (0.0, last.estimate)
    assert len(seen) == (2 if rule == "s_minus" else 4)


@pytest.mark.parametrize("F,iv", [
    # bilinear_xy: S(8) is 1 ulp below S(4), and s_plus(8) 2 ulps above
    # s_minus(8), by rounding alone.
    (BUILTINS["bilinear_xy"].integrand, Interval(0.134, 0.989)),
    # exp(xy) declared nonpositive, which is false: the rules cross.
    (dataclasses.replace(BUILTINS["exp_xy"].integrand, d22_sign="nonpositive"), UNIT),
])
def test_an_empty_intersection_keeps_the_pair_row(F, iv):
    """When the other rule lies on the wrong side of S(2m), the pair
    interval and the enclosure do not meet: the row keeps its pair
    interval, the solve goes on to the cap, and the other rule was read."""
    F, seen = _recorded(F)
    report = refine(F, iv, "s_minus", 1e-30, max_n=16)
    assert report.termination == "max_n_reached"
    assert [lv.n for lv in report.levels] == [4, 8, 16]
    overshoots = F.d22_sign == "nonnegative"
    for prev, lv in _half_level_pairs(report):
        t = s_plus(F, iv, lv.n).value
        assert (t > lv.estimate) if overshoots else (t < lv.estimate)
        pair, _ = _reach("s_minus", prev, lv, None, overshoots)
        assert pair > 0.0
        assert lv.centre == (lv.estimate - 0.5 * pair if overshoots else lv.estimate + 0.5 * pair)
        s = Fraction(lv.estimate)
        _assert_covers(lv, *sorted((s, s - Fraction(pair) if overshoots else s + Fraction(pair))))
    assert sorted(seen[:6]) == ["x", "x", "x", "y", "y", "y"]


# --------------------------------------------------------------------------
# Rounding and overflow at the edges of the float range.


def test_a_huge_tolerance_on_a_tiny_square_keeps_a_finite_trace_tolerance():
    """tol / (2000 * width) overflows to inf here; the per-trace tolerance
    is capped, so the budget stays finite and the probe pair meets tol."""
    F = Integrand2D(lambda x, y: math.exp(x * y), "nonnegative")
    iv = Interval(0.0, 1e-300)
    assert 1e12 / (2000.0 * iv.width) == math.inf
    for rule in ("s_minus", "s_plus"):
        report = refine(F, iv, rule, tol=1e12, max_n=16)
        assert report.termination == "tolerance_met"
        assert [lv.n for lv in report.levels] == [4, 8]
        assert 0.0 < report.final_bound <= 1e12
    report = refine_mean(F, iv, tol=1e12, max_n=16)
    assert report.termination == "tolerance_met"
    assert math.isfinite(report.final_bound)


_HUGE = Integrand2D(lambda x, y: 1.7e308 * math.cos(3 * x * y) ** 2, "nonnegative")


@pytest.mark.parametrize("solve,line", [
    pytest.param(lambda: refine(_HUGE, UNIT, "s_minus", 1e300, max_n=16), "vertical-mid trace integral, on the line x = 0.5", id="refine-s_minus"),
    pytest.param(lambda: refine(_HUGE, UNIT, "s_plus", 1e300, max_n=16), "left trace integral, on the line x = 0.0", id="refine-s_plus"),
    pytest.param(lambda: refine_mean(_HUGE, UNIT, 1e300, max_n=16), "left trace integral, on the line x = 0.0", id="refine_mean"),
    pytest.param(lambda: enclosure(_HUGE, UNIT, 4, 4), "left trace integral, on the line x = 0.0", id="enclosure"),
    pytest.param(lambda: s_plus(_HUGE, UNIT, 4), "left trace integral, on the line x = 0.0", id="s_plus"),
])
def test_an_overflowing_romberg_trace_is_named(solve, line):
    """The grid pass of this integrand stays finite, but its Romberg trace
    sums overflow: the error names the trace line and the interval, where
    fsum's bare 'intermediate overflow' escaped before."""
    with pytest.raises(ValueError, match=rf"^the {line}, failed: Romberg sums overflow the float range on \[0.0, 1.0\]$"):
        solve()


_INF_ON_DOWN_EDGE = Integrand2D(
    lambda x, y: math.inf if y == 0.0 and 0.3 < x < 0.4 else math.exp(x * y) + math.sin(5 * x), "nonnegative"
)


@pytest.mark.parametrize("solve", [
    pytest.param(lambda: enclosure(_INF_ON_DOWN_EDGE, UNIT, 4, 4), id="enclosure"),
    pytest.param(lambda: refine(_INF_ON_DOWN_EDGE, UNIT, "s_plus", 1e-3), id="refine-s_plus"),
])
def test_a_non_finite_romberg_trace_value_is_named_with_its_line(solve):
    """The grid at n = 4 misses the infinite stretch of the edge y = 0,
    which the down trace's Romberg nodes reach at x = 0.375: the error
    names the trace and its line as well as the point on it."""
    with pytest.raises(ValueError, match=r"^the down trace integral, on the line y = 0.0, failed: integrand returned non-finite value inf at 0.375$"):
        solve()


@pytest.mark.parametrize("fn_id,rule,tol", [
    ("sin_xy", "s_minus", 1e-3), ("exp_xy", "s_minus", 1e-7), ("sin_xy", "s_minus", 1e-5), ("exp_xy", "s_plus", 1e-5),
])
def test_the_reported_interval_reaches_the_rule_value_in_floats(fn_id, rule, tol):
    """``centre -+ (aposteriori_bound + trace_budget)``, as a user evaluates
    it, holds S(2m), the end the declared sign gives, on every pair row.
    Centred without widening, the first two cases round it out: the pair
    (4, 8) of the first and the last pair of the second."""
    F = BUILTINS[fn_id].integrand
    report = refine(F, UNIT, rule, tol, max_n=4096)
    s = report.levels[-1].estimate
    assert report.final_value - report.final_bound <= s <= report.final_value + report.final_bound
    for _, lv in _half_level_pairs(report):
        r = lv.aposteriori_bound + lv.trace_budget
        assert lv.centre - r <= lv.estimate <= lv.centre + r


def test_the_centred_pair_interval_is_widened_to_reach_its_ends():
    """The pair (22, 44) of sin_xy's mid-line rule, which undershoots: the
    centre S(44) + P/2 rounds up, so ``centre - P/2`` was 2.8e-17 above
    S(44).  The widened bound reaches S(44) and S(44) + P in floats."""
    F = BUILTINS["sin_xy"].integrand
    coarse, fine = s_minus(F, UNIT, 22).value, s_minus(F, UNIT, 44).value
    pair = abs(fine - coarse)
    centre = fine + 0.5 * pair
    assert centre - 0.5 * pair - fine == pytest.approx(2.8e-17, rel=0.01)
    bound = adaptive._widened(centre, 0.5 * pair, (fine,), (fine, pair), 0.0)
    assert 0.5 * pair < bound <= 0.5 * pair + 2 * math.ulp(fine)
    assert Fraction(centre - bound) <= Fraction(fine)
    assert Fraction(centre + bound) >= Fraction(fine) + Fraction(pair)


@pytest.mark.parametrize("centre,bound,lower,upper", [
    # centre + r overflows before any end is summed.
    pytest.param(1.7e308, 1e308, (1.7e308,), (1.7e308,), id="centre-plus-bound"),
    # centre + r is finite, but the sum of the lower end's terms is not.
    pytest.param(1e308, 0.0, (1e308, 1e308, -1e308), (1e308,), id="end-sum"),
])
def test_a_bound_whose_interval_leaves_the_float_range_widens_to_inf(centre, bound, lower, upper):
    """No finite bound reaches an end beyond the float range."""
    assert adaptive._widened(centre, bound, lower, upper, 0.0) == math.inf
