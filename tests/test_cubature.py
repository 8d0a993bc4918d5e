"""Tests for the product rule, the two one-sided rules, and the bracket."""
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapcube.adaptive import refine, refine_mean
from trapcube.cubature import (
    _TRACE_TOL,
    _trace_integrals,
    Enclosure,
    Integrand2D,
    enclosure,
    error_constant,
    product_trapezoid,
    s_minus,
    s_plus,
)
from trapcube.oracle import ref_exp_integral, ref_sin_integral
from trapcube.univariate import Interval, _romberg, apply, trapezium_rule

from crosscheck import s_minus_by_blending, s_plus_by_blending

UNIT = Interval(0.0, 1.0)

EXP = Integrand2D(f=lambda x, y: math.exp(x * y), d22_sign="nonnegative")
SIN = Integrand2D(f=lambda x, y: math.sin(x * y), d22_sign="nonpositive")


def _zero_line(c, iv):
    return 0.0


def test_integrand_validation():
    with pytest.raises(ValueError):
        Integrand2D(f=lambda x, y: x, d22_sign="positive")
    six = dict.fromkeys(
        ("left", "right", "down", "up", "vertical-mid", "horizontal-mid"), lambda iv: 0.0
    )
    for traces in (six, (_zero_line,), (_zero_line, 0.0), [_zero_line, _zero_line]):
        with pytest.raises(ValueError, match="tuple"):
            Integrand2D(f=lambda x, y: x, exact_traces=traces)
    assert Integrand2D(f=lambda x, y: x, exact_traces=(_zero_line, _zero_line)).exact_traces


@pytest.mark.parametrize("iv", [UNIT, Interval(0.1, 0.7), Interval(-3.0, 1e-9)])
def test_rules_call_the_line_integrals_on_their_lines(iv):
    """s_minus integrates along x = m and y = m, with m the midpoint and
    node n/2 of the grid at even n; s_plus along x and y at both ends.
    Each call gets the square's interval, and a refinement makes each
    call at most once per solve: its own rule's first, then, once a pair
    misses tol, the other rule's."""
    calls = []

    def recorded(axis):
        def g(c, line_iv):
            calls.append((axis, c, line_iv))
            return (math.exp(c * line_iv.b) - math.exp(c * line_iv.a)) / c if c else line_iv.width
        return g

    F = Integrand2D(
        f=lambda x, y: math.exp(x * y),
        d22_sign="nonnegative",
        exact_traces=(recorded("x"), recorded("y")),
    )
    m = iv.midpoint
    for n in (2, 4, 6):
        calls.clear()
        s_minus(F, iv, n)
        assert m == trapezium_rule(iv, n).nodes[n // 2]
        assert calls == [("x", m, iv), ("y", m, iv)]
    edges = [("x", iv.a, iv), ("x", iv.b, iv), ("y", iv.a, iv), ("y", iv.b, iv)]
    calls.clear()
    s_plus(F, iv, 3)
    assert calls == edges
    mids = [("x", m, iv), ("y", m, iv)]
    calls.clear()
    report = refine(F, iv, "s_minus", tol=1e-6 * iv.width**2)
    assert len(report.levels) >= 2
    assert calls == mids + edges
    calls.clear()
    report = refine(F, iv, "s_plus", tol=1e-6 * iv.width**2)
    assert len(report.levels) >= 2
    assert calls == edges + mids
    calls.clear()
    refine_mean(F, iv, tol=1e-6 * iv.width**2)
    assert sorted(calls) == sorted(edges + [("x", m, iv), ("y", m, iv)])


def test_product_trapezoid_constant():
    F = Integrand2D(f=lambda x, y: 1.0)
    iv = Interval(-1.0, 2.5)
    est = product_trapezoid(F, iv, 5)
    assert est.value == pytest.approx(iv.width**2, rel=1e-15)
    assert est.rule == "product_trap"
    assert est.n == 5


@given(
    n=st.integers(min_value=1, max_value=12),
    coeffs=st.tuples(*[st.floats(min_value=-3, max_value=3) for _ in range(4)]),
)
@settings(max_examples=150)
def test_product_trapezoid_exact_on_bilinear(n, coeffs):
    """h^2 double sums integrate p + qx + ry + sxy without error."""
    p, q, r, s = coeffs
    F = Integrand2D(f=lambda x, y: p + q * x + r * y + s * x * y)
    exact = p + q / 2 + r / 2 + s / 4
    est = product_trapezoid(F, UNIT, n)
    assert est.value == pytest.approx(exact, rel=1e-13, abs=1e-13)


def test_product_trapezoid_reports_offending_point():
    F = Integrand2D(f=lambda x, y: math.nan if (x, y) == (0.5, 1.0) else 0.0)
    with pytest.raises(ValueError) as info:
        product_trapezoid(F, UNIT, 2)
    assert "0.5" in str(info.value) and "1.0" in str(info.value)


def test_one_sided_values_on_the_transcendental_pair():
    """Frozen values: overshoot above, undershoot below the reference."""
    ref = ref_exp_integral().value
    sm = s_minus(EXP, UNIT, 4)
    sp = s_plus(EXP, UNIT, 4)
    assert sm.value == pytest.approx(1.3198491184324224, rel=1e-14)
    assert sp.value == pytest.approx(1.3142869193948545, rel=1e-14)
    assert sp.value < ref < sm.value

    ref_g = ref_sin_integral().value
    assert s_plus(SIN, UNIT, 8).value > ref_g > s_minus(SIN, UNIT, 8).value


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_remainder_sandwiched_by_derivative_range(n):
    """I - S = c(S) * D22 f(P) for some interior P, so the remainder lies
    between c(S) times the derivative extremes."""
    ref = ref_exp_integral().value
    # D22 e^{xy} = e^{xy} (2 + 4xy + x^2 y^2) ranges over [2, 7e] on the unit square
    d_lo, d_hi = 2.0, 7.0 * math.e
    for evaluate, rule in ((s_minus, "s_minus"), (s_plus, "s_plus")):
        c = error_constant(rule, UNIT, n)
        remainder = ref - evaluate(EXP, UNIT, n).value
        lo, hi = sorted((c * d_lo, c * d_hi))
        assert lo - 1e-13 <= remainder <= hi + 1e-13


def test_error_constant_values():
    # n = 1 closed forms on the unit square
    assert error_constant("s_minus", UNIT, 1) == pytest.approx(-1.0 / 72.0, rel=1e-15)
    assert error_constant("s_plus", UNIT, 1) == pytest.approx(1.0 / 144.0, rel=1e-15)


@given(
    width=st.floats(min_value=0.1, max_value=5.0),
    n=st.integers(min_value=1, max_value=50),
)
def test_error_constant_scales_with_sixth_power(width, n):
    iv = Interval(0.0, width)
    for rule in ("s_minus", "s_plus"):
        scaled = error_constant(rule, iv, n)
        unit = error_constant(rule, UNIT, n)
        assert scaled == pytest.approx(unit * width**6, rel=1e-12)


def test_error_constant_signs_and_decay():
    for n in (1, 2, 4, 8, 16):
        cm = error_constant("s_minus", UNIT, n)
        cp = error_constant("s_plus", UNIT, n)
        assert cm < 0 < cp
        # both shrink roughly like 1/n^2
        assert abs(error_constant("s_minus", UNIT, 2 * n)) < abs(cm)
        assert error_constant("s_plus", UNIT, 2 * n) < cp


@pytest.mark.parametrize("solve", [
    lambda n: product_trapezoid(EXP, UNIT, n),
    lambda n: s_minus(EXP, UNIT, n),
    lambda n: s_plus(EXP, UNIT, n),
    lambda n: enclosure(EXP, UNIT, n, n),
    lambda n: enclosure(EXP, UNIT, 4, n),
], ids=["product_trapezoid", "s_minus", "s_plus", "enclosure", "enclosure_mixed"])
@pytest.mark.parametrize("n", [2.0, 2.5, math.nan])
def test_rules_refuse_a_level_that_is_not_an_integer(solve, n):
    with pytest.raises(ValueError, match=f"panel count must be an integer, got {n}"):
        solve(n)


@pytest.mark.parametrize("n_plus,n_minus", [(4, 2.0), (2.0, 4), (4, 0), (0, 4), (4, 4.0), (4.0, 4)])
def test_enclosure_refuses_a_bad_level_before_evaluating_f(counted_exp_xy, n_plus, n_minus):
    """A float level equal to the other, such as (4, 4.0), is refused too,
    not sent to the shared pass of equal levels."""
    F, calls = counted_exp_xy
    with pytest.raises(ValueError, match="panel count must be"):
        enclosure(F, UNIT, n_plus, n_minus)
    assert calls[0] == 0


def test_error_constant_validation():
    with pytest.raises(ValueError):
        error_constant("s_midpoint", UNIT, 1)
    with pytest.raises(ValueError):
        error_constant("s_minus", UNIT, 0)
    for n in (2.5, math.nan):
        with pytest.raises(ValueError, match="refinement level must be an integer"):
            error_constant("s_minus", UNIT, n)


def test_trace_budget_zero_with_exact_traces():
    def line(c, iv):  # exp(c t) over [0, 1]; exp(xy) is symmetric
        return math.expm1(c) / c if c else 1.0

    F = Integrand2D(
        f=lambda x, y: math.exp(x * y), d22_sign="nonnegative", exact_traces=(line, line)
    )
    with_exact = s_minus(F, UNIT, 4)
    with_romberg = s_minus(EXP, UNIT, 4)
    assert with_exact.trace_err_budget == 0.0
    assert with_romberg.trace_err_budget > 0.0
    assert abs(with_exact.value - with_romberg.value) < 1e-12


def test_an_exact_trace_is_its_value_as_a_float_with_budget_zero():
    half = Integrand2D(f=lambda x, y: x, exact_traces=(lambda c, iv: Fraction(1, 2),) * 2)
    traces = _trace_integrals(half, UNIT, (("left", 0, "a"), ("up", 1, "b")), 1e-12)
    assert traces == {"left": (0.5, 0.0), "up": (0.5, 0.0)}
    assert all(type(value) is float for value, _ in traces.values())


def test_a_romberg_trace_has_its_tolerance_as_budget():
    traces = _trace_integrals(EXP, UNIT, (("right", 0, "b"), ("up", 1, "b")), 1e-12)
    for value, budget in traces.values():
        assert budget == 1e-12
        assert abs(value - (math.e - 1.0)) <= 1e-12


def test_rule_values_are_python_floats_with_romberg_traces():
    """A vectorized integrand's Romberg traces are numpy scalars; the
    rule values are still plain floats."""
    F = Integrand2D(f=lambda x, y: np.exp(x * y), d22_sign="nonnegative", vectorized=True)
    assert type(s_minus(F, UNIT, 4).value) is float
    assert type(s_plus(F, UNIT, 4).value) is float


def test_trace_budget_accounting():
    # Each Romberg trace's budget is its tolerance, 1e-12 in the fixed-level
    # rules.  Mid-line rule: two traces at weight w; edge rule: four at
    # weight w/2; the enclosure's slack is the larger.
    tol = 1e-12
    w = UNIT.width
    assert s_minus(EXP, UNIT, 2).trace_err_budget == pytest.approx(w * 2 * tol)
    assert s_plus(EXP, UNIT, 2).trace_err_budget == pytest.approx(0.5 * w * 4 * tol)
    assert enclosure(EXP, UNIT, 2, 4).slack == pytest.approx(w * 2 * tol)


def test_enclosure_brackets_reference_both_signs():
    for F, ref in ((EXP, ref_exp_integral()), (SIN, ref_sin_integral())):
        enc = enclosure(F, UNIT, n_plus=8, n_minus=8)
        assert enc.lower <= ref.value <= enc.upper
        assert enc.n_lower == enc.n_upper == 8


def test_enclosure_orientation_follows_declared_sign():
    enc = enclosure(EXP, UNIT, n_plus=4, n_minus=4)
    assert enc.upper == pytest.approx(s_minus(EXP, UNIT, 4).value, abs=1e-11)
    assert enc.lower == pytest.approx(s_plus(EXP, UNIT, 4).value, abs=1e-11)
    enc_g = enclosure(SIN, UNIT, n_plus=4, n_minus=4)
    assert enc_g.upper == pytest.approx(s_plus(SIN, UNIT, 4).value, abs=1e-11)
    assert enc_g.lower == pytest.approx(s_minus(SIN, UNIT, 4).value, abs=1e-11)


def test_enclosure_requires_declared_sign():
    F = Integrand2D(f=lambda x, y: math.exp(x * y))
    with pytest.raises(ValueError, match="definiteness not declared"):
        enclosure(F, UNIT, n_plus=2, n_minus=2)


def test_enclosure_type_rejects_crossed_bounds():
    with pytest.raises(ValueError, match="empty enclosure"):
        Enclosure(lower=1.0, upper=0.0, n_lower=1, n_upper=1, slack=0.0)


def test_enclosure_ends_hold_the_exact_ends_with_slack():
    """With Romberg traces ``low - slack`` and ``high + slack`` round
    inward on about half of all squares.  Each end holds the exact
    ``S_under - slack`` or ``S_over + slack``, and lies at most one ulp
    outside the rounded one."""
    rng = random.Random(2)
    inward = 0
    for _ in range(40):
        k, a, w = rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.5), rng.uniform(0.25, 1.0)
        F = Integrand2D(f=lambda x, y, k=k: math.exp(k * x * y), d22_sign="nonnegative")
        iv = Interval(a, a + w)
        enc = enclosure(F, iv, 8, 8)
        low, high, slack = s_plus(F, iv, 8).value, s_minus(F, iv, 8).value, enc.slack
        assert slack > 0.0
        assert Fraction(enc.lower) <= Fraction(low) - Fraction(slack)
        assert Fraction(enc.upper) >= Fraction(high) + Fraction(slack)
        assert enc.lower >= math.nextafter(low - slack, -math.inf)
        assert enc.upper <= math.nextafter(high + slack, math.inf)
        inward += (enc.lower != low - slack) + (enc.upper != high + slack)
    assert inward > 0


def test_mismatched_levels_allowed():
    enc = enclosure(EXP, UNIT, n_plus=16, n_minus=2)
    assert enc.lower <= ref_exp_integral().value <= enc.upper


# Construction route: interpolate on the blending grid, integrate the
# interpolant exactly, correct with the product rule.

def test_blending_route_matches_direct_edge_rule():
    for n in (1, 2, 5):
        direct = s_plus(EXP, UNIT, n).value
        built = s_plus_by_blending(EXP, UNIT, n)
        assert built == pytest.approx(direct, rel=1e-13)


def test_blending_route_matches_direct_midline_rule():
    fx = lambda x, y: y * math.exp(x * y)
    fy = lambda x, y: x * math.exp(x * y)
    fxy = lambda x, y: (1.0 + x * y) * math.exp(x * y)
    for n in (1, 2, 5):
        direct = s_minus(EXP, UNIT, n).value
        built = s_minus_by_blending(EXP, UNIT, n, fx, fy, fxy)
        assert built == pytest.approx(direct, rel=1e-13)


def test_blending_route_on_shifted_square():
    iv = Interval(-1.0, 1.5)
    poly = Integrand2D(f=lambda x, y: (x**2 + 1) * (y**3 - y + 2))
    fx = lambda x, y: 2 * x * (y**3 - y + 2)
    fy = lambda x, y: (x**2 + 1) * (3 * y**2 - 1)
    fxy = lambda x, y: 2 * x * (3 * y**2 - 1)
    direct = s_plus(poly, iv, 3).value
    built = s_plus_by_blending(poly, iv, 3)
    assert built == pytest.approx(direct, rel=1e-12)
    direct = s_minus(poly, iv, 3).value
    built = s_minus_by_blending(poly, iv, 3, fx, fy, fxy)
    assert built == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize(
    "n,iv",
    [pytest.param(n, UNIT, id=str(n)) for n in (1, 4, 5, 16)]
    + [pytest.param(n, Interval(0.3, 1.0), id=f"0.3-1.0-{n}") for n in (6, 8, 18, 36)],
)
def test_grid_is_evaluated_once_per_rule_application(counted_exp_xy, n, iv):
    """The product rule, s_plus and a same-level enclosure cost one grid
    pass; only mid-lines off the grid (odd n) cost extra points.  On
    [0.3, 1] the node ``a + (n/2) h`` misses the midpoint at these levels,
    so there the grid's node n/2 must be the midpoint itself."""
    F, calls = counted_exp_xy
    product_trapezoid(F, iv, n)
    assert calls[0] == (n + 1) ** 2
    calls[0] = 0
    s_plus(F, iv, n)
    assert calls[0] == (n + 1) ** 2
    calls[0] = 0
    enclosure(F, iv, n, n)
    off_grid_midlines = 0 if n % 2 == 0 else 2 * (n + 1)
    assert calls[0] == (n + 1) ** 2 + off_grid_midlines


@pytest.mark.parametrize("a,b,n", [(0.3, 1.0, 6), (0.3, 1.0, 5), (0.0, 1.0, 8)])
def test_s_minus_equals_its_formula_bit_for_bit(a, b, n):
    """On [0.3, 1] grid node 3 of n=6 is the midpoint 0.65, where
    ``a + 3 h`` gives 0.6499999999999999, so the mid-line sums the grid
    yields are those of the midpoint's traces."""
    iv = Interval(a, b)
    f, m = EXP.f, iv.midpoint
    rule = trapezium_rule(iv, n)
    remainders = []
    for g in (lambda t: f(m, t), lambda t: f(t, m)):
        value = _romberg(g, iv, _TRACE_TOL)
        remainders.append(value - apply(rule, g))
    expected = product_trapezoid(EXP, iv, n).value + iv.width * (remainders[0] + remainders[1])
    assert s_minus(EXP, iv, n).value == expected


@pytest.mark.parametrize("a,b,n", [(0.3, 1.0, 6), (0.3, 1.0, 5), (0.0, 1.0, 8)])
def test_s_plus_equals_its_formula_bit_for_bit(a, b, n):
    """The grid gives the edge sums: the left and right edges as row sums,
    the down and up edges as column sums of the terms ``terms[0] * (wx /
    w_end)``.  Each must equal apply's trapezium sum of its trace."""
    iv = Interval(a, b)
    f = EXP.f
    rule = trapezium_rule(iv, n)
    remainders = []
    for g in (lambda t: f(a, t), lambda t: f(b, t), lambda t: f(t, a), lambda t: f(t, b)):
        value = _romberg(g, iv, _TRACE_TOL)
        remainders.append(value - apply(rule, g))
    expected = product_trapezoid(EXP, iv, n).value + 0.5 * iv.width * math.fsum(remainders)
    assert s_plus(EXP, iv, n).value == expected


_OUT_OF_RANGE = Integrand2D(
    f=lambda x, y: 0.0, d22_sign="nonnegative", exact_traces=(lambda c, iv: 1.5e308,) * 2
)


@pytest.mark.parametrize("solve,rule", [
    (lambda F: s_plus(F, UNIT, 4), "s_plus"),
    (lambda F: s_minus(F, UNIT, 4), "s_minus"),
    (lambda F: enclosure(F, UNIT, 4, 4), "s_plus"),
    (lambda F: refine_mean(F, UNIT, 1e-3), "s_plus"),
], ids=["s_plus", "s_minus", "enclosure", "refine_mean"])
def test_remainders_whose_sum_overflows_are_refused(solve, rule):
    """Every value of f and every trace integral is finite, but the sum of
    the remainders, 2 or 4 times 1.5e308, overflows inside ``math.fsum``.
    The rule value is refused as out of the float range."""
    message = f"the {rule} value at level 4 on the square [0.0, 1.0]^2 leaves the float range"
    with pytest.raises(ValueError, match=re.escape(message)):
        solve(_OUT_OF_RANGE)


def test_rules_build_their_grids_near_the_float_maximum():
    """On [1e308, 1.7e308] ``0.5 * (a + b)`` overflows; the midpoint, and
    with it node n/2 of every even grid, must stay finite."""
    iv = Interval(1e308, 1.7e308)
    zero = Integrand2D(
        f=lambda x, y: 0.0,
        d22_sign="nonnegative",
        exact_traces=(_zero_line, _zero_line),
    )
    for n in (1, 2, 4, 5):
        assert s_plus(zero, iv, n).value == 0.0
        assert s_minus(zero, iv, n).value == 0.0
        e = enclosure(zero, iv, n, n)
        assert e.lower == e.upper == 0.0
    report = refine_mean(zero, iv, 1e-6)
    assert report.final_value == report.final_bound == 0.0
