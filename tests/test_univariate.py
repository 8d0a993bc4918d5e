"""Unit tests for the univariate building blocks."""
import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import trapcube.univariate as univariate
from trapcube.adaptive import refine_mean
from trapcube.cubature import Integrand2D, enclosure, s_minus
from trapcube.univariate import (
    Interval,
    QuadratureRule,
    _romberg,
    apply,
    midpoint_rule,
    peano_kernel,
    trapezium_rule,
)

UNIT = Interval(0.0, 1.0)

intervals = st.tuples(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=1e-3, max_value=20.0),
).map(lambda t: Interval(t[0], t[0] + t[1]))

#: Squares at every scale: a modest square scaled by a power of two.
scaled_intervals = st.tuples(
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=1e-6, max_value=1e3),
    st.integers(min_value=-1050, max_value=1000),
).map(lambda t: Interval(math.ldexp(t[0], t[2]), math.ldexp(t[0] + t[1], t[2])))


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)
    # Finite ends whose difference overflows: every node and kernel value
    # would be inf or NaN.
    with pytest.raises(ValueError, match="width b - a overflows"):
        Interval(-1e308, 1e308)


def test_interval_geometry():
    iv = Interval(-1.0, 3.0)
    assert iv.width == 4.0
    assert iv.midpoint == 1.0


def test_trapezium_rule_layout():
    rule = trapezium_rule(UNIT, 4)
    assert rule.nodes == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert rule.weights == (0.125, 0.25, 0.25, 0.25, 0.125)


def test_midpoint_rule_layout():
    rule = midpoint_rule(Interval(2.0, 6.0))
    assert rule.nodes == (4.0,)
    assert rule.weights == (4.0,)


def test_trapezium_rule_rejects_bad_panel_count():
    for n, message in (
        (0, "panel count must be >= 1, got 0"),
        (2.0, "panel count must be an integer, got 2.0"),
        (math.nan, "panel count must be an integer, got nan"),
    ):
        with pytest.raises(ValueError, match=message):
            trapezium_rule(UNIT, n)


def test_trapezium_rule_rejects_a_subnormal_panel_width():
    """[2.38e-321, 5.415e-321] is 614 subnormal steps wide.  In 186 panels
    h rounds from 3.3 steps to 3, so the last panel is 59 steps; in 614
    panels the end weight h/2 rounds to 0, on which the grid pass divides."""
    iv = Interval(2.38e-321, 5.415e-321)
    for n in (186, 614):
        with pytest.raises(ValueError, match="smallest normal float"):
            trapezium_rule(iv, n)
    tiny = sys.float_info.min
    assert trapezium_rule(Interval(0.0, 2 * tiny), 2).nodes == (0.0, tiny, 2 * tiny)


@given(iv=scaled_intervals, n=st.integers(min_value=1, max_value=64))
@settings(max_examples=300)
def test_trapezium_nodes_pin_the_midpoint_and_nest(iv, n):
    """Nodes strictly increase, node n/2 is the midpoint at even n, and
    the nodes of level 2n at even indices are those of level n."""
    assume(iv.width / (2 * n) >= sys.float_info.min)
    nodes = trapezium_rule(iv, n).nodes
    assert all(x < y for x, y in zip(nodes, nodes[1:]))
    if n % 2 == 0:
        assert nodes[n // 2] == iv.midpoint
    assert trapezium_rule(iv, 2 * n).nodes[::2] == nodes


def test_quadrature_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(UNIT, nodes=(0.0, 1.0), weights=(1.0,))
    with pytest.raises(ValueError):
        QuadratureRule(UNIT, nodes=(), weights=())
    # nodes must stay inside the interval and strictly increase
    with pytest.raises(ValueError):
        QuadratureRule(UNIT, nodes=(0.0, 1.5), weights=(0.5, 0.5))
    with pytest.raises(ValueError):
        QuadratureRule(UNIT, nodes=(0.5, 0.5), weights=(0.5, 0.5))


@given(iv=intervals, n=st.integers(min_value=1, max_value=40))
def test_trapezium_weights_sum_to_width(iv, n):
    rule = trapezium_rule(iv, n)
    assert math.isclose(math.fsum(rule.weights), iv.width, rel_tol=1e-14)


@given(
    iv=intervals,
    n=st.integers(min_value=1, max_value=30),
    p=st.floats(min_value=-5, max_value=5),
    q=st.floats(min_value=-5, max_value=5),
)
def test_trapezium_exact_on_linear(iv, n, p, q):
    """The composite trapezoid integrates p*t + q exactly."""
    value = apply(trapezium_rule(iv, n), lambda t: p * t + q)
    exact = p * (iv.b**2 - iv.a**2) / 2.0 + q * iv.width
    assert math.isclose(value, exact, rel_tol=5e-14, abs_tol=1e-13)


def test_apply_reports_offending_node():
    rule = trapezium_rule(UNIT, 2)
    with pytest.raises(ValueError, match="0.5"):
        apply(rule, lambda t: math.nan if t == 0.5 else 1.0)


def test_apply_midpoint():
    assert apply(midpoint_rule(UNIT), lambda t: t * t) == 0.25


# Kernel closed forms checked against the generic definition.

def _k2_mid_closed(iv, t):
    out = 0.5 * (t - iv.a) ** 2
    if t > iv.midpoint:
        out -= iv.width * (t - iv.midpoint)
    return out


def _k2_trap_closed(iv, n, t):
    h = iv.width / n
    k = min(int((t - iv.a) / h), n - 1)
    xi = t - (iv.a + k * h)
    return 0.5 * xi * (xi - h)


def _k2_slack(iv):
    # rounding in b - a scales with the coordinate magnitude, squared by
    # the kernel's quadratic terms
    return 1e-13 * max(1.0, abs(iv.a), abs(iv.b)) ** 2


@given(iv=intervals, x=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200)
def test_peano_k2_midpoint_closed_form(iv, x):
    t = min(iv.a + x * iv.width, iv.b)
    generic = peano_kernel(midpoint_rule(iv), t)
    assert math.isclose(generic, _k2_mid_closed(iv, t), rel_tol=1e-12, abs_tol=_k2_slack(iv))


@given(iv=intervals, n=st.integers(min_value=1, max_value=12), x=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200)
def test_peano_k2_trapezium_closed_form(iv, n, x):
    t = min(iv.a + x * iv.width, iv.b)
    generic = peano_kernel(trapezium_rule(iv, n), t)
    assert math.isclose(generic, _k2_trap_closed(iv, n, t), rel_tol=1e-11, abs_tol=_k2_slack(iv))


def test_peano_k2_vanishes_at_trapezium_nodes():
    """The trapezium K2 is zero at every node, kink included."""
    iv = Interval(-0.5, 2.5)
    rule = trapezium_rule(iv, 6)
    for t in rule.nodes:
        assert peano_kernel(rule, t) == pytest.approx(0.0, abs=1e-15)


def test_peano_kernel_argument_validation():
    rule = trapezium_rule(UNIT, 2)
    with pytest.raises(ValueError, match="outside"):
        peano_kernel(rule, 1.5)


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_k2_integral_trapezium(n):
    """The n-panel trapezium kernel integrates to -w^3 / (12 n^2)."""
    iv = Interval(0.25, 1.75)
    expected = -(iv.width**3) / (12.0 * n * n)
    value = _romberg(lambda t: peano_kernel(trapezium_rule(iv, n), t), iv, 1e-12)
    assert abs(value - expected) <= 1e-11


def test_k2_integral_midpoint():
    """The midpoint kernel integrates to w^3 / 24."""
    iv = Interval(-2.0, 1.0)
    expected = iv.width**3 / 24.0
    value = _romberg(lambda t: peano_kernel(midpoint_rule(iv), t), iv, 1e-12)
    assert abs(value - expected) <= 1e-11


def test_romberg_matches_closed_form():
    value = _romberg(lambda t: math.exp(t), UNIT, 1e-12)
    assert abs(value - (math.e - 1.0)) <= 1e-12


def test_romberg_polynomial_fast_convergence():
    value = _romberg(lambda t: t**3 - 2 * t, Interval(0.0, 2.0), 1e-13)
    assert value == pytest.approx(0.0, abs=1e-12)


_SQRT_SUM = Integrand2D(lambda x, y: math.sqrt(x + y), "nonpositive")


@pytest.mark.parametrize("solve", [
    pytest.param(lambda: enclosure(_SQRT_SUM, UNIT, 4, 4), id="enclosure"),
    pytest.param(lambda: refine_mean(_SQRT_SUM, UNIT, 1e-9), id="refine_mean"),
])
def test_a_romberg_trace_out_of_levels_is_named_with_its_line(monkeypatch, solve):
    """sqrt(y) on the line x = 0 is not smooth at 0, so the extrapolation
    diagonals keep moving and 14 levels cannot meet the trace tolerance
    1e-12: the failure is a ValueError that names the trace and its line,
    as every other failed trace is."""
    monkeypatch.setattr(univariate, "_MAX_ROMBERG_LEVELS", 14)
    with pytest.raises(ValueError, match=(
        r"^the left trace integral, on the line x = 0.0, failed: "
        r"integral did not converge to 1e-12 within 14 refinement levels$"
    )):
        solve()


def test_romberg_rejects_non_finite_integrand():
    with pytest.raises(ValueError, match="non-finite value inf at 1.0"):
        _romberg(lambda t: math.inf if t > 0.9 else t, UNIT, 1e-10)
    # Finite at both ends: the first refinement refuses the midpoint value.
    with pytest.raises(ValueError, match="non-finite value inf at 0.5"):
        _romberg(lambda t: math.inf if t == 0.5 else 1.0, UNIT, 1e-12)


def test_a_non_finite_romberg_end_value_is_named_with_its_point():
    """The ends of a trace are checked as its other nodes are: the error
    names the value and the point, where it named neither."""
    F = Integrand2D(lambda x, y: math.inf if (x, y) == (0.5, 0.0) else math.exp(x * y), "nonnegative")
    with pytest.raises(ValueError, match=(
        r"^the vertical-mid trace integral, on the line x = 0.5, failed: "
        r"integrand returned non-finite value inf at 0.0$"
    )):
        s_minus(F, UNIT, 3)


def test_romberg_overflow_names_the_interval_at_once():
    overflow = r"^Romberg sums overflow the float range on \[0.0, 1.0\]$"
    # fsum itself overflows on the two new terms of the second refinement.
    with pytest.raises(OverflowError, match=overflow):
        _romberg(lambda t: 1e308 if 0.0 < t < 1.0 else 0.0, UNIT, 1e-12)
    # Only the endpoint sum overflows, to inf, which raises nothing: the
    # estimate stayed inf through all 24 refinements (2^24 calls of g).
    calls = []

    def g(t):
        calls.append(t)
        return 1.7e308 if t in (0.0, 1.0) else 0.0

    with pytest.raises(OverflowError, match=overflow):
        _romberg(g, UNIT, 1e-12)
    assert calls == [0.0, 1.0, 0.5]
