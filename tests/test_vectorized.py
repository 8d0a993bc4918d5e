"""Tests for vectorized integrands: the block evaluation of the grid
agrees with the scalar reference path and fails the same way."""
import dataclasses
import math
import random
import warnings

import numpy as np
import pytest

from trapcube import cubature
from trapcube.adaptive import refine, refine_mean
from trapcube.cli import BUILTINS
from trapcube.cubature import (
    _BLOCK_POINTS,
    Integrand2D,
    enclosure,
    product_trapezoid,
    s_minus,
    s_plus,
)
from trapcube.univariate import Interval, trapezium_rule

UNIT = Interval(0.0, 1.0)

#: Scalar ``math`` copies of the built-ins: the reference path.
MATH_FORMS = {
    "exp_xy": lambda x, y: math.exp(x * y),
    "sin_xy": lambda x, y: math.sin(x * y),
    "poly_x2y2": lambda x, y: (x * x) * (y * y),
    "bilinear_xy": lambda x, y: x * y,
}

#: Built-ins whose numpy form rounds exactly like the scalar form.
BIT_IDENTICAL = ("poly_x2y2", "bilinear_xy")

#: Allowed scalar/vector difference, in ulps of the estimate.
ULPS = 4


def _squares():
    rng = random.Random(3)
    squares = [UNIT]
    for _ in range(2):
        a = rng.uniform(0.0, 0.5)
        squares.append(Interval(a, a + rng.uniform(0.2, 0.5)))
    return squares


def _bits(v):
    return v.hex() if isinstance(v, float) else v


def _results(F, iv, n):
    """``(kind, value, scale)`` of every rule and driver at level n.

    ``scale`` is the estimate a bound belongs to; a ValueError (an empty
    enclosure from rounding) is recorded as its message.
    """
    out = []
    for rule in (product_trapezoid, s_minus, s_plus):
        value = rule(F, iv, n).value
        out.append(("estimate", value, value))
    try:
        e = enclosure(F, iv, n, n)
        out += [("estimate", e.lower, e.lower), ("estimate", e.upper, e.upper)]
    except ValueError as exc:
        out.append(("error", str(exc), None))
    max_n = max(2 * n, 96)
    reports = [refine(F, iv, rule, 1e-12, n0=n, max_n=max_n) for rule in ("s_minus", "s_plus")]
    reports.append(refine_mean(F, iv, 1e-12, n0=n, max_n=max_n))
    for report in reports:
        for lv in report.levels:
            out.append(("level", lv.n, None))
            out.append(("estimate", lv.estimate, lv.estimate))
            if lv.aposteriori_bound is not None:
                out.append(("bound", lv.aposteriori_bound, lv.estimate))
        out.append(("bound", report.final_bound, report.final_value))
        out.append(("termination", report.termination, None))
    return out


@pytest.mark.parametrize("n", [3, 5, 7, 100])
@pytest.mark.parametrize("fn_id", sorted(BUILTINS))
def test_vectorized_builtin_agrees_with_scalar_math_copy(fn_id, n):
    """Odd n puts the mid-lines off the grid; the refinement levels
    from n=100 split rows unevenly across blocks."""
    vector = BUILTINS[fn_id].integrand
    assert vector.vectorized
    scalar = dataclasses.replace(vector, f=MATH_FORMS[fn_id], vectorized=False)
    for iv in _squares():
        got, want = _results(vector, iv, n), _results(scalar, iv, n)
        assert [k for k, _, _ in got] == [k for k, _, _ in want]
        for (kind, v, _), (_, w, scale) in zip(got, want):
            if fn_id in BIT_IDENTICAL or not isinstance(v, float):
                assert _bits(v) == _bits(w), (kind, v, w, iv, n)
            else:
                assert abs(v - w) <= ULPS * math.ulp(scale), (kind, v, w, iv, n)


def test_non_finite_value_gives_the_scalar_message():
    with np.errstate(divide="ignore"):
        vector = Integrand2D(f=lambda x, y: np.log(x * y), vectorized=True)
        scalar = Integrand2D(f=lambda x, y: float(np.log(x * y)))
        messages = []
        for F in (vector, scalar):
            with pytest.raises(ValueError) as info:
                product_trapezoid(F, UNIT, 8)
            messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "-inf at grid point (0.0, 0.0)" in messages[0]


def test_non_finite_value_is_located_in_a_later_block():
    """The bad point is in the middle of the second of several blocks."""
    n = 2 * math.isqrt(_BLOCK_POINTS)
    rows = _BLOCK_POINTS // (n + 1)
    assert 2 * rows < n + 1
    nodes = trapezium_rule(UNIT, n).nodes
    cx, cy = nodes[rows + rows // 2], nodes[30]
    vector = Integrand2D(
        f=lambda x, y: np.where((x == cx) & (y == cy), np.nan, x * y), vectorized=True
    )
    scalar = Integrand2D(f=lambda x, y: math.nan if (x, y) == (cx, cy) else x * y)
    messages = []
    for F in (vector, scalar):
        with pytest.raises(ValueError) as info:
            s_plus(F, UNIT, n)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert f"({cx!r}, {cy!r})" in messages[0]


@pytest.mark.parametrize("n", [4, 40])
def test_overflowing_weighted_terms_give_the_scalar_sums_silently(n):
    """f = 1e308 times the weights h = 25 and 2.5 overflows.  Python
    floats go to inf without a warning, so the block products and row sums
    must too, and give the scalar path's product and trace sums (n = 4
    sums rows with fsum, n = 40 in numpy)."""
    iv = Interval(0.0, 100.0)
    vector = Integrand2D(f=lambda x, y: np.full(np.broadcast(x, y).shape, 1e308), vectorized=True)
    scalar = Integrand2D(f=lambda x, y: 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = cubature._grid_pass(vector, iv, n)
        value = product_trapezoid(vector, iv, n).value
    assert grid == cubature._grid_pass(scalar, iv, n)
    assert value == product_trapezoid(scalar, iv, n).value == math.inf


def test_wrong_shape_is_rejected():
    F = Integrand2D(f=lambda x, y: np.ones((2, 3)), vectorized=True)
    with pytest.raises(ValueError, match=r"shape \(2, 3\)"):
        product_trapezoid(F, UNIT, 8)


def test_complex_values_are_rejected_like_the_scalar_path():
    """Casting to float would drop the imaginary part with only a warning."""
    for F in (
        Integrand2D(f=lambda x, y: x * y + 1j, vectorized=True),
        Integrand2D(f=lambda x, y: x * y + 1j),
    ):
        with pytest.raises(TypeError):
            product_trapezoid(F, UNIT, 4)


def test_scalar_return_broadcasts():
    vector = Integrand2D(f=lambda x, y: 2.5, vectorized=True)
    scalar = Integrand2D(f=lambda x, y: 2.5)
    for n in (1, 8, 100):
        assert product_trapezoid(vector, UNIT, n).value == product_trapezoid(scalar, UNIT, n).value
    assert product_trapezoid(vector, UNIT, 8).value == 2.5
