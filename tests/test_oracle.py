"""Tests for the series references and the brute-force cross-checker."""
import math

import numpy as np
import pytest

from trapcube.oracle import (
    ReferenceValue,
    brute_force_integral,
    ref_exp_integral,
    ref_sin_integral,
)
from trapcube.univariate import Interval

UNIT = Interval(0.0, 1.0)


def test_reference_value_validation():
    with pytest.raises(ValueError):
        ReferenceValue(value=1.0, abs_err=1e-12, method="too loose")
    with pytest.raises(ValueError):
        ReferenceValue(value=1.0, abs_err=-1e-16, method="negative")
    with pytest.raises(ValueError):
        ReferenceValue(value=math.nan, abs_err=0.0, method="nan")


def test_exp_reference_digits():
    ref = ref_exp_integral()
    # printed ten-digit value
    assert abs(ref.value - 1.317902151) < 5e-10
    assert ref.abs_err < 1e-13
    assert ref.method


def test_exp_reference_partial_sum_bounds():
    """Positive series: the value exceeds the three-term partial sum
    1 + 1/4 + 1/18 but stays under the crude tail-doubling cap."""
    partial = 1.0 + 0.25 + 1.0 / 18.0
    ref = ref_exp_integral()
    assert partial < ref.value < partial + 2.0 / 96.0


def test_sin_reference_digits():
    ref = ref_sin_integral()
    assert abs(ref.value - 0.239811742) < 5e-10
    assert ref.abs_err < 1e-13


def test_sin_reference_alternating_bracket():
    # 1/4 - 1/96 < value < 1/4
    ref = ref_sin_integral()
    assert 0.25 - 1.0 / 96.0 < ref.value < 0.25


def test_brute_force_bilinear_exact():
    value = brute_force_integral(lambda x, y: x * y, UNIT, 3)
    assert abs(value - 0.25) < 1e-14


def test_brute_force_biquadratic():
    value = brute_force_integral(lambda x, y: x * x * y * y, UNIT, 6)
    assert abs(value - 1.0 / 9.0) < 1e-12


def test_brute_force_separable_exponential():
    value = brute_force_integral(lambda x, y: np.exp(x + y), UNIT, 10)
    assert abs(value - (math.e - 1.0) ** 2) < 1e-12


def test_brute_force_agrees_with_series_references():
    exp_val = brute_force_integral(lambda x, y: np.exp(x * y), UNIT, 12)
    assert abs(exp_val - ref_exp_integral().value) < 1e-11
    sin_val = brute_force_integral(lambda x, y: np.sin(x * y), UNIT, 12)
    assert abs(sin_val - ref_sin_integral().value) < 1e-11


def test_brute_force_level_stability():
    """Consecutive top levels agree far beyond the tolerances the test
    suites lean on."""
    for f in (lambda x, y: np.exp(x * y), lambda x, y: np.sin(x * y)):
        v12 = brute_force_integral(f, UNIT, 12)
        v13 = brute_force_integral(f, UNIT, 13)
        assert abs(v12 - v13) < 1e-10


def test_brute_force_accepts_scalar_only_callables():
    # math.exp cannot broadcast over arrays; the row evaluator must fall back
    value = brute_force_integral(lambda x, y: math.exp(x * y), UNIT, 6)
    assert abs(value - ref_exp_integral().value) < 1e-9


def test_brute_force_propagates_errors_of_array_aware_callables():
    """Only the TypeError/ValueError of a scalar-only callable selects the
    scalar fallback; a bug in f's array branch is not swallowed."""

    def f(x, y):
        if isinstance(y, np.ndarray):
            raise ZeroDivisionError("bug in the array branch")
        return x * y

    with pytest.raises(ZeroDivisionError, match="array branch"):
        brute_force_integral(f, UNIT, 2)


def test_brute_force_on_shifted_square():
    iv = Interval(-1.0, 2.0)
    value = brute_force_integral(lambda x, y: x + y, iv, 4)
    assert abs(value - 9.0) < 1e-12  # int of x+y over [-1,2]^2 = 2*(3/2)*3


def test_brute_force_level_validation():
    for level, message in (
        (0, "level must be in 1..14, got 0"),
        (15, "level must be in 1..14, got 15"),
        (2.5, "level must be an integer, got 2.5"),
        (4.0, "level must be an integer, got 4.0"),
    ):
        with pytest.raises(ValueError, match=message):
            brute_force_integral(lambda x, y: x, UNIT, level)


def test_brute_force_rejects_non_finite_values():
    def f(x, y):
        return math.nan if x == 0.0 and y == 0.0 else 1.0

    with pytest.raises(ValueError, match="non-finite"):
        brute_force_integral(f, UNIT, 2)
