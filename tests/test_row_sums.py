"""Tests for the numpy row sum of the vectorized grid pass: it must
return ``math.fsum``'s value for every row, bit for bit, sign of zero
included, or raise what fsum raises."""
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapcube import cubature
from trapcube.cubature import Integrand2D, _row_fsums
from trapcube.univariate import Interval, trapezium_rule

DBL_MAX = 1.7976931348623157e308
DBL_MIN = 2.2250738585072014e-308
TRUE_MIN = 5e-324
U = 2.0**-53


def _fsum_hex(rows):
    """fsum of each row as float hex, or OverflowError if any row overflows."""
    try:
        return [math.fsum(row).hex() for row in rows]
    except OverflowError:
        return OverflowError


def _row_fsums_hex(rows):
    try:
        return [s.hex() for s in _row_fsums(np.array(rows, dtype=float))]
    except OverflowError:
        return OverflowError


def _variants(row):
    """The row, reversed and negated: three rows of one block."""
    return [row, row[::-1], [-x for x in row]]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=600))
@settings(max_examples=300, deadline=None)
def test_row_sums_equal_fsum_on_arbitrary_finite_rows(row):
    rows = _variants(row)
    assert _row_fsums_hex(rows) == _fsum_hex(rows)


@given(
    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=600),
    st.integers(min_value=-300, max_value=300),
)
@settings(max_examples=300, deadline=None)
def test_row_sums_equal_fsum_on_scaled_rows(row, exponent):
    """Rows of one magnitude, the case the numpy path decides itself,
    with the row minus its sum appended so the total nearly cancels."""
    row = [math.ldexp(x, exponent) for x in row]
    rows = _variants(row + [-math.fsum(row)])
    assert _row_fsums_hex(rows) == _fsum_hex(rows)


ADVERSARIAL = {
    "cancellation": [1e16, 1.0, -1e16, 3.0, 2.0**-30],
    "cancellation of large pairs": [2.0**60, 1.0, -(2.0**60), 2.0**-60, 0.5, -0.5],
    "exponents spanning 600": [2.0**300, 1.0, -(2.0**300), 2.0**-300, 3.0],
    "exponents spanning 600, small sum": [2.0**-300, 3.0 * 2.0**-300, 2.0**300, -(2.0**300)],
    "near DBL_MAX, cancelling": [DBL_MAX, -DBL_MAX, 1.0],
    "near DBL_MAX, finite sum": [DBL_MAX / 2, DBL_MAX / 4, -DBL_MAX / 2],
    "near DBL_MAX, just inside the extraction range": [2.0**1020, -(2.0**1020), 2.0**1019],
    "subnormals": [TRUE_MIN, TRUE_MIN, -1e-320, 3e-310],
    "normal and subnormal": [DBL_MIN, -TRUE_MIN, TRUE_MIN * 3],
    "zeros": [0.0] * 5,
    "negative zeros": [-0.0] * 5,
    "mixed zeros": [-0.0, 0.0, -0.0],
    "one negative zero": [-0.0],
    "exact zero sum": [1.5, -0.75, -0.75],
    "rounding midpoint": [1.0, U],
    "just above a midpoint": [1.0, U, 2.0**-110],
    "just below a midpoint": [1.0, U, -(2.0**-110)],
    "just below a power of two": [1.0, -U / 2, -(2.0**-110)],
    "just above a midpoint below a power of two": [1.0, -U / 2, 2.0**-110],
    "just below two": [2.0, -2.0 * U, -(2.0**-105)],
    "negative, just below a power of two in magnitude": [-1.0, U / 2, 2.0**-110],
}


@pytest.mark.parametrize("row", list(ADVERSARIAL.values()), ids=list(ADVERSARIAL))
def test_row_sums_equal_fsum_on_adversarial_rows(row):
    rows = _variants(row)
    assert _row_fsums_hex(rows) == _fsum_hex(rows)


def test_overflowing_row_raises_like_fsum():
    with pytest.raises(OverflowError):
        _row_fsums(np.array([[1.0, 2.0], [DBL_MAX, DBL_MAX]]))


@pytest.mark.parametrize("row,candidate", [
    ([1.0, U, 2.0**-110], 1.0),
    ([1.0, -U / 2, -(2.0**-110)], 1.0),
])
def test_undecided_rows_reach_fsum(monkeypatch, row, candidate):
    """Sums just off a rounding midpoint, where fl(tau + t) is the wrong
    float, go to fsum; a well-scaled row in the same block does not."""
    assert math.fsum(row) != candidate
    calls = []

    def spy(values):
        calls.append(values)
        return math.fsum(values)

    monkeypatch.setattr(cubature, "math", types.SimpleNamespace(fsum=spy))
    block = np.array([row, [1.0, 2.0, 3.0]])
    assert [s.hex() for s in _row_fsums(block)] == [math.fsum(row).hex(), (6.0).hex()]
    assert calls == [row]


def test_well_scaled_blocks_need_no_fsum(monkeypatch):
    calls = []
    monkeypatch.setattr(cubature, "math", types.SimpleNamespace(fsum=calls.append))
    block = np.exp(np.random.default_rng(7).random((40, 401))) * 0.125
    sums = _row_fsums(block)
    assert calls == []
    assert sums == [math.fsum(row) for row in block.tolist()]


def _grid_hex(F, iv, n):
    product, sums = cubature._grid_pass(F, trapezium_rule(iv, n))
    return product.hex(), {tid: q.hex() for tid, q in sums.items()}


@pytest.mark.parametrize("f", [
    lambda x, y: x - y,
    lambda x, y: np.sin(7.0 * x) * np.cos(5.0 * y),
    lambda x, y: np.exp(40.0 * x) - np.exp(40.0 * y),
], ids=["x-y", "sin7x*cos5y", "exp40x-exp40y"])
@pytest.mark.parametrize("n", [4, 7, 300])
def test_grid_pass_of_cancelling_integrands_matches_the_scalar_path(f, n):
    """Rows that cancel to zero or nearly so give the scalar path's
    product and trace sums, sign of zero included."""
    iv = Interval(-1.0, 1.0)
    vector = Integrand2D(f=f, vectorized=True)
    scalar = Integrand2D(f=lambda x, y: float(f(x, y)))
    assert _grid_hex(vector, iv, n) == _grid_hex(scalar, iv, n)
