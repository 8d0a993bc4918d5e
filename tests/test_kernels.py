"""Tests for the bivariate kernels, the sign scans, and the sharpness
polynomials."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trapcube.kernels as kernels
from trapcube.cubature import _BLOCK_POINTS
from trapcube.kernels import (
    SCAN_SLACK_FACTOR,
    KernelSpec,
    ScanReport,
    _k2_ends_grid,
    _k2_mid_grid,
    _k2_trap_grid,
    _k22,
    definiteness_scan,
    kernel_at,
    psi,
)
from trapcube.univariate import Interval

from crosscheck import k22_s_plus_mixed

UNIT = Interval(0.0, 1.0)

#: The sign the paper proves for each kernel kind (for phi, at c at or
#: above the critical constant), stated apart from the library.
SIGNS = {
    "k22_s_minus": "nonpositive",
    "k22_s_plus": "nonnegative",
    "phi_minus": "nonnegative",
    "phi_plus": "nonpositive",
}

unit_coords = st.floats(min_value=0.0, max_value=1.0)


# The rule kernels as functions of (iv, n, t, tau), as the point tests call them.
def k22_s_minus(iv, n, t, tau):
    return kernel_at(KernelSpec("k22_s_minus", n), iv, t, tau)


def k22_s_plus(iv, n, t, tau):
    return kernel_at(KernelSpec("k22_s_plus", n), iv, t, tau)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(kind="k22", n=1)
    with pytest.raises(ValueError):
        KernelSpec(kind="k22_s_minus", n=0)
    # A level that is not an integer names no rule; NaN would also pass
    # the n >= 1 test.
    for n in (2.5, 2.0, math.nan):
        with pytest.raises(ValueError, match="level must be an integer"):
            KernelSpec(kind="k22_s_minus", n=n)
    assert KernelSpec(kind="k22_s_minus", n=np.int64(2)).n == 2
    with pytest.raises(ValueError):
        KernelSpec(kind="phi_minus", n=2)  # c required
    with pytest.raises(ValueError):
        KernelSpec(kind="phi_plus", n=2, c=0.0)
    # An infinite c makes every phi value NaN (inf - inf, inf * 0), which
    # a sign scan would count as no violation.
    for c in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite c > 0"):
            KernelSpec(kind="phi_minus", n=2, c=c)
    with pytest.raises(ValueError):
        KernelSpec(kind="k22_s_plus", n=2, c=1.0)  # c meaningless


@given(t=unit_coords, tau=unit_coords, n=st.integers(min_value=1, max_value=6))
@settings(max_examples=300)
def test_pointwise_signs(t, tau, n):
    """The mid-line kernel never goes above zero, the edge kernel never below."""
    slack = 1e-16
    assert k22_s_minus(UNIT, n, t, tau) <= slack
    assert k22_s_plus(UNIT, n, t, tau) >= -slack


@given(t=unit_coords, tau=unit_coords, n=st.integers(min_value=1, max_value=6))
@settings(max_examples=200)
def test_kernel_symmetry(t, tau, n):
    assert k22_s_minus(UNIT, n, t, tau) == pytest.approx(k22_s_minus(UNIT, n, tau, t), abs=1e-15)
    assert k22_s_plus(UNIT, n, t, tau) == pytest.approx(k22_s_plus(UNIT, n, tau, t), abs=1e-15)


@given(tau=unit_coords, n=st.integers(min_value=1, max_value=5))
def test_kernels_vanish_on_the_boundary(tau, n):
    for t in (0.0, 1.0):
        assert k22_s_minus(UNIT, n, t, tau) == pytest.approx(0.0, abs=1e-15)
        assert k22_s_plus(UNIT, n, t, tau) == pytest.approx(0.0, abs=1e-15)
        assert k22_s_minus(UNIT, n, tau, t) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_mixed_arrangement_agrees_with_three_term_form(n):
    iv = Interval(-0.5, 1.75)
    pts = [iv.a + i * iv.width / 20 for i in range(21)]
    scale = max(abs(k22_s_plus(iv, n, t, tau)) for t in pts for tau in pts)
    for t in pts:
        for tau in pts:
            direct = k22_s_plus(iv, n, t, tau)
            mixed = k22_s_plus_mixed(iv, n, t, tau)
            assert abs(direct - mixed) <= 1e-13 * scale


#: The comparison constant each kind is evaluated at (None for K22).
_POINT_CONSTANTS = {"k22_s_minus": None, "k22_s_plus": None, "phi_minus": 1.1, "phi_plus": 1.4}


@pytest.mark.parametrize("kind", sorted(_POINT_CONSTANTS))
@pytest.mark.parametrize("a,b", [(-1.0, 2.0), (0.3, 0.7), (-0.5, 1.75)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernels_scale_by_the_fourth_power_of_the_width(kind, a, b, n):
    """On [a, b]^2 of width w every kernel is w^4 times its unit-square
    value at the mapped point, so a scan of [0, 1]^2 decides its sign
    on every square."""
    spec = KernelSpec(kind, n, _POINT_CONSTANTS[kind])
    iv = Interval(a, b)
    w = iv.width
    tol = 1e-12 * w**4 / (64 * n * n)
    unit = [i / 12 for i in range(13)] + [0.137, 0.61]
    for u in unit:
        for v in unit:
            mapped = kernel_at(spec, iv, a + w * u, a + w * v)
            assert abs(mapped - w**4 * kernel_at(spec, UNIT, u, v)) <= tol, (u, v)


def test_phi_is_the_documented_combination():
    n, c, t, tau = 3, 1.25, 0.37, 0.81
    expected = (c + 1) * k22_s_minus(UNIT, 2 * n, t, tau) - c * k22_s_minus(UNIT, n, t, tau)
    assert kernel_at(KernelSpec("phi_minus", n, c), UNIT, t, tau) == pytest.approx(expected, rel=1e-14)
    expected_p = (c + 1) * k22_s_plus(UNIT, 2 * n, t, tau) - c * k22_s_plus(UNIT, n, t, tau)
    assert kernel_at(KernelSpec("phi_plus", n, c), UNIT, t, tau) == pytest.approx(expected_p, rel=1e-14)


@pytest.mark.parametrize("n,c,message", [
    (2.5, 1.0, "level must be an integer, got 2.5"),
    (2, math.nan, "comparison kernels require a finite c > 0, got nan"),
    (2, -1.0, "comparison kernels require a finite c > 0, got -1.0"),
])
@pytest.mark.parametrize("kind", ["phi_minus", "phi_plus"])
def test_point_kernels_refuse_what_the_spec_refuses(kind, n, c, message):
    """kernel_at and psi take their level and constant from a KernelSpec,
    which refuses a level that is not an integer and a c that is not
    finite and positive: psi returned 0.0404 at n = 2.5 and nan at c =
    nan, and phi reported the doubled level 5.0 for n = 2.5."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        kernel_at(KernelSpec(kind, n, c), UNIT, 0.1, 0.2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        psi(KernelSpec(kind, n, c), 0, 0, 1.0, 0.1)


@pytest.mark.parametrize("kind,expected", [
    ("k22_s_minus", "nonpositive"),
    ("k22_s_plus", "nonnegative"),
])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_scan_clean_for_rule_kernels(kind, expected, n):
    report = definiteness_scan(KernelSpec(kind=kind, n=n), 41)
    assert report.expected_sign == expected
    assert report.ok
    assert report.violations == 0
    assert report.worst is None
    assert report.max_abs_violation == 0.0
    assert report.scale > 0.0
    assert report.grid_resolution == 41


def test_scan_vectorized_grid_agrees_with_scalar_kernel():
    """The scan's factored closed forms match the public point evaluator."""
    n, res = 3, 24
    report = definiteness_scan(KernelSpec(kind="k22_s_minus", n=n), res)
    assert report.ok
    grid = [i / res for i in range(res + 1)]
    scale = max(
        abs(k22_s_minus(UNIT, n, t, tau)) for t in grid for tau in grid
    )
    assert report.scale == pytest.approx(scale, rel=1e-12)


def test_scan_threshold_behaviour_of_comparison_kernels():
    # at the critical constant the scan is clean; just below it fails
    clean = definiteness_scan(KernelSpec(kind="phi_minus", n=4, c=1.0), 32 * 4)
    assert clean.ok
    dirty = definiteness_scan(KernelSpec(kind="phi_minus", n=4, c=0.9), 1024)
    assert not dirty.ok
    assert dirty.max_abs_violation > 0.0
    assert dirty.max_abs_violation > SCAN_SLACK_FACTOR * dirty.scale

    n = 2
    critical = (4.0 * n - 1.0) / (4.0 * n - 3.0)
    clean_p = definiteness_scan(KernelSpec(kind="phi_plus", n=n, c=critical), 32 * n)
    assert clean_p.ok
    dirty_p = definiteness_scan(
        KernelSpec(kind="phi_plus", n=n, c=critical - 0.05), 1024 * n
    )
    assert not dirty_p.ok

    # At n = 1 the edge threshold is still (4n-1)/(4n-3) = 3, but the
    # mid-line kernel keeps its sign down to c = 1/3, below the 1 that
    # holds for n >= 2.
    assert definiteness_scan(KernelSpec(kind="phi_plus", n=1, c=3.0), 256).ok
    assert definiteness_scan(KernelSpec(kind="phi_plus", n=1, c=2.9), 256).violations == 60
    for c in (1.0, 0.34, 1.0 / 3.0):
        assert definiteness_scan(KernelSpec(kind="phi_minus", n=1, c=c), 64).ok
    assert definiteness_scan(KernelSpec(kind="phi_minus", n=1, c=0.3), 64).violations == 1228


def _row_loop_scan(spec, resolution):
    """Reference scan: one grid row at a time, kernel formula written out,
    against the sign in ``SIGNS``.

    Returns the report and the full row-major list of violations it is
    derived from.
    """
    n, c = spec.n, spec.c
    expected = SIGNS[spec.kind]
    grid = np.linspace(0.0, 1.0, resolution + 1)
    U = _k2_mid_grid(grid) if spec.kind.endswith("minus") else _k2_ends_grid(grid)
    Tn = _k2_trap_grid(grid, n)
    T2n = _k2_trap_grid(grid, 2 * n)
    candidates = []
    scale = 0.0
    for i in range(resolution + 1):
        values = U[i] * Tn + U * Tn[i] - Tn[i] * Tn
        if c is not None:
            fine = U[i] * T2n + U * T2n[i] - T2n[i] * T2n
            values = (c + 1.0) * fine - c * values
        scale = max(scale, float(np.max(np.abs(values))))
        bad = values < 0.0 if expected == "nonnegative" else values > 0.0
        for j in np.flatnonzero(bad):
            candidates.append((float(grid[i]), float(grid[j]), float(values[j])))
    violations = [p for p in candidates if abs(p[2]) > SCAN_SLACK_FACTOR * scale]
    # max keeps the first maximal item: the row-major-first worst point.
    worst = max(violations, key=lambda p: abs(p[2]), default=None)
    return ScanReport(resolution, expected, len(violations), worst, scale), violations


def _hex(report):
    return (
        report.grid_resolution,
        report.expected_sign,
        report.scale.hex(),
        report.max_abs_violation.hex(),
        report.violations,
        None if report.worst is None else tuple(x.hex() for x in report.worst),
    )


_SCAN_SPECS = [
    ("k22_s_minus", None),
    ("k22_s_plus", None),
    ("phi_minus", 0.9),
    ("phi_minus", 1.0),
    ("phi_plus", 1.2),
    ("phi_plus", 1.4),
]

#: Comparison kernels far enough below their critical constants to break
#: their sign on every grid of the test below; at c = 0.01 almost everywhere.
_BREAKING_SPECS = [
    ("phi_plus", 0.01),
    ("phi_minus", 0.01),
    ("phi_minus", 0.3),
    ("phi_minus", 0.1),
    ("phi_plus", 0.5),
    ("phi_plus", 1.0),
]


@pytest.mark.parametrize("kind,c", [
    pytest.param(kind, c, id=f"{SIGNS[kind]}-{kind}-{c}") for kind, c in _SCAN_SPECS + _BREAKING_SPECS
])
# The ids keep the suite's names for these three grids.
@pytest.mark.parametrize("n,resolution", [
    pytest.param(4, 100, id="iv0-4-100"),
    pytest.param(3, 130, id="iv1-3-130"),
    pytest.param(1, 7, id="iv2-1-7"),
])
def test_block_scan_equals_row_loop(kind, c, n, resolution):
    """Block-wise scans of small grids give the row loop's report bit for
    bit, clean or not; grids split across blocks are tested below."""
    spec = KernelSpec(kind=kind, n=n, c=c)
    report = definiteness_scan(spec, resolution)
    assert _hex(report) == _hex(_row_loop_scan(spec, resolution)[0])
    if (kind, c) in _BREAKING_SPECS:
        assert report.violations > 0


#: A grid row of more than half a block's points: the first block is one
#: row.  The blocks after it are narrower, since each starts at its
#: diagonal, and take two rows or more.
ONE_ROW_RESOLUTION = _BLOCK_POINTS // 2


@pytest.mark.parametrize("kind,c,expected,n,resolution,count", [
    ("phi_minus", 0.9, "nonnegative", 4, 512, 3352),
    ("phi_plus", 1.3, "nonpositive", 2, 1000, 1860),
    ("k22_s_minus", None, "nonpositive", 5, 4095, 0),
    ("phi_plus", 1.4, "nonpositive", 4, 4095, 0),
    ("k22_s_minus", None, "nonpositive", 5, ONE_ROW_RESOLUTION, 0),
    ("phi_plus", 1.4, "nonpositive", 4, ONE_ROW_RESOLUTION, 0),
    ("phi_plus", 1.3, "nonpositive", 2, ONE_ROW_RESOLUTION, 131420),
])
def test_block_scan_equals_row_loop_across_blocks(kind, c, expected, n, resolution, count):
    """Violations spread over many blocks, and grids of one row per
    block, keep the row loop's report."""
    rows_per_block = max(1, _BLOCK_POINTS // (resolution + 1))
    assert resolution + 1 > rows_per_block
    spec = KernelSpec(kind=kind, n=n, c=c)
    report = definiteness_scan(spec, resolution)
    reference, violations = _row_loop_scan(spec, resolution)
    assert report.expected_sign == expected
    assert _hex(report) == _hex(reference)
    assert report.violations == count
    assert count == 0 or len({t for (t, _, _) in violations}) > rows_per_block


@pytest.mark.parametrize("kind,c,n,resolution,count", [
    ("phi_minus", 0.9, 4, 512, 3352),
    ("phi_plus", 1.3, 2, 1000, 1860),
])
def test_one_row_blocks_with_violations_keep_the_row_loop_report(monkeypatch, kind, c, n, resolution, count):
    """With blocks of 256 points every row wider than 128 points is a
    block of its own, so these violations, and the worst points, are
    found in one-row blocks, which otherwise only resolutions above 8192
    have."""
    monkeypatch.setattr(kernels, "_BLOCK_POINTS", 256)
    spec = KernelSpec(kind=kind, n=n, c=c)
    report = definiteness_scan(spec, resolution)
    assert _hex(report) == _hex(_row_loop_scan(spec, resolution)[0])
    assert report.violations == count
    t, tau, _ = report.worst
    assert min(t, tau) * resolution < resolution + 1 - 128


def test_scan_worst_point_is_the_first_in_row_major_order_on_ties():
    """phi is symmetric in (t, tau), so its largest violation here is
    reached at two mirrored points in different blocks."""
    spec = KernelSpec(kind="phi_plus", n=2, c=1.3)
    report = definiteness_scan(spec, 1000)
    _, violations = _row_loop_scan(spec, 1000)
    assert len(violations) == report.violations == 1860
    peak = max(abs(v) for (_, _, v) in violations)
    assert [(t, tau) for (t, tau, v) in violations if abs(v) == peak] == [(0.01, 0.989), (0.989, 0.01)]
    assert report.worst[:2] == (0.01, 0.989)
    assert report.max_abs_violation == peak


@pytest.mark.parametrize("kind,c", [
    ("k22_s_minus", None),
    ("k22_s_plus", None),
    # Below and above 1 (1/3 at n = 1), and below and above (4n-1)/(4n-3)
    # at n = 1, 3 and 4: 3, 11/9 and 15/13.
    ("phi_minus", 0.3),
    ("phi_minus", 1.1),
    ("phi_plus", 1.05),
    ("phi_plus", 3.5),
])
@pytest.mark.parametrize("n", [1, 3, 4])
def test_scanned_kernels_are_symmetric_bit_for_bit(kind, c, n):
    """The premise of the scan's triangle: the full kernel matrix built by
    ``_k22`` (phi for the comparison kinds) equals its transpose."""
    grid = np.linspace(0.0, 1.0, 97)
    U = _k2_mid_grid(grid) if kind.endswith("minus") else _k2_ends_grid(grid)
    Tn, T2n = _k2_trap_grid(grid, n), _k2_trap_grid(grid, 2 * n)
    column = (slice(None), None)
    values = _k22(U[column], U, Tn[column], Tn)
    if c is not None:
        values = (c + 1.0) * _k22(U[column], U, T2n[column], T2n) - c * values
    assert np.any(values)
    assert values.tobytes() == values.T.tobytes()


@pytest.mark.parametrize("kind,c", [("k22_s_minus", None), ("phi_plus", 1.3)])
def test_scan_evaluates_about_half_the_grid(monkeypatch, kind, c):
    """A resolution-1000 scan evaluates the triangle tau >= t and the
    blocks' diagonal squares, at most 0.55 of the grid's points."""
    sizes = []
    k22 = kernels._k22

    def counting_k22(*args):
        values = k22(*args)
        sizes.append(np.size(values))
        return values

    monkeypatch.setattr(kernels, "_k22", counting_k22)
    resolution = 1000
    points = (resolution + 1) ** 2
    report = definiteness_scan(KernelSpec(kind=kind, n=2, c=c), resolution)
    # phi evaluates K22 at both levels for every point.
    evaluated = sum(sizes) // (1 if c is None else 2)
    assert (resolution + 1) * (resolution + 2) // 2 <= evaluated <= 0.55 * points
    assert report.violations == (0 if c is None else 1860)


def test_dense_violation_scan_memory_does_not_grow_with_the_violations():
    """phi_minus at c = 0.01, far below its critical constant 1, breaks
    its sign at almost every point; the scan's traced peak stays below
    16 bytes per grid point (a (t, tau, value) tuple per violation took
    over 200)."""
    resolution = 1000
    spec = KernelSpec(kind="phi_minus", n=4, c=0.01)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        report = definiteness_scan(spec, resolution)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert report.violations == 997_008
    assert peak < 16 * (resolution + 1) ** 2


def test_scan_rejects_bad_arguments():
    spec = KernelSpec(kind="k22_s_minus", n=1)
    for resolution, message in (
        (1, "resolution must be >= 2"),
        (64.0, "resolution must be an integer, got 64.0"),
        (math.nan, "resolution must be an integer, got nan"),
    ):
        with pytest.raises(ValueError, match=message):
            definiteness_scan(spec, resolution)


# Local cell polynomials.

cells = st.integers(min_value=2, max_value=12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(min_value=0, max_value=(n - 1) // 2),
        st.integers(min_value=0, max_value=(n - 1) // 2),
    )
)


@given(
    cell=cells,
    c=st.floats(min_value=0.25, max_value=3.0),
    u=unit_coords,
    v=unit_coords,
)
@settings(max_examples=300)
def test_psi_matches_comparison_kernel_on_cells(cell, c, u, v):
    """On cell (k, l): 4 phi = h^4 psi for both variants, which are
    stated in units of h^4."""
    n, k, l = cell
    h = 0.5 / n
    t = (2 * k + u) * h
    tau = (2 * l + v) * h
    # abs slack sits above the ~1e-17 cancellation residue the generic
    # kernel evaluation leaves at its zero set
    for kind in ("phi_minus", "phi_plus"):
        spec = KernelSpec(kind, n, c)
        lhs = 4.0 * kernel_at(spec, UNIT, t, tau)
        rhs = h**4 * psi(spec, k, l, u, v)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-15), kind


@given(
    cell=cells,
    c=st.floats(min_value=0.25, max_value=3.0),
    u=unit_coords,
    v=unit_coords,
)
@settings(max_examples=200)
def test_psi_neighbour_difference_identity(cell, c, u, v):
    """Stepping one cell to the right changes the mid-line psi by
    4 (2k+1+u) v (c-1+v)."""
    n, k, l = cell
    if 2 * (k + 1) + 1 > n:
        return
    spec = KernelSpec("phi_minus", n, c)
    step = psi(spec, k + 1, l, u, v) - psi(spec, k, l, u, v)
    predicted = 4.0 * (2 * k + 1 + u) * v * (c - 1.0 + v)
    # abs slack 1e-18 on the kernel's scale h^4 psi, with h = 1/(2n)
    assert step == pytest.approx(predicted, rel=1e-9, abs=1e-18 * (2 * n) ** 4)


def test_psi_validation():
    spec = KernelSpec("phi_minus", 4, 1.0)
    with pytest.raises(ValueError, match="outside the unit square"):
        psi(spec, 0, 0, 1.5, 0.5)
    with pytest.raises(ValueError, match="outside the lower-left quadrant"):
        psi(spec, 2, 0, 0.5, 0.5)  # 2k+1 > n
    with pytest.raises(ValueError, match="outside the lower-left quadrant"):
        psi(spec, -1, 0, 0.5, 0.5)
    for kind in ("k22_s_minus", "k22_s_plus"):
        with pytest.raises(ValueError, match=f"^psi is defined for the comparison kernels only, got '{kind}'$"):
            psi(KernelSpec(kind, 4), 0, 0, 0.5, 0.5)


def test_psi_diagonal_dips_negative_below_the_critical_constant():
    """On the diagonal of cell (k, k) the mid-line psi is g(u) = psi(u, u)
    with g(0) = 0 and g'(0) = 8 (c-1) k^2, so any c < 1 forces g < 0
    just inside the cell: the constant 1 of the mid-line rule is sharp."""
    assert psi(KernelSpec("phi_minus", 4, 0.99), 1, 1, 0.0, 0.0) == 0.0
    assert psi(KernelSpec("phi_minus", 4, 0.99), 1, 1, 0.005, 0.005) < 0.0
    assert psi(KernelSpec("phi_minus", 6, 0.9), 2, 2, 0.01, 0.01) < 0.0
    # at the critical constant the dip disappears
    for u in (0.001, 0.01, 0.1, 0.5, 1.0):
        assert psi(KernelSpec("phi_minus", 4, 1.0), 1, 1, u, u) >= 0.0
