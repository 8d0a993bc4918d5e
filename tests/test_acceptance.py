"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single summary line (visible with -s or on failure)
and asserts the criterion, so `pytest -v tests/test_acceptance.py` reads
as a per-criterion pass/fail report.
"""
import math
import random
import time

import pytest

from trapcube.adaptive import refine  # noqa: F401  (surface sanity: import must work)
from trapcube.cli import BUILTINS, main
from trapcube.cubature import Integrand2D, error_constant, s_minus, s_plus
from trapcube.kernels import KernelSpec, definiteness_scan, kernel_at
from trapcube.oracle import ref_exp_integral, ref_sin_integral
from trapcube.univariate import Interval

from crosscheck import k22_s_plus_mixed, s_minus_by_blending, s_plus_by_blending

UNIT = Interval(0.0, 1.0)

# Shipped study-table values: per level (rem-, half-diff-, rem+, bound+),
# None where the printed tables leave the bound cell empty.
EXPECTED_TABLE_CELLS = {
    "exp_xy": {
        4: (-1.947e-3, 7.411e-4, 3.615e-3, 3.101e-3),
        8: (-4.648e-4, 1.750e-4, 9.274e-4, 7.419e-4),
        16: (-1.148e-4, 4.310e-5, 2.333e-4, 1.806e-4),
        32: (-2.862e-5, 1.073e-5, 5.842e-5, 4.451e-5),
        64: (-7.149e-6, 2.681e-6, 1.461e-5, 1.104e-5),
        128: (-1.787e-6, None, 3.653e-6, None),
    },
    "sin_xy": {
        4: (6.300e-4, 2.397e-4, -1.129e-3, 9.697e-4),
        8: (1.507e-4, 5.674e-5, -2.886e-4, 2.309e-4),
        16: (3.726e-5, 1.399e-5, -7.254e-5, 5.616e-5),
        32: (9.289e-6, 3.484e-6, -1.816e-5, 1.384e-5),
        64: (2.321e-6, 8.703e-7, -4.541e-6, 3.433e-6),
        128: (5.801e-7, None, -1.135e-6, None),
    },
}


def _within_one_printed_unit(computed, printed):
    """True when computed matches printed to +-1 unit in the 4th
    significant digit (the tables' last printed digit)."""
    unit = 10.0 ** (math.floor(math.log10(abs(printed))) - 3)
    return abs(computed - printed) <= unit * (1.0 + 1e-9)


def test_criterion_1_table_reproduction(capsys):
    start = time.perf_counter()
    worst = 0.0
    for fn_id, expected in EXPECTED_TABLE_CELLS.items():
        code = main(["table", "--fn", fn_id, "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            cells = line.split(",")
            n = int(cells[0])
            computed = [float(c) for c in cells[1:]]
            for got, printed in zip(computed, expected[n]):
                if printed is None:
                    continue
                assert _within_one_printed_unit(got, printed), (fn_id, n, got, printed)
                unit = 10.0 ** (math.floor(math.log10(abs(printed))) - 3)
                worst = max(worst, abs(got - printed) / unit)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 1: all printed table cells within +-1 unit "
          f"(worst {worst:.3f} units, {elapsed:.2f}s)")


def test_criterion_2_error_constant_identity():
    F = BUILTINS["poly_x2y2"].integrand
    exact = 1.0 / 9.0
    worst = 0.0
    for n in range(1, 17):
        for evaluate, rule in ((s_minus, "s_minus"), (s_plus, "s_plus")):
            remainder = exact - evaluate(F, UNIT, n).value
            deviation = abs(remainder - 4.0 * error_constant(rule, UNIT, n))
            worst = max(worst, deviation)
            assert deviation <= 1e-12, (rule, n, deviation)
    print(f"criterion 2: remainder equals 4*c(S) for x^2 y^2, n=1..16 "
          f"(worst deviation {worst:.2e})")


def test_criterion_3_definiteness_scans():
    start = time.perf_counter()
    for n in (1, 2, 3, 4, 8):
        for kind in ("k22_s_minus", "k22_s_plus"):
            report = definiteness_scan(KernelSpec(kind=kind, n=n), 200)
            assert report.violations == 0, (kind, n, report.max_abs_violation)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 3: 201x201 sign scans clean for n in {{1,2,3,4,8}} ({elapsed:.2f}s)")


def test_criterion_4_monotone_halving_and_bound_domination():
    cases = [
        (BUILTINS["exp_xy"].integrand, ref_exp_integral().value, ref_exp_integral().abs_err),
        (BUILTINS["sin_xy"].integrand, ref_sin_integral().value, ref_sin_integral().abs_err),
        (BUILTINS["poly_x2y2"].integrand, 1.0 / 9.0, 0.0),
    ]
    for F, reference, ref_err in cases:
        minus = {n: s_minus(F, UNIT, n).value for n in range(1, 65)}
        plus = {n: s_plus(F, UNIT, n).value for n in range(1, 65)}
        for n in range(1, 33):
            rm_n = reference - minus[n]
            rm_2n = reference - minus[2 * n]
            rp_n = reference - plus[n]
            rp_2n = reference - plus[2 * n]
            slack = 2.0 * ref_err + 1e-14
            # halving of the mid-line remainder
            assert abs(rm_2n) <= 0.5 * abs(rm_n) + slack, ("minus", n)
            # near-halving of the edge remainder
            factor = 0.5 + 1.0 / (4.0 * (2.0 * n - 1.0))
            assert abs(rp_2n) <= factor * abs(rp_n) + slack, ("plus", n)
            # a posteriori bounds dominate the true fine-level errors
            assert abs(rm_2n) <= abs(minus[2 * n] - minus[n]) + slack, ("minus bound", n)
            bound_factor = (4.0 * n - 1.0) / (4.0 * n - 3.0)
            assert abs(rp_2n) <= bound_factor * abs(plus[2 * n] - plus[n]) + slack, ("plus bound", n)
    print("criterion 4: halving inequalities and bound domination hold for "
          "exp, sin, x^2 y^2 at every doubling n=1..64")


@pytest.mark.parametrize("n", [2, 4, 8])
def test_criterion_5_threshold_sharpness(n):
    resolution = 1024 * n  # multiple of 4n, fine enough to see the dips
    at_critical = definiteness_scan(
        KernelSpec(kind="phi_minus", n=n, c=1.0), resolution
    )
    assert at_critical.violations == 0, ("minus at c=1", n)
    below = definiteness_scan(
        KernelSpec(kind="phi_minus", n=n, c=1.0 - 1e-2), resolution
    )
    assert below.violations >= 1, ("minus below critical", n)

    critical = (4.0 * n - 1.0) / (4.0 * n - 3.0)
    at_critical_p = definiteness_scan(
        KernelSpec(kind="phi_plus", n=n, c=critical), resolution
    )
    assert at_critical_p.violations == 0, ("plus at critical", n)
    below_p = definiteness_scan(
        KernelSpec(kind="phi_plus", n=n, c=critical - 1e-2), resolution
    )
    assert below_p.violations >= 1, ("plus below critical", n)
    print(f"criterion 5 (n={n}): comparison-kernel scans flip exactly at the "
          f"critical constants (minus 1, plus {critical:.6f})")


# Criterion 6 helpers: polynomials with identically zero mixed second
# derivative, f = A(x) + B(y) + x C(y) + y D(x), with closed-form traces.

def _peval(coeffs, x):
    out = 0.0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _pint(coeffs, a, b):
    return math.fsum(c * (b ** (i + 1) - a ** (i + 1)) / (i + 1) for i, c in enumerate(coeffs))


def _null_poly(A, B, C, D):
    def f(x, y):
        return _peval(A, x) + _peval(B, y) + x * _peval(C, y) + y * _peval(D, x)

    def frozen_x(c, iv):
        return (
            _peval(A, c) * iv.width
            + _pint(B, iv.a, iv.b)
            + c * _pint(C, iv.a, iv.b)
            + _peval(D, c) * (iv.b**2 - iv.a**2) / 2.0
        )

    def frozen_y(c, iv):
        return (
            _pint(A, iv.a, iv.b)
            + _peval(B, c) * iv.width
            + _peval(C, c) * (iv.b**2 - iv.a**2) / 2.0
            + c * _pint(D, iv.a, iv.b)
        )

    exact = (
        _pint(A, 0.0, 1.0) + _pint(B, 0.0, 1.0)
        + 0.5 * _pint(C, 0.0, 1.0) + 0.5 * _pint(D, 0.0, 1.0)
    )
    return Integrand2D(f=f, d22_sign="nonnegative", exact_traces=(frozen_x, frozen_y)), exact


def test_criterion_6_null_derivative_polynomials_integrated_exactly():
    rng = random.Random(20260816)
    worst = 0.0
    produced = 0
    while produced < 50:
        coeffs = [[rng.uniform(-2.0, 2.0) for _ in range(4)] for _ in range(4)]
        F, exact = _null_poly(*coeffs)
        if abs(exact) < 0.1:
            continue  # keep the relative tolerance meaningful
        produced += 1
        for evaluate in (s_minus, s_plus):
            value = evaluate(F, UNIT, 3).value
            rel = abs(value - exact) / abs(exact)
            worst = max(worst, rel)
            assert rel <= 1e-12, (coeffs, value, exact)
    print(f"criterion 6: 50 mixed-derivative-null polynomials exact for both "
          f"rules (worst relative error {worst:.2e})")


# Criterion 7 helper: composite 3-point Gauss per kernel cell is exact for
# the piecewise-biquadratic kernels.

_GAUSS_X = (-math.sqrt(0.6), 0.0, math.sqrt(0.6))
_GAUSS_W = (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)


def _gauss_points(breaks):
    pts = []
    for lo, hi in zip(breaks, breaks[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        for x, w in zip(_GAUSS_X, _GAUSS_W):
            pts.append((mid + half * x, half * w))
    return pts


def _kernel_integral(kind, iv, n, with_mid):
    breaks = sorted({iv.a + i * iv.width / n for i in range(n + 1)} | ({iv.midpoint} if with_mid else set()))
    pts = _gauss_points(breaks)
    spec = KernelSpec(kind, n)
    return math.fsum(
        wt * wtau * kernel_at(spec, iv, t, tau) for (t, wt) in pts for (tau, wtau) in pts
    )


@pytest.mark.parametrize("n", [1, 2, 4])
def test_criterion_7_kernel_integral_matches_error_constant(n):
    qm = _kernel_integral("k22_s_minus", UNIT, n, with_mid=True)
    cm = error_constant("s_minus", UNIT, n)
    assert abs(qm - cm) <= 1e-9, ("s_minus", n, qm, cm)
    qp = _kernel_integral("k22_s_plus", UNIT, n, with_mid=False)
    cp = error_constant("s_plus", UNIT, n)
    assert abs(qp - cp) <= 1e-9, ("s_plus", n, qp, cp)
    print(f"criterion 7 (n={n}): integrated kernels match the error constants "
          f"(minus dev {abs(qm - cm):.1e}, plus dev {abs(qp - cp):.1e})")


def test_criterion_8a_kernel_arrangements_agree():
    worst = 0.0
    for n in (1, 2, 4, 8):
        grid = [i / 100.0 for i in range(101)]
        spec = KernelSpec("k22_s_plus", n)
        scale = max(abs(kernel_at(spec, UNIT, t, tau)) for t in grid for tau in grid)
        for t in grid:
            for tau in grid:
                dev = abs(kernel_at(spec, UNIT, t, tau) - k22_s_plus_mixed(UNIT, n, t, tau))
                worst = max(worst, dev / scale)
                assert dev <= 1e-13 * scale, (n, t, tau)
    print(f"criterion 8a: both edge-kernel arrangements agree on 101x101 grids "
          f"(worst {worst:.2e} of scale)")


def _random_tensor_poly(rng, degree=4):
    coeffs = [[rng.uniform(0.2, 1.0) for _ in range(degree + 1)] for _ in range(degree + 1)]

    def f(x, y):
        return math.fsum(
            c * x**i * y**j for i, row in enumerate(coeffs) for j, c in enumerate(row)
        )

    def fx(x, y):
        return math.fsum(
            i * c * x ** (i - 1) * y**j
            for i, row in enumerate(coeffs) for j, c in enumerate(row) if i > 0
        )

    def fy(x, y):
        return math.fsum(
            j * c * x**i * y ** (j - 1)
            for i, row in enumerate(coeffs) for j, c in enumerate(row) if j > 0
        )

    def fxy(x, y):
        return math.fsum(
            i * j * c * x ** (i - 1) * y ** (j - 1)
            for i, row in enumerate(coeffs) for j, c in enumerate(row) if i > 0 and j > 0
        )

    return f, fx, fy, fxy


def test_criterion_8b_construction_route_matches_direct_form():
    rng = random.Random(1317902151)
    integrands = [_random_tensor_poly(rng) for _ in range(8)]
    integrands.append((
        lambda x, y: math.exp(x * y),
        lambda x, y: y * math.exp(x * y),
        lambda x, y: x * math.exp(x * y),
        lambda x, y: (1.0 + x * y) * math.exp(x * y),
    ))
    integrands.append((
        lambda x, y: math.sin(x * y),
        lambda x, y: y * math.cos(x * y),
        lambda x, y: x * math.cos(x * y),
        lambda x, y: math.cos(x * y) - x * y * math.sin(x * y),
    ))
    worst = 0.0
    for f, fx, fy, fxy in integrands:
        F = Integrand2D(f=f)
        for n in (2, 5):
            direct_p = s_plus(F, UNIT, n).value
            built_p = s_plus_by_blending(F, UNIT, n)
            rel_p = abs(built_p - direct_p) / abs(direct_p)
            direct_m = s_minus(F, UNIT, n).value
            built_m = s_minus_by_blending(F, UNIT, n, fx, fy, fxy)
            rel_m = abs(built_m - direct_m) / abs(direct_m)
            worst = max(worst, rel_p, rel_m)
            assert rel_p <= 1e-12 and rel_m <= 1e-12, (n, rel_p, rel_m)
    print(f"criterion 8b: interpolate-then-correct route matches the direct "
          f"rules on 10 smooth integrands (worst relative {worst:.2e})")
