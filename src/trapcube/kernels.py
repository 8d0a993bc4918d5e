"""Bivariate Peano kernels of the one-sided cubature rules, comparison
kernels for the refinement inequalities, and grid-scan verification of
their signs.

The remainder of each modified rule is an integral of a bivariate
kernel ``K22`` against the integrand's mixed derivative, so a one-signed
kernel certifies one-sided behaviour.  The halving inequalities used by
the adaptive driver reduce to a sign claim about the comparison kernel

    phi = (c + 1) * K22(level 2n) - c * K22(level n),

nonnegative for the mid-line rule exactly when ``c >= 1`` and
nonpositive for the edge rule exactly when ``c >= (4n-1)/(4n-3)``.
Those thresholds are best possible; :func:`definiteness_scan` checks
both directions numerically on uniform grids, and :func:`psi` /
:func:`sharpness_g` expose the local polynomials that make the
thresholds visible in closed form.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from .cubature import _BLOCK_POINTS, _hold_heap
from .univariate import _SIGNS, Interval, QuadratureRule, apply, midpoint_rule, peano_kernel, trapezium_rule

# numpy is imported inside the scan functions, so that the point
# kernels never load it.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "KernelSpec",
    "ScanReport",
    "k22_s_minus",
    "k22_s_plus",
    "k22_s_plus_mixed",
    "phi",
    "definiteness_scan",
    "psi",
    "sharpness_g",
]

_KERNEL_KINDS = ("k22_s_minus", "k22_s_plus", "phi_minus", "phi_plus")

#: Relative slack separating true sign violations from rounding noise at
#: the kernel's zero set (the kernels vanish identically on grid lines).
SCAN_SLACK_FACTOR = 1e-14


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to scan: the kind, the square, the level, and (for
    comparison kernels) the constant c."""

    kind: str
    iv: Interval
    n: int
    c: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _KERNEL_KINDS:
            raise ValueError(f"kind must be one of {_KERNEL_KINDS}, got {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"level must be >= 1, got {self.n}")
        if self.kind.startswith("phi"):
            if self.c is None or not self.c > 0.0:
                raise ValueError(f"comparison kernels require c > 0, got {self.c!r}")
        elif self.c is not None:
            raise ValueError(f"c is only meaningful for comparison kernels, got {self.c!r}")


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a sign scan over a uniform grid.

    ``violations`` holds, in row-major grid order, every point whose
    value breaks the expected sign by more than the slack
    ``SCAN_SLACK_FACTOR * scale``, where ``scale`` is the largest
    absolute kernel value seen on the grid.
    """

    grid_resolution: int
    expected_sign: str
    violations: Tuple[Tuple[float, float, float], ...]
    max_abs_violation: float
    scale: float

    @property
    def ok(self) -> bool:
        return not self.violations


def _k22(u_t, u_tau, t_t, t_tau):
    """``U(t) T(tau) + U(tau) T(t) - T(t) T(tau)`` from the univariate
    kernels U of the outer rule and T of the n-panel trapezium rule.

    Takes floats or broadcasting arrays alike.
    """
    return u_t * t_tau + u_tau * t_t - t_t * t_tau


def _k22_point(outer: QuadratureRule, iv: Interval, n: int, t: float, tau: float) -> float:
    """``K22`` at ``(t, tau)``, with U the order-2 Peano kernel of ``outer``."""
    trap = trapezium_rule(iv, n)
    return _k22(
        peano_kernel(outer, 2, t), peano_kernel(outer, 2, tau),
        peano_kernel(trap, 2, t), peano_kernel(trap, 2, tau),
    )


def k22_s_minus(iv: Interval, n: int, t: float, tau: float) -> float:
    """Bivariate kernel of the mid-line rule at a point.

    Three-term combination of the univariate order-2 kernels of the
    midpoint rule M and the n-panel trapezium rule T:

        M(t) T(tau) + M(tau) T(t) - T(t) T(tau)

    Nonpositive throughout the square, which is why the rule's error
    constant is negative.
    """
    return _k22_point(midpoint_rule(iv), iv, n, t, tau)


def k22_s_plus(iv: Interval, n: int, t: float, tau: float) -> float:
    """Bivariate kernel of the edge rule at a point.

    Same three-term shape as :func:`k22_s_minus` with the midpoint
    kernel replaced by the single-panel trapezium kernel
    ``(t-a)(t-b)/2``.  Nonnegative throughout the square.
    """
    return _k22_point(trapezium_rule(iv, 1), iv, n, t, tau)


def k22_s_plus_mixed(iv: Interval, n: int, t: float, tau: float) -> float:
    """Edge-rule kernel through an independent algebraic arrangement.

    Combines the single-panel kernel with the trapezium rule applied to
    the interpolation-remainder line kernel

        Kcal(x, t) = (x - t)_+ - (x - a)(b - t)/(b - a)

    as ``G(tau) T(t) + T(tau) Q_n[Kcal(., t)]``.  Algebraically equal to
    :func:`k22_s_plus`; evaluated separately for cross-validation.
    """
    a, b = iv.a, iv.b
    if not (a <= t <= b and a <= tau <= b):
        raise ValueError(f"point ({t!r}, {tau!r}) outside the square")
    one = trapezium_rule(iv, 1)
    trap = trapezium_rule(iv, n)
    gtau = peano_kernel(one, 2, tau)
    tt = peano_kernel(trap, 2, t)
    ttau = peano_kernel(trap, 2, tau)
    width = iv.width

    def kcal(x: float) -> float:
        return max(x - t, 0.0) - (x - a) * (b - t) / width

    q = apply(trap, kcal)
    return gtau * tt + ttau * q


def phi(variant: str, iv: Interval, n: int, c: float, t: float, tau: float) -> float:
    """Comparison kernel of two consecutive refinement levels.

    Returns ``(c+1) K22(2n) - c K22(n)`` for the requested rule
    variant ('minus' or 'plus').  Its fixed sign for large enough c is
    what turns two successive rule values into a certified error bound.
    """
    if not c > 0.0:
        raise ValueError(f"comparison constant must be positive, got {c!r}")
    if variant == "minus":
        k22 = k22_s_minus
    elif variant == "plus":
        k22 = k22_s_plus
    else:
        raise ValueError(f"unknown variant {variant!r} (expected 'minus' or 'plus')")
    return (c + 1.0) * k22(iv, 2 * n, t, tau) - c * k22(iv, n, t, tau)


# Vectorized closed forms of the univariate kernels, used by the grid
# scans.  They factor per panel, so node values are exact zeros and the
# trapezium kernel is nonpositive in floating point as well.

def _k2_mid_grid(g: np.ndarray, iv: Interval) -> np.ndarray:
    import numpy as np

    return 0.5 * (g - iv.a) ** 2 - iv.width * np.maximum(g - iv.midpoint, 0.0)

def _k2_trap_grid(g: np.ndarray, iv: Interval, n: int) -> np.ndarray:
    import numpy as np

    h = iv.width / n
    panel = np.clip(np.floor((g - iv.a) / h), 0, n - 1)
    xi = g - (iv.a + panel * h)
    return 0.5 * xi * (xi - h)

def _k2_ends_grid(g: np.ndarray, iv: Interval) -> np.ndarray:
    return 0.5 * (g - iv.a) * (g - iv.b)


def definiteness_scan(spec: KernelSpec, expected: str, resolution: int) -> ScanReport:
    """Check the expected sign of a kernel on a uniform grid.

    Evaluates the kernel at all ``(resolution + 1)^2`` points of the
    uniform tensor grid over the square and reports every point whose
    value breaks ``expected`` by more than the slack
    ``SCAN_SLACK_FACTOR * max |kernel|``.  Violations are listed in
    row-major order.

    Violation regions of the comparison kernels just below their
    critical constants hug the grid lines, so catching them needs a
    resolution that is a multiple of ``4 n`` and fine compared to
    ``1/c_deficit``; passing scans are insensitive to the choice.
    """
    if expected not in _SIGNS:
        raise ValueError(f"expected sign must be one of {_SIGNS}, got {expected!r}")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    import numpy as np

    _hold_heap(np)
    iv, n, c = spec.iv, spec.n, spec.c
    size = resolution + 1
    grid = np.linspace(iv.a, iv.b, size)
    U = _k2_mid_grid(grid, iv) if spec.kind.endswith("minus") else _k2_ends_grid(grid, iv)
    Tn = _k2_trap_grid(grid, iv, n)
    T2n = _k2_trap_grid(grid, iv, 2 * n) if spec.kind.startswith("phi") else None

    block = max(1, _BLOCK_POINTS // size)
    # (flat grid index, value) arrays of the sign-breaking points of each
    # block, before slack filtering, in row-major order.
    hits = []
    scale = 0.0
    for start in range(0, size, block):
        # r picks the block's rows from the t-axis arrays (t down the
        # block, tau along its rows).  One row takes an int, so its t
        # factors are numpy scalars: broadcasting (1, 1) arrays made
        # one-row scans (resolution 2048 and up) 6-9 % slower than a row loop.
        r = start if block == 1 else (slice(start, start + block), None)
        values = _k22(U[r], U, Tn[r], Tn)
        if T2n is not None:
            values = (c + 1.0) * _k22(U[r], U, T2n[r], T2n) - c * values
        scale = max(scale, float(np.max(np.abs(values))))
        bad = values < 0.0 if expected == "nonnegative" else values > 0.0
        # Most blocks of a clean scan have no candidate; skipping
        # np.flatnonzero there keeps one-row blocks as fast as a row loop.
        if bad.any():
            k = np.flatnonzero(bad)
            hits.append((k + start * size, values.take(k)))
    violations: Tuple[Tuple[float, float, float], ...] = ()
    if hits:
        k, v = (np.concatenate(parts) for parts in zip(*hits))
        keep = np.abs(v) > SCAN_SLACK_FACTOR * scale
        i, j = np.divmod(k[keep], size)
        violations = tuple(zip(grid[i].tolist(), grid[j].tolist(), v[keep].tolist()))
    worst = max((abs(v) for (_, _, v) in violations), default=0.0)
    return ScanReport(
        grid_resolution=resolution,
        expected_sign=expected,
        violations=violations,
        max_abs_violation=worst,
        scale=scale,
    )


def _check_cell(k: int, l: int, n: int) -> None:
    if k < 0 or l < 0 or 2 * k + 1 > n or 2 * l + 1 > n:
        raise ValueError(
            f"cell ({k}, {l}) lies outside the lower-left quadrant for level {n}"
        )


def psi(variant: str, k: int, l: int, n: int, c: float, u: float, v: float) -> float:
    """Local polynomial form of the comparison kernel on one fine cell.

    On the unit square with fine mesh ``h = 1/(2n)``, the comparison
    kernel restricted to the cell with lower-left corner
    ``(2k h, 2l h)`` becomes a polynomial in the local coordinates
    ``(u, v)`` in [0,1]^2.  The 'minus' variant includes the cell-width
    factor ``h^4`` and satisfies ``4 phi = psi``; the 'plus' variant is
    stated in units of ``h^4``, so there the identity reads
    ``4 phi = h^4 psi``.  Exposed for closed-form inspection of the
    critical constants; the identities themselves are covered by tests.
    """
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise ValueError(f"local coordinates ({u!r}, {v!r}) outside the unit square")
    _check_cell(k, l, n)
    shared = -u * v * (1.0 - u) * (1.0 - v) + c * u * v * (3.0 - u - v)
    if variant == "minus":
        h4 = (0.5 / n) ** 4
        return h4 * (
            (2 * k + u) ** 2 * v * (v - 1.0 + c)
            + (2 * l + v) ** 2 * u * (u - 1.0 + c)
            + shared
        )
    if variant == "plus":
        return (
            (2 * k + u) * (2 * k + u - 2 * n) * v * (v - 1.0 + c)
            + (2 * l + v) * (2 * l + v - 2 * n) * u * (u - 1.0 + c)
            + shared
        )
    raise ValueError(f"unknown variant {variant!r} (expected 'minus' or 'plus')")


def sharpness_g(k: int, n: int, c: float, u: float) -> float:
    """Diagonal trace of the mid-line comparison kernel on cell (k, k).

    With ``h = 1/(2n)`` on the unit square,

        g(u) = h^4 [ 2 (2k+u)^2 u (u-1+c) - u^2 (1-u)^2 + c u^2 (3-2u) ]

    has ``g(0) = 0`` and ``g'(0) = 8 (c-1) h^4 k^2``, so for every
    ``c < 1`` it dips negative just inside the cell: the constant 1 in
    the halving inequality of the mid-line rule cannot be improved.
    Meaningful for diagonal cells with ``1 <= k <= (n-1)/2``.
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"local coordinate {u!r} outside [0, 1]")
    if k < 1 or 2 * k + 1 > n:
        raise ValueError(
            f"diagonal cell index must satisfy 1 <= k <= (n-1)/2, got k={k}, n={n}"
        )
    h4 = (0.5 / n) ** 4
    return h4 * (
        2.0 * (2 * k + u) ** 2 * u * (u - 1.0 + c)
        - u * u * (1.0 - u) ** 2
        + c * u * u * (3.0 - 2.0 * u)
    )
