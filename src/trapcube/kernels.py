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
Those thresholds are best possible for every n >= 2.  At n = 1 the
edge threshold 3 still is, but the mid-line kernel stays nonnegative
down to ``c = 1/3``, so ``c >= 1`` is sufficient there and not sharp.

A :class:`KernelSpec` names each of the four kernels: its kind
('k22_s_minus', 'k22_s_plus', 'phi_minus' or 'phi_plus'), its level n
and, for phi, its c.  :func:`kernel_at` evaluates the kernel at a point
of any square, :func:`definiteness_scan` checks its sign numerically on
a uniform grid over the unit square, and :func:`psi` gives the local
polynomials of phi that make the thresholds visible in closed form.  One
square decides them all: the kernels are built from order-2 Peano
kernels, which scale by w^2 per axis, so on [a, b]^2 of width w each
equals w^4 times its unit-square value at the affinely mapped point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from .cubature import _BLOCK_POINTS, _hold_heap
from .univariate import Interval, _integer, midpoint_rule, peano_kernel, trapezium_rule

# numpy is imported inside the scan functions, so that kernel_at and psi
# never load it.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "KernelSpec",
    "ScanReport",
    "kernel_at",
    "definiteness_scan",
    "psi",
]

#: Each kernel kind and the sign it keeps: the rule kernels always, the
#: comparison kernels for c at or above their critical constants.
_KERNEL_SIGNS = {
    "k22_s_minus": "nonpositive",
    "k22_s_plus": "nonnegative",
    "phi_minus": "nonnegative",
    "phi_plus": "nonpositive",
}

#: Relative slack separating true sign violations from rounding noise at
#: the kernel's zero set (the kernels vanish identically on grid lines).
SCAN_SLACK_FACTOR = 1e-14


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel: the kind, the level (an integer >= 1), and (for
    comparison kernels) the constant c, finite and positive."""

    kind: str
    n: int
    c: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _KERNEL_SIGNS:
            raise ValueError(f"kind must be one of {tuple(_KERNEL_SIGNS)}, got {self.kind!r}")
        if _integer(self.n, "level") < 1:
            raise ValueError(f"level must be >= 1, got {self.n}")
        if self.kind.startswith("phi"):
            if self.c is None or not 0.0 < self.c < math.inf:
                raise ValueError(f"comparison kernels require a finite c > 0, got {self.c!r}")
        elif self.c is not None:
            raise ValueError(f"c is only meaningful for comparison kernels, got {self.c!r}")


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a sign scan over a uniform grid.

    ``violations`` counts the grid points whose value breaks the
    expected sign by more than the slack ``SCAN_SLACK_FACTOR * scale``,
    where ``scale`` is the largest absolute kernel value seen on the
    grid.  ``worst`` is the violation ``(t, tau, value)`` of largest
    ``|value|``, the first in row-major grid order on ties, or None
    when there is no violation.  Points, values and ``scale`` are those
    of the unit square; on [a, b]^2 of width w the worst point is the
    affine image ``(a + w t, a + w tau)`` and values are w^4 as large.
    """

    grid_resolution: int
    expected_sign: str
    violations: int
    worst: Optional[Tuple[float, float, float]]
    scale: float

    @property
    def max_abs_violation(self) -> float:
        return 0.0 if self.worst is None else abs(self.worst[2])

    @property
    def ok(self) -> bool:
        return not self.violations


def _k22(u_t, u_tau, t_t, t_tau, out=None, scratch=None):
    """``U(t) T(tau) + U(tau) T(t) - T(t) T(tau)`` from the univariate
    kernels U of the outer rule and T of the n-panel trapezium rule.

    Takes floats or broadcasting arrays alike.  Given arrays ``out`` and
    ``scratch`` of the result's shape, it forms the same values in
    ``out``, in the same order and so bit for bit, and returns ``out``.
    """
    if out is None:
        return u_t * t_tau + u_tau * t_t - t_t * t_tau
    import numpy as np

    np.multiply(u_t, t_tau, out=out)
    np.multiply(u_tau, t_t, out=scratch)
    np.add(out, scratch, out=out)
    np.multiply(t_t, t_tau, out=scratch)
    return np.subtract(out, scratch, out=out)


def kernel_at(spec: KernelSpec, iv: Interval, t: float, tau: float) -> float:
    """The kernel that ``spec`` names, at the point ``(t, tau)`` of ``iv``^2.

    ``K22`` of a rule is ``U(t) T(tau) + U(tau) T(t) - T(t) T(tau)``, with
    T the order-2 Peano kernel of the n-panel trapezium rule and U that
    of the outer rule: the midpoint rule for 'k22_s_minus', which is
    nonpositive throughout the square (so that rule's error constant is
    negative), and the one-panel trapezium rule for 'k22_s_plus', which
    is nonnegative.  'phi_minus' and 'phi_plus' are the comparison
    kernels ``(c+1) K22(2n) - c K22(n)`` of those rules, whose sign for
    large enough c turns two successive rule values into a certified
    error bound.
    """
    outer = midpoint_rule(iv) if spec.kind.endswith("minus") else trapezium_rule(iv, 1)
    u_t, u_tau = peano_kernel(outer, t), peano_kernel(outer, tau)

    def k22(n: int) -> float:
        trap = trapezium_rule(iv, n)
        return _k22(u_t, u_tau, peano_kernel(trap, t), peano_kernel(trap, tau))

    if not spec.kind.startswith("phi"):
        return k22(spec.n)
    c = spec.c
    return (c + 1.0) * k22(2 * spec.n) - c * k22(spec.n)


# Vectorized closed forms of the univariate kernels on [0, 1], used by
# the grid scans.  They factor per panel, so node values are exact zeros
# and the trapezium kernel is nonpositive in floating point as well.

def _k2_mid_grid(g: np.ndarray) -> np.ndarray:
    import numpy as np

    return 0.5 * g ** 2 - np.maximum(g - 0.5, 0.0)

def _k2_trap_grid(g: np.ndarray, n: int) -> np.ndarray:
    import numpy as np

    h = 1.0 / n
    panel = np.clip(np.floor(g / h), 0, n - 1)
    xi = g - panel * h
    return 0.5 * xi * (xi - h)

def _k2_ends_grid(g: np.ndarray) -> np.ndarray:
    return 0.5 * g * (g - 1.0)


def _block_factors(f: np.ndarray, start: int, rows: int, t_out: np.ndarray, tau_out: np.ndarray):
    """The t and tau factors of the scan block of rows [start, start +
    rows) and columns [start, len(f)): f's values down the block and
    along it, copied to the block's shape into ``t_out`` and ``tau_out``,
    so that the kernel is formed with same-shape arithmetic.  A product
    of two such arrays ran about twice as fast as the outer broadcast of
    (rows, 1) and (width,) on a 31 x 513 block.

    A one-row block, which only resolutions above 8192 have, needs no
    copy: it keeps f[start], a numpy scalar, and the view f[start:].  At
    resolution 16384 copying its row as well took 1.45 and 1.67 times as
    long (medians of 11 interleaved k22_s_minus and phi_plus scans, on a
    2-vCPU VM); broadcasting (1, 1) arrays instead of the scalar was
    within the noise (the scalar was faster in 4 and 7 of 11).
    """
    if rows == 1:
        return f[start], f[start:]
    import numpy as np

    np.copyto(t_out, f[start:start + rows, None])
    np.copyto(tau_out, f[start:])
    return t_out, tau_out


def definiteness_scan(spec: KernelSpec, resolution: int) -> ScanReport:
    """Check the sign a kernel kind keeps on a uniform grid.

    Checks the kernel at all ``(resolution + 1)^2`` points of the
    uniform tensor grid over the unit square, which decides the sign on
    every square (see the module docstring), counts the points whose value
    breaks the kind's sign (nonpositive for 'k22_s_minus' and
    'phi_plus', nonnegative for 'k22_s_plus' and 'phi_minus') by more
    than the slack
    ``SCAN_SLACK_FACTOR * max |kernel|``, and reports the worst of them.
    Every kind is symmetric in ``(t, tau)`` bit for bit, so the scan
    evaluates only the points with ``tau >= t``, plus a square of each
    block's rows on the diagonal (0.52 of the grid at resolution 1000,
    0.68 at 256), and counts each point off the diagonal for its mirror
    too.  Each block's values are formed in place, with the operations
    of ``_k22`` and phi in the order they are written, so they equal the
    formula's bit for bit, in seven scratch arrays of
    ``max(_BLOCK_POINTS, resolution + 1)`` floats allocated once per scan:
    896 KiB up to resolution 16383 and ``56 (resolution + 1)`` bytes
    above it.
    Beyond those the scan keeps 8 bytes per sign-breaking point
    evaluated, which is about half of the sign-breaking points.

    Violation regions of the comparison kernels just below their
    critical constants hug the grid lines, so catching them needs a
    resolution that is a multiple of ``4 n`` and fine compared to
    ``1/c_deficit``; passing scans are insensitive to the choice.
    """
    if _integer(resolution, "resolution") < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    import numpy as np

    _hold_heap(np)
    n, c = spec.n, spec.c
    expected = _KERNEL_SIGNS[spec.kind]
    nonnegative = expected == "nonnegative"
    size = resolution + 1
    grid = np.linspace(0.0, 1.0, size)
    U = _k2_mid_grid(grid) if spec.kind.endswith("minus") else _k2_ends_grid(grid)
    Tn = _k2_trap_grid(grid, n)
    T2n = _k2_trap_grid(grid, 2 * n) if spec.kind.startswith("phi") else None

    # The block of rows [start, start + rows) takes the columns
    # [start, size): its diagonal square and the strip right of it.  The
    # square holds each of its points with the mirror, so a point there
    # counts once; a point of the strip counts twice, for its mirror below,
    # which no block evaluates.  Of two mirrored points the one with j > i
    # comes first in row-major order, so the first worst point on ties is
    # one that is evaluated.
    # Scratch of every block: the factors U and T (of level n, then of
    # level 2n) down the block (t) and along it (tau), K22 at levels n and
    # 2n, and a product.  A block's arrays are the first rows * width
    # floats of each.
    buffers = np.empty((7, max(_BLOCK_POINTS, size)))
    # |value| of the sign-breaking points of each block, (square, strip).
    # The slack needs the final scale, so they are counted after the loop.
    hits = []
    top = None  # largest |value| so far, with its point: (|value|, t, tau, value)
    scale = 0.0
    start = 0
    while start < size:
        width = size - start
        rows = min(max(1, _BLOCK_POINTS // width), width)
        shape = (rows, width) if rows > 1 else width
        u_t, u_tau, t_t, t_tau, coarse, fine, scratch = (b[: rows * width].reshape(shape) for b in buffers)
        u = _block_factors(U, start, rows, u_t, u_tau)
        values = _k22(*u, *_block_factors(Tn, start, rows, t_t, t_tau), coarse, scratch)
        if T2n is not None:
            fine = _k22(*u, *_block_factors(T2n, start, rows, t_t, t_tau), fine, scratch)
            np.multiply(fine, c + 1.0, out=fine)
            np.multiply(values, c, out=values)
            values = np.subtract(fine, values, out=fine)
        high, low = float(values.max()), float(values.min())
        scale = max(scale, high, -low)
        # Most blocks of a clean scan keep the sign at every point, which
        # their min (or max) shows without a mask.
        if (low < 0.0) if nonnegative else (high > 0.0):
            k = np.flatnonzero(values < 0.0 if nonnegative else values > 0.0)
            v = values.take(k)
            mags = np.abs(v)
            strip = k % width >= rows
            hits.append((mags[~strip], mags[strip]))
            m = int(mags.argmax())
            # Strict comparison: on ties the earlier block's point stays.
            if top is None or mags[m] > top[0]:
                i, j = divmod(int(k[m]), width)
                top = (mags[m], float(grid[start + i]), float(grid[start + j]), float(v[m]))
        start += rows
    slack = SCAN_SLACK_FACTOR * scale
    violations = sum(
        int(np.count_nonzero(square > slack)) + 2 * int(np.count_nonzero(strip > slack))
        for square, strip in hits
    )
    return ScanReport(
        grid_resolution=resolution,
        expected_sign=expected,
        violations=violations,
        worst=top[1:] if violations else None,
        scale=scale,
    )


def _check_cell(k: int, l: int, n: int) -> None:
    if k < 0 or l < 0 or 2 * k + 1 > n or 2 * l + 1 > n:
        raise ValueError(
            f"cell ({k}, {l}) lies outside the lower-left quadrant for level {n}"
        )


def psi(spec: KernelSpec, k: int, l: int, u: float, v: float) -> float:
    """Local polynomial form of the comparison kernel ``spec`` on one
    fine cell.

    On the unit square with fine mesh ``h = 1/(2n)``, the comparison
    kernel restricted to the cell with lower-left corner
    ``(2k h, 2l h)`` becomes a polynomial in the local coordinates
    ``(u, v)`` in [0,1]^2.  Both kinds are stated in units of the
    cell-width factor ``h^4``, so ``4 phi = h^4 psi``, and their
    coefficients are integers and c.  Exposed for closed-form inspection
    of the critical constants; the identities themselves are covered by
    tests.
    """
    if not spec.kind.startswith("phi"):
        raise ValueError(f"psi is defined for the comparison kernels only, got {spec.kind!r}")
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise ValueError(f"local coordinates ({u!r}, {v!r}) outside the unit square")
    n, c = spec.n, spec.c
    _check_cell(k, l, n)
    shared = -u * v * (1.0 - u) * (1.0 - v) + c * u * v * (3.0 - u - v)
    if spec.kind == "phi_minus":
        return (
            (2 * k + u) ** 2 * v * (v - 1.0 + c)
            + (2 * l + v) ** 2 * u * (u - 1.0 + c)
            + shared
        )
    return (
        (2 * k + u) * (2 * k + u - 2 * n) * v * (v - 1.0 + c)
        + (2 * l + v) * (2 * l + v - 2 * n) * u * (u - 1.0 + c)
        + shared
    )
