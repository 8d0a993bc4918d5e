"""Reference values and a brute-force cross-check integrator.

The two transcendental test integrands have termwise-integrable Taylor
series over the unit square:

    integral of e^{xy}   = sum_{k>=1} 1 / (k * k!)
    integral of sin(xy)  = sum_{k>=1} (-1)^{k+1} / (2k * (2k)!)

Both series converge factorially, so truncating at the first term below
1e-18 leaves a rigorous remainder bound far beneath every tolerance the
test suites use.  :func:`brute_force_integral` is a deliberately plain
tensor trapezoid plus Richardson extrapolation that shares no code with
the cubature rules, for independent cross-checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .univariate import Interval, _integer

# numpy is imported inside the brute-force integrator, so that the
# reference series never load it.
if TYPE_CHECKING:
    import numpy as np

__all__ = ["ReferenceValue", "ref_exp_integral", "ref_sin_integral", "brute_force_integral"]

_TERM_CUTOFF = 1e-18


@dataclass(frozen=True)
class ReferenceValue:
    """A high-precision constant with a rigorous truncation bound."""

    value: float
    abs_err: float
    method: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"reference value must be finite, got {self.value!r}")
        if not 0.0 <= self.abs_err <= 1e-13:
            raise ValueError(
                f"reference truncation bound must lie in [0, 1e-13], got {self.abs_err!r}"
            )


def _series(term: Callable[[int], float], tail: float, method: str) -> ReferenceValue:
    """Sum the terms ``term(k)``, k = 1, 2, ..., until one drops below
    1e-18 in magnitude; the truncation bound is tail times that term."""
    terms = []
    k = 1
    while abs(t := term(k)) >= _TERM_CUTOFF:
        terms.append(t)
        k += 1
    return ReferenceValue(value=math.fsum(terms), abs_err=tail * abs(t), method=method)


def ref_exp_integral() -> ReferenceValue:
    """Integral of e^{xy} over the unit square, by series.

    Positive terms 1/(k*k!) are summed until one drops below 1e-18;
    the factorial tail is then under twice the first omitted term.
    """
    return _series(lambda k: 1.0 / (k * math.factorial(k)), 2.0, "series sum 1/(k*k!)")


def ref_sin_integral() -> ReferenceValue:
    """Integral of sin(xy) over the unit square, by alternating series.

    Terms (-1)^{k+1}/(2k*(2k)!) alternate with decreasing magnitude, so
    the truncation error is below the first omitted term.
    """
    return _series(
        lambda k: (1.0 if k % 2 else -1.0) / (2 * k * math.factorial(2 * k)),
        1.0,
        "alternating series sum 1/(2k*(2k)!)",
    )


def _eval_row(f: Callable[[float, float], float], x: float, ys: np.ndarray) -> np.ndarray:
    """Evaluate f(x, .) along a grid row, accepting scalar-only callables.

    A scalar-only callable given an array raises TypeError or ValueError
    (or returns the wrong shape); only those fall back to a loop of
    scalar calls, so other errors from f propagate.
    """
    import numpy as np

    try:
        values = np.asarray(f(x, ys), dtype=float)
        if values.shape == ys.shape:
            return values
    except (TypeError, ValueError):
        pass
    return np.array([float(f(x, y)) for y in ys])


def _tensor_trapezoid(
    f: Callable[[float, float], float], a: float, b: float, panels: int
) -> float:
    import numpy as np

    h = (b - a) / panels
    nodes = np.linspace(a, b, panels + 1)
    weights = np.full(panels + 1, h)
    weights[0] = weights[-1] = 0.5 * h
    row_totals = []
    for i, x in enumerate(nodes):
        values = _eval_row(f, float(x), nodes)
        if not np.all(np.isfinite(values)):
            j = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ValueError(
                f"integrand non-finite at ({float(x)!r}, {float(nodes[j])!r})"
            )
        row_totals.append(weights[i] * float(np.dot(weights, values)))
    return math.fsum(row_totals)


def brute_force_integral(
    f: Callable[[float, float], float], iv: Interval, level: int
) -> float:
    """Tensor trapezoid with Richardson extrapolation over a square.

    Runs the plain product trapezoid at 2^j + 1 points per axis for
    j = 1..level and extrapolates the resulting column.  The tensor
    trapezoid error expands in even powers of the mesh width, so the
    usual 4^k Richardson weights apply.  Level is capped at 14 to keep
    the top grid below 2^28 evaluations.
    """
    if not 1 <= _integer(level, "level") <= 14:
        raise ValueError(f"level must be in 1..14, got {level}")
    column = [
        _tensor_trapezoid(f, iv.a, iv.b, 2**j) for j in range(1, level + 1)
    ]
    for k in range(1, level):
        factor = 4.0**k
        column = [
            (factor * column[j] - column[j - 1]) / (factor - 1.0)
            for j in range(1, len(column))
        ]
    return column[0]
