"""Composite trapezium and midpoint rules, their Peano kernels, and
Romberg integration of univariate traces.

The two quadrature rules here are the univariate building blocks of the
modified product cubature rules in :mod:`trapcube.cubature`.  Both have
algebraic degree of precision 1 and a second-order Peano kernel of fixed
sign: nonpositive for the composite trapezium rule, nonnegative for the
midpoint rule.  That sign is what makes the derived cubature rules
one-sided.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Tuple

__all__ = [
    "Interval",
    "QuadratureRule",
    "trapezium_rule",
    "midpoint_rule",
    "apply",
    "peano_kernel",
]

#: The two signs a Peano kernel or a mixed derivative can be declared or
#: checked to keep.
_SIGNS = ("nonnegative", "nonpositive")


def _integer(n: object, name: str) -> int:
    """n as an int, or ValueError naming it when ``operator.index`` refuses
    it: a level of 2.5 or 100.0 names no rule, and NaN compares false
    against every bound."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n!r}") from None


@dataclass(frozen=True)
class Interval:
    """A nondegenerate interval [a, b]; the square domain is its product.

    Parameters
    ----------
    a, b : float
        Finite endpoints with ``a < b`` (strict) and a finite width
        ``b - a``.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"degenerate interval: a={self.a!r} must be < b={self.b!r}")
        if not math.isfinite(self.b - self.a):
            raise ValueError(
                f"interval width b - a overflows: a={self.a!r}, b={self.b!r}"
            )

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        """``0.5*a + 0.5*b``, which rounds as ``0.5*(a + b)`` does except
        where both ends are subnormal, and cannot overflow."""
        return 0.5 * self.a + 0.5 * self.b


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a quadrature rule on an interval.

    Nodes are strictly increasing and lie in ``[interval.a, interval.b]``.
    For rules exact on constants the weights sum to the interval width.
    """

    interval: Interval
    nodes: Tuple[float, ...]
    weights: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.weights):
            raise ValueError("nodes and weights must have equal length")
        if len(self.nodes) == 0:
            raise ValueError("rule must have at least one node")
        a, b = self.interval.a, self.interval.b
        prev = None
        for x in self.nodes:
            if not a <= x <= b:
                raise ValueError(f"node {x!r} outside [{a!r}, {b!r}]")
            if prev is not None and not x > prev:
                raise ValueError("nodes must be strictly increasing")
            prev = x


def trapezium_rule(iv: Interval, n: int) -> QuadratureRule:
    """Composite trapezium rule with n panels on iv.

    Nodes are the n+1 equispaced points ``a + i*h`` with ``h=(b-a)/n``,
    except that node n is b and, at even n, node n/2 is ``iv.midpoint``,
    so the mid-lines are grid lines at every even level.  Interior
    weights are h, the two end weights h/2.

    Raises
    ------
    ValueError
        If n is not an integer or is < 1, or if h is below the smallest
        normal float: a subnormal h can be off by up to half its value.

    Examples
    --------
    >>> r = trapezium_rule(Interval(0.0, 1.0), 4)
    >>> r.nodes
    (0.0, 0.25, 0.5, 0.75, 1.0)
    >>> r.weights
    (0.125, 0.25, 0.25, 0.25, 0.125)
    """
    if _integer(n, "panel count") < 1:
        raise ValueError(f"panel count must be >= 1, got {n}")
    a, b = iv.a, iv.b
    h = (b - a) / n
    if h < sys.float_info.min:
        raise ValueError(f"panel width {h!r} of {n} panels on [{a!r}, {b!r}] is below the smallest normal float")
    # Force exact hits of b and the midpoint; other nodes from one multiplication each.
    nodes = [a + i * h for i in range(n)] + [b]
    if n % 2 == 0:
        nodes[n // 2] = iv.midpoint
    weights = (0.5 * h,) + (h,) * (n - 1) + (0.5 * h,)
    return QuadratureRule(iv, tuple(nodes), weights)


def midpoint_rule(iv: Interval) -> QuadratureRule:
    """One-point rule at the interval centre with weight (b-a)."""
    return QuadratureRule(iv, (iv.midpoint,), (iv.width,))


def apply(rule: QuadratureRule, g: Callable[[float], float]) -> float:
    """Apply a rule to g: the weighted sum of node values.

    The sum is accumulated with exactly rounded compensated summation
    (``math.fsum``) in node order, so the result is deterministic and
    within one ulp of the exact weighted sum.

    Raises
    ------
    ValueError
        If g evaluates to a non-finite value at some node.
    """
    terms = []
    for x, w in zip(rule.nodes, rule.weights):
        v = g(x)
        if not math.isfinite(v):
            raise ValueError(f"integrand returned non-finite value {v!r} at node {x!r}")
        terms.append(w * v)
    return math.fsum(terms)


def peano_kernel(rule: QuadratureRule, t: float) -> float:
    """Second-order Peano kernel K_2(rule; t) of the remainder functional.

    Evaluates the closed form

        K_2(t) = (b - t)^2 / 2  -  sum_i a_i (x_i - t)_+,

    valid for rules exact on linear functions (the caller's
    responsibility; it is not checked here), with ``(x_i - t)_+ =
    max(x_i - t, 0)``, an exact zero from t = x_i on.  A fixed sign of K_2
    over the interval is what certifies one-sided behaviour of the rule's
    remainder on integrands with one-signed second derivative.

    Raises
    ------
    ValueError
        If t lies outside the rule's interval.
    """
    a, b = rule.interval.a, rule.interval.b
    if not a <= t <= b:
        raise ValueError(f"kernel argument {t!r} outside [{a!r}, {b!r}]")
    return (b - t) ** 2 / 2 - math.fsum(
        w * max(x - t, 0.0) for x, w in zip(rule.nodes, rule.weights)
    )


_MAX_ROMBERG_LEVELS = 24


def _romberg_overflow(iv: Interval) -> OverflowError:
    return OverflowError(f"Romberg sums overflow the float range on [{iv.a!r}, {iv.b!r}]")


def _romberg(g: Callable[[float], float], iv: Interval, tol: float) -> float:
    """Romberg value of the integral of g over iv to absolute tolerance tol.

    Classic scheme: trapezium refinements by halving plus Richardson
    extrapolation in h^2.  Convergence is declared when two successive
    diagonal entries differ by at most tol.  Raises OverflowError, naming
    iv, when a sum or an extrapolation leaves the float range, and
    ValueError on a non-finite value of g or when tol is not met within
    ``_MAX_ROMBERG_LEVELS`` refinements.
    """
    a, b = iv.a, iv.b
    h = b - a
    # The ends and then each level's new nodes, checked alike.
    ends = []
    for x in (a, b):
        v = g(x)
        if not math.isfinite(v):
            raise ValueError(f"integrand returned non-finite value {v!r} at {x!r}")
        ends.append(v)
    prev_row = [0.5 * h * (ends[0] + ends[1])]
    n = 1
    for level in range(1, _MAX_ROMBERG_LEVELS + 1):
        n *= 2
        h *= 0.5
        new_terms = []
        for i in range(1, n, 2):
            x = a + i * h
            v = g(x)
            if not math.isfinite(v):
                raise ValueError(f"integrand returned non-finite value {v!r} at {x!r}")
            new_terms.append(v)
        try:
            row = [0.5 * prev_row[0] + h * math.fsum(new_terms)]
        except OverflowError:
            raise _romberg_overflow(iv) from None
        for k in range(1, level + 1):
            row.append(row[k - 1] + (row[k - 1] - prev_row[k - 1]) / (4.0**k - 1.0))
        # A float sum that overflows is inf rather than an error; inf or
        # nan in any entry, this row's or the first row's, reaches the
        # last one through the extrapolation.
        if not math.isfinite(row[-1]):
            raise _romberg_overflow(iv)
        if level >= 2 and abs(row[-1] - prev_row[-1]) <= tol:
            return row[-1]
        prev_row = row
    raise ValueError(f"integral did not converge to {tol!r} within {_MAX_ROMBERG_LEVELS} refinement levels")
