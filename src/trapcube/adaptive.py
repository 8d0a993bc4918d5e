"""Doubling refinement with certified a posteriori stopping.

For an integrand whose mixed derivative has one sign, the one-sided
rules approach the integral monotonically under mesh doubling, and the
difference of two consecutive values dominates the finer value's true
error:

    mid-line rule:  |error at 2n| <= |S(2n) - S(n)|
    edge rule:      |error at 2n| <= (4n-1)/(4n-3) * |S(2n) - S(n)|

Both inequalities are sharp up to their stated constants, so the driver
stops as soon as the bound (plus any trace-integration budget) drops
below the requested tolerance.  Printed convergence tables customarily
show half the mid-line difference, since the monotone halving makes the
finer error at most half the coarser one; :class:`RefinementLevel`
carries the certified bound and the table quantity side by side under
distinct names.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .cubature import Integrand2D, _levels
from .univariate import Interval

__all__ = [
    "RefinementLevel",
    "RefinementReport",
    "refine",
    "refine_mean",
    "definite_pair_bounds",
]

_RULES = ("s_minus", "s_plus")
_PAIR_KINDS = ("pos_pair", "neg_pair")


@dataclass(frozen=True)
class RefinementLevel:
    """One level of the doubling sequence.

    ``aposteriori_bound`` is the error bound for this level's estimate.
    For 'mean' it is the certified bound: half the enclosure's width,
    ``trace_budget`` included.  For 's_minus' and 's_plus' it is the
    bound from the difference to the previous level alone, and the
    certified bound is ``aposteriori_bound + trace_budget``, as in the
    report's ``final_bound``.  ``table_bound`` is the quantity
    convergence tables print (half the difference for the mid-line
    rule, the same bound for the edge rule).  Both are None on the
    coarsest level of the one-sided rules, where no difference exists
    yet; ``table_bound`` is always None for 'mean'.
    """

    n: int
    estimate: float
    diff_to_previous: Optional[float]
    aposteriori_bound: Optional[float]
    table_bound: Optional[float]
    trace_budget: float


@dataclass(frozen=True)
class RefinementReport:
    rule: str
    levels: Tuple[RefinementLevel, ...]
    final_value: float
    final_bound: float
    termination: str  # 'tolerance_met' or 'max_n_reached'

    @property
    def final_n(self) -> int:
        return self.levels[-1].n


def _bound_factor(rule: str, n_coarse: int) -> float:
    """Constant multiplying |S(2n) - S(n)| in the certified bound."""
    if rule == "s_minus":
        return 1.0
    return (4.0 * n_coarse - 1.0) / (4.0 * n_coarse - 3.0)


def _validate_refine_args(F: Integrand2D, rule: str, n0: int, tol: float, max_n: int) -> None:
    if F.d22_sign is None:
        raise ValueError(
            "definiteness not declared: Integrand2D.d22_sign is required"
        )
    if rule not in _RULES:
        raise ValueError(f"rule must be one of {_RULES}, got {rule!r}")
    if n0 < 1:
        raise ValueError(f"starting level must be >= 1, got {n0}")
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if max_n < 2 * n0:
        raise ValueError(
            f"max_n must allow at least one doubling: need >= {2 * n0}, got {max_n}"
        )


def _refine(
    F: Integrand2D,
    iv: Interval,
    rule: str,
    tol: float,
    n0: int,
    max_n: int,
    trace_tol: float,
) -> RefinementReport:
    """The doubling loop behind :func:`refine` and :func:`refine_mean`.

    ``rule`` is 's_minus', 's_plus' or 'mean'.  Levels n0, 2*n0, ... up
    to max_n come from :func:`cubature._levels`, so each costs one grid
    pass (shared by both rules for 'mean') and the trace integrals are
    computed once per solve.
    """
    ns = [n0 << k for k in range((max_n // n0).bit_length())]
    rules = ("s_plus", "s_minus") if rule == "mean" else (rule,)
    levels = []
    termination = "max_n_reached"
    for n, values in zip(ns, _levels(F, iv, rules, ns, trace_tol)):
        diff = bound = table = certified = None
        if rule == "mean":
            lo, hi = values["s_plus"], values["s_minus"]
            estimate = 0.5 * (lo.value + hi.value)
            budget = max(lo.trace_err_budget, hi.trace_err_budget)
            bound = certified = 0.5 * abs(hi.value - lo.value) + budget
        else:
            estimate, budget = values[rule].value, values[rule].trace_err_budget
        if levels:
            diff = estimate - levels[-1].estimate
            if rule != "mean":
                bound = _bound_factor(rule, levels[-1].n) * abs(diff)
                table = 0.5 * abs(diff) if rule == "s_minus" else bound
                certified = bound + budget
        levels.append(
            RefinementLevel(
                n=n,
                estimate=estimate,
                diff_to_previous=diff,
                aposteriori_bound=bound,
                table_bound=table,
                trace_budget=budget,
            )
        )
        if certified is not None and certified <= tol:
            termination = "tolerance_met"
            break
    return RefinementReport(
        rule=rule,
        levels=tuple(levels),
        final_value=estimate,
        final_bound=certified,
        termination=termination,
    )


def refine(
    F: Integrand2D,
    iv: Interval,
    rule: str,
    tol: float,
    n0: int = 4,
    max_n: int = 1024,
    trace_tol: float = 1e-12,
) -> RefinementReport:
    """Double the mesh until the a posteriori bound meets the tolerance.

    Runs the requested one-sided rule at n0, 2*n0, 4*n0, ... and stops
    at the first level whose certified bound plus trace budget is at
    most ``tol``, or once the next doubling would exceed ``max_n``
    (termination 'max_n_reached'; the report still carries the best
    value and bound).  The integrand must declare its mixed-derivative
    sign, since the bounds only hold for one-signed derivatives.
    """
    _validate_refine_args(F, rule, n0, tol, max_n)
    return _refine(F, iv, rule, tol, n0, max_n, trace_tol)


def refine_mean(
    F: Integrand2D,
    iv: Interval,
    tol: float,
    n0: int = 4,
    max_n: int = 1024,
    trace_tol: float = 1e-12,
) -> RefinementReport:
    """Refine the midpoint of the two-sided enclosure.

    At each level both one-sided rules run on the same mesh; the
    estimate is their mean and the certified bound is half their gap
    plus the larger trace budget, i.e. half the width of
    :func:`enclosure` at that level; it is valid already at the
    coarsest level because the true integral lies between the two rule
    values.
    """
    _validate_refine_args(F, "s_minus", n0, tol, max_n)
    return _refine(F, iv, "mean", tol, n0, max_n, trace_tol)


def definite_pair_bounds(
    pair_kind: str, c: float, s_prime: float, s_doubleprime: float
) -> Tuple[float, float]:
    """Error bounds for a definite pair of rules from their difference.

    If S' - S'' has one-signed bivariate kernel and the comparison
    kernel of (S', S'') is one-signed for the constant c, then

        |error of S'|  <= c       * |S' - S''|
        |error of S''| <= (c + 1) * |S' - S''|

    ``pair_kind`` records the orientation ('pos_pair' when the pair's
    kernels are nonnegative, 'neg_pair' when nonpositive); the returned
    magnitudes are the same either way.
    """
    if pair_kind not in _PAIR_KINDS:
        raise ValueError(f"pair_kind must be one of {_PAIR_KINDS}, got {pair_kind!r}")
    if not 0.0 < c < math.inf:
        raise ValueError(f"comparison constant must be finite and positive, got {c!r}")
    gap = abs(s_prime - s_doubleprime)
    return (c * gap, (c + 1.0) * gap)
