"""Refinement with certified a posteriori stopping.

For an integrand whose mixed derivative has one sign, the one-sided
rules approach the integral monotonically under mesh doubling, and the
difference of the values at any pair of levels (m, 2m) dominates the
finer value's true error:

    mid-line rule:  |error at 2m| <= |S(2m) - S(m)|
    edge rule:      |error at 2m| <= (4m-1)/(4m-3) * |S(2m) - S(m)|

Both inequalities are sharp up to their stated constants, except the
mid-line one at m = 1, which holds with 1/3 in place of 1.  The sign of
the mixed derivative also fixes the side of S(2m) the integral lies on.
For a rule that overshoots (the mid-line rule on a nonnegative
derivative, the edge rule on a nonpositive one) the integral lies in

    [S(2m) - c*gap - beta, S(2m) + beta],

with c*gap the pair bound above and beta the trace-integration budget;
for a rule that undershoots it lies in the mirror interval
[S(2m) - beta, S(2m) + c*gap + beta].  A pair row reports that
interval's centre, S(2m) -+ c*gap/2, with the bound c*gap/2: the same
guarantee as S(2m) with c*gap, at half the bound.  The mean of the two
rules is bounded by their half gap at any single level.  For every rule
the certified bound is that bound plus the trace budget, and the driver
stops as soon as it is at most the requested tolerance.

The two rules bracket the integral from opposite sides, so it also lies
in the enclosure [S_under(2m), S_over(2m)], widened by the larger of the
two rules' budgets.  When a pair row's own certified bound misses the
tolerance, the driver reads the other rule at level 2m, which costs no
call of f on the grid: 2m is even, so the mid-lines are grid lines.  The
row then reports the intersection of the pair interval and the
enclosure: S(2m) and the nearer of S(2m) -+ c*gap and the other rule's
value are its ends, its centre is the row's centre, half its width the
row's bound, and the larger budget the row's budget.  Where the two do
not meet, because the rules cross (by rounding when D22 f = 0, or under
a false declaration), the row keeps its pair interval.  A pair that
meets the tolerance on its own never reads the other rule.  Each rule's
traces are integrated once per solve, the first time that rule is read.

Every row's bound, the mean's included, is widened where rounding needs
it, by about an ulp of its centre, so that ``centre -+ (bound +
budget)``, evaluated in floats, holds the row's interval widened by its
budget.  A pair row's interval has S(2m) at one end and S(2m) -+ c*gap,
or the other rule's value, at the other; the mean's has the two rule
values.  Those ends are exact arithmetic on the rule values and the float
pair bound; the rounding of the grid sums themselves is not covered.

Romberg traces are integrated to ``max(tol / (2000 * width), 1e-12)``
each, capped at a finite value where that would overflow.  Every rule's
trace budget is twice the width times that, so it is tol/1000, except
where the fixed floor 1e-12 of the fixed-level rules makes it larger.
Like theirs, it is Romberg's stopping tolerance: a heuristic, not a
proven bound.

The tolerance picks the levels, one round at a time.  A round of a
one-sided rule evaluates the pair (m, 2m), skipping m when the last
round ended on it; a round of the mean evaluates m alone.  The first
round has m = 4, so a one-sided solve starts with the probe pair
(4, 8).  The driver stops at the first row whose certified bound meets
the tolerance.  Otherwise it takes the n^-2 rate of
:func:`cubature.error_constant` to predict from the last row's bound
the m of the next round, and stops at the cap when that m is not finer
than the last one.  Only a row whose previous row is its half level
carries a bound, so the coarse row of a round carries one when the
round before ended on its half level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .cubature import _RULE_TRACES, _TRACE_TOL, Integrand2D, _levels, _overshooting_rule
from .univariate import Interval, _integer

__all__ = [
    "RefinementLevel",
    "RefinementReport",
    "refine",
    "refine_mean",
    "definite_pair_bounds",
]

#: Safety factor on a predicted level: the n^-2 rate ignores the higher
#: order terms of the error constant and the variation of D22 f.
_PREDICTION_MARGIN = 1.05

#: Largest per-trace Romberg tolerance of a refinement: four traces of it
#: still sum to a finite budget.
_TRACE_TOL_MAX = 2.0**1020

#: First level of every solve: the probe pair is (4, 8), and the mean
#: starts at 4.
_N0 = 4


@dataclass(frozen=True)
class RefinementLevel:
    """One level of a refinement.

    ``estimate`` is the rule value S(n), the mean of the two rules for
    'mean'.  ``aposteriori_bound`` and ``centre`` are the half-width and
    the centre of the interval the rule values alone put the integral
    in.  For 's_minus' and 's_plus' that is the one-sided pair interval,
    which reaches the pair bound c * |S(n) - S(n/2)| from S(n) on the
    side the declared sign gives: the bound is half the pair bound, and
    the centre is S(n) moved by it towards the integral.  When that bound
    plus ``trace_budget`` misses the tolerance, the interval is cut by
    the enclosure of the two rules at level n: it then reaches from S(n)
    to the other rule's value S'(n) where that is nearer, the bound is
    ``0.5 * |S(n) - S'(n)|``, the centre is S(n) moved by it, and
    ``trace_budget`` is the larger of the two rules' budgets.  For 'mean'
    the interval lies between the two rules: the bound is half their gap
    ``0.5 * |S_minus - S_plus|``, and the centre is ``estimate``.  Every
    bound is widened by about an ulp of the centre where rounding needs it
    (see the module docstring).  For every rule the certified interval is
    ``centre`` plus or minus ``aposteriori_bound + trace_budget``, as in
    the report's ``final_value`` and ``final_bound``.  For the one-sided
    rules both are set only on a row whose previous row is level n/2,
    such as the finer row of each pair (m, 2m) the refinement evaluates;
    every 'mean' row carries them.
    """

    n: int
    estimate: float
    diff_to_previous: Optional[float]
    aposteriori_bound: Optional[float]
    centre: Optional[float]
    trace_budget: float


@dataclass(frozen=True)
class RefinementReport:
    rule: str
    levels: Tuple[RefinementLevel, ...]
    termination: str  # 'tolerance_met' or 'max_n_reached'

    @property
    def final_n(self) -> int:
        return self.levels[-1].n

    @property
    def final_value(self) -> float:
        return self.levels[-1].centre

    @property
    def final_bound(self) -> float:
        last = self.levels[-1]
        return last.aposteriori_bound + last.trace_budget


def _pair_bound(rule: str, n: int, coarse: float, fine: float) -> float:
    """The paper's bound c * |S(2n) - S(n)| on the error of S(2n) =
    ``fine`` from S(n) = ``coarse``, with the rule's comparison constant c."""
    c = 1.0 if rule == "s_minus" else (4.0 * n - 1.0) / (4.0 * n - 3.0)
    return definite_pair_bounds(c, fine, coarse)[0]


def _widened(
    centre: float, bound: float, lower: Tuple[float, ...], upper: Tuple[float, ...], budget: float
) -> float:
    """``bound``, widened where rounding needs it, so that ``centre -+
    (bound + budget)``, evaluated in floats, reaches the interval's ends
    moved outward by ``budget``, in exact arithmetic.  The exact sums of
    the floats in ``lower`` and ``upper`` are the ends."""
    r = bound + budget
    if not math.isfinite(centre + r):
        return math.inf
    try:
        # math.fsum is correctly rounded, so the signs of lower - budget -
        # (centre - r) and of upper + budget - (centre + r) are exact.
        while (
            math.fsum((*lower, -budget, r - centre)) < 0.0
            or math.fsum((*upper, budget, -centre - r)) > 0.0
        ):
            # A step of an ulp of the centre and of r moves both ends by
            # more than the rounding of the centre and of r, so a few steps
            # close the gap the rounding left.
            bound += math.ulp(centre) + math.ulp(r)
            r = bound + budget
    except OverflowError:
        # An end beyond the float range: no finite bound holds it.
        return math.inf
    return bound


def _predict(n: int, bound: float, budget: float, tol: float, cap: int, even: bool) -> int:
    """Smallest level the n^-2 rate expects to bring ``bound`` under ``tol``.

    ``bound`` is the error bound at level n without the trace budget; the
    level m' that meets tol satisfies bound * (n/m')^2 + budget <= tol.
    The result is rounded up to even when asked and never exceeds cap; a
    tolerance the budget alone uses up gives cap.
    """
    if tol <= budget:
        return cap
    scaled = n * math.sqrt(bound / (tol - budget)) * _PREDICTION_MARGIN
    if scaled >= cap:
        return cap
    level = math.ceil(scaled)
    return min(level + level % 2 if even else level, cap)


def _refine(F: Integrand2D, iv: Interval, rule: str, tol: float, max_n: int) -> RefinementReport:
    """The refinement loop behind :func:`refine` and :func:`refine_mean`.

    ``rule`` is 's_minus', 's_plus' or 'mean'.  The loop runs in rounds
    from m = 4.  A round evaluates level m, unless the last row already
    has it, and then 2m for a one-sided rule; the solve ends with
    'tolerance_met' as soon as a row's certified bound meets ``tol``.
    Otherwise :func:`_predict` picks the next m from m and the last
    row's bound, and the solve ends with 'max_n_reached' when that m is
    not above the current one, which happens only at the cap.  The
    mid-line rule, alone or in the mean, gets even levels, whose
    mid-lines are grid lines.  Every level is one call of the function
    :func:`cubature._levels` returns, so each costs one grid pass, shared
    by both rules for 'mean' and by the other rule where a missed pair
    reads it, and each rule's trace integrals are computed once per solve.
    """
    # The side of S(2m) the integral lies on comes from the declaration.
    overshoots = rule == _overshooting_rule(F)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    if _integer(max_n, "max_n") < 2 * _N0:
        raise ValueError(f"max_n must allow at least one doubling: need >= {2 * _N0}, got {max_n}")
    pairs = rule != "mean"
    even = rule != "s_plus"
    other = "s_plus" if rule == "s_minus" else "s_minus"
    cap = max_n // 2 if pairs else max_n
    if even:
        cap -= cap % 2
    # Every rule's trace budget is 2 * width times the per-trace tolerance,
    # so this one spends tol/1000 on the traces, or 2 * width * _TRACE_TOL
    # where that is more.  On a narrow square tol / (2000 * width) can
    # overflow; _TRACE_TOL_MAX keeps it, and every budget, finite.
    trace_tol = min(max(tol / (2000.0 * iv.width), _TRACE_TOL), _TRACE_TOL_MAX)
    level = _levels(F, iv, trace_tol)
    levels: List[RefinementLevel] = []
    m = _N0
    while True:
        for n in (m, 2 * m) if pairs else (m,):
            if levels and levels[-1].n == n:
                continue
            value = level(n)
            diff = bound = centre = None
            if rule == "mean":
                plus, minus = value("s_plus"), value("s_minus")
                budget = max(plus.trace_err_budget, minus.trace_err_budget)
                lo, hi = sorted((plus.value, minus.value))
                estimate = centre = 0.5 * (lo + hi)
                bound = _widened(centre, 0.5 * (hi - lo), (lo,), (hi,), budget)
            else:
                own = value(rule)
                estimate, budget = own.value, own.trace_err_budget
            if levels:
                prev = levels[-1]
                diff = estimate - prev.estimate
                if pairs and 2 * prev.n == n:
                    reach = _pair_bound(rule, prev.n, prev.estimate, estimate)
                    # The interval's far end from S(2m), as an exact sum of floats.
                    far = (estimate, -reach if overshoots else reach)
                    if 0.5 * reach + budget > tol:
                        # The other rule at this level closes the enclosure;
                        # the integral lies in both intervals.
                        o = value(other)
                        gap = estimate - o.value if overshoots else o.value - estimate
                        if 0.0 <= gap < reach:
                            reach, far = gap, (o.value,)
                            budget = max(budget, o.trace_err_budget)
                    centre = estimate - 0.5 * reach if overshoots else estimate + 0.5 * reach
                    ends = (far, (estimate,)) if overshoots else ((estimate,), far)
                    bound = _widened(centre, 0.5 * reach, *ends, budget)
            levels.append(
                RefinementLevel(
                    n=n,
                    estimate=estimate,
                    diff_to_previous=diff,
                    aposteriori_bound=bound,
                    centre=centre,
                    trace_budget=budget,
                )
            )
            if bound is not None and bound + budget <= tol:
                return RefinementReport(rule=rule, levels=tuple(levels), termination="tolerance_met")
        last = levels[-1]
        predicted = _predict(m, last.aposteriori_bound, last.trace_budget, tol, cap, even)
        if predicted <= m:
            return RefinementReport(rule=rule, levels=tuple(levels), termination="max_n_reached")
        m = predicted


def refine(
    F: Integrand2D,
    iv: Interval,
    rule: str,
    tol: float,
    max_n: int = 1024,
) -> RefinementReport:
    """Refine the mesh until the a posteriori bound meets the tolerance.

    Runs the requested one-sided rule at levels 4 and 8, then predicts from
    the last pair's bound B and trace budget the coarse level
    ``m' = ceil(m * sqrt(B / (tol - budget)) * 1.05)`` (even for
    's_minus', at most max_n/2) and runs m' and 2*m', predicting again
    while a pair falls short.  B is c * gap / 2, half the width of the
    interval the pair (m, 2m) and the declared sign put the integral in,
    trace budget aside (see the module docstring).  When B plus the trace
    budget misses ``tol``, the other rule at level 2m is read too, and B
    becomes half the width of that interval cut by the enclosure of the
    two rules, which is what the next prediction reads.  It stops at the
    first pair whose certified bound, B plus the trace budget, is at
    most ``tol``, and reports the interval's centre as ``final_value``.
    A tolerance at or below the trace budget sends it straight to the cap
    pair, and it ends with 'max_n_reached' once the cap pair misses
    ``tol`` (the report still carries the best value and bound).  Only a
    row whose previous row is its half level, such as the finer row of
    each pair, carries ``aposteriori_bound`` and ``centre``.  Romberg
    traces are integrated to ``max(tol / (2000 * width), 1e-12)`` each,
    which makes the trace budget tol/1000 where the floor does not bind;
    the other rule's traces only if a pair misses ``tol``.  ``tol`` must
    be finite and positive.

    The integrand must declare its mixed-derivative sign, since the
    bounds only hold for one-signed derivatives.
    """
    if rule not in _RULE_TRACES:
        raise ValueError(f"rule must be one of {tuple(_RULE_TRACES)}, got {rule!r}")
    return _refine(F, iv, rule, tol, max_n)


def refine_mean(
    F: Integrand2D,
    iv: Interval,
    tol: float,
    max_n: int = 1024,
) -> RefinementReport:
    """Refine the midpoint of the two-sided enclosure.

    At each level both one-sided rules run on the same mesh; the
    estimate is their mean, ``aposteriori_bound`` is half their gap, and
    the certified bound is that plus the larger trace budget, i.e. half
    the width of :func:`enclosure` at that level.  The bound is widened
    by about an ulp where rounding needs it, so that ``centre -+
    (aposteriori_bound + trace_budget)``, evaluated in floats, holds both
    rule values moved outward by the budget.  It is valid already
    at the coarsest level because the true integral lies between the two
    rule values, so every row carries it.  The levels are 4 and then one
    at a time, each predicted from the last half gap and budget by the
    n^-2 rate, rounded up to even and at most max_n.  Romberg traces are
    integrated as in :func:`refine`, to a trace budget of tol/1000.
    """
    return _refine(F, iv, "mean", tol, max_n)


def definite_pair_bounds(c: float, s_prime: float, s_doubleprime: float) -> Tuple[float, float]:
    """Error bounds for a definite pair of rules from their difference.

    If S' - S'' has one-signed bivariate kernel and the comparison
    kernel of (S', S'') is one-signed for the constant c, then

        |error of S'|  <= c       * |S' - S''|
        |error of S''| <= (c + 1) * |S' - S''|

    whether the pair's kernels are nonnegative or nonpositive.
    """
    if not 0.0 < c < math.inf:
        raise ValueError(f"comparison constant must be finite and positive, got {c!r}")
    gap = abs(s_prime - s_doubleprime)
    return (c * gap, (c + 1.0) * gap)
