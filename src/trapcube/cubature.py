"""Product trapezoid cubature over a square and its two one-sided
modifications.

The plain product trapezoid rule ``C_n`` is corrected with univariate
trace integrals along grid lines to produce two rules with one-signed
error on integrands whose mixed derivative ``D22 f = d^4 f / dx^2 dy^2``
does not change sign:

* ``s_minus`` corrects with the two mid-lines of the square and
  overshoots the integral when ``D22 f >= 0`` (its error constant is
  negative);
* ``s_plus`` corrects with the four boundary edges and undershoots in
  the same situation (positive error constant).

Together they bracket the true integral, which is what
:func:`enclosure` returns.  An integrand declares the sign of its mixed
derivative; the library never tries to detect it by sampling, since
sampling cannot certify a sign.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .univariate import _SIGNS, Interval, apply, trace_integral, trapezium_rule

# numpy is imported inside the functions that build arrays, so that
# scalar integrands never load it.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "TRACE_IDS",
    "Integrand2D",
    "CubatureEstimate",
    "Enclosure",
    "product_trapezoid",
    "s_minus",
    "s_plus",
    "error_constant",
    "enclosure",
    "blending_form_value",
]

#: Identifiers of the six univariate traces of a bivariate integrand:
#: restrictions to the four edges of the square and to its two mid-lines.
TRACE_IDS = ("left", "right", "down", "up", "vertical-mid", "horizontal-mid")


@dataclass(frozen=True)
class Integrand2D:
    """A bivariate integrand on the square, with optional certificates.

    Parameters
    ----------
    f : callable
        The integrand, evaluated as ``f(x, y)`` on floats.
    d22_sign : {'nonnegative', 'nonpositive'}, optional
        Declared sign of the mixed derivative ``D22 f`` on the open
        square.  Required by every operation that claims one-sidedness
        (enclosures, certified refinement bounds).  The declaration is
        trusted, not verified.
    exact_traces : mapping, optional
        Map from a trace id in :data:`TRACE_IDS` to a supplier returning
        the exact value of that trace integral for a given interval.
        Traces without a supplier fall back to adaptive Romberg
        integration, whose tolerance then enters the error budget.
    vectorized : bool, optional
        Declares that f also accepts numpy arrays.  The grid pass then
        calls ``f(X, Y)`` on blocks of rows, with X a column of x nodes
        of shape ``(r, 1)`` and Y the row of y nodes of shape
        ``(1, n+1)``; the result must broadcast to ``(r, n+1)``, so a
        constant integrand may return a scalar.  Off-grid lines and
        traces still call f on floats.  Default False: every point is a
        scalar call, which is the reference path.
    """

    f: Callable[[float, float], float]
    d22_sign: Optional[str] = None
    exact_traces: Optional[Mapping[str, Callable[[Interval], float]]] = None
    vectorized: bool = False

    def __post_init__(self) -> None:
        if self.d22_sign is not None and self.d22_sign not in _SIGNS:
            raise ValueError(
                f"d22_sign must be one of {_SIGNS}, got {self.d22_sign!r}"
            )
        if self.exact_traces is not None:
            unknown = set(self.exact_traces) - set(TRACE_IDS)
            if unknown:
                raise ValueError(f"unknown trace ids: {sorted(unknown)}")


@dataclass(frozen=True)
class CubatureEstimate:
    """Value of one cubature rule application plus its metadata.

    ``trace_err_budget`` is the worst-case perturbation of ``value``
    caused by inexactly known trace integrals: each trace's Romberg
    tolerance scaled by the coefficient it enters the rule with.  It is
    zero for the plain product rule and whenever all traces are exact.
    """

    value: float
    rule: str
    n: int
    trace_err_budget: float = 0.0


@dataclass(frozen=True)
class Enclosure:
    """Certified interval bracketing the true integral.

    ``lower`` comes from the rule that undershoots and ``upper`` from
    the rule that overshoots, given the declared sign of ``D22 f``.
    ``slack`` is the trace-integral inflation applied to both ends; with
    exact traces it is zero and the bracket is sharp up to rounding.
    """

    lower: float
    upper: float
    n_lower: int
    n_upper: int
    slack: float

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise ValueError(
                f"empty enclosure: lower={self.lower!r} > upper={self.upper!r}"
            )


#: The line each trace lies on: ``(axis, coordinate_of)``, where axis 0
#: freezes x at ``coordinate_of(iv)`` (the trace is ``t -> f(c, t)``) and
#: axis 1 freezes y (``t -> f(t, c)``).
_TRACE_LINES: Dict[str, Tuple[int, Callable[[Interval], float]]] = {
    "left": (0, lambda iv: iv.a),
    "right": (0, lambda iv: iv.b),
    "down": (1, lambda iv: iv.a),
    "up": (1, lambda iv: iv.b),
    "vertical-mid": (0, lambda iv: iv.midpoint),
    "horizontal-mid": (1, lambda iv: iv.midpoint),
}


def _trace_function(f: Callable[[float, float], float], trace_id: str, iv: Interval):
    axis, coordinate_of = _TRACE_LINES[trace_id]
    c = coordinate_of(iv)
    if axis == 0:
        return lambda t: f(c, t)
    return lambda t: f(t, c)


#: Trace lines whose remainders correct ``C_n`` in each one-sided rule.
_RULE_TRACES = {
    "s_minus": ("vertical-mid", "horizontal-mid"),
    "s_plus": ("left", "right", "down", "up"),
}


class _GridPass(NamedTuple):
    """Everything one evaluation of the (n+1)^2 grid yields.

    ``sums`` maps a trace id to the trapezium sum ``Q_n`` of that trace.
    The four edges are always present; the mid-lines only when they are
    grid lines, i.e. n is even and node n/2 is the interval midpoint.
    """

    n: int
    product: float
    sums: Dict[str, float]


#: Points per block when a vectorized integrand is evaluated on the grid.
_BLOCK_POINTS = 16384

#: Blocks of fewer points are summed row by row with ``math.fsum``: there
#: the thirty-odd numpy calls of :func:`_row_fsums` cost more than they save.
_FSUM_BELOW = 1024


def _hold_heap(np) -> None:
    """Keep freed block arrays in the process heap under glibc's malloc.

    glibc gives the top of its heap back to the system whenever more than
    its trim threshold, 128 KiB at start, is free there, and the next
    allocations fault those pages in again.  The arrays of a block of
    ``_BLOCK_POINTS`` floats take up to 128 KiB each and are all freed
    when a grid pass or a scan ends, so each call paid about a hundred
    page faults, which made a pass at n = 128 take 1.7 times as long on a
    2-vCPU VM.  Freeing one mapped 1 MiB array makes glibc raise its mmap
    threshold to 1 MiB and its trim threshold to 2 MiB, the state an early
    ``import numpy`` usually leaves it in.  This changes the thresholds for
    the whole process, not only for trapcube's arrays, as that import
    does.  Other allocators see one untouched allocation.
    """
    np.empty(1 << 17)


def _row_fsums(T: np.ndarray) -> List[float]:
    """``math.fsum`` of every row of the 2-D float array T, bit for bit.

    T holds finite values, or infinities where a product overflowed.
    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation, part I: faithful rounding", SIAM J. Sci. Comput. 31(1),
    2008) computes a candidate per row with a few numpy calls and proves
    it correctly rounded; a row the proof does not cover is summed by
    ``math.fsum``.  Let u = 2^-53, m the row length (m < 2^25), p a term.

    1. sigma = 2^K, K = the frexp exponent of max|p| plus
       c = ceil(log2(m+2)), so |p| <= sigma/(m+2) <= sigma/4.  Rows with
       K outside [-960, 1023], that is with max|p| outside
       [2^(-961-c), 2^(1023-c)), go to fsum, decided before any
       arithmetic: above, sigma + p could overflow; below, step 3 would
       not be exact.  All-zero rows and rows with an infinity are among
       them.  fl(sigma+p) lies in [sigma/2, 2 sigma], where floats are
       multiples of u*sigma, so q = fl(sigma+p) - sigma is exact
       (Sterbenz): it is p rounded to a multiple of g = u*sigma (p < 0)
       or 2u*sigma (p > 0), and |q - p| <= g/2.  Round to nearest even
       gives q = 0 for |p| <= g/2, and otherwise q of p's sign with
       |q|/2 <= |p| <= 2|q|, so r = p - q is exact (Sterbenz again) and
       |r| <= u*sigma.
    2. Every |q| <= |p| + u*sigma, so each partial sum of the q, in any
       order, is a multiple of u*sigma below m*(sigma/(m+2) + u*sigma) <
       sigma in magnitude, hence a float: tau = fl(sum q) is exact in the
       order numpy uses.  t = fl(sum r) has |t - sum r| <=
       gamma_(m-1) * sum|r| <= 2 m^2 u^2 sigma, which is below
       E = 4 m^2 u^2 sigma (Higham, ch. 4, for any order; a sum that
       underflows is exact).
    3. res = fl(tau + t), and delta = tau + t - res exactly (TwoSum).  The
       row sum is S = res + delta + e with |e| <= E, and fsum returns S
       rounded to nearest.  Let h be half the gap between res and its
       neighbour toward zero, the smaller of its two gaps; computed, h is
       exact for |res| > 2^-1021 and 0 otherwise.  Then fl(|delta| + 2E) < h
       (rounding is monotone, and 2E = 8 m^2 u^2 sigma is exact for
       K >= -960) puts S strictly less than half a gap from res on either
       side, so S rounds to res.
    4. Undecided rows go to fsum.  Among them is every row with
       |res| <= 2^-1021 (h = 0), so fsum sets the sign of a zero sum, and
       every row out of range, which is zeroed before the arithmetic: fsum
       then sets the sign of a sum of zeros, and returns the infinity or
       raises its own OverflowError or ValueError, as on the scalar path.
    """
    import numpy as np

    m = T.shape[1]
    if m >= 1 << 25:
        return [math.fsum(row) for row in T.tolist()]
    c = (m + 1).bit_length()
    top = np.max(np.abs(T), axis=1)
    K = np.frexp(top)[1] + c
    out = (top < 2.0 ** (-961 - c)) | (top >= 2.0 ** (1023 - c))
    P = T
    if out.any():
        K[out] = 0
        # All-zero rows need no zeroing.  The x = 0 row of sin_xy and
        # bilinear_xy on squares from 0 is one, and would otherwise cost a
        # copy of its block in every pass.
        wipe = out & (top > 0.0)
        if wipe.any():
            P = np.where(wipe[:, None], 0.0, T)
    sigma = np.ldexp(1.0, K)
    Q = P + sigma[:, None]
    Q -= sigma[:, None]
    tau = Q.sum(axis=1)
    np.subtract(P, Q, out=Q)
    t = Q.sum(axis=1)
    res = tau + t
    z = res - tau
    delta = (tau - (res - z)) + (t - z)
    h = np.abs(res - np.nextafter(res, 0.0)) * 0.5
    decided = np.abs(delta) + sigma * (8.0 * m * m * 2.0**-106) < h
    sums = res.tolist()
    for i in np.flatnonzero(~decided).tolist():
        sums[i] = math.fsum(T[i].tolist())
    return sums


#: Row sums, then the down, up and horizontal mid-line trace terms, one
#: per row (the last empty when the mid-line is not a grid line).
_Rows = Tuple[List[float], List[float], List[float], List[float]]


def _scalar_rows(
    f: Callable[[float, float], float],
    nodes: Tuple[float, ...],
    weights: Tuple[float, ...],
    mid: Optional[int],
) -> _Rows:
    """Row sums and column trace terms, with one call of f per point.

    Row i's sum is the ``math.fsum`` of its terms ``wy * v``, and its term
    of the trace along column c is ``terms[c] * (wx / weights[c])``.
    """
    n = len(nodes) - 1
    w_end = weights[0]
    sums: List[float] = []
    down: List[float] = []
    up: List[float] = []
    horizontal: List[float] = []
    for x, wx in zip(nodes, weights):
        terms = []
        for y, wy in zip(nodes, weights):
            v = f(x, y)
            if not math.isfinite(v):
                raise ValueError(
                    f"integrand returned non-finite value {v!r} at grid point ({x!r}, {y!r})"
                )
            terms.append(wy * v)
        sums.append(math.fsum(terms))
        to_end = wx / w_end
        down.append(terms[0] * to_end)
        up.append(terms[n] * to_end)
        if mid is not None:
            horizontal.append(terms[mid] * (wx / weights[mid]))
    return sums, down, up, horizontal


def _array_rows(
    f: Callable,
    nodes: Tuple[float, ...],
    weights: Tuple[float, ...],
    mid: Optional[int],
) -> _Rows:
    """:func:`_scalar_rows`' results, with one call of f per block of rows.

    A block holds the same IEEE products ``wy * v`` the scalar path
    forms, and its column terms are the same products of the same
    operands, so equal values give equal results.  Rows are summed by
    :func:`_row_fsums`, which returns ``math.fsum``'s values, or by fsum
    itself in blocks too small to pay for numpy's calls.
    """
    import numpy as np

    _hold_heap(np)
    size = len(nodes)
    n = size - 1
    X = np.array(nodes).reshape(size, 1)
    Y = X.reshape(1, size)
    W = np.array(weights)
    rows = max(1, _BLOCK_POINTS // size)
    sums: List[float] = []
    down: List[float] = []
    up: List[float] = []
    horizontal: List[float] = []
    for start in range(0, size, rows):
        Xb = X[start : start + rows]
        shape = (len(Xb), size)
        V = np.asarray(f(Xb, Y))
        if np.iscomplexobj(V):
            raise TypeError(f"vectorized integrand returned complex values ({V.dtype})")
        V = V.astype(float, copy=False)
        try:
            V = np.broadcast_to(V, shape)
        except ValueError:
            raise ValueError(
                f"vectorized integrand returned shape {V.shape}, "
                f"which does not broadcast to {shape}"
            ) from None
        bad = ~np.isfinite(V)
        if bad.any():
            i, j = (int(k) for k in np.argwhere(bad)[0])
            raise ValueError(
                f"integrand returned non-finite value {float(V[i, j])!r} "
                f"at grid point ({nodes[start + i]!r}, {nodes[j]!r})"
            )
        # Products of Python floats overflow to inf silently; so do these.
        with np.errstate(over="ignore"):
            T = V * W
            Wx = W[start : start + rows]
            to_end = Wx / weights[0]
            down += (T[:, 0] * to_end).tolist()
            up += (T[:, n] * to_end).tolist()
            if mid is not None:
                horizontal += (T[:, mid] * (Wx / weights[mid])).tolist()
        if T.size < _FSUM_BELOW:
            sums += [math.fsum(row) for row in T.tolist()]
        else:
            sums += _row_fsums(T)
    return sums, down, up, horizontal


def _grid_pass(F: Integrand2D, iv: Interval, n: int) -> _GridPass:
    """Evaluate f once on the grid: ``C_n`` and the trace sums on grid lines.

    Each row's terms ``wy * v`` are summed to ``math.fsum``'s value, and
    the row sums are combined with ``fsum`` in index order.  The trace
    along row i is that row's sum, and a column's trace term in row i is
    ``terms[c] * (wx / weights[c])``, where the weight ratio is exactly
    1, 2 or 1/2; each column is summed with one ``fsum``.  So every sum
    equals the one :func:`apply` computes on the trace bit for bit.  The
    scalar path calls ``math.fsum`` per row; a vectorized integrand's
    blocks are summed by :func:`_row_fsums`, which returns the same
    values, so it gives the scalar path's result whenever its values are
    equal.
    """
    rule = trapezium_rule(iv, n)
    nodes, weights = rule.nodes, rule.weights
    mid = n // 2 if n % 2 == 0 and nodes[n // 2] == iv.midpoint else None
    rows = _array_rows if F.vectorized else _scalar_rows
    row_fsums, down, up, horizontal = rows(F.f, nodes, weights, mid)
    sums = {
        "left": row_fsums[0],
        "right": row_fsums[n],
        "down": math.fsum(down),
        "up": math.fsum(up),
    }
    if mid is not None:
        sums["vertical-mid"] = row_fsums[mid]
        sums["horizontal-mid"] = math.fsum(horizontal)
    product = math.fsum(wx * s for wx, s in zip(weights, row_fsums))
    return _GridPass(n=n, product=product, sums=sums)


def _trace_integrals(
    F: Integrand2D, iv: Interval, trace_ids, trace_tol: float
) -> Dict[str, Tuple[float, float]]:
    """``(value, budget)`` of each named trace integral over iv."""
    exact = F.exact_traces or {}
    return {
        tid: trace_integral(
            _trace_function(F.f, tid, iv), iv, exact=exact.get(tid), tol=trace_tol
        )
        for tid in trace_ids
    }


def _combine(
    rule: str,
    F: Integrand2D,
    iv: Interval,
    grid: _GridPass,
    traces: Mapping[str, Tuple[float, float]],
) -> CubatureEstimate:
    """One-sided rule value from a grid pass and its trace integrals.

    A mid-line that is not a grid line gets its trapezium sum here, so
    only the mid-line rule ever evaluates f off the grid.
    """
    remainders = []
    budgets = []
    for tid in _RULE_TRACES[rule]:
        value, budget = traces[tid]
        q = grid.sums.get(tid)
        if q is None:
            q = apply(trapezium_rule(iv, grid.n), _trace_function(F.f, tid, iv))
        remainders.append(value - q)
        budgets.append(budget)
    w = iv.width if rule == "s_minus" else 0.5 * iv.width
    return CubatureEstimate(
        value=grid.product + w * math.fsum(remainders),
        rule=rule,
        n=grid.n,
        trace_err_budget=w * math.fsum(budgets),
    )


def _levels(
    F: Integrand2D, iv: Interval, rules: Sequence[str], ns: Sequence[int], trace_tol: float
) -> Iterator[Dict[str, CubatureEstimate]]:
    """``{rule: estimate}`` for each level n in ns, in order.

    Each level costs one grid pass, which serves every rule.  The trace
    integrals do not depend on the level, so the traces the rules need
    are integrated once, right after the first pass.  Levels are
    evaluated lazily: a caller that stops early pays for no further pass.
    """
    traces = None
    for n in ns:
        grid = _grid_pass(F, iv, n)
        if traces is None:
            needed = [tid for tid in TRACE_IDS for r in rules if tid in _RULE_TRACES[r]]
            traces = _trace_integrals(F, iv, needed, trace_tol)
        yield {rule: _combine(rule, F, iv, grid, traces) for rule in rules}


def product_trapezoid(F: Integrand2D, iv: Interval, n: int) -> CubatureEstimate:
    """Tensor-product trapezoid value over the square iv x iv.

    Computes ``h^2 * sum'' f(x_i, y_j)`` where the double-primed sum
    halves the boundary terms (and quarters the corners).  Rows are
    summed with compensated summation and combined in fixed index
    order, so the value is deterministic.

    Raises
    ------
    ValueError
        If the integrand returns a non-finite value; the message names
        the offending grid point.
    """
    return CubatureEstimate(value=_grid_pass(F, iv, n).product, rule="product_trap", n=n)


def s_minus(
    F: Integrand2D, iv: Interval, n: int, trace_tol: float = 1e-12
) -> CubatureEstimate:
    """Mid-line corrected product trapezoid rule (the overshooting rule).

    The product value is corrected with the trapezium remainders of the
    two mid-line traces, scaled by the interval width:

        C_n[f] + (b - a) * ( (I_v - Q_n[f_v]) + (I_h - Q_n[f_h]) )

    where ``f_v(t) = f(m, t)`` and ``f_h(t) = f(t, m)`` with m the
    interval midpoint.  On integrands with ``D22 f >= 0`` the result is
    an upper bound for the true integral (a lower bound when
    ``D22 f <= 0``).
    """
    return next(_levels(F, iv, ("s_minus",), (n,), trace_tol))["s_minus"]


def s_plus(
    F: Integrand2D, iv: Interval, n: int, trace_tol: float = 1e-12
) -> CubatureEstimate:
    """Edge corrected product trapezoid rule (the undershooting rule).

    The product value is corrected with the trapezium remainders of the
    four boundary traces, scaled by half the interval width:

        C_n[f] + (b - a)/2 * sum over {left, right, down, up} of
                                   (I_trace - Q_n[trace])

    On integrands with ``D22 f >= 0`` the result is a lower bound for
    the true integral (an upper bound when ``D22 f <= 0``).
    """
    return next(_levels(F, iv, ("s_plus",), (n,), trace_tol))["s_plus"]


def error_constant(rule: str, iv: Interval, n: int) -> float:
    """Exact error constant of a one-sided rule at refinement level n.

    For integrands with continuous mixed derivative the remainder
    equals this constant times ``D22 f`` evaluated at some interior
    point, so the constant's sign is the rule's direction of approach:

        c(s_minus) = -(b-a)^6 / (144 n^2) * (1 + 1/n^2)   (negative),
        c(s_plus)  =  (b-a)^6 / ( 72 n^2) * (1 - 1/(2 n^2))  (positive).
    """
    if n < 1:
        raise ValueError(f"refinement level must be >= 1, got {n}")
    w6 = iv.width**6
    if rule == "s_minus":
        return -(w6 / (144.0 * n * n)) * (1.0 + 1.0 / (n * n))
    if rule == "s_plus":
        return (w6 / (72.0 * n * n)) * (1.0 - 0.5 / (n * n))
    raise ValueError(f"unknown rule {rule!r} (expected 's_minus' or 's_plus')")


def enclosure(
    F: Integrand2D,
    iv: Interval,
    n_plus: int,
    n_minus: int,
    trace_tol: float = 1e-12,
) -> Enclosure:
    """Certified two-sided bracket of the integral of F over iv x iv.

    Requires a declared ``d22_sign``.  For a nonnegative mixed
    derivative the bracket is ``[s_plus - slack, s_minus + slack]``;
    the roles of the two rules swap for a nonpositive declaration.
    The slack is the larger of the two trace-integral budgets, applied
    to both ends, so the interval stays certified under inexact traces.
    With ``n_plus == n_minus`` both rules share one pass over the grid.
    """
    if F.d22_sign is None:
        raise ValueError("definiteness not declared: Integrand2D.d22_sign is required")
    if n_plus == n_minus:
        level = next(_levels(F, iv, ("s_plus", "s_minus"), (n_plus,), trace_tol))
        low, high = level["s_plus"], level["s_minus"]
    else:
        low, high = s_plus(F, iv, n_plus, trace_tol), s_minus(F, iv, n_minus, trace_tol)
    if F.d22_sign == "nonpositive":
        low, high = high, low
    slack = max(low.trace_err_budget, high.trace_err_budget)
    return Enclosure(
        lower=low.value - slack,
        upper=high.value + slack,
        n_lower=low.n,
        n_upper=high.n,
        slack=slack,
    )


def _blending_interpolant_mid(f, fx, fy, fxy, iv: Interval):
    """Tangent-plane blending interpolant at the double midpoint node.

    Matches f and its first-order data along both mid-lines; its mixed
    derivative D22 vanishes identically, so it is integrated exactly by
    every rule considered here.
    """
    m = iv.midpoint

    def Bf(x: float, y: float) -> float:
        return (
            f(m, y)
            + (x - m) * fx(m, y)
            + f(x, m)
            + (y - m) * fy(x, m)
            - f(m, m)
            - (y - m) * fy(m, m)
            - (x - m) * fx(m, m)
            - (x - m) * (y - m) * fxy(m, m)
        )

    return Bf


def _blending_interpolant_edges(f, iv: Interval):
    """Bilinear-in-each-variable blending interpolant on the four edges."""
    a, b = iv.a, iv.b
    w = iv.width

    def la(t: float) -> float:
        return (b - t) / w

    def lb(t: float) -> float:
        return (t - a) / w

    def Bf(x: float, y: float) -> float:
        return (
            la(x) * f(a, y)
            + lb(x) * f(b, y)
            + la(y) * f(x, a)
            + lb(y) * f(x, b)
            - la(x) * la(y) * f(a, a)
            - la(x) * lb(y) * f(a, b)
            - lb(x) * la(y) * f(b, a)
            - lb(x) * lb(y) * f(b, b)
        )

    return Bf


def blending_form_value(
    F: Integrand2D,
    iv: Interval,
    n: int,
    rule: str,
    trace_tol: float = 1e-12,
    fx: Optional[Callable[[float, float], float]] = None,
    fy: Optional[Callable[[float, float], float]] = None,
    fxy: Optional[Callable[[float, float], float]] = None,
) -> float:
    """Rule value recomputed through its construction route.

    Both one-sided rules arise by the scheme

        S_n[f] = I[Bf] + C_n[f] - C_n[Bf]

    with Bf a blending interpolant of f (a function whose mixed
    derivative vanishes): the double-midpoint-node interpolant for
    's_minus', the four-edge interpolant for 's_plus'.  This evaluator
    builds Bf pointwise, which exercises the cancellation of the
    interpolant's derivative terms numerically instead of assuming it,
    and serves as an independent cross-check of :func:`s_minus` and
    :func:`s_plus`.

    The midpoint-node interpolant carries first-order data, so the
    's_minus' route requires the partial derivatives ``fx``, ``fy``
    and ``fxy`` of the integrand.  Trace integrals are obtained through
    the same :func:`trace_integral` path as the direct rules, so the
    two routes share identical trace values.
    """
    if rule not in _RULE_TRACES:
        raise ValueError(f"unknown rule {rule!r} (expected 's_minus' or 's_plus')")
    if rule == "s_minus" and (fx is None or fy is None or fxy is None):
        raise ValueError(
            "the s_minus construction route needs fx, fy and fxy callables"
        )
    f = F.f
    traces = _trace_integrals(F, iv, _RULE_TRACES[rule], trace_tol)
    if rule == "s_minus":
        m = iv.midpoint
        w = iv.width
        integral_bf = (
            w * (traces["vertical-mid"][0] + traces["horizontal-mid"][0])
            - w * w * f(m, m)
        )
        Bf = _blending_interpolant_mid(f, fx, fy, fxy, iv)
    else:
        a, b = iv.a, iv.b
        w = 0.5 * iv.width
        corner_sum = f(a, a) + f(a, b) + f(b, a) + f(b, b)
        edges = math.fsum(traces[tid][0] for tid in _RULE_TRACES["s_plus"])
        integral_bf = w * edges - w * w * corner_sum
        Bf = _blending_interpolant_edges(f, iv)

    c_f = product_trapezoid(F, iv, n).value
    c_bf = product_trapezoid(Integrand2D(Bf), iv, n).value
    return integral_bf + c_f - c_bf
