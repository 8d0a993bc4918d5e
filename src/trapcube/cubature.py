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
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from .univariate import _SIGNS, Interval, QuadratureRule, _integer, _romberg, apply, trapezium_rule

# numpy is imported inside the functions that build arrays, so that
# scalar integrands never load it.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Integrand2D",
    "CubatureEstimate",
    "Enclosure",
    "product_trapezoid",
    "s_minus",
    "s_plus",
    "error_constant",
    "enclosure",
]

#: A line integral ``g(c, iv)``: the integral over iv of f with one
#: coordinate frozen at c.
_LineIntegral = Callable[[float, Interval], float]


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
    exact_traces : tuple (g_x, g_y), optional
        Closed forms of the integrals along lines: ``g_x(c, iv)`` is the
        integral over iv of ``t -> f(c, t)`` and ``g_y(c, iv)`` that of
        ``t -> f(t, c)``.  The rules call them with c an end or the
        midpoint of iv: ``s_plus`` at the four edges, ``s_minus`` at the
        two mid-lines.  A supplied trace has budget 0.  Without them
        every trace is integrated by adaptive Romberg integration to an
        absolute tolerance, which is its budget: 1e-12 for the
        fixed-level rules, and ``max(tol / (2000 * width), 1e-12)`` in a
        refinement to tol, whose trace budget is then tol/1000.  That
        tolerance is Romberg's stopping test, an estimate and not a
        proven bound.
    vectorized : bool, optional
        Declares that f also accepts numpy arrays.  The grid pass then
        calls ``f(X, Y)`` on blocks of rows, with X a column of x nodes
        of shape ``(r, 1)`` and Y the row of y nodes of shape
        ``(1, n+1)``; the result must broadcast to ``(r, n+1)``, so a
        constant integrand may return a scalar.  The mid-lines of odd
        levels and Romberg traces still call f on floats.  Default
        False: every point is a scalar call, which is the reference path.
    """

    f: Callable[[float, float], float]
    d22_sign: Optional[str] = None
    exact_traces: Optional[Tuple[_LineIntegral, _LineIntegral]] = None
    vectorized: bool = False

    def __post_init__(self) -> None:
        if self.d22_sign is not None and self.d22_sign not in _SIGNS:
            raise ValueError(
                f"d22_sign must be one of {_SIGNS}, got {self.d22_sign!r}"
            )
        g = self.exact_traces
        if g is not None and not (isinstance(g, tuple) and len(g) == 2 and all(map(callable, g))):
            raise ValueError(f"exact_traces must be a tuple (g_x, g_y) of two callables, got {g!r}")


@dataclass(frozen=True)
class CubatureEstimate:
    """Value of one cubature rule application plus its metadata.

    ``trace_err_budget`` is the perturbation of ``value`` allowed for
    inexactly known trace integrals: each trace's budget scaled by the
    coefficient it enters the rule with.  An exact trace's budget is 0 and
    a Romberg trace's is its tolerance t, so with Romberg traces the
    budget is ``2 * width * t`` (t = 1e-12 for the fixed-level rules; a
    refinement to tol uses ``max(tol / (2000 * width), 1e-12)``).
    Romberg's tolerance is its stopping test, a heuristic and not a proven
    bound.  The budget is zero for the plain product rule and whenever all
    traces are exact.
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
    ``slack`` is the trace-integral inflation applied to both ends, each
    rounded outward; with exact traces it is zero and the bracket is
    sharp up to rounding.
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


#: The traces whose remainders correct ``C_n`` in each one-sided rule,
#: restrictions of f to the two mid-lines of the square or to its four
#: edges, as ``(trace_id, axis, end)``: axis 0 freezes x at
#: ``c = getattr(iv, end)`` (the trace is ``t -> f(c, t)``, integrated by
#: ``g_x``) and axis 1 freezes y (``t -> f(t, c)``, by ``g_y``).  This is
#: the only table of the rules and of where their lines sit.
_RULE_TRACES = {
    "s_minus": (("vertical-mid", 0, "midpoint"), ("horizontal-mid", 1, "midpoint")),
    "s_plus": (("left", 0, "a"), ("right", 0, "b"), ("down", 1, "a"), ("up", 1, "b")),
}


def _line(f: Callable[[float, float], float], axis: int, c: float) -> Callable[[float], float]:
    """The trace of f on the line where coordinate ``axis`` is c."""
    if axis == 0:
        return lambda t: f(c, t)
    return lambda t: f(t, c)


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
#: per row (the last empty at odd n, where the mid-line is off the grid).
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


def _grid_pass(F: Integrand2D, rule: QuadratureRule) -> Tuple[float, Dict[str, float]]:
    """Evaluate f once on the grid of a trapezium rule: ``(C_n, sums)``,
    where ``sums`` maps a trace id to the trapezium sum ``Q_n`` of that
    trace on a grid line.

    The four edges are always grid lines.  ``trapezium_rule``'s node n/2
    is the interval midpoint at even n, so there the mid-lines are a row
    and a column of the grid and are in ``sums`` too; at odd n they are
    not.  Each row's terms ``wy * v`` are summed to ``math.fsum``'s value,
    and the row sums are combined with ``fsum`` in index order.  The trace
    along row i is that row's sum, and a column's trace term in row i is
    ``terms[c] * (wx / weights[c])``, where the weight ratio is exactly 1,
    2 or 1/2; each column is summed with one ``fsum``.  So every sum
    equals the one :func:`apply` computes on the trace bit for bit, except
    where the terms are subnormal: a subnormal ``terms[c]`` holds fewer
    bits than ``wx * v``, and halving one may round, so a column sum can
    then differ from :func:`apply`'s in its last bits.  The scalar path
    calls ``math.fsum`` per row; a vectorized integrand's blocks are summed
    by :func:`_row_fsums`, which returns the same values, so it gives the
    scalar path's result whenever its values are equal, subnormal terms
    included.  A product that overflows stays inf, as in Python floats.
    """
    nodes, weights = rule.nodes, rule.weights
    n = len(nodes) - 1
    mid = n // 2 if n % 2 == 0 else None
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
    return math.fsum(wx * s for wx, s in zip(weights, row_fsums)), sums


#: Absolute Romberg tolerance of a trace integral without an exact
#: supplier, which is that trace's budget, for the fixed-level rules; a
#: refinement uses it as the floor of its own (:func:`adaptive._refine`).
_TRACE_TOL = 1e-12


def _trace_integrals(
    F: Integrand2D, iv: Interval, traces, tol: float
) -> Dict[str, Tuple[float, float]]:
    """``(value, budget)`` of each trace integral over iv, keyed by trace
    id, for ``(trace_id, axis, end)`` entries of :data:`_RULE_TRACES`: the
    exact supplier's value with budget 0 when F has ``exact_traces``, and
    otherwise the Romberg value to absolute tolerance tol with budget tol.
    A trace that fails, on a non-finite value, a value ``float()``
    refuses or a sum that overflows, raises a ValueError that names its
    line."""
    out = {}
    for tid, axis, end in traces:
        c = getattr(iv, end)
        try:
            if F.exact_traces is None:
                out[tid] = _romberg(_line(F.f, axis, c), iv, tol), tol
            else:
                value = F.exact_traces[axis](c, iv)
                try:
                    value = float(value)
                except TypeError:
                    # Only the conversion's TypeError: one raised by the
                    # supplier itself is the caller's to see.
                    raise ValueError(f"exact trace integral returned {value!r}, not a real number") from None
                if not math.isfinite(value):
                    raise ValueError(f"exact trace integral returned non-finite value {value!r}")
                out[tid] = value, 0.0
        except (OverflowError, ValueError) as e:
            line = f"{'xy'[axis]} = {c!r}"
            raise ValueError(f"the {tid} trace integral, on the line {line}, failed: {e}") from None
    return out


def _off_grid_sum(f, trap: QuadratureRule, trace_id: str, axis: int, c: float) -> float:
    """:func:`apply` of trap to the trace of f on a line that is not a grid
    line; a failure raises a ValueError that names the trace and its line."""
    try:
        return apply(trap, _line(f, axis, c))
    except (OverflowError, ValueError) as e:
        line = f"{'xy'[axis]} = {c!r}"
        raise ValueError(f"the {trace_id} trace sum, on the line {line}, failed: {e}") from None


def _levels(
    F: Integrand2D, iv: Interval, trace_tol: float = _TRACE_TOL
) -> Callable[[int], Callable[[str], CubatureEstimate]]:
    """A function ``level(n) -> value``, where ``value(rule)`` is the
    estimate of a one-sided rule at level n: ``C_n`` plus the width-weighted
    remainders of the rule's traces, its entries of :data:`_RULE_TRACES`,
    with their budgets.

    Each call of ``level`` builds ``trapezium_rule(iv, n)`` at once, so a
    bad level is refused before f is evaluated, and the first read of
    ``value`` makes one grid pass with it, which serves both rules: a
    trace's sum is the pass's sum under its trace id.  At odd n the
    mid-lines are not grid lines, so ``s_minus`` gets their sums by
    :func:`apply` of that same rule to the trace on the entry's line
    (:func:`_off_grid_sum`, whose failure names the line), and only the
    mid-line rule at an odd level evaluates f off the grid.  The trace
    integrals do not depend on the level, so each rule's traces are
    integrated the first time any level is read for that rule, Romberg
    traces to ``trace_tol``, and a rule that is never read pays for
    none.  A refinement (:func:`adaptive._refine`) calls ``level`` once
    per level of each round, so a solve that stops early pays for no
    further pass.
    A rule value that is not a finite float, because ``C_n`` or a sum of
    remainders left the float range, is refused with a ValueError.
    """
    traces: Dict[str, Dict[str, Tuple[float, float]]] = {}

    def level(n: int) -> Callable[[str], CubatureEstimate]:
        trap = trapezium_rule(iv, n)
        grid = None

        def value(rule: str) -> CubatureEstimate:
            nonlocal grid
            if grid is None:
                grid = _grid_pass(F, trap)
            product, sums = grid
            if rule not in traces:
                traces[rule] = _trace_integrals(F, iv, _RULE_TRACES[rule], trace_tol)
            integrals = traces[rule]
            remainders = [
                integrals[tid][0]
                - (sums[tid] if tid in sums else _off_grid_sum(F.f, trap, tid, axis, getattr(iv, end)))
                for tid, axis, end in _RULE_TRACES[rule]
            ]
            w = iv.width if rule == "s_minus" else 0.5 * iv.width
            try:
                v = product + w * math.fsum(remainders)
            except (OverflowError, ValueError):  # fsum's overflow, or inf - inf
                v = math.nan
            if not math.isfinite(v):
                raise ValueError(
                    f"the {rule} value at level {n} on the square [{iv.a!r}, {iv.b!r}]^2 leaves the float range"
                )
            budget = w * math.fsum(b for _, b in integrals.values())
            return CubatureEstimate(value=v, rule=rule, n=n, trace_err_budget=budget)

        return value

    return level


def _overshooting_rule(F: Integrand2D) -> str:
    """The one-sided rule that overshoots the integral of F: 's_minus' on
    a declared nonnegative ``D22 f``, 's_plus' on a nonpositive one; the
    other rule undershoots.  Refuses an integrand without a declaration."""
    if F.d22_sign is None:
        raise ValueError("definiteness not declared: Integrand2D.d22_sign is required")
    return "s_minus" if F.d22_sign == "nonnegative" else "s_plus"


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
    return CubatureEstimate(value=_grid_pass(F, trapezium_rule(iv, n))[0], rule="product_trap", n=n)


def s_minus(F: Integrand2D, iv: Interval, n: int) -> CubatureEstimate:
    """Mid-line corrected product trapezoid rule (the overshooting rule).

    The product value is corrected with the trapezium remainders of the
    two mid-line traces, scaled by the interval width:

        C_n[f] + (b - a) * ( (I_v - Q_n[f_v]) + (I_h - Q_n[f_h]) )

    where ``f_v(t) = f(m, t)`` and ``f_h(t) = f(t, m)`` with m the
    interval midpoint.  On integrands with ``D22 f >= 0`` the result is
    an upper bound for the true integral (a lower bound when
    ``D22 f <= 0``).
    """
    return _levels(F, iv)(n)("s_minus")


def s_plus(F: Integrand2D, iv: Interval, n: int) -> CubatureEstimate:
    """Edge corrected product trapezoid rule (the undershooting rule).

    The product value is corrected with the trapezium remainders of the
    four boundary traces, scaled by half the interval width:

        C_n[f] + (b - a)/2 * sum over {left, right, down, up} of
                                   (I_trace - Q_n[trace])

    On integrands with ``D22 f >= 0`` the result is a lower bound for
    the true integral (an upper bound when ``D22 f <= 0``).
    """
    return _levels(F, iv)(n)("s_plus")


def error_constant(rule: str, iv: Interval, n: int) -> float:
    """Exact error constant of a one-sided rule at refinement level n.

    For integrands with continuous mixed derivative the remainder
    equals this constant times ``D22 f`` evaluated at some interior
    point, so the constant's sign is the rule's direction of approach:

        c(s_minus) = -(b-a)^6 / (144 n^2) * (1 + 1/n^2)   (negative),
        c(s_plus)  =  (b-a)^6 / ( 72 n^2) * (1 - 1/(2 n^2))  (positive).
    """
    if _integer(n, "refinement level") < 1:
        raise ValueError(f"refinement level must be >= 1, got {n}")
    w6 = iv.width**6
    if rule == "s_minus":
        return -(w6 / (144.0 * n * n)) * (1.0 + 1.0 / (n * n))
    if rule == "s_plus":
        return (w6 / (72.0 * n * n)) * (1.0 - 0.5 / (n * n))
    raise ValueError(f"unknown rule {rule!r} (expected 's_minus' or 's_plus')")


def enclosure(F: Integrand2D, iv: Interval, n_plus: int, n_minus: int) -> Enclosure:
    """Certified two-sided bracket of the integral of F over iv x iv.

    Requires a declared ``d22_sign``.  For a nonnegative mixed
    derivative the bracket is ``[s_plus - slack, s_minus + slack]``;
    the roles of the two rules swap for a nonpositive declaration.
    The slack is the larger of the two trace-integral budgets, applied
    to both ends, so the interval stays certified under inexact traces;
    each end is rounded outward, so it holds the exact ``s_plus - slack``
    or ``s_minus + slack``.  Each distinct level costs one pass over the
    grid, which serves both rules when ``n_plus == n_minus``.
    """
    over = _overshooting_rule(F)
    level = _levels(F, iv)
    # Both levels are built, and a bad one refused, before any grid pass;
    # equal levels share one entry, and so one pass.
    value = {n: level(n) for n in (n_plus, n_minus)}
    plus, minus = value[n_plus]("s_plus"), value[n_minus]("s_minus")
    high, low = (minus, plus) if over == "s_minus" else (plus, minus)
    slack = max(low.trace_err_budget, high.trace_err_budget)
    lower, upper = low.value - slack, high.value + slack
    # math.fsum is correctly rounded, so each sign below is exact: an end
    # that rounded inward steps one ulp outward, past the exact end.
    if math.isfinite(lower) and math.fsum((lower, -low.value, slack)) > 0.0:
        lower = math.nextafter(lower, -math.inf)
    if math.isfinite(upper) and math.fsum((upper, -high.value, -slack)) < 0.0:
        upper = math.nextafter(upper, math.inf)
    return Enclosure(
        lower=lower,
        upper=upper,
        n_lower=low.n,
        n_upper=high.n,
        slack=slack,
    )
