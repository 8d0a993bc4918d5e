"""Second routes to the library's rules and kernels, for tests to compare
against.

The library computes each one-sided rule directly, as ``C_n`` plus
weighted trace remainders, and each kernel by the three-term form of
``K22``.  The functions here take the paper's other routes: the blending
construction ``S_n[f] = I[Bf] + C_n[f] - C_n[Bf]`` and a mixed
arrangement of the edge kernel.  They share no code with the routes
they check beyond the product rule, the trapezium rule, the Peano
kernels and Romberg trace integration, the one private function they
call.  Trace integrals are always ``univariate._romberg`` values at
``cubature._TRACE_TOL``, the tolerance the fixed-level rules use, so
compare them with rules run on integrands without exact traces.
"""
import math

from trapcube.cubature import _TRACE_TOL, Integrand2D, product_trapezoid
from trapcube.univariate import _romberg, apply, peano_kernel, trapezium_rule


def _blending_value(F, iv, n, integral_bf, Bf):
    """``I[Bf] + C_n[f] - C_n[Bf]``."""
    c_f = product_trapezoid(F, iv, n).value
    c_bf = product_trapezoid(Integrand2D(Bf), iv, n).value
    return integral_bf + c_f - c_bf


def s_plus_by_blending(F, iv, n):
    """The edge rule through the four-edge blending interpolant.

    Bf is bilinear in each variable and matches f on the four edges, so
    its mixed derivative vanishes and ``I[Bf]`` needs only the edge
    integrals and the corner values.
    """
    f, a, b, w = F.f, iv.a, iv.b, iv.width

    def la(t):
        return (b - t) / w

    def lb(t):
        return (t - a) / w

    def Bf(x, y):
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

    edges = [lambda t: f(a, t), lambda t: f(b, t), lambda t: f(t, a), lambda t: f(t, b)]
    edge_sum = math.fsum(_romberg(g, iv, _TRACE_TOL) for g in edges)
    h = 0.5 * w
    corner_sum = f(a, a) + f(a, b) + f(b, a) + f(b, b)
    return _blending_value(F, iv, n, h * edge_sum - h * h * corner_sum, Bf)


def s_minus_by_blending(F, iv, n, fx, fy, fxy):
    """The mid-line rule through the double-midpoint-node interpolant.

    Bf matches f and its first-order data along both mid-lines, so it
    needs the partials fx, fy and fxy.  Its mixed derivative vanishes,
    and ``I[Bf]`` needs only the mid-line integrals and ``f(m, m)``.
    Bf is built pointwise, so the cancellation of its derivative terms
    under ``C_n`` is exercised numerically, not assumed.
    """
    f, m, w = F.f, iv.midpoint, iv.width

    def Bf(x, y):
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

    vertical = _romberg(lambda t: f(m, t), iv, _TRACE_TOL)
    horizontal = _romberg(lambda t: f(t, m), iv, _TRACE_TOL)
    return _blending_value(F, iv, n, w * (vertical + horizontal) - w * w * f(m, m), Bf)


def k22_s_plus_mixed(iv, n, t, tau):
    """The edge-rule kernel ``K22`` at ``(t, tau)`` in a second arrangement.

    Combines the single-panel kernel G with the n-panel trapezium kernel
    T and the trapezium rule applied to the interpolation-remainder line
    kernel

        Kcal(x, t) = (x - t)_+ - (x - a)(b - t)/(b - a)

    as ``G(tau) T(t) + T(tau) Q_n[Kcal(., t)]``, which equals the
    three-term form algebraically.
    """
    a, b = iv.a, iv.b
    trap = trapezium_rule(iv, n)

    def kcal(x):
        return max(x - t, 0.0) - (x - a) * (b - t) / iv.width

    gtau = peano_kernel(trapezium_rule(iv, 1), tau)
    return gtau * peano_kernel(trap, t) + peano_kernel(trap, tau) * apply(trap, kcal)
