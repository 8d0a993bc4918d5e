"""One-sided product trapezoidal cubature over squares.

Two modified product trapezoid rules bracket the integral of any
integrand whose mixed second derivative keeps one sign: one rule errs
high, the other errs low, and mesh doubling tightens both monotonically
with computable a posteriori error bounds.  The bracket, the bounds,
and the sign claims behind them (one-signed bivariate Peano kernels)
are all exposed and numerically verifiable here.
"""
from .adaptive import (
    RefinementLevel,
    RefinementReport,
    definite_pair_bounds,
    refine,
    refine_mean,
)
from .cubature import (
    CubatureEstimate,
    Enclosure,
    Integrand2D,
    enclosure,
    error_constant,
    product_trapezoid,
    s_minus,
    s_plus,
)
from .kernels import (
    KernelSpec,
    ScanReport,
    definiteness_scan,
    k22_s_minus,
    k22_s_plus,
    phi,
    psi,
)
from .oracle import (
    ReferenceValue,
    brute_force_integral,
    ref_exp_integral,
    ref_sin_integral,
)
from .univariate import (
    ConvergenceError,
    Interval,
    QuadratureRule,
    apply,
    midpoint_rule,
    peano_kernel,
    trapezium_rule,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "CubatureEstimate",
    "Enclosure",
    "Integrand2D",
    "Interval",
    "KernelSpec",
    "QuadratureRule",
    "ReferenceValue",
    "RefinementLevel",
    "RefinementReport",
    "ScanReport",
    "apply",
    "brute_force_integral",
    "definite_pair_bounds",
    "definiteness_scan",
    "enclosure",
    "error_constant",
    "k22_s_minus",
    "k22_s_plus",
    "midpoint_rule",
    "peano_kernel",
    "phi",
    "product_trapezoid",
    "psi",
    "ref_exp_integral",
    "ref_sin_integral",
    "refine",
    "refine_mean",
    "s_minus",
    "s_plus",
    "trapezium_rule",
    "__version__",
]
