"""One-sided product trapezoidal cubature over squares.

Two modified product trapezoid rules bracket the integral of any
integrand whose mixed second derivative keeps one sign: one rule errs
high, the other errs low, and mesh doubling tightens both monotonically
with computable a posteriori error bounds.  The bracket, the bounds,
and the sign claims behind them (one-signed bivariate Peano kernels)
are all exposed and numerically verifiable here.

The public names are those each module lists in its ``__all__``.
"""
from . import adaptive, cubature, kernels, oracle, univariate
from .adaptive import *
from .cubature import *
from .kernels import *
from .oracle import *
from .univariate import *

__version__ = "0.1.0"

__all__ = [
    *adaptive.__all__,
    *cubature.__all__,
    *kernels.__all__,
    *oracle.__all__,
    *univariate.__all__,
    "__version__",
]
