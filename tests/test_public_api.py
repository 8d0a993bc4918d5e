"""The package's public names are pinned, so any change to them shows in a diff."""
import inspect

import trapcube
from trapcube import adaptive, cubature, kernels, oracle, univariate

PUBLIC_NAMES = {
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
    "kernel_at",
    "midpoint_rule",
    "peano_kernel",
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
}


def test_package_exports_exactly_the_pinned_names():
    assert len(trapcube.__all__) == len(PUBLIC_NAMES) == 29
    assert set(trapcube.__all__) == PUBLIC_NAMES


def test_no_public_callable_takes_a_setting_the_rules_fix():
    """The Romberg trace tolerance, the sign each kernel kind keeps and
    the order of the Peano kernels are fixed by the rules, so no public
    callable takes them as arguments."""
    for name in trapcube.__all__:
        obj = getattr(trapcube, name)
        if callable(obj):
            params = set(inspect.signature(obj).parameters)
            assert not params & {"trace_tol", "expected"}, (name, params)
    assert list(inspect.signature(trapcube.peano_kernel).parameters) == ["rule", "t"]


def test_package_reexports_every_submodule_name():
    for module in (adaptive, cubature, kernels, oracle, univariate):
        for name in module.__all__:
            assert getattr(trapcube, name) is getattr(module, name), (module.__name__, name)
            assert name in trapcube.__all__, (module.__name__, name)
