"""Fixtures shared by the test modules."""
import dataclasses

import pytest

from trapcube.cli import BUILTINS


@pytest.fixture
def counted_exp_xy():
    """The exp_xy built-in (exact traces) with an integrand that counts
    its calls in the returned one-element list."""
    calls = [0]
    F = BUILTINS["exp_xy"].integrand
    f = F.f

    def counted(x, y):
        calls[0] += 1
        return f(x, y)

    return dataclasses.replace(F, f=counted), calls
