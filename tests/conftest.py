"""Fixtures shared by the test modules."""
import dataclasses

import numpy as np
import pytest

from trapcube.cli import BUILTINS


@pytest.fixture
def counted_exp_xy():
    """The exp_xy built-in (exact traces) with an integrand that counts
    the points it evaluates in the returned one-element list: one per
    scalar call, the broadcast size per array call."""
    calls = [0]
    F = BUILTINS["exp_xy"].integrand
    f = F.f

    def counted(x, y):
        calls[0] += np.broadcast(x, y).size
        return f(x, y)

    return dataclasses.replace(F, f=counted), calls
