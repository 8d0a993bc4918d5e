"""The README's quick start and exact-traces example run as written."""
import contextlib
import io
import re
from pathlib import Path

import numpy as np

from trapcube.oracle import brute_force_integral, ref_exp_integral

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_and_brackets_the_reference():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(block, namespace)
    box = namespace["box"]
    assert box.lower <= ref_exp_integral().value <= box.upper


def test_exact_traces_example_has_no_trace_budget():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(blocks[0], namespace)
        exec(blocks[1], namespace)
    f, square = namespace["f"], namespace["square"]
    box = namespace["enclosure"](f, square, 4, 4)
    assert box.slack == 0.0
    assert box.lower <= ref_exp_integral().value <= box.upper
    # At the edge x = 1e-81 the line integral's c is tiny, where a
    # difference of exponentials over c loses every digit.
    near_zero = namespace["Interval"](1e-81, 0.5)
    truth = brute_force_integral(lambda x, y: np.exp(x * y), near_zero, 6)
    report = namespace["refine"](f, near_zero, "s_plus", tol=1e-4)
    assert abs(report.final_value - truth) <= report.final_bound
    box = namespace["enclosure"](f, near_zero, 8, 8)
    assert box.lower <= truth <= box.upper and box.upper - box.lower < 1e-4
