"""The README's quick start and exact-traces example run as written."""
import contextlib
import io
import re
from pathlib import Path

from trapcube.oracle import ref_exp_integral

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
