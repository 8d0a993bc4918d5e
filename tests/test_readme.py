"""The README's quick start runs as written."""
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
