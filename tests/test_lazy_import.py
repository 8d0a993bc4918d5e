"""numpy is imported on first array use: importing trapcube and its CLI,
every call on scalar integrands and ``trapcube --help`` leave it
unloaded, while the array paths load it.  Each check runs in a fresh
interpreter, because the pytest process has numpy loaded already."""
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import contextlib, io, math
import trapcube, trapcube.cli
from trapcube import *

iv = Interval(0.0, 0.5)
"""

SCALAR_CALLS = PRELUDE + """
F = Integrand2D(f=lambda x, y: math.exp(x * y), d22_sign="nonnegative")
enclosure(F, iv, 4, 4)
enclosure(F, iv, 4, 8)
refine(F, iv, "s_plus", tol=1e-3)
refine(F, iv, "s_minus", tol=1e-6)
refine_mean(F, iv, tol=1e-3)
s_minus(F, iv, 5)
s_plus(F, iv, 5)
product_trapezoid(F, iv, 5)
kernel_at(KernelSpec("k22_s_minus", 4), iv, 0.1, 0.2)
kernel_at(KernelSpec("k22_s_plus", 4), iv, 0.1, 0.2)
kernel_at(KernelSpec("phi_minus", 4, 1.0), iv, 0.1, 0.2)
kernel_at(KernelSpec("phi_plus", 4, 1.2), iv, 0.1, 0.2)
psi(KernelSpec("phi_minus", 4, 1.0), 0, 0, 0.5, 0.5)
psi(KernelSpec("phi_plus", 4, 1.2), 0, 0, 0.5, 0.5)
ref_exp_integral()
ref_sin_integral()
with contextlib.redirect_stdout(io.StringIO()):
    assert trapcube.cli.main(["--help"]) == 0
"""


def _last_line(code: str) -> str:
    """Run code in a fresh interpreter; the last line it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-1]


def _numpy_loaded_after(code: str) -> bool:
    """Whether numpy was imported after code ran in a fresh interpreter."""
    return _last_line(code + "\nimport sys\nprint('numpy' in sys.modules)") == "True"


def test_scalar_solves_and_help_do_not_import_numpy():
    assert not _numpy_loaded_after(SCALAR_CALLS)


@pytest.mark.parametrize("call", [
    'enclosure(Integrand2D(f=lambda x, y: x * y, d22_sign="nonnegative", vectorized=True), iv, 4, 4)',
    'definiteness_scan(KernelSpec("k22_s_plus", 2), 16)',
    'brute_force_integral(lambda x, y: x * y, iv, 2)',
    'trapcube.cli.main(["integrate", "--fn", "exp_xy", "--rule", "mean", "--tol", "1e-3"])',
], ids=["vectorized-enclosure", "scan", "oracle", "cli-integrate-exp_xy"])
def test_array_paths_import_numpy(call):
    with_call = f"{PRELUDE}\nwith contextlib.redirect_stdout(io.StringIO()):\n    {call}\n"
    assert _numpy_loaded_after(with_call)


# The fault count holds for glibc's own malloc at its default settings: not
# for an allocator loaded through LD_PRELOAD, nor for thresholds set by
# environment variables.
_GLIBC_MALLOC_DEFAULTS = platform.libc_ver()[0] == "glibc" and not any(
    value and (name in ("LD_PRELOAD", "GLIBC_TUNABLES") or name.startswith("MALLOC_"))
    for name, value in os.environ.items()
)


@pytest.mark.skipif(
    not _GLIBC_MALLOC_DEFAULTS, reason="measures the heap trimming of glibc's default malloc"
)
def test_grid_passes_after_the_first_numpy_import_do_not_fault_pages():
    """numpy first imported by a grid pass left glibc's trim threshold at
    128 KiB, so every pass gave its block arrays back to the system and
    faulted them in again (about 95 minor page faults a pass at n = 128)."""
    code = PRELUDE + """
import resource
F = trapcube.cli.BUILTINS["exp_xy"].integrand
for _ in range(3):
    product_trapezoid(F, iv, 128)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    product_trapezoid(F, iv, 128)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""
    assert float(_last_line(code)) < 10.0
