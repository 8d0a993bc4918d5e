"""Tests of the benchmark itself: determinism, tracing, refusals, oracle.

Run from the root of a checkout with ``python -m pytest perfbench -q``.
"""
from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_trapcube()

import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ALL = sorted(WORKLOADS)


@pytest.mark.parametrize("name", ALL)
def test_counting_passes_repeat_exactly(name):
    workload = WORKLOADS[name](7)
    workload.prepare()
    tally = run.Tally()
    first = run.counting_pass(workload, tally)
    second = run.counting_pass(workload, tally)
    assert tally.failed == 0
    assert first == second


def test_seed_fixes_inputs():
    def inputs(seed):
        ops = WORKLOADS["certify-small"](seed).ops
        return [(op.label, op.k, op.iv, getattr(op, "rtol", None)) for op in ops]

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


@pytest.mark.parametrize("name", ALL)
def test_span_self_times_cover_the_traced_pass(name):
    workload = WORKLOADS[name](7)
    workload.prepare()
    tally = run.Tally()
    phase = run.Phase(workload, 0.0, tally, traced=True, min_passes=1)
    assert tally.failed == 0
    assert phase.self_share[0] == pytest.approx(1.0, abs=0.05)
    # The tracer puts every wrapped function back.
    import trapcube.cubature

    assert trapcube.cubature.product_trapezoid.__module__ == "trapcube.cubature"
    assert trapcube.cubature.product_trapezoid.__name__ == "product_trapezoid"


def test_oracle_agrees_with_the_series():
    """The brute-force oracle is far inside the checks' margin."""
    workload = WORKLOADS["certify-small"](11)
    for op in workload.ops[:40]:
        op.prepare()
        a, b, k = op.iv.a, op.iv.b, op.k
        series = math.fsum(
            k**m / math.factorial(m) * ((b ** (m + 1) - a ** (m + 1)) / (m + 1)) ** 2 for m in range(80)
        )
        assert abs(op.reference - series) <= 0.01 * workloads.ORACLE_REL_MARGIN * series


def _run_bench(cwd: Path, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-sign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=60, env=env,
    )


def test_refuses_to_run_with_thread_pool_set():
    env = dict(os.environ, CUBATURE_THREADS="2")
    proc = _run_bench(run.ROOT, env)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "CUBATURE_THREADS" in proc.stderr


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if (run.ROOT / "BENCHMARK.json").is_file():
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
