"""The benchmark's three workloads: their ops, inputs and correctness checks.

Every op is a call into trapcube's public entry points, either
``trapcube.cli.main`` in process or the library functions on the
``trapcube`` package, looked up at call time so that a tracer can wrap
them.  An op returns its raw result; :meth:`Op.check` judges it after
the timed pass against a reference computed before any timing starts.

This module imports only the standard library at import time, so the
set-up timing in ``run.py`` can load it before it starts its clock.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
import sys
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclasses.dataclass
class Outcome:
    """What a checked op gave: an error, or the facts the counters need."""

    error: Optional[str] = None
    digits: Optional[float] = None  # certified decimal digits of a solve
    n_final: Optional[int] = None  # final level of a refinement
    levels: Optional[int] = None  # levels of a refinement
    trace_floor: int = 0  # distinct trace integrals the solve needs
    violations: Optional[int] = None  # sign violations of a scan


def call_cli(argv: List[str]) -> Tuple[int, str, str]:
    """Run ``trapcube.cli.main`` in process and capture what it prints."""
    cli = sys.modules["trapcube.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _digits(reference: float, bound: float) -> float:
    return math.log10(abs(reference) / bound) if bound > 0.0 else math.inf


def _rc_error(rc: object, expected: int, stderr: str) -> Optional[str]:
    if rc == expected:
        return None
    return f"exit code {rc!r}, expected {expected}: {stderr.strip()[:200]}"


class Op:
    label: str = ""
    kind: str = ""  # 'solve', 'table' or 'scan'

    def __call__(self) -> object:
        raise NotImplementedError

    def check(self, raw: object) -> Outcome:
        raise NotImplementedError


class Workload:
    name: str = ""
    ops: List[Op]

    def prepare(self) -> None:
        """Compute the references the checks need; runs before timing."""

    @contextlib.contextmanager
    def counting(self, tracer) -> Iterator[None]:
        """Make the ops' integrands count their evaluations into ``tracer``."""
        yield

    @staticmethod
    def warm_up() -> None:
        """One small call per entry point the workload uses."""

    def scan_points(self) -> int:
        return 0


# --------------------------------------------------------------------------
# certify-tight: the CLI on the shipped built-ins, to deep grids.

_TRACE_FLOOR = {"minus": 2, "plus": 4, "mean": 6, "s_minus": 2, "s_plus": 4, "enclosure": 6}


class IntegrateOp(Op):
    kind = "solve"

    def __init__(self, fn: str, rule: str, tol: str, max_n: int, reference) -> None:
        self.label = f"integrate {fn} {rule} tol={tol}"
        self.rule = rule
        self.tol = float(tol)
        self.reference = reference
        self.argv = [
            "integrate", "--fn", fn, "--rule", rule, "--tol", tol,
            "--max-n", str(max_n), "--format", "json",
        ]

    def __call__(self):
        return call_cli(self.argv)

    def check(self, raw) -> Outcome:
        rc, out, err = raw
        bad = _rc_error(rc, 0, err)
        if bad:
            return Outcome(error=bad)
        lines = [json.loads(line) for line in out.splitlines() if line.strip()]
        summary = lines[-1]
        value, bound = summary["final_value"], summary["final_bound"]
        ref = self.reference
        if summary["termination"] != "tolerance_met":
            return Outcome(error=f"termination {summary['termination']!r}")
        if not bound <= self.tol:
            return Outcome(error=f"certified bound {bound!r} above tol {self.tol!r}")
        if abs(value - ref.value) > bound + ref.abs_err:
            return Outcome(error=f"bracket {value!r} +- {bound!r} excludes reference {ref.value!r}")
        return Outcome(
            digits=_digits(ref.value, bound),
            n_final=summary["final_n"],
            levels=len(lines) - 1,
            trace_floor=_TRACE_FLOOR[self.rule],
        )


class TableOp(Op):
    kind = "table"

    def __init__(self, fn: str, n_list: List[int], reference) -> None:
        self.label = f"table {fn}"
        self.n_list = n_list
        self.reference = reference
        self.argv = ["table", "--fn", fn, "--n-list", ",".join(map(str, n_list)), "--format", "json"]

    def __call__(self):
        return call_cli(self.argv)

    def check(self, raw) -> Outcome:
        rc, out, err = raw
        bad = _rc_error(rc, 0, err)
        if bad:
            return Outcome(error=bad)
        header, *rows = [json.loads(line) for line in out.splitlines() if line.strip()]
        ref = self.reference
        if header["reference_value"] != ref.value:
            return Outcome(error=f"reference {header['reference_value']!r} != {ref.value!r}")
        if [r["n"] for r in rows] != self.n_list:
            return Outcome(error=f"rows for n={[r['n'] for r in rows]}, expected {self.n_list}")
        # Each row's difference columns must dominate the true remainder
        # of the next row (level 2n), which is what they certify.
        for row, nxt in zip(rows, rows[1:]):
            for column, remainder in (("half_diff_minus", "rem_minus"), ("bound_plus", "rem_plus")):
                true = abs(nxt[remainder])
                if true > row[column] + ref.abs_err:
                    return Outcome(error=f"n={row['n']}: {column}={row[column]!r} < |{remainder}(2n)|={true!r}")
        return Outcome()


class CertifyTight(Workload):
    name = "certify-tight"
    FNS = ("exp_xy", "sin_xy")
    RULES = ("minus", "plus", "mean")
    TOLS = ("1e-5", "1e-6")
    MAX_N = 4096
    N_LIST = [4, 8, 16, 32, 64, 128, 256]

    def __init__(self, seed: int) -> None:
        import trapcube

        refs = {"exp_xy": trapcube.ref_exp_integral(), "sin_xy": trapcube.ref_sin_integral()}
        self.ops = [
            IntegrateOp(fn, rule, tol, self.MAX_N, refs[fn])
            for fn in self.FNS for rule in self.RULES for tol in self.TOLS
        ]
        self.ops += [TableOp(fn, self.N_LIST, refs[fn]) for fn in self.FNS]
        # The op list is fixed; the seed only sets the order.
        random.Random(seed).shuffle(self.ops)

    @contextlib.contextmanager
    def counting(self, tracer) -> Iterator[None]:
        try:
            builtins = sys.modules["trapcube.cli"].BUILTINS
            saved = {fn: builtins[fn] for fn in self.FNS}
            counted = {
                fn: dataclasses.replace(b, integrand=dataclasses.replace(
                    b.integrand, f=tracer.counted(b.integrand.f)))
                for fn, b in saved.items()
            }
        except (AttributeError, KeyError, TypeError) as exc:
            # The built-ins changed shape: count nothing rather than fail.
            print(f"perfbench: cannot count the built-ins' evaluations: {exc!r}", file=sys.stderr)
            yield
            return
        try:
            builtins.update(counted)
            yield
        finally:
            builtins.update(saved)

    @staticmethod
    def warm_up() -> None:
        call_cli(["integrate", "--fn", "exp_xy", "--rule", "mean", "--tol", "1e-3", "--format", "json"])
        call_cli(["table", "--fn", "sin_xy", "--n-list", "4", "--format", "json"])


# --------------------------------------------------------------------------
# certify-small: many seeded library solves on exp(k x y) with Romberg traces.

#: Allowed disagreement between a certified bracket and the oracle, as a
#: share of the oracle value.  The oracle at level 6 agrees with the
#: closed-form series to about 1e-14 on these integrands.
ORACLE_REL_MARGIN = 1e-12
ORACLE_LEVEL = 6


class SmallOp(Op):
    kind = "solve"

    def __init__(self, rng: random.Random, rule: str, n: Optional[int]) -> None:
        import trapcube

        self.tc = trapcube
        self.k = rng.uniform(0.5, 2.0)
        a = rng.uniform(0.0, 0.5)
        w = rng.uniform(0.25, 1.0)
        self.iv = trapcube.Interval(a, a + w)
        # D22 exp(kxy) = k^2 e^{kxy} (k^2 x^2 y^2 + 4kxy + 2) >= 0 for xy >= 0,
        # so the declared sign is proven on these squares.
        self.F = trapcube.Integrand2D(f=lambda x, y, k=self.k: math.exp(k * x * y), d22_sign="nonnegative")
        self.rule, self.n = rule, n
        if rule == "enclosure":
            self.label = f"enclosure n={n}"
        else:
            # Relative tolerance 1e-3..1e-2: every op certifies by n = 64,
            # the worst square (k=2, [0.5, 1.5]) at about 7.6e-4.
            self.rtol = 10.0 ** rng.uniform(-3.0, -2.0)
            self.label = f"refine {rule}"
        self.reference = math.nan
        self.tol = math.nan

    def prepare(self) -> None:
        import numpy as np

        k = self.k
        self.reference = self.tc.brute_force_integral(lambda x, y: np.exp(k * x * y), self.iv, ORACLE_LEVEL)
        if self.rule != "enclosure":
            self.tol = self.rtol * abs(self.reference)

    def __call__(self):
        tc = self.tc
        if self.rule == "enclosure":
            return tc.enclosure(self.F, self.iv, self.n, self.n)
        if self.rule == "mean":
            return tc.refine_mean(self.F, self.iv, tol=self.tol, max_n=CertifySmall.MAX_N)
        return tc.refine(self.F, self.iv, self.rule, tol=self.tol, max_n=CertifySmall.MAX_N)

    def check(self, raw) -> Outcome:
        ref = self.reference
        margin = ORACLE_REL_MARGIN * abs(ref)
        if self.rule == "enclosure":
            if not raw.lower - margin <= ref <= raw.upper + margin:
                return Outcome(error=f"[{raw.lower!r}, {raw.upper!r}] excludes oracle {ref!r}")
            return Outcome(digits=_digits(ref, 0.5 * (raw.upper - raw.lower)), trace_floor=6)
        if raw.termination != "tolerance_met":
            return Outcome(error=f"termination {raw.termination!r} at n={raw.final_n}")
        if not raw.final_bound <= self.tol:
            return Outcome(error=f"certified bound {raw.final_bound!r} above tol {self.tol!r}")
        if abs(raw.final_value - ref) > raw.final_bound + margin:
            return Outcome(error=f"{raw.final_value!r} +- {raw.final_bound!r} excludes oracle {ref!r}")
        return Outcome(
            digits=_digits(ref, raw.final_bound),
            n_final=raw.final_n,
            levels=len(raw.levels),
            trace_floor=_TRACE_FLOOR[self.rule],
        )


class CertifySmall(Workload):
    name = "certify-small"
    N_OPS = 2000
    MAX_N = 64

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        # Half enclosures, half refinements, in fixed proportions per level
        # and rule so that seeds differ in their squares and tolerances and
        # not in the op mix.
        half = self.N_OPS // 2
        kinds = [("enclosure", (4, 8, 16, 32)[i % 4]) for i in range(half)]
        kinds += [(("s_minus", "s_plus", "mean")[i % 3], None) for i in range(half)]
        rng.shuffle(kinds)
        self.ops = [SmallOp(rng, rule, n) for rule, n in kinds]

    def prepare(self) -> None:
        for op in self.ops:
            op.prepare()

    @contextlib.contextmanager
    def counting(self, tracer) -> Iterator[None]:
        saved = [op.F for op in self.ops]
        try:
            for op in self.ops:
                op.F = dataclasses.replace(op.F, f=tracer.counted(op.F.f))
            yield
        finally:
            for op, F in zip(self.ops, saved):
                op.F = F

    @staticmethod
    def warm_up() -> None:
        import trapcube as tc

        F = tc.Integrand2D(f=lambda x, y: math.exp(x * y), d22_sign="nonnegative")
        iv = tc.Interval(0.0, 0.5)
        tc.enclosure(F, iv, 4, 4)
        tc.refine(F, iv, "s_minus", tol=1e-3)
        tc.refine_mean(F, iv, tol=1e-3)


# --------------------------------------------------------------------------
# scan-sign: kernel sign scans through the CLI, no integrand at all.


class ScanOp(Op):
    kind = "scan"

    def __init__(self, kernel: str, n: int, c: Optional[str], resolution: int, violations: int) -> None:
        self.label = f"scan {kernel} n={n}" + (f" c={c}" if c else "") + f" res={resolution}"
        self.resolution = resolution
        self.expected = violations
        self.argv = ["scan", "--kernel", kernel, "--n", str(n), "--resolution", str(resolution)]
        if c is not None:
            self.argv += ["--c", c]

    def __call__(self):
        return call_cli(self.argv)

    def check(self, raw) -> Outcome:
        rc, out, err = raw
        bad = _rc_error(rc, 1 if self.expected else 0, err)
        if bad:
            return Outcome(error=bad)
        counts = [line.split(":", 1)[1] for line in out.splitlines() if line.startswith("violations:")]
        if len(counts) != 1:
            return Outcome(error="no 'violations:' line in the scan output")
        found = int(counts[0])
        if found != self.expected:
            return Outcome(error=f"{found} violations, expected {self.expected}")
        return Outcome(violations=found)


class ScanSign(Workload):
    name = "scan-sign"
    # Many short scans rather than a few long ones: an op of about 10 ms
    # often runs whole between a shared host's bursts of contention, so
    # its best over the run repeats from run to run; a scan of a second
    # or more does not.
    SCANS = (
        ("phi-plus", 2, "1.5", 512, 0),
        ("phi-plus", 4, "1.4", 512, 0),
        ("phi-plus", 8, "1.1", 256, 0),
        ("phi-minus", 8, "1.1", 512, 0),
        ("phi-minus", 2, "1.1", 256, 0),
        ("k22-minus", 4, None, 512, 0),
        ("k22-plus", 8, None, 512, 0),
        # Just below the critical constants 1 and (4n-1)/(4n-3): expected violations.
        ("phi-minus", 4, "0.9", 512, 3352),
        ("phi-minus", 2, "0.9", 256, 444),
        ("phi-minus", 8, "0.95", 512, 996),
        ("phi-plus", 4, "1.05", 512, 180),
        ("phi-plus", 2, "1.3", 256, 112),
    )

    def __init__(self, seed: int) -> None:
        self.ops = [ScanOp(*scan) for scan in self.SCANS]
        random.Random(seed).shuffle(self.ops)

    def scan_points(self) -> int:
        return sum((op.resolution + 1) ** 2 for op in self.ops)

    @staticmethod
    def warm_up() -> None:
        call_cli(["scan", "--kernel", "phi-plus", "--n", "4", "--c", "1.4", "--resolution", "64"])


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    w.name: w for w in (CertifyTight, CertifySmall, ScanSign)
}
