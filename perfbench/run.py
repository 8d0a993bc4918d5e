"""trapcube's benchmark: time and integrand evaluations to a certified result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify-tight --seed 1 --seconds 30 --trace 0

The load is a closed loop with one client: one process, one thread, and
each op starts after the previous one has returned.  A run

1. times set-up (importing trapcube and trapcube.cli plus one small call
   per entry point) in fresh interpreters, several times;
2. computes the references the checks need, outside any timing;
3. runs the workload's op list again and again for ``--seconds`` (at
   least ``MIN_PASSES`` times), timing each op, and checks every result;
4. with ``--trace 1``, splits ``--seconds`` between such untraced passes
   and traced ones with spans around the calls into each module, for the
   per-layer numbers; on scan-sign it also repeats the scans with
   ``CUBATURE_THREADS=2``;
5. with ``--trace 1``, ends with one counting pass whose integrands count
   the points evaluated.

Every op is deterministic, so the machine can only add time to it.  An
op's latency is therefore its best over the run's passes: on a shared
two-core VM the median of a pass swings by 20-50 % between contention
regimes that last several seconds, and the best of several passes swings
far less.  The per-pass medians are printed too.

It prints a readable report and, as its last line, one JSON object with
the end-to-end metrics (``--trace 0``) or the per-layer ones
(``--trace 1``).  The same numbers, the environment and, for a traced
run, the spans of one traced pass go to ``perfbench/out/``.  See
``perfbench/README.md`` for what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from spans import Tracer, by_name, compact, finite_ratio, per_op, self_by_layer, summed
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fewest passes over the op list per phase, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Fresh interpreters started to time set-up; the median is reported.
SETUP_SAMPLES = 7
#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0)
#: Failed ops printed in full; the rest are only counted.
MAX_PRINTED_FAILURES = 20

#: Times set-up in a fresh interpreter: argv is src, perfbench, workload.
SETUP_CHILD = """\
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
t0 = time.perf_counter()
import trapcube, trapcube.cli
workloads.WORKLOADS[sys.argv[3]].warm_up()
print(repr(time.perf_counter() - t0))
"""


def metric_units() -> Tuple[Dict[str, str], Dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_trapcube():
    """Import trapcube from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "trapcube" / "__init__.py").is_file():
        die(f"no trapcube sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import trapcube
    import trapcube.cli  # noqa: F401  (the CLI ops call it)

    if Path(trapcube.__file__).resolve().parent != SRC / "trapcube":
        die(f"imported trapcube from {trapcube.__file__}, not from {SRC}")
    return trapcube


def environment() -> Dict[str, object]:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "CUBATURE_THREADS": os.environ.get("CUBATURE_THREADS", "unset"),
        "load": "closed loop, 1 client, 1 thread",
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure_setup(workload: str) -> List[float]:
    """Set-up time in fresh interpreters, one sample per interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), workload],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            die(f"set-up child failed with exit code {proc.returncode}:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def percentile(values: List[float], p: float) -> float:
    """Linear-interpolation percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least 10 samples beyond it.

    With fewer than 100 samples no ladder entry qualifies and the tail is
    the slowest sample (percentile 100).
    """
    for p in TAIL_LADDER:
        if samples * (1.0 - p / 100.0) >= 10.0:
            return p
    return 100.0


class Tally:
    """Ops attempted and failed over every pass of the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, workload, results) -> list:
        outcomes = []
        for op, (_, raw) in zip(workload.ops, results):
            if isinstance(raw, BaseException):
                text = "".join(traceback.format_exception(raw)).strip()
                outcome = Outcome(error=f"raised {text}")
            else:
                try:
                    outcome = op.check(raw)
                except (KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
                    outcome = Outcome(error=f"unreadable result: {exc!r}")
            self.attempted += 1
            if outcome.error:
                self.failed += 1
                if self.failed <= MAX_PRINTED_FAILURES:
                    print(f"FAIL {workload.name} [{op.label}]: {outcome.error}")
            outcomes.append(outcome)
        return outcomes


def run_pass(workload, tracer=None) -> Tuple[float, list]:
    """One pass over the op list: its wall time and (latency, raw result) per op."""
    results = []
    t_pass = perf_counter()
    for i, op in enumerate(workload.ops):
        t_op = perf_counter()
        try:
            raw = op() if tracer is None else tracer.run_op(i, op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            raw = exc
        results.append((perf_counter() - t_op, raw))
    return perf_counter() - t_pass, results


def layer_times(table) -> Dict[str, float]:
    return {
        "cli.main_s": summed(table, "time", ("main",)),
        "cli.self_s": summed(table, "self", ("main", "table_rows")),
        "adaptive.refine_s": summed(table, "time", ("refine", "refine_mean")),
        "adaptive.self_s": summed(table, "self", ("refine", "refine_mean")),
        "cubature.grid_s": summed(table, "time", ("product_trapezoid",)),
        "cubature.grid_calls": summed(table, "calls", ("product_trapezoid",)),
        "cubature.trace_sum_s": summed(table, "time", ("apply",)),
        "cubature.rule_self_s": summed(table, "self", ("s_minus", "s_plus", "enclosure")),
        "univariate.trace_integral_s": summed(table, "time", ("trace_integral",)),
        "univariate.trace_integral_calls": summed(table, "calls", ("trace_integral",)),
        "kernels.scan_s": summed(table, "time", ("definiteness_scan",)),
    }


class Phase:
    """Repeated passes over the op list, timed, optionally traced."""

    def __init__(self, workload, seconds: float, tally: Tally, traced: bool,
                 min_passes: int = MIN_PASSES) -> None:
        self.walls: List[float] = []
        self.op_latencies: List[List[float]] = [[] for _ in workload.ops]
        self.layers: List[Dict[str, float]] = []
        self.self_layer: List[Dict[str, float]] = []
        self.self_share: List[float] = []
        self.spans: Optional[dict] = None
        while len(self.walls) < min_passes or sum(self.walls) < seconds:
            tracer = Tracer() if traced else None
            if tracer is None:
                wall, results = run_pass(workload)
            else:
                with tracer:
                    wall, results = run_pass(workload, tracer)
            tally.check(workload, results)
            self.walls.append(wall)
            for samples, (latency, _) in zip(self.op_latencies, results):
                samples.append(latency)
            del results
            if tracer is not None:
                table = by_name(tracer.spans)
                self.layers.append(layer_times(table))
                by_layer = self_by_layer(table, tracer.defined_in)
                self.self_layer.append(by_layer)
                self.self_share.append(sum(by_layer.values()) / wall)
                if self.spans is None:
                    self.spans = compact(tracer.spans)

    @property
    def best(self) -> List[float]:
        """Each op's best latency over the passes."""
        return [min(samples) for samples in self.op_latencies]

    @property
    def wall(self) -> float:
        """The op list's time with each op at its best."""
        return sum(self.best)

    def layer(self, name: str) -> float:
        return statistics.median(p[name] for p in self.layers)


def counting_pass(workload, tally: Tally) -> Dict[str, float]:
    """One pass with counting integrands; every count repeats exactly."""
    tracer = Tracer()
    with workload.counting(tracer), tracer:
        _, results = run_pass(workload, tracer)
    outcomes = tally.check(workload, results)
    del results
    table = by_name(tracer.spans)
    ops = per_op(tracer.spans)
    solves = [(ops[i], o) for i, o in enumerate(outcomes)
              if workload.ops[i].kind == "solve" and not o.error]
    refines = [(c, o) for c, o in solves if o.levels is not None]
    rule_calls = ("trapcube.adaptive.s_minus", "trapcube.adaptive.s_plus")
    return {
        "f_evals": sum(row["evals"] for row in table.values()),
        "f_evals_solves": sum(c["evals"] for c, _ in solves),
        "certified_digits": sum(o.digits for _, o in solves),
        "f_evals_per_digit": finite_ratio(
            sum(c["evals"] for c, _ in solves), sum(o.digits for _, o in solves)),
        "solves": len(solves),
        "refine_solves": len(refines),
        "adaptive.levels": finite_ratio(sum(o.levels for _, o in refines), len(refines)),
        "adaptive.rule_calls": finite_ratio(
            sum(c[n] for c, _ in refines for n in rule_calls), len(refines)),
        "adaptive.evals_over_floor": finite_ratio(
            sum(c["evals"] for c, _ in refines), sum((o.n_final + 1) ** 2 for _, o in refines)),
        "univariate.trace_calls_over_floor": finite_ratio(
            sum(c["trapcube.cubature.trace_integral"] for c, _ in solves),
            sum(o.trace_floor for _, o in solves)),
        "cubature.grid_evals": table["trapcube.cubature.product_trapezoid"]["evals"],
        "univariate.romberg_evals": table["trapcube.cubature.trace_integral"]["evals"],
        "kernels.scan_points": workload.scan_points(),
        "kernels.violations": sum(o.violations or 0 for o in outcomes),
    }


def threads2_scan_s(workload, tally: Tally) -> Tuple[float, int]:
    """Scan time of one traced pass with the kernel thread pool at min(2, nproc) threads."""
    threads = min(2, len(os.sched_getaffinity(0)))
    os.environ["CUBATURE_THREADS"] = str(threads)
    try:
        phase = Phase(workload, 0.0, tally, traced=True, min_passes=1)
    finally:
        del os.environ["CUBATURE_THREADS"]
    return phase.layer("kernels.scan_s"), threads


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time measured per phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if "CUBATURE_THREADS" in os.environ:
        die("CUBATURE_THREADS is set; timed runs measure one thread, so unset it")
    import_trapcube()
    env = environment()
    workload = WORKLOADS[args.workload](args.seed)
    setup = measure_setup(workload.name)
    workload.warm_up()
    workload.prepare()

    tally = Tally()
    phase_seconds = args.seconds / 2.0 if args.trace else args.seconds
    timed = Phase(workload, phase_seconds, tally, traced=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    best = timed.best
    tail_p = tail_percentile(len(best))
    e2e = {
        "wall_s": timed.wall,
        "op_ms_p50": 1e3 * percentile(best, 50.0),
        "op_ms_tail": 1e3 * percentile(best, tail_p),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    layers: Dict[str, float] = {}
    traced = counts = None
    threads = 0
    if args.trace:
        traced = Phase(workload, phase_seconds, tally, traced=True)
        layers = {name: traced.layer(name) for name in traced.layers[0]}
        layers["kernels.scan_s_threads2"] = 0.0
        if workload.scan_points():
            layers["kernels.scan_s_threads2"], threads = threads2_scan_s(workload, tally)
        layers["trace_overhead"] = traced.wall / timed.wall
        counts = counting_pass(workload, tally)
        layers["cubature.grid_evals_per_s"] = finite_ratio(
            counts["cubature.grid_evals"], layers["cubature.grid_s"])
        layers["kernels.points_per_s"] = finite_ratio(
            counts["kernels.scan_points"], layers["kernels.scan_s"])
        for name in ("adaptive.levels", "adaptive.rule_calls", "adaptive.evals_over_floor",
                     "cubature.grid_evals", "univariate.romberg_evals",
                     "univariate.trace_calls_over_floor", "f_evals_per_digit"):
            layers[name] = counts[name]

    pooled = [x for samples in timed.op_latencies for x in samples]
    details = {
        "passes": len(timed.walls),
        "ops_per_pass": len(workload.ops),
        "op_ms_tail_percentile": tail_p,
        "ops_beyond_tail": round(len(best) * (1.0 - tail_p / 100.0), 1),
        "pass_wall_s_median": statistics.median(timed.walls),
        "pooled_op_ms_p50": 1e3 * percentile(pooled, 50.0),
        "setup_samples_s": setup,
        "fail_rate": tally.failed / tally.attempted,
        "counts": counts,
    }
    if traced is not None:
        details.update({
            "traced_passes": len(traced.walls),
            "traced_wall_s": traced.wall,
            "traced_pass_wall_s_median": statistics.median(traced.walls),
            "self_s_by_module": {
                k: statistics.median(p.get(k, 0.0) for p in traced.self_layer)
                for k in sorted({k for p in traced.self_layer for k in p})
            },
            "self_sum_over_traced_wall": statistics.median(traced.self_share),
            "threads2_count": threads,
        })

    e2e_units, per_layer_units = metric_units()
    report(args, env, e2e, e2e_units, layers, per_layer_units, details, tally)
    write_out(args, env, e2e, layers, details, traced)
    chosen = layers if args.trace else e2e
    units = per_layer_units if args.trace else e2e_units
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": chosen[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def report(args, env, e2e, e2e_units, layers, per_layer_units, details, tally: Tally) -> None:
    counts = details["counts"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    passes, ops = details["passes"], details["ops_per_pass"]
    notes = {
        "wall_s": f"sum of {ops} op bests over {passes} passes "
                  f"(median pass {details['pass_wall_s_median']:.4g} s)",
        "op_ms_p50": f"median of {ops} op bests "
                     f"(pooled over passes {details['pooled_op_ms_p50']:.4g} ms)",
        "op_ms_tail": f"p{details['op_ms_tail_percentile']:g} of {ops} op bests, "
                      f"{details['ops_beyond_tail']:g} beyond",
        "setup_s": f"median of {len(details['setup_samples_s'])} fresh interpreters",
        "peak_rss_mb": "after the timed passes",
    }
    for name, unit in e2e_units.items():
        print(f"  {name:<20} {e2e[name]:>14.6g} {unit:<6} {notes[name]}")
    if counts and counts["solves"]:
        print(f"  {'f_evals_per_digit':<20} {counts['f_evals_per_digit']:>14.6g} {'evals/digit'} "
              f"{counts['f_evals_solves']} evals / {counts['certified_digits']:.4g} digits "
              f"over {counts['solves']} solves")
    print(f"  {'fail_rate':<20} {details['fail_rate']:>14.6g} {'ratio':<6} "
          f"{tally.failed} of {tally.attempted} ops")
    if counts and counts["kernels.scan_points"]:
        print(f"  kernels.violations {counts['kernels.violations']} over "
              f"{counts['kernels.scan_points']} scan points per pass")
    if layers:
        print("per layer (medians over traced passes; times in s per pass):")
        for name, unit in per_layer_units.items():
            print(f"  {name:<34} {layers[name]:>14.6g} {unit}")
        print("  self time by module: " + "  ".join(
            f"{k}={v:.4g}s" for k, v in details["self_s_by_module"].items()))
        print(f"  span self times / traced pass wall: {details['self_sum_over_traced_wall']:.4f}")


def write_out(args, env, e2e, layers, details, traced) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"args": vars(args), "environment": env, "end_to_end": e2e,
              "per_layer": layers, "details": details}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced is not None and traced.spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(traced.spans) + "\n")


if __name__ == "__main__":
    sys.exit(main())
