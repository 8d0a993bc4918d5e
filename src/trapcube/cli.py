"""Command-line surface: certified integration, convergence tables, and
kernel sign scans.

Three subcommands:

``integrate``
    Run the doubling refinement for a builtin integrand with one of the
    rules ('minus', 'plus', or their 'mean') until the certified a
    posteriori bound meets the tolerance.  Exit code 0 on success, 3
    when max-n is reached first (the report is still printed).

``table``
    Reproduce the convergence tables for the transcendental builtins on
    the unit square: true remainders against the series reference value
    next to the a posteriori bound columns.

``scan``
    Grid-scan one of the bivariate kernels for its expected sign.  Exit
    code 0 when the scan is clean, 1 when violations are found.

Text output rounds to 4 significant digits for reading; csv and json
carry 17 significant digits so parsed values round-trip exactly.  The
json format is JSON Lines: one object per table row, preceded by a
summary object where noted.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .adaptive import RefinementReport, _bound_factor, refine, refine_mean
from .cubature import _TRACE_LINES, Integrand2D, _levels
from .kernels import SCAN_SLACK_FACTOR, KernelSpec, ScanReport, definiteness_scan
from .oracle import ReferenceValue, ref_exp_integral, ref_sin_integral
from .univariate import ConvergenceError, Interval

__all__ = ["BuiltinIntegrand", "BUILTINS", "table_rows", "main"]


@dataclass(frozen=True)
class BuiltinIntegrand:
    """A named integrand with prewired derivative sign and exact traces.

    The declared mixed-derivative sign is proven on the squares
    [a, b]^2 that ``_PROVEN_SQUARES`` names: exp_xy where
    a*b >= -0.5857, sin_xy where a*b >= 0 and max(a*a, b*b) <= 1.414
    (the default [0, 1]^2 among them), poly_x2y2 and bilinear_xy on any
    square.  ``trapcube integrate`` refuses other squares; library calls
    trust the declaration wherever they are made.  The trace integrals
    are closed forms valid on any square.  The integrands are numpy
    expressions declared vectorized, so the grid pass evaluates them on
    blocks of rows.
    """

    id: str
    description: str
    integrand: Integrand2D


#: Squares [a, b]^2 on which each built-in's declared D22 sign is proven,
#: as ``(test(a, b), statement)``.  Each built-in is g(u) with u = x y, so
#: D22 = u^2 g''''(u) + 4u g'''(u) + 2 g''(u), and u spans
#: [min(a*b, a*a, b*b), max(a*a, b*b)] on the square.
_PROVEN_SQUARES: Dict[str, Tuple[Callable[[float, float], bool], str]] = {
    # e^u (u^2 + 4u + 2) >= 0 for u >= sqrt(2) - 2 = -0.58579, and u >= min(a*b, 0).
    "exp_xy": (lambda a, b: a * b >= -0.5857, "a*b >= -0.5857"),
    # (u^2 - 2) sin u and -4u cos u are both <= 0 for u in [0, sqrt(2)], as sqrt(2) < pi/2.
    "sin_xy": (
        lambda a, b: a * b >= 0 and max(a * a, b * b) <= 1.414,
        "a*b >= 0 and max(a*a, b*b) <= 1.414",
    ),
    # D22 is the constant 4.
    "poly_x2y2": (lambda a, b: True, "any square"),
    # D22 is identically 0.
    "bilinear_xy": (lambda a, b: True, "any square"),
}


def _traces(line_integral: Callable[[float, Interval], float]) -> Dict[str, Callable[[Interval], float]]:
    """Wire one closed-form line integral to all six trace lines.

    ``line_integral(c, iv)`` must return the integral over ``iv`` of the
    integrand restricted to a line where one coordinate is frozen at c;
    all four builtins are symmetric in x and y, so one form serves both
    directions.
    """

    def supplier(coordinate_of: Callable[[Interval], float]) -> Callable[[Interval], float]:
        return lambda iv: line_integral(coordinate_of(iv), iv)

    return {
        trace_id: supplier(coordinate_of)
        for trace_id, (_, coordinate_of) in _TRACE_LINES.items()
    }


def _exp_line(c: float, iv: Interval) -> float:
    if c == 0.0:
        return iv.width
    return (math.exp(c * iv.b) - math.exp(c * iv.a)) / c


def _sin_line(c: float, iv: Interval) -> float:
    if c == 0.0:
        return 0.0
    return (math.cos(c * iv.a) - math.cos(c * iv.b)) / c


def _sq_line(c: float, iv: Interval) -> float:
    return c * c * (iv.b**3 - iv.a**3) / 3.0


def _bilinear_line(c: float, iv: Interval) -> float:
    return c * (iv.b**2 - iv.a**2) / 2.0


# numpy is imported on the first evaluation, so that the parser and the
# scalar library calls never load it.

def _exp_xy(x, y):
    import numpy as np

    return np.exp(x * y)


def _sin_xy(x, y):
    import numpy as np

    return np.sin(x * y)


BUILTINS: Dict[str, BuiltinIntegrand] = {
    "exp_xy": BuiltinIntegrand(
        id="exp_xy",
        description="e^(x y); mixed derivative nonnegative on [a, b]^2 with a*b >= -0.5857",
        integrand=Integrand2D(
            f=_exp_xy,
            d22_sign="nonnegative",
            exact_traces=_traces(_exp_line),
            vectorized=True,
        ),
    ),
    "sin_xy": BuiltinIntegrand(
        id="sin_xy",
        description=(
            "sin(x y); mixed derivative nonpositive on [a, b]^2"
            " with a*b >= 0 and max(a*a, b*b) <= 1.414"
        ),
        integrand=Integrand2D(
            f=_sin_xy,
            d22_sign="nonpositive",
            exact_traces=_traces(_sin_line),
            vectorized=True,
        ),
    ),
    "poly_x2y2": BuiltinIntegrand(
        id="poly_x2y2",
        description="x^2 y^2; mixed derivative constant 4 on any square",
        integrand=Integrand2D(
            f=lambda x, y: (x * x) * (y * y),
            d22_sign="nonnegative",
            exact_traces=_traces(_sq_line),
            vectorized=True,
        ),
    ),
    "bilinear_xy": BuiltinIntegrand(
        id="bilinear_xy",
        description="x y; mixed derivative identically zero on any square",
        integrand=Integrand2D(
            f=lambda x, y: x * y,
            d22_sign="nonnegative",
            exact_traces=_traces(_bilinear_line),
            vectorized=True,
        ),
    ),
}

_TABLE_REFS: Dict[str, Callable[[], ReferenceValue]] = {
    "exp_xy": ref_exp_integral,
    "sin_xy": ref_sin_integral,
}

_SCAN_KINDS: Dict[str, Tuple[str, str]] = {
    "k22-minus": ("k22_s_minus", "nonpositive"),
    "k22-plus": ("k22_s_plus", "nonnegative"),
    "phi-minus": ("phi_minus", "nonnegative"),
    "phi-plus": ("phi_plus", "nonpositive"),
}


def _full(x: float) -> str:
    return format(x, ".17g")

def _sig4(x: Optional[float]) -> str:
    return "-" if x is None else format(x, ".3e")


@dataclass(frozen=True)
class TableRow:
    """One convergence-table row: remainders and bound columns at level n."""

    n: int
    rem_minus: float
    half_diff_minus: float
    rem_plus: float
    bound_plus: float


def table_rows(fn_id: str, n_list: Sequence[int]) -> Tuple[ReferenceValue, List[TableRow]]:
    """Compute the convergence table of both rules on the unit square.

    Per level n: the true remainders (reference minus rule value) of
    both one-sided rules, half the mid-line difference to level 2n, and
    the edge rule's certified bound (4n-1)/(4n-3) |S(2n) - S(n)|.  Each
    distinct level's grid is evaluated once, for both rules.
    """
    if fn_id not in _TABLE_REFS:
        raise ValueError(f"tables are defined for {tuple(_TABLE_REFS)}, got {fn_id!r}")
    if not n_list:
        raise ValueError("n-list must not be empty")
    F = BUILTINS[fn_id].integrand
    iv = Interval(0.0, 1.0)
    for n in n_list:
        if n < 1:
            raise ValueError(f"levels must be >= 1, got {n}")
    reference = _TABLE_REFS[fn_id]()
    ns = sorted(set(n_list) | {2 * n for n in n_list})
    values = dict(zip(ns, _levels(F, iv, ("s_minus", "s_plus"), ns, 1e-12)))
    minus = {n: level["s_minus"].value for n, level in values.items()}
    plus = {n: level["s_plus"].value for n, level in values.items()}
    rows = [
        TableRow(
            n=n,
            rem_minus=reference.value - minus[n],
            half_diff_minus=0.5 * abs(minus[2 * n] - minus[n]),
            rem_plus=reference.value - plus[n],
            bound_plus=_bound_factor("s_plus", n) * abs(plus[2 * n] - plus[n]),
        )
        for n in n_list
    ]
    return reference, rows


def _cell(value: object) -> str:
    if value is None:
        return ""
    return str(value) if isinstance(value, int) else _full(value)


def _emit_records(
    fmt: str, records: Sequence, header: Optional[dict] = None, summary: Optional[dict] = None
) -> None:
    """Print report dataclasses as csv or JSON Lines.

    The columns are the dataclass fields in declaration order; records
    must not be empty.  csv prints a line of field names and one line per
    record; json prints ``header``, one object per record, then
    ``summary``, each when given.
    """
    names = [f.name for f in fields(records[0])]
    if fmt == "csv":
        print(",".join(names))
        for record in records:
            print(",".join(_cell(getattr(record, name)) for name in names))
        return
    if header is not None:
        print(json.dumps(header))
    for record in records:
        print(json.dumps({name: getattr(record, name) for name in names}))
    if summary is not None:
        print(json.dumps(summary))


def _emit_integrate(report: RefinementReport, fn_id: str, iv: Interval, fmt: str) -> None:
    if fmt != "text":
        _emit_records(fmt, report.levels, summary={
            "fn": fn_id,
            "rule": report.rule,
            "final_n": report.final_n,
            "final_value": report.final_value,
            "final_bound": report.final_bound,
            "termination": report.termination,
        })
        return
    print(f"fn={fn_id}  rule={report.rule}  square=[{iv.a:g}, {iv.b:g}]^2")
    header = f"{'n':>6}  {'estimate':>24}  {'diff':>10}  {'bound':>10}  {'table':>10}  {'budget':>10}"
    print(header)
    for lv in report.levels:
        print(
            f"{lv.n:>6}  {lv.estimate:>24.17g}  {_sig4(lv.diff_to_previous):>10}"
            f"  {_sig4(lv.aposteriori_bound):>10}  {_sig4(lv.table_bound):>10}"
            f"  {_sig4(lv.trace_budget):>10}"
        )
    print(f"final value: {_full(report.final_value)}")
    print(f"certified bound: {report.final_bound:.6e}")
    last = report.levels[-1]
    if last.table_bound is not None:
        print(f"table bound: {last.table_bound:.6e}")
    print(f"termination: {report.termination}")


def cmd_integrate(args: argparse.Namespace) -> int:
    fn = BUILTINS[args.fn]
    iv = Interval(args.a, args.b)
    proven, statement = _PROVEN_SQUARES[args.fn]
    if not proven(iv.a, iv.b):
        raise ValueError(
            f"the {fn.integrand.d22_sign} mixed derivative of {args.fn} is proven only on"
            f" squares [a, b]^2 with {statement}; got [{iv.a:g}, {iv.b:g}]^2"
        )
    if args.rule == "mean":
        report = refine_mean(fn.integrand, iv, tol=args.tol, n0=args.n0, max_n=args.max_n)
    else:
        rule = "s_minus" if args.rule == "minus" else "s_plus"
        report = refine(fn.integrand, iv, rule, tol=args.tol, n0=args.n0, max_n=args.max_n)
    _emit_integrate(report, args.fn, iv, args.format)
    return 0 if report.termination == "tolerance_met" else 3


def cmd_table(args: argparse.Namespace) -> int:
    n_list = _parse_n_list(args.n_list)
    reference, rows = table_rows(args.fn, n_list)
    if args.format != "text":
        _emit_records(args.format, rows, header={
            "fn": args.fn,
            "reference_value": reference.value,
            "reference_abs_err": reference.abs_err,
            "reference_method": reference.method,
        })
        return 0
    print(f"fn={args.fn}  reference={_full(reference.value)}  (abs err <= {reference.abs_err:.1e})")
    print(f"{'n':>6}  {'rem-':>12}  {'half-diff-':>12}  {'rem+':>12}  {'bound+':>12}")
    for r in rows:
        print(
            f"{r.n:>6}  {r.rem_minus:>12.3e}  {r.half_diff_minus:>12.3e}"
            f"  {r.rem_plus:>12.3e}  {r.bound_plus:>12.3e}"
        )
    return 0


def _render_scan(report: ScanReport, args: argparse.Namespace) -> None:
    c_part = "" if args.c is None else f"  c={args.c:g}"
    print(
        f"kernel={args.kernel}  n={args.n}{c_part}"
        f"  square=[{args.a:g}, {args.b:g}]^2  resolution={report.grid_resolution}"
    )
    print(f"expected sign: {report.expected_sign}")
    print(f"scale: {report.scale:.6e}  slack: {SCAN_SLACK_FACTOR * report.scale:.2e}")
    print(f"violations: {len(report.violations)}")
    if report.violations:
        t, tau, value = max(report.violations, key=lambda item: abs(item[2]))
        print(f"worst: value={value:.6e} at (t, tau)=({_full(t)}, {_full(tau)})")


def cmd_scan(args: argparse.Namespace) -> int:
    kind, expected = _SCAN_KINDS[args.kernel]
    if kind.startswith("phi"):
        if args.c is None:
            raise ValueError(f"--c is required for kernel {args.kernel}")
    elif args.c is not None:
        raise ValueError(f"--c does not apply to kernel {args.kernel}")
    resolution = 32 * args.n if args.resolution is None else args.resolution
    spec = KernelSpec(kind=kind, iv=Interval(args.a, args.b), n=args.n, c=args.c)
    report = definiteness_scan(spec, expected, resolution)
    _render_scan(report, args)
    return 0 if report.ok else 1


def _parse_n_list(raw: str) -> List[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--n-list must be comma-separated integers, got {raw!r}")
    if not values:
        raise ValueError(f"--n-list must name at least one level, got {raw!r}")
    return values


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapcube",
        description="One-sided product trapezoidal cubature with certified error bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_square(p: argparse.ArgumentParser) -> None:
        p.add_argument("--a", type=float, default=0.0, help="square lower corner (default 0)")
        p.add_argument("--b", type=float, default=1.0, help="square upper corner (default 1)")

    p_int = sub.add_parser("integrate", help="refine until the certified bound meets --tol")
    p_int.add_argument("--fn", required=True, choices=sorted(BUILTINS))
    p_int.add_argument("--rule", required=True, choices=("minus", "plus", "mean"))
    add_square(p_int)
    p_int.add_argument("--n0", type=int, default=4, help="starting level (default 4)")
    p_int.add_argument("--tol", type=float, required=True, help="target certified bound")
    p_int.add_argument("--max-n", type=int, default=1024, dest="max_n")
    p_int.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_int.set_defaults(handler=cmd_integrate)

    p_tab = sub.add_parser("table", help="remainders and bound columns on the unit square")
    p_tab.add_argument("--fn", required=True, choices=sorted(_TABLE_REFS))
    p_tab.add_argument("--n-list", default="4,8,16,32,64,128", dest="n_list")
    p_tab.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_tab.set_defaults(handler=cmd_table)

    p_scan = sub.add_parser("scan", help="grid-scan a kernel for its expected sign")
    p_scan.add_argument("--kernel", required=True, choices=sorted(_SCAN_KINDS))
    p_scan.add_argument("--n", type=int, required=True, help="rule level")
    p_scan.add_argument("--c", type=float, default=None, help="comparison constant (phi kernels only)")
    p_scan.add_argument(
        "--resolution", type=int, default=None,
        help="grid panels per axis (default 32*n; multiples of 4n resolve the cell structure)",
    )
    add_square(p_scan)
    p_scan.set_defaults(handler=cmd_scan)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except ConvergenceError as exc:
        print(f"error: trace integration did not converge: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
