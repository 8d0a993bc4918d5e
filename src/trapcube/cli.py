"""Command-line surface: certified integration, convergence tables, and
kernel sign scans.

Three subcommands:

``integrate``
    Run the refinement for a builtin integrand with one of the rules
    ('minus', 'plus', or their 'mean') until the certified a posteriori
    bound meets the tolerance: levels 4 and 8, then the pairs (m, 2m)
    the last bound predicts (4, then single predicted levels, for
    'mean').
    Exit code 0 on success, 3 when max-n is reached first (the report is
    still printed).

``table``
    Reproduce the convergence tables for the transcendental builtins on
    the unit square: true remainders against the series reference value
    next to the a posteriori bound columns.

``scan``
    Grid-scan one of the bivariate kernels for its expected sign on the
    unit square, whose verdict holds on every square since the kernels
    scale by width^4.  Exit code 0 when the scan is clean, 1 when
    violations are found, 2 when the level or the resolution is above
    65536 (refused before any array is built).

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

from .adaptive import RefinementReport, _pair_bound, refine, refine_mean
from .cubature import Integrand2D, _levels
from .kernels import SCAN_SLACK_FACTOR, KernelSpec, ScanReport, definiteness_scan
from .oracle import ReferenceValue, ref_exp_integral, ref_sin_integral
from .univariate import Interval

__all__ = ["BuiltinIntegrand", "BUILTINS", "table_rows", "main"]


@dataclass(frozen=True)
class BuiltinIntegrand:
    """A built-in integrand with prewired derivative sign and exact traces.

    The declared mixed-derivative sign is proven on the squares [a, b]^2
    where ``proven(a, b)`` holds, and ``condition`` states that test.
    ``trapcube integrate`` refuses other squares; library calls trust the
    declaration wherever they are made.  ``reference``, when given,
    returns the series value on the unit square that ``table`` measures
    remainders against.  Each integrand is symmetric in x and y, so one
    closed-form line integral ``g(c, iv)``, valid on any square, serves
    as both ``g_x`` and ``g_y`` of its exact traces.  The integrands are
    numpy expressions declared vectorized, so the grid pass evaluates
    them on blocks of rows.
    """

    integrand: Integrand2D
    proven: Callable[[float, float], bool]
    condition: str
    reference: Optional[Callable[[], ReferenceValue]] = None


# The differences exp(cb) - exp(ca) and cos(ca) - cos(cb) cancel as c
# approaches 0 (at c = 1e-81 both round to 0, where the exp integral is
# the width), so the line integrals use their product forms.

def _exp_line(c: float, iv: Interval) -> float:
    # Where c * width is subnormal or 0 (at c = 5e-324 it is 0), the
    # quotient below loses its digits, but exp(c t) is exp(c a) on all of iv.
    if abs(c * iv.width) < sys.float_info.min:
        return iv.width * math.exp(c * iv.a)
    return math.exp(c * iv.a) * math.expm1(c * iv.width) / c


def _sin_line(c: float, iv: Interval) -> float:
    if c == 0.0:
        return 0.0
    return 2.0 * math.sin(0.5 * c * (iv.a + iv.b)) * math.sin(0.5 * c * iv.width) / c


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


# Each built-in is g(u) with u = x y, so D22 = u^2 g''''(u) + 4u g'''(u)
# + 2 g''(u), and u spans [min(a*b, a*a, b*b), max(a*a, b*b)] on [a, b]^2.
BUILTINS: Dict[str, BuiltinIntegrand] = {
    "exp_xy": BuiltinIntegrand(
        integrand=Integrand2D(
            f=_exp_xy,
            d22_sign="nonnegative",
            exact_traces=(_exp_line, _exp_line),
            vectorized=True,
        ),
        # e^u (u^2 + 4u + 2) >= 0 for u >= sqrt(2) - 2 = -0.58579, and u >= min(a*b, 0).
        proven=lambda a, b: a * b >= -0.5857,
        condition="a*b >= -0.5857",
        reference=ref_exp_integral,
    ),
    "sin_xy": BuiltinIntegrand(
        integrand=Integrand2D(
            f=_sin_xy,
            d22_sign="nonpositive",
            exact_traces=(_sin_line, _sin_line),
            vectorized=True,
        ),
        # (u^2 - 2) sin u and -4u cos u are both <= 0 for u in [0, sqrt(2)], as sqrt(2) < pi/2.
        proven=lambda a, b: a * b >= 0 and max(a * a, b * b) <= 1.414,
        condition="a*b >= 0 and max(a*a, b*b) <= 1.414",
        reference=ref_sin_integral,
    ),
    "poly_x2y2": BuiltinIntegrand(
        integrand=Integrand2D(
            f=lambda x, y: (x * x) * (y * y),
            d22_sign="nonnegative",
            exact_traces=(_sq_line, _sq_line),
            vectorized=True,
        ),
        # D22 is the constant 4.
        proven=lambda a, b: True,
        condition="any square",
    ),
    "bilinear_xy": BuiltinIntegrand(
        integrand=Integrand2D(
            f=lambda x, y: x * y,
            d22_sign="nonnegative",
            exact_traces=(_bilinear_line, _bilinear_line),
            vectorized=True,
        ),
        # D22 is identically 0.
        proven=lambda a, b: True,
        condition="any square",
    ),
}


def _table_fns() -> Tuple[str, ...]:
    """The built-ins with a series reference, which ``table`` serves."""
    return tuple(sorted(fn_id for fn_id, b in BUILTINS.items() if b.reference is not None))


_SCAN_KINDS: Dict[str, str] = {
    "k22-minus": "k22_s_minus",
    "k22-plus": "k22_s_plus",
    "phi-minus": "phi_minus",
    "phi-plus": "phi_plus",
}


def _full(x: float) -> str:
    return format(x, ".17g")

def _sig4(x: Optional[float]) -> str:
    return "-" if x is None else format(x, ".3e")


#: Largest level a table row may name.  Each row also evaluates level 2n,
#: so the finest grid a table builds is level 2048.
_MAX_TABLE_LEVEL = 1024

#: Largest ``integrate --max-n``.  A tolerance the bounds cannot reach
#: sends the refinement straight to the pair (max-n/2, max-n).
_MAX_INTEGRATE_LEVEL = 16384

#: Largest ``scan --resolution`` and ``--n``.  A scan evaluates about
#: half of the (resolution + 1)^2 points: ``trapcube scan`` of phi_plus
#: took 1.4-1.6 s at resolution 16384 and 16 s at the cap, on a 2-vCPU
#: Xeon VM.
_MAX_SCAN_RESOLUTION = 65536


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
    the edge rule's pair bound from levels n and 2n.  Each distinct
    level's grid is evaluated once, for both rules.
    """
    builtin = BUILTINS.get(fn_id)
    if builtin is None or builtin.reference is None:
        raise ValueError(f"tables are defined for {_table_fns()}, got {fn_id!r}")
    if not n_list:
        raise ValueError("n-list must not be empty")
    F = builtin.integrand
    iv = Interval(0.0, 1.0)
    for n in n_list:
        if not 1 <= n <= _MAX_TABLE_LEVEL:
            raise ValueError(f"levels must be in 1..{_MAX_TABLE_LEVEL}, got {n}")
    reference = builtin.reference()
    ns = sorted(set(n_list) | {2 * n for n in n_list})
    level = _levels(F, iv)
    values = {n: level(n) for n in ns}
    minus = {n: value("s_minus").value for n, value in values.items()}
    plus = {n: value("s_plus").value for n, value in values.items()}
    rows = [
        TableRow(
            n=n,
            rem_minus=reference.value - minus[n],
            half_diff_minus=0.5 * _pair_bound("s_minus", n, minus[n], minus[2 * n]),
            rem_plus=reference.value - plus[n],
            bound_plus=_pair_bound("s_plus", n, plus[n], plus[2 * n]),
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
    print(f"{'n':>6}  {'estimate':>24}  {'diff':>10}  {'bound':>10}  {'budget':>10}")
    for lv in report.levels:
        print(
            f"{lv.n:>6}  {lv.estimate:>24.17g}  {_sig4(lv.diff_to_previous):>10}"
            f"  {_sig4(lv.aposteriori_bound):>10}  {_sig4(lv.trace_budget):>10}"
        )
    print(f"final value: {_full(report.final_value)}")
    print(f"certified bound: {report.final_bound:.6e}")
    print(f"termination: {report.termination}")


def cmd_integrate(args: argparse.Namespace) -> int:
    fn = BUILTINS[args.fn]
    if args.max_n > _MAX_INTEGRATE_LEVEL:
        raise ValueError(f"max-n must be at most {_MAX_INTEGRATE_LEVEL}, got {args.max_n}")
    iv = Interval(args.a, args.b)
    if not fn.proven(iv.a, iv.b):
        raise ValueError(
            f"the {fn.integrand.d22_sign} mixed derivative of {args.fn} is proven only on"
            f" squares [a, b]^2 with {fn.condition}; got [{iv.a:g}, {iv.b:g}]^2"
        )
    if args.rule == "mean":
        report = refine_mean(fn.integrand, iv, tol=args.tol, max_n=args.max_n)
    else:
        rule = "s_minus" if args.rule == "minus" else "s_plus"
        report = refine(fn.integrand, iv, rule, tol=args.tol, max_n=args.max_n)
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
        f"  square=[0, 1]^2  resolution={report.grid_resolution}"
    )
    print(f"expected sign: {report.expected_sign}")
    print(f"scale: {report.scale:.6e}  slack: {SCAN_SLACK_FACTOR * report.scale:.2e}")
    print(f"violations: {report.violations}")
    if report.worst is not None:
        t, tau, value = report.worst
        print(f"worst: value={value:.6e} at (t, tau)=({_full(t)}, {_full(tau)})")


def cmd_scan(args: argparse.Namespace) -> int:
    if args.n > _MAX_SCAN_RESOLUTION:
        raise ValueError(f"n must be at most {_MAX_SCAN_RESOLUTION}, got {args.n}")
    resolution = 32 * args.n if args.resolution is None else args.resolution
    if resolution > _MAX_SCAN_RESOLUTION:
        raise ValueError(f"resolution must be at most {_MAX_SCAN_RESOLUTION}, got {resolution}")
    spec = KernelSpec(_SCAN_KINDS[args.kernel], args.n, args.c)
    report = definiteness_scan(spec, resolution)
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

    p_int = sub.add_parser("integrate", help="refine until the certified bound meets --tol")
    p_int.add_argument("--fn", required=True, choices=sorted(BUILTINS))
    p_int.add_argument("--rule", required=True, choices=("minus", "plus", "mean"))
    p_int.add_argument("--a", type=float, default=0.0, help="square lower corner (default 0)")
    p_int.add_argument("--b", type=float, default=1.0, help="square upper corner (default 1)")
    p_int.add_argument("--tol", type=float, required=True, help="target certified bound")
    p_int.add_argument(
        "--max-n", type=int, default=1024, dest="max_n",
        help=f"largest level (default 1024, at most {_MAX_INTEGRATE_LEVEL})",
    )
    p_int.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_int.set_defaults(handler=cmd_integrate)

    p_tab = sub.add_parser("table", help="remainders and bound columns on the unit square")
    p_tab.add_argument("--fn", required=True, choices=_table_fns())
    p_tab.add_argument("--n-list", default="4,8,16,32,64,128", dest="n_list")
    p_tab.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_tab.set_defaults(handler=cmd_table)

    p_scan = sub.add_parser("scan", help="grid-scan a kernel for its expected sign on [0, 1]^2")
    p_scan.add_argument("--kernel", required=True, choices=sorted(_SCAN_KINDS))
    p_scan.add_argument(
        "--n", type=int, required=True, help=f"rule level (at most {_MAX_SCAN_RESOLUTION})"
    )
    p_scan.add_argument("--c", type=float, default=None, help="comparison constant (phi kernels only)")
    p_scan.add_argument(
        "--resolution", type=int, default=None,
        help=(
            f"grid panels per axis (default 32*n, at most {_MAX_SCAN_RESOLUTION};"
            " multiples of 4n resolve the cell structure)"
        ),
    )
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
