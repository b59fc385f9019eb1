"""Command-line front end.

Five commands — eval, diff, integrate, qline, verify — share one output
pipeline: every command materializes its full row list first, then renders
it as CSV (default) or JSON. Nothing is written until the computation has
succeeded, so a failing run never leaves a partial table behind.

Numbers are printed in fixed 17-significant-digit scientific notation,
which round-trips every binary64 value and is byte-identical across
platforms. Non-finite values print as ``nan``/``inf``/``-inf`` (quoted in
JSON, since JSON has no literals for them).

Exit codes: 0 success, 1 evaluation/domain error, 2 parse or usage error
(parse messages carry the UTF-8 byte offset) or an --out path that cannot
be written, 3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import warnings
from collections.abc import Sequence

from .errors import ParseError, QcalcError
from .qcore import DERIV_REL_TOL, QUAD_ABS_TOL, QUAD_REL_TOL, Deformation

# Each command imports the layers it runs, and only JSON output imports
# json: a call loads the code it runs and little else.

__all__ = ["format_float", "main"]

# The largest grid a command builds. Rows are kept until the table is
# written: at this size eval peaks near 0.3 GB in CSV and 0.6 GB in JSON.
MAX_POINTS = 1_000_000

_EPILOG = """\
expression grammar:
  expr    := term (('+' | '-') term)*
  term    := factor (('*' | '/') factor)*
  factor  := '-'? primary ('^' factor)?    ('^' binds tighter than unary '-')
  primary := NUMBER | 'x' | NAME '(' expr ')' | '(' expr ')'
  NAME    := ln | exp | sin | cos | sqrt | abs | qexp | qlog
  NUMBER  := decimal literal, optional exponent (1, 0.5, 2e-3)

qexp/qlog are the deformed exponential and logarithm at the --q in effect.
Parse errors report the UTF-8 byte offset of the offending token.

exit codes:
  0  success
  1  evaluation/domain error
  2  parse or usage error, or an --out path that cannot be written
  3  verification failure
"""


def format_float(v: float) -> str:
    """Fixed 17-significant-digit scientific notation; exact round trip."""
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0.0 else "-inf"
    return format(v, ".16e")


# ---------------------------------------------------------------------------
# Table rendering
# ---------------------------------------------------------------------------


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, int):
        return str(v)
    return v


def _json_scalar(v) -> str:
    import json

    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isfinite(v):
            return format_float(v)
        return json.dumps(format_float(v))
    if isinstance(v, int):
        return str(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_scalar(item) for item in v) + "]"
    return json.dumps(v)


def _render(meta: dict, header: list[str], rows: list[tuple], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"
    import json

    meta_body = ", ".join(
        f"{json.dumps(k)}: {_json_scalar(v)}" for k, v in meta.items()
    )
    row_lines = []
    for row in rows:
        cells = ", ".join(
            f"{json.dumps(h)}: {_json_scalar(v)}" for h, v in zip(header, row)
        )
        row_lines.append("    {" + cells + "}")
    body = ",\n".join(row_lines)
    rows_block = "[\n" + body + "\n  ]" if row_lines else "[]"
    return '{\n  "meta": {' + meta_body + '},\n  "rows": ' + rows_block + "\n}\n"


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads every negative number float() takes as a value.

    argparse's own rule takes ``-1e-05`` for an option name, since it only
    recognizes negative numbers without an exponent; ``-inf`` and ``-nan``
    are read as values too, so that ``_finite`` rejects them by name.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
        )


def _finite(text: str) -> float:
    """argparse type: a finite float (nan and inf are usage errors)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _positive(text: str) -> float:
    """argparse type: a finite float greater than zero (for tolerances)."""
    value = _finite(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be greater than zero, got {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser, *, need_q: bool) -> None:
    p.add_argument(
        "--q",
        type=_finite,
        required=need_q,
        help="deformation parameter q"
        + ("" if need_q else " (restricts the sweep to this one value)"),
    )
    p.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="output format (default csv)",
    )
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the table here instead of stdout")
    # _validate reports its usage errors with this subcommand's usage line
    p.set_defaults(command_parser=p)


def _add_grid(p: argparse.ArgumentParser) -> None:
    p.add_argument("--from", dest="x_from", type=_finite, default=None,
                   metavar="X0", help="grid start")
    p.add_argument("--to", dest="x_to", type=_finite, default=None,
                   metavar="X1", help="grid end")
    p.add_argument("--points", type=int, default=None, metavar="N",
                   help="grid size (>= 2)")
    p.set_defaults(grid=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcalc",
        description="Deformed calculus toolkit: q-exponential/q-logarithm "
        "evaluation, primal/dual q-derivatives and q-integrals, q-lines, "
        "and a self-verification battery.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("eval", help="evaluate an expression over a grid")
    p.add_argument("expr", help="expression (see grammar in 'qcalc --help')")
    _add_common(p, need_q=True)
    _add_grid(p)

    p = sub.add_parser("diff", help="q-derivative of an expression over a grid")
    p.add_argument("expr")
    p.add_argument("mode", choices=("primal", "dual"))
    p.add_argument("method", choices=("numeric", "closed"))
    _add_common(p, need_q=True)
    _add_grid(p)
    p.add_argument("--rel-tol", type=_positive, default=DERIV_REL_TOL,
                   metavar="TOL",
                   help="numeric derivative relative tolerance (default %(default)s)")

    p = sub.add_parser("integrate", help="q-integral of an expression")
    p.add_argument("expr")
    p.add_argument(
        "mode", choices=("primal", "dual", "borges-dual"),
        help="borges-dual is the flawed value-side form kept as a negative "
        "control; it reports error_estimate 0.0 (no estimate defined)",
    )
    p.add_argument("x_lo", type=_finite)
    p.add_argument("x_hi", type=_finite)
    _add_common(p, need_q=True)
    p.add_argument("--abs-tol", type=_positive, default=QUAD_ABS_TOL,
                   metavar="TOL", help="absolute tolerance (default %(default)s)")
    p.add_argument("--rel-tol", type=_positive, default=QUAD_REL_TOL,
                   metavar="TOL", help="relative tolerance (default %(default)s)")
    p.add_argument(
        "--singularity", choices=("error", "reflect"), default="error",
        help="pole crossing policy for primal integrals (default error)",
    )

    p = sub.add_parser(
        "qline", help="q-line parameters (secant/tangent), optionally sampled"
    )
    p.add_argument("expr")
    p.add_argument("mode", choices=("primal", "dual"))
    p.add_argument("kind", choices=("secant", "tangent"))
    p.add_argument(
        "anchors", type=_finite, nargs="+", metavar="X",
        help="secant: X_I X_J; tangent: X0",
    )
    _add_common(p, need_q=True)
    _add_grid(p)

    p = sub.add_parser("verify", help="run the invariant battery")
    _add_common(p, need_q=False)
    p.add_argument("--inject-fault", action="store_true",
                   help=argparse.SUPPRESS)

    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Cross-option checks argparse cannot express; ``parser`` is the
    subcommand's, so a usage error shows that command's usage line."""
    if not hasattr(args, "x_from"):
        return
    given = [args.x_from is not None, args.x_to is not None,
             args.points is not None]
    if any(given) and not all(given):
        parser.error("--from, --to and --points must be given together")
    if all(given):
        if args.points < 2:
            parser.error("--points must be at least 2")
        if args.points > MAX_POINTS:
            parser.error(f"--points must be at most {MAX_POINTS}")
        if not args.x_from < args.x_to:
            parser.error("--from must be strictly less than --to")
        args.grid = _grid_points(args)
        if not all(map(math.isfinite, args.grid)):
            parser.error("the grid from --from to --to overflows to a non-finite point")
    elif args.command in ("eval", "diff"):
        parser.error(f"{args.command} requires --from, --to and --points")
    if args.command == "qline":
        want = 2 if args.kind == "secant" else 1
        if len(args.anchors) != want:
            parser.error(
                f"{args.kind} takes exactly {want} anchor value(s), "
                f"got {len(args.anchors)}"
            )


def _grid_points(args: argparse.Namespace) -> list[float]:
    n = args.points
    lo, hi = args.x_from, args.x_to
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    xs[-1] = hi
    return xs


def _base_meta(args: argparse.Namespace, **settings) -> dict:
    """The meta leading keys: command, q, the settings the command read, format."""
    return {"command": args.command, "q": args.q, **settings, "format": args.format}


def _flags_cell(flags) -> str:
    return "|".join(sorted(flag.value for flag in flags))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_eval(args: argparse.Namespace) -> str:
    from . import funcexpr

    d = Deformation(args.q)
    ast = funcexpr.parse(args.expr, d)
    rows = []
    for x in args.grid:
        ev = funcexpr.evaluate_extended(ast, x)
        rows.append((x, ev.value, _flags_cell(ev.flags)))
    meta = _base_meta(args)
    meta.update(expr=args.expr, x_from=args.x_from, x_to=args.x_to,
                points=args.points)
    return _render(meta, ["x", "value", "flags"], rows, args.format)


def _cmd_diff(args: argparse.Namespace) -> str:
    from . import funcexpr
    from .qdiff import (
        DerivConfig,
        dual_qderiv_closed,
        dual_qderiv_numeric_with_estimate,
        primal_qderiv_closed,
        primal_qderiv_numeric_with_estimate,
    )

    d = Deformation(args.q)
    fn = funcexpr.compile(funcexpr.parse(args.expr, d))
    dcfg = DerivConfig(rel_tol=args.rel_tol)
    rows = []
    for x in args.grid:
        if args.method == "closed":
            if args.mode == "primal":
                value = primal_qderiv_closed(fn, x, d)
            else:
                value = dual_qderiv_closed(fn, x, d)
            err = 0.0
        elif args.mode == "primal":
            value, err = primal_qderiv_numeric_with_estimate(fn, x, d, dcfg)
        else:
            value, err = dual_qderiv_numeric_with_estimate(fn, x, d, dcfg)
        rows.append((x, value, err))
    meta = _base_meta(args, rel_tol=dcfg.rel_tol)
    meta.update(expr=args.expr, mode=args.mode, method=args.method,
                x_from=args.x_from, x_to=args.x_to, points=args.points)
    return _render(meta, ["x", "derivative", "error_estimate"], rows,
                   args.format)


def _cmd_integrate(args: argparse.Namespace) -> str:
    from . import funcexpr
    from .qquad import QuadratureConfig, SingularityMode, borges_dual_qint, dual_qint, primal_qint

    d = Deformation(args.q)
    fn = funcexpr.compile(funcexpr.parse(args.expr, d))
    qcfg = QuadratureConfig(abs_tol=args.abs_tol, rel_tol=args.rel_tol,
                            singularity_mode=SingularityMode(args.singularity))
    if args.mode == "primal":
        res = primal_qint(fn, args.x_lo, args.x_hi, d, qcfg)
        row = (res.value, res.error_estimate, _flags_cell(res.flags))
    elif args.mode == "dual":
        res = dual_qint(fn, args.x_lo, args.x_hi, d, qcfg)
        row = (res.value, res.error_estimate, _flags_cell(res.flags))
    else:
        value = borges_dual_qint(fn, args.x_lo, args.x_hi, d, qcfg)
        row = (value, 0.0, "")
    meta = _base_meta(args, abs_tol=qcfg.abs_tol, rel_tol=qcfg.rel_tol,
                      singularity=qcfg.singularity_mode.value)
    meta.update(expr=args.expr, mode=args.mode, x_lo=args.x_lo,
                x_hi=args.x_hi)
    return _render(meta, ["value", "error_estimate", "flags"], [row],
                   args.format)


def _cmd_qline(args: argparse.Namespace) -> str:
    from . import funcexpr
    from .qgeom import (
        dual_qline_eval,
        dual_qline_through,
        dual_qtangent,
        primal_qline_eval,
        primal_qline_through,
        primal_qtangent,
    )

    d = Deformation(args.q)
    fn = funcexpr.compile(funcexpr.parse(args.expr, d))
    if args.mode == "primal":
        if args.kind == "secant":
            line = primal_qline_through(fn, args.anchors[0], args.anchors[1], d)
        else:
            line = primal_qtangent(fn, args.anchors[0], d)
        slope, intercept = line.k_q, line.c
        sample = lambda x: primal_qline_eval(line, x)  # noqa: E731
    else:
        if args.kind == "secant":
            line = dual_qline_through(fn, args.anchors[0], args.anchors[1], d)
        else:
            line = dual_qtangent(fn, args.anchors[0], d)
        slope, intercept = line.k_sup_q, line.intercept
        sample = lambda x: dual_qline_eval(line, x)  # noqa: E731
    rows = [("slope", None, slope), ("intercept", None, intercept)]
    if args.grid is not None:
        rows.extend(("curve", x, sample(x)) for x in args.grid)
    meta = _base_meta(args)
    meta.update(expr=args.expr, mode=args.mode, kind=args.kind,
                anchors=list(args.anchors), x_from=args.x_from,
                x_to=args.x_to, points=args.points)
    return _render(meta, ["field", "x", "value"], rows, args.format)


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    from . import verify

    q_values = None if args.q is None else [args.q]
    fault_sign = -1.0 if args.inject_fault else 1.0
    results = verify.run_battery(q_values, fault_sign)
    rows = [
        (r.name, r.max_residual, r.tolerance,
         "PASS" if r.passed else "FAIL", r.detail)
        for r in results
    ]
    all_passed = all(r.passed for r in results)
    rows.append(("OVERALL", None, None, "PASS" if all_passed else "FAIL", ""))
    meta = {
        "command": "verify",
        "q_values": list(verify.DEFAULT_Q_SWEEP) if q_values is None
        else q_values,
        "fault_injected": args.inject_fault,
        "format": args.format,
    }
    text = _render(
        meta, ["property", "max_residual", "tolerance", "status", "detail"],
        rows, args.format,
    )
    return text, 0 if all_passed else 3


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """warnings.showwarning for commands: the message alone, no source line."""
    print(f"qcalc: warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args.command_parser, args)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 0 if exc.code is None else 2

    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            if args.command == "eval":
                text, code = _cmd_eval(args), 0
            elif args.command == "diff":
                text, code = _cmd_diff(args), 0
            elif args.command == "integrate":
                text, code = _cmd_integrate(args), 0
            elif args.command == "qline":
                text, code = _cmd_qline(args), 0
            else:
                text, code = _cmd_verify(args)
    except ParseError as exc:
        print(f"qcalc: {exc}", file=sys.stderr)
        return 2
    except (QcalcError, ZeroDivisionError) as exc:
        print(f"qcalc: {exc}", file=sys.stderr)
        return 1
    except (OverflowError, ValueError) as exc:  # math's own errors, which name no input
        where = f'{args.command} "{args.expr}"' if hasattr(args, "expr") else args.command
        # exc.args[-1] drops the errno of "(34, 'Numerical result out of range')"
        detail = f"numeric overflow ({exc.args[-1]})" if isinstance(exc, OverflowError) else exc
        print(f"qcalc: {where}: {detail}", file=sys.stderr)
        return 1

    if args.out is None:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"qcalc: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code
