"""Command-line interface: solve problem files, emit solution tables.

Exit codes: 0 success, 1 input error, 2 numerical failure.  A malformed
command line (argparse prints its usage on stderr) and a size too large to
allocate are input errors.  main(argv) returns the code and never exits.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import exprlang
from .expansion import ExpansionError
from .exprlang import ExprEvalError, ExprSyntaxError
from .linalg import SingularMatrixError
from .problem import Problem, ProblemError, load
from .solver import SolveError, hybrid_solve

__all__ = ["main", "entry", "emit_csv", "emit_text_table"]


def _fmt(v: float) -> str:
    """14 significant digits, matching the precision of the printed tables.

    Magnitudes below 1e-15 are chopped to 0; they sit beneath the precision
    the tables carry and would otherwise print as rounding noise.
    """
    if abs(v) < 1e-15:
        return "0"
    return f"{v:.14g}"


def _meta_line(problem: Problem) -> str:
    bp = "uniform" if problem.breakpoints is None else "explicit"
    return f"# n={problem.n} r={problem.r} K={problem.K} M={problem.M} breakpoints={bp}"


def _exact_values(problem: Problem, ts) -> np.ndarray | None:
    if problem.output.exact is None:
        return None
    try:  # one row per t, in row-major order: a failure names the first failing t, then column
        values = exprlang.as_function(problem.output.exact)(np.asarray(ts, dtype=float)).T
    except ExprEvalError as exc:
        raise ProblemError(f"[output].exact: {exc}") from exc
    bad = np.argwhere(~np.isfinite(values))  # row-major, like the point-by-point order
    if bad.size:
        row, col = bad[0]
        raise ProblemError(
            f"[output].exact[{col}]: non-finite value {values[row, col]} at t={ts[row]}"
        )
    return values


def emit_csv(ts, values: np.ndarray, exact: np.ndarray | None = None, meta: str = "") -> str:
    """Deterministic CSV: t,x1..xn and, when a reference is given, the
    reference columns plus the per-row max error."""
    return _render(_solution_cells(ts, values, exact), meta, ",")


def emit_text_table(ts, values: np.ndarray, exact: np.ndarray | None = None,
                    meta: str = "") -> str:
    """The cells of emit_csv, each right-aligned to its column's widest cell."""
    rows = _solution_cells(ts, values, exact)
    widths = [max(map(len, col)) for col in zip(*rows)]
    return _render([[c.rjust(w) for c, w in zip(row, widths)] for row in rows], meta, "  ")


def _solution_cells(ts, values: np.ndarray, exact: np.ndarray | None) -> list[list[str]]:
    n = values.shape[1]
    header = ["t"] + [f"x{i + 1}" for i in range(n)]
    cols = [ts, values]
    if exact is not None:
        header += [f"exact{i + 1}" for i in range(n)] + ["err_max"]
        cols += [exact, np.max(np.abs(values - exact), axis=1)]
    return _cells(header, cols)


def _cells(header: list[str], cols: list) -> list[list[str]]:
    """The header row, then a row of _fmt cells per time; cols are 1-D or one row per time."""
    return [header] + [list(map(_fmt, row)) for row in np.column_stack(cols).tolist()]


def _render(rows: list[list[str]], meta: str, sep: str) -> str:
    """The meta line (if any), then each row's cells joined by sep."""
    lines = [meta] if meta else []
    return "\n".join(lines + [sep.join(row) for row in rows]) + "\n"


def _solve_problem(problem: Problem):
    sol = hybrid_solve(problem.system_spec(), problem.basis_config())
    ts = problem.output.resolve_points(problem.t0, problem.tf)
    values = sol.evaluate_many(ts)
    return ts, values


def _cmd_solve(args) -> int:
    problem = load(args.config).with_overrides(K=args.K, M=args.M, fmt=args.format)
    ts, values = _solve_problem(problem)
    exact = _exact_values(problem, ts)
    emit = emit_text_table if problem.output.fmt == "table" else emit_csv
    _write_output(emit(ts, values, exact, _meta_line(problem)), args.out)
    if exact is not None:  # only once the output exists
        err = float(np.max(np.abs(values - exact)))
        print(f"max error vs exact: {_fmt(err)}", file=sys.stderr)
    return 0


def _cmd_table(args) -> int:
    problem = load(args.config).with_overrides(K=args.K)
    try:
        m_list = [int(m) for m in args.M_list.split(",") if m.strip()]
    except ValueError as exc:
        raise ProblemError(f"--M-list: {exc}") from exc
    if not m_list:
        raise ProblemError("--M-list: need at least one M value")
    ts = problem.output.resolve_points(problem.t0, problem.tf)
    exact = _exact_values(problem, ts)
    runs = [_solve_problem(problem.with_overrides(M=m))[1] for m in m_list]

    header, cols = ["t"], [ts]
    for c in range(problem.n):
        if exact is not None:
            header.append(f"x{c + 1}_exact")
            cols.append(exact[:, c])
        header += [f"x{c + 1}_M{m}" for m in m_list]
        cols += [values[:, c] for values in runs]
    meta = f"{_meta_line(problem)} M_list={','.join(str(m) for m in m_list)}"
    _write_output(_render(_cells(header, cols), meta, ","), args.out)
    return 0


def _write_output(text: str, out: str | None):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ProblemError(f"cannot write {out}: {exc}") from exc


_SHARED = argparse.ArgumentParser(add_help=False)  # the options of both commands
_SHARED.add_argument("--config", required=True, help="problem file to solve")
_SHARED.add_argument("--K", type=int, help="override block count")
_SHARED.add_argument("--out", help="write output here instead of stdout")
_PARSER = argparse.ArgumentParser(  # built once: parse_args leaves it unchanged
    prog="bpcheb",
    description="Solve linear integrodifferential initial-value systems "
    "on a hybrid block-pulse/Chebyshev basis.",
)
_COMMANDS = _PARSER.add_subparsers(dest="command", required=True)
_SOLVE = _COMMANDS.add_parser("solve", parents=[_SHARED],
                              help="solve a problem file and print the solution")
_SOLVE.add_argument("--M", type=int, help="override polynomial count")
_SOLVE.add_argument("--format", choices=("csv", "table"), help="override the output format")
_TABLE = _COMMANDS.add_parser("table", parents=[_SHARED],
                              help="compare several M values (and the exact solution, if given)")
_TABLE.add_argument("--M-list", required=True, dest="M_list",
                    help="comma-separated M values, e.g. 5,7,9")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help (code 0) or a usage error
        return 0 if not exc.code else 1
    try:
        return (_cmd_solve if args.command == "solve" else _cmd_table)(args)
    except (ProblemError, ExprSyntaxError, ExprEvalError, ExpansionError, ValueError,
            MemoryError) as exc:
        print(f"bpcheb: input error: {exc}", file=sys.stderr)
        return 1
    except (SingularMatrixError, SolveError) as exc:
        print(f"bpcheb: numerical failure: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
