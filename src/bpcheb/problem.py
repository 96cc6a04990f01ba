"""Problem description files: parse, validate, serialize.

A problem file is line-oriented `key = value` under three section headers.
Values are numbers, bare words, or JSON-style bracketed lists; matrix grids
are row-major lists of quoted expression strings.

    # integrodifferential system with a quadratic/cubic solution
    [system]
    n = 2
    r = 1
    t0 = 0
    tf = 1
    x0 = [0, 0]
    A = [["t^2+1", "-t"], ["0", "1"]]
    N = [["s", "3"], ["3*t^2", "0"]]      # optional; s is the inner variable
    B = [["-(t-1)^2"], ["2*t^2-t^3"]]
    u = ["1"]

    [solve]
    K = 3
    M = 4
    breakpoints = uniform                 # or K+1 values from exactly t0 to exactly tf

    [output]
    points = [0, 0.5, 1]                  # or: eval_points = 101
    exact = ["t^2", "t^3"]                # optional reference solution
    format = csv                          # csv | table

Only N entries may reference s.  All validation errors name the offending
section and key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import exprlang
from .basis import BasisConfig, Partition
from .exprlang import Expr, ExprSyntaxError
from .solver import SystemSpec

__all__ = ["Problem", "OutputSpec", "ProblemError", "load", "loads", "dumps"]


class ProblemError(Exception):
    """Invalid problem file; message carries section/key context."""


@dataclass(frozen=True)
class OutputSpec:
    """What to evaluate and how to print it."""

    points: tuple[float, ...] | None = None
    eval_points: int | None = None
    exact: tuple[Expr, ...] | None = None
    fmt: str = "csv"

    def resolve_points(self, t0: float, tf: float) -> tuple[float, ...]:
        if self.points is not None:
            return self.points
        count = self.eval_points if self.eval_points is not None else 11
        return tuple(np.linspace(t0, tf, count))


@dataclass(frozen=True)
class Problem:
    """A fully validated problem: system data as expression grids."""

    n: int
    r: int
    t0: float
    tf: float
    x0: tuple[float, ...]
    A: tuple[tuple[Expr, ...], ...] | None
    N: tuple[tuple[Expr, ...], ...] | None
    B: tuple[tuple[Expr, ...], ...] | None
    u: tuple[Expr, ...] | None
    K: int
    M: int
    breakpoints: tuple[float, ...] | None  # None means uniform
    output: OutputSpec

    def basis_config(self) -> BasisConfig:
        if self.breakpoints is None:
            return BasisConfig.uniform(self.t0, self.tf, self.K, self.M)
        return BasisConfig(Partition(self.breakpoints), self.M)

    def system_spec(self) -> SystemSpec:
        """The system with every datum one exprlang.as_function of its whole
        grid of parsed expressions: A and B of t, N of (t, s), u of t."""
        return SystemSpec(
            n=self.n,
            r=self.r,
            t0=self.t0,
            tf=self.tf,
            x0=np.array(self.x0),
            A=None if self.A is None else exprlang.as_function(self.A),
            B=None if self.B is None else exprlang.as_function(self.B),
            N=None if self.N is None else exprlang.as_function(self.N),
            u=None if self.u is None else exprlang.as_function(self.u),
        )

    def with_overrides(self, K: int | None = None, M: int | None = None,
                       fmt: str | None = None) -> "Problem":
        out = self
        if K is not None and K != self.K:
            if self.breakpoints is not None:
                raise ProblemError(
                    "--K cannot override a file with explicit breakpoints"
                )
            out = replace(out, K=K)
        if M is not None:
            out = replace(out, M=M)
        if fmt is not None:
            out = replace(out, output=replace(out.output, fmt=fmt))
        return out


def _parse_sections(text: str, name: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in ("system", "solve", "output"):
                raise ProblemError(f"{name}:{lineno}: unknown section [{current}]")
            if current in sections:
                raise ProblemError(f"{name}:{lineno}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if current is None:
            raise ProblemError(f"{name}:{lineno}: key outside any [section]")
        if "=" not in line:
            raise ProblemError(f"{name}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in sections[current]:
            raise ProblemError(f"{name}:{lineno}: duplicate key [{current}].{key}")
        sections[current][key] = value
    return sections


def _json_value(raw: str, where: str):
    try:
        return json.loads(raw)
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
        raise ProblemError(f"{where}: malformed list ({exc})") from exc


def _int_value(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ProblemError(f"{where}: expected an integer, got {raw!r}") from exc


def _float_value(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ProblemError(f"{where}: expected a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ProblemError(f"{where}: expected a finite number, got {raw!r}")
    return value


def _parse_expr(src, where: str, allow_s: bool) -> Expr:
    if not isinstance(src, str):
        raise ProblemError(f"{where}: expressions must be quoted strings, got {src!r}")
    try:
        e = exprlang.parse(src)
    except ExprSyntaxError as exc:
        raise ProblemError(f"{where}: {exc}") from exc
    if not allow_s and "s" in exprlang.variables(e):
        raise ProblemError(f"{where}: the inner variable s is only allowed in N entries")
    return e


def _expr_grid(raw: str, where: str, rows: int, cols: int, allow_s: bool):
    value = _json_value(raw, where)
    if not isinstance(value, list) or len(value) != rows or any(
        not isinstance(row, list) or len(row) != cols for row in value
    ):
        raise ProblemError(f"{where}: expected a {rows}x{cols} grid of expressions")
    return tuple(
        tuple(
            _parse_expr(cell, f"{where}[{i}][{j}]", allow_s)
            for j, cell in enumerate(row)
        )
        for i, row in enumerate(value)
    )


def _expr_list(raw: str, where: str, count: int, allow_s: bool):
    value = _json_value(raw, where)
    if not isinstance(value, list) or len(value) != count:
        raise ProblemError(f"{where}: expected a list of {count} expressions")
    return tuple(
        _parse_expr(cell, f"{where}[{i}]", allow_s) for i, cell in enumerate(value)
    )


def _number_list(raw: str, where: str) -> tuple[float, ...]:
    value = _json_value(raw, where)
    if not isinstance(value, list) or not all(type(v) in (int, float) for v in value):  # no bool
        raise ProblemError(f"{where}: expected a list of numbers")
    try:
        floats = tuple(map(float, value))
    except OverflowError:  # an integer too large for a float
        floats = (math.inf,)
    if not all(map(math.isfinite, floats)):
        raise ProblemError(f"{where}: values must be finite numbers, got {raw}")
    return floats


def loads(text: str, name: str = "<string>") -> Problem:
    """Parse and validate a problem from text."""
    sections = _parse_sections(text, name)
    for required in ("system", "solve"):
        if required not in sections:
            raise ProblemError(f"{name}: missing [{required}] section")
    system = dict(sections["system"])
    solve_sec = dict(sections["solve"])
    output_sec = dict(sections.get("output", {}))

    def take(table: dict, section: str, key: str) -> str:
        if key not in table:
            raise ProblemError(f"[{section}].{key} is required")
        return table.pop(key)

    n = _int_value(take(system, "system", "n"), "[system].n")
    r = _int_value(take(system, "system", "r"), "[system].r")
    t0 = _float_value(take(system, "system", "t0"), "[system].t0")
    tf = _float_value(take(system, "system", "tf"), "[system].tf")
    if n < 1 or r < 1:
        raise ProblemError(f"[system]: n and r must be positive, got n={n}, r={r}")
    if not tf > t0:
        raise ProblemError(f"[system]: need tf > t0, got t0={t0}, tf={tf}")
    x0 = _number_list(take(system, "system", "x0"), "[system].x0")
    if len(x0) != n:
        raise ProblemError(f"[system].x0: has {len(x0)} entries, expected n={n}")

    # an optional key is absent only when it is not written: an empty value reaches its parser
    raw_a, raw_n, raw_b, raw_u = (system.pop(key, None) for key in ("A", "N", "B", "u"))
    a_grid = None if raw_a is None else _expr_grid(raw_a, "[system].A", n, n, allow_s=False)
    n_grid = None if raw_n is None else _expr_grid(raw_n, "[system].N", n, n, allow_s=True)
    b_grid = None if raw_b is None else _expr_grid(raw_b, "[system].B", n, r, allow_s=False)
    u_list = None if raw_u is None else _expr_list(raw_u, "[system].u", r, allow_s=False)
    if system:
        raise ProblemError(f"[system]: unknown keys {sorted(system)}")

    K = _int_value(take(solve_sec, "solve", "K"), "[solve].K")
    M = _int_value(take(solve_sec, "solve", "M"), "[solve].M")
    if K < 1 or M < 1:
        raise ProblemError(f"[solve]: K and M must be positive, got K={K}, M={M}")
    raw_bp = solve_sec.pop("breakpoints", None)
    breakpoints: tuple[float, ...] | None = None
    if raw_bp is not None and raw_bp != "uniform":
        breakpoints = _number_list(raw_bp, "[solve].breakpoints")
        if len(breakpoints) != K + 1:
            raise ProblemError(
                f"[solve].breakpoints: has {len(breakpoints)} values, expected K+1 = {K + 1}"
            )
        if any(b <= a for a, b in zip(breakpoints, breakpoints[1:])):
            raise ProblemError("[solve].breakpoints: must be strictly increasing")
        if (breakpoints[0], breakpoints[-1]) != (t0, tf):  # exactly, as assemble requires
            raise ProblemError(
                f"[solve].breakpoints: must span [t0, tf] = [{t0}, {tf}]"
            )
    if solve_sec:
        raise ProblemError(f"[solve]: unknown keys {sorted(solve_sec)}")

    raw_points, raw_count = output_sec.pop("points", None), output_sec.pop("eval_points", None)
    if raw_points is not None and raw_count is not None:
        raise ProblemError("[output]: give either points or eval_points, not both")
    points = None if raw_points is None else _number_list(raw_points, "[output].points")
    if points == ():
        raise ProblemError("[output].points: need at least one point")
    if points is not None and any(not t0 <= p <= tf for p in points):
        raise ProblemError(f"[output].points: values must lie in [{t0}, {tf}]")
    count = None if raw_count is None else _int_value(raw_count, "[output].eval_points")
    if count is not None and count < 2:
        raise ProblemError("[output].eval_points: need at least 2 points")
    raw_exact = output_sec.pop("exact", None)
    exact = None if raw_exact is None else _expr_list(raw_exact, "[output].exact", n, allow_s=False)
    fmt = output_sec.pop("format", "csv")
    if fmt not in ("csv", "table"):
        raise ProblemError(f"[output].format: must be csv or table, got {fmt!r}")
    if output_sec:
        raise ProblemError(f"[output]: unknown keys {sorted(output_sec)}")

    return Problem(
        n=n, r=r, t0=t0, tf=tf, x0=x0,
        A=a_grid, N=n_grid, B=b_grid, u=u_list,
        K=K, M=M, breakpoints=breakpoints,
        output=OutputSpec(points=points, eval_points=count, exact=exact, fmt=fmt),
    )


def load(path: str) -> Problem:
    """Read and validate a UTF-8 problem file, with or without a byte-order mark;
    a file that cannot be opened or decoded raises ProblemError naming the path."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:  # a leading BOM is dropped
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemError(f"cannot read {path}: {exc}") from exc
    return loads(text, name=path)


def dumps(p: Problem) -> str:
    """Serialize back to file syntax, t0, tf and every list (numbers, expression
    lists and grids) by json.dumps, the codec loads reads it with, which writes
    a float subclass such as np.float64 as a float; loads(dumps(p)) == p.
    An expression is written as its source text (exprlang.to_str)."""
    lines = ["[system]", f"n = {p.n}", f"r = {p.r}", f"t0 = {json.dumps(p.t0)}",
             f"tf = {json.dumps(p.tf)}", f"x0 = {json.dumps(p.x0)}"]
    for key, exprs in (("A", p.A), ("N", p.N), ("B", p.B), ("u", p.u)):
        if exprs is not None:
            lines.append(f"{key} = {json.dumps(exprs, default=exprlang.to_str)}")
    bp = "uniform" if p.breakpoints is None else json.dumps(p.breakpoints)
    lines += ["", "[solve]", f"K = {p.K}", f"M = {p.M}", f"breakpoints = {bp}", "", "[output]"]
    if p.output.points is not None:
        lines.append(f"points = {json.dumps(p.output.points)}")
    elif p.output.eval_points is not None:
        lines.append(f"eval_points = {p.output.eval_points}")
    if p.output.exact is not None:
        lines.append(f"exact = {json.dumps(p.output.exact, default=exprlang.to_str)}")
    lines.append(f"format = {p.output.fmt}")
    return "\n".join(lines) + "\n"
