"""The benchmark's workloads.

Every workload builds its inputs from the seed, then offers

* setup(tmpdir, wrap): everything until the first op is ready (timed as
  set-up); `wrap(name, f)` wraps the user callables A, B, N and u;
* prepare_checks(): reference data for the checks (untimed); raises
  CheckFailed when the workload's own anchor check fails;
* op(j): one timed operation, returning its raw result;
* check(j, out): the op's largest error, raising CheckFailed when it is
  outside the tolerance (untimed);
* values(out): the solution values of a result, for the fixed-seed
  reference comparison.

All four use the exponential-decay system of tests/conftest.py (or, for
ode_fine_mesh, a kernel-free variant with the same exact solution), so
every op is checked against [exp(-t), 3 exp(-t)].
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from bpcheb import cli, solver
from bpcheb.basis import BasisConfig, Partition

# Absolute error allowed against the exact solution.  The discretization
# error at the sizes used is 1e-15..1e-14, so this only trips on real faults.
TOL = 1e-10
POOL = 16  # distinct seeded inputs per run; op j uses input j % POOL
N_POINTS = 101
JITTER = 0.3  # interior breakpoints move by up to +-JITTER/K

E1 = np.exp(-1.0)


class CheckFailed(Exception):
    """An op's result is outside the tolerance."""


def expdecay_A(t):
    return np.array([[1.0, t], [t, t**2 + 1.0]])


def expdecay_N(t, s):
    return np.array(
        [[3.0 * s**2, np.exp(-t) - s**2], [3.0 * t**2 + s * np.exp(-t), -(t**2)]]
    )


def expdecay_B(t):
    return np.array([[3.0 * E1 - 5.0 - 3.0 * t], [2.0 * E1 - 7.0 - t - 3.0 * t**2]])


def manufactured_B(t):
    """Forcing that gives [exp(-t), 3 exp(-t)] with the exp-decay A and no kernel."""
    return np.array([[-2.0 - 3.0 * t], [-6.0 - t - 3.0 * t**2]])


def decay_u(t):
    return np.array([np.exp(-t)])


def exact(ts) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    return np.stack([np.exp(-ts), 3.0 * np.exp(-ts)], axis=1)


def max_err(out, expected) -> float:
    out = np.asarray(out, dtype=float)
    if out.shape != expected.shape:
        raise CheckFailed(f"result has shape {out.shape}, expected {expected.shape}")
    err = float(np.max(np.abs(out - expected)))
    if not err <= TOL:
        raise CheckFailed(f"max error {err:.3e} exceeds {TOL:.0e}")
    return err


def jittered(rng, K: int) -> tuple[float, ...]:
    bp = np.arange(K + 1) / K
    bp[1:-1] += rng.uniform(-JITTER, JITTER, K - 1) / K
    return tuple(float(b) for b in bp)


def eval_points(rng) -> np.ndarray:
    return np.sort(rng.uniform(0.0, 1.0, N_POINTS))


def _plain(name, f):
    return f


class SolveWorkload:
    """One op is hybrid_solve on a fresh jittered partition, then
    evaluate_many at 101 seeded points."""

    def __init__(self, seed: int, K: int, M: int, kernel: bool):
        self.seed, self.K, self.M, self.kernel = seed, K, M, kernel

    def setup(self, tmpdir: Path, wrap=_plain):
        rng = np.random.default_rng(self.seed)
        self.spec = solver.SystemSpec(
            n=2, r=1, t0=0.0, tf=1.0, x0=[1.0, 3.0],
            A=wrap("A", expdecay_A),
            N=wrap("N", expdecay_N) if self.kernel else None,
            B=wrap("B", expdecay_B if self.kernel else manufactured_B),
            u=wrap("u", decay_u),
        )
        self.inputs = [
            (BasisConfig(Partition(jittered(rng, self.K)), self.M), eval_points(rng))
            for _ in range(POOL)
        ]

    def prepare_checks(self):
        self.expected = [exact(ts) for _, ts in self.inputs]

    def op(self, j: int):
        cfg, ts = self.inputs[j % POOL]
        return solver.hybrid_solve(self.spec, cfg).evaluate_many(ts)

    def check(self, j: int, out) -> float:
        return max_err(out, self.expected[j % POOL])

    def values(self, out) -> np.ndarray:
        return np.asarray(out, dtype=float)


class ControlSweep:
    """Many controls, one LU: set-up assembles and factors once; one op is
    solve(asm, u_j) then evaluate_many, for u_j = a0 + a1 sin(w t) + a2 exp(-t).

    Checked by superposition: x[u_j] = x[0] + a0 (x[1] - x[0])
    + a1 (x[sin] - x[0]) + a2 (exact - x[0]), with x[0], x[1], x[sin] solved
    in prepare_checks and the exp(-t) response replaced by the exact solution.
    """

    def __init__(self, seed: int, K: int, M: int):
        self.seed, self.K, self.M = seed, K, M

    def setup(self, tmpdir: Path, wrap=_plain):
        rng = np.random.default_rng(self.seed)
        cfg = BasisConfig(Partition(jittered(rng, self.K)), self.M)
        self.ts = eval_points(rng)
        self.omega = float(rng.uniform(1.0, 4.0))
        self.coeffs = rng.uniform(-1.0, 1.0, (POOL, 3))
        self.controls = [wrap("u", self._control(*a)) for a in self.coeffs]
        spec = solver.SystemSpec(
            n=2, r=1, t0=0.0, tf=1.0, x0=[1.0, 3.0],
            A=wrap("A", expdecay_A), N=wrap("N", expdecay_N), B=wrap("B", expdecay_B),
        )
        self.asm = solver.assemble(spec, cfg)
        self.free = solver.solve(self.asm, None)  # the first factorization

    def _control(self, a0, a1, a2):
        w = self.omega
        return lambda t: np.array([a0 + a1 * np.sin(w * t) + a2 * np.exp(-t)])

    def prepare_checks(self):
        free = self.free.evaluate_many(self.ts)
        respond = lambda u: solver.solve(self.asm, u).evaluate_many(self.ts) - free  # noqa: E731
        one = respond(lambda t: np.array([1.0]))
        sine = respond(lambda t: np.array([np.sin(self.omega * t)]))
        decay = exact(self.ts) - free
        self.expected = [free + a0 * one + a1 * sine + a2 * decay for a0, a1, a2 in self.coeffs]
        max_err(respond(decay_u) + free, exact(self.ts))  # the u = exp(-t) anchor

    def op(self, j: int):
        return solver.solve(self.asm, self.controls[j % POOL]).evaluate_many(self.ts)

    def check(self, j: int, out) -> float:
        return max_err(out, self.expected[j % POOL])

    def values(self, out) -> np.ndarray:
        return np.asarray(out, dtype=float)


PROB_TEMPLATE = """\
# exponential-decay system; exact solution [exp(-t), 3*exp(-t)]
[system]
n = 2
r = 1
t0 = 0
tf = 1
x0 = [1, 3]
A = [["1", "t"], ["t", "t^2+1"]]
N = [["3*s^2", "exp(-t)-s^2"], ["3*t^2+s*exp(-t)", "-t^2"]]
B = [["3*exp(-1)-5-3*t"], ["2*exp(-1)-7-t-3*t^2"]]
u = ["exp(-t)"]

[solve]
K = {K}
M = {M}
breakpoints = {breakpoints}

[output]
points = {points}
exact = ["exp(-t)", "3*exp(-t)"]
format = csv
"""

CSV_HEADER = ["t", "x1", "x2", "exact1", "exact2", "err_max"]


def parse_csv(text: str) -> np.ndarray:
    """Rows of `bpcheb solve` CSV output as an array with CSV_HEADER columns."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines or lines[0].split(",") != CSV_HEADER:
        raise CheckFailed(f"unexpected CSV header {lines[:1]}")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


class CliProb:
    """One op is an in-process `bpcheb solve --config <seeded .prob> --out <file>`."""

    def __init__(self, seed: int, K: int, M: int):
        self.seed, self.K, self.M = seed, K, M

    def setup(self, tmpdir: Path, wrap=_plain):
        # the CLI builds its own callables; the tracer counts them at hybrid_solve
        rng = np.random.default_rng(self.seed)
        self.inputs = []
        for i in range(POOL):
            ts = eval_points(rng)
            path = tmpdir / f"cli_prob_{i}.prob"
            path.write_text(PROB_TEMPLATE.format(
                K=self.K, M=self.M,
                breakpoints=json.dumps(jittered(rng, self.K)),
                points=json.dumps(ts.tolist()),
            ))
            self.inputs.append((path, ts))
        self.out = tmpdir / "cli_prob_out.csv"

    def prepare_checks(self):
        self.expected = [exact(ts) for _, ts in self.inputs]

    def op(self, j: int):
        path, _ = self.inputs[j % POOL]
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["solve", "--config", str(path), "--out", str(self.out)])
        if code != 0:
            raise RuntimeError(f"bpcheb solve exited with code {code}")
        return self.out.read_text()

    def check(self, j: int, out) -> float:
        rows = parse_csv(out)
        _, ts = self.inputs[j % POOL]
        if rows.shape[0] != len(ts) or np.max(np.abs(rows[:, 0] - ts)) > 1e-12:
            raise CheckFailed("output rows do not match the requested points")
        if not np.max(rows[:, 5]) <= TOL:
            raise CheckFailed(f"err_max column reaches {np.max(rows[:, 5]):.3e}")
        return max_err(rows[:, 1:3], self.expected[j % POOL])

    def values(self, out) -> np.ndarray:
        return parse_csv(out)[:, 1:3]


def make(name: str, seed: int, smoke: bool = False):
    """The named workload at its benchmark size, or at smoke size (K=2)."""
    K = 2 if smoke else None
    if name == "fredholm_solve":
        return SolveWorkload(seed, K or 8, 12, kernel=True)
    if name == "ode_fine_mesh":
        return SolveWorkload(seed, K or 64, 16, kernel=False)
    if name == "control_sweep":
        return ControlSweep(seed, K or 16, 12)
    if name == "cli_prob":
        return CliProb(seed, K or 8, 12)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fredholm_solve", "ode_fine_mesh", "control_sweep", "cli_prob")
