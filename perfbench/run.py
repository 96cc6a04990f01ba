"""bpcheb benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from src/.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it carries the details:
environment, set-up samples, failures, the largest error seen.

With --trace 0 the metrics are end to end: set-up time (median of
SETUP_SAMPLES fresh processes, from before `import bpcheb` until the first
op is ready), the 90th percentile of op latency, and peak RSS.
With --trace 1 the op loop runs half its time untraced and half with the
spans of spans.py installed, and the metrics are per layer, per op, plus
the untraced op latency median and the tracing overhead.  The median is
not an end-to-end metric because it has no stable value on a machine whose
speed switches between a fast and a slow regime (up to 1.75x apart, for
seconds to minutes): it lands in either regime depending on which held
most of the run, while the 90th percentile stays in the slow one.

Before the timed loop, outside any timing, every run checks that
`bpcheb solve` reproduces the goldens in perfbench/goldens byte for byte
and that the workload's first op at CHECK_SEED agrees with
perfbench/reference.json.  Both were captured with capture.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# One BLAS thread: steadier medians than two on a 2-CPU machine.  Must be
# set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens"
REFERENCE = HERE / "reference.json"

SETUP_SAMPLES = 5
CHECK_SEED = 804
REFERENCE_RTOL = 1e-13
# bpcheb solve arguments the goldens are captured with, by file suffix
GOLDEN_ARGS = {"": [], ".K8M12": ["--K", "8", "--M", "12"]}


def percentile(samples: list[float], pct: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


class OpStats:
    """Outcome of one op loop."""

    def __init__(self):
        self.latencies: list[float] = []  # successful ops only
        self.attempted = 0
        self.failures: list[str] = []
        self.max_err = 0.0

    @property
    def p50(self) -> float:
        return statistics.median(self.latencies) if self.latencies else float("nan")


def measure(wl, seconds: float, tracer=None) -> OpStats:
    """Closed loop: the next op starts when the previous one is checked."""
    stats = OpStats()
    deadline = perf_counter() + seconds
    while stats.attempted == 0 or perf_counter() < deadline:
        j = stats.attempted
        stats.attempted += 1
        if tracer is not None:
            tracer.phase, tracer.op = "op", j
        start = perf_counter()
        try:
            out = wl.op(j)
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.phase = "check"
            err = wl.check(j, out)
        except Exception as exc:  # an op that raises or fails its check is counted, not fatal
            stats.failures.append(f"op {j}: {type(exc).__name__}: {exc}")
            continue
        stats.latencies.append(elapsed)
        stats.max_err = max(stats.max_err, err)
    return stats


def setup_once(workload: str, seed: int, smoke: bool, tmpdir: Path) -> float:
    """Seconds from before `import bpcheb` until the first op is ready."""
    start = perf_counter()
    import workloads

    workloads.make(workload, seed, smoke).setup(tmpdir)
    return perf_counter() - start


def setup_samples(args) -> list[float]:
    """setup_once in SETUP_SAMPLES fresh interpreters, one after another."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def golden_failures(tmpdir: Path) -> list[str]:
    """`bpcheb solve` on problems/*.prob must match the goldens byte for byte."""
    import contextlib
    import io

    from bpcheb import cli

    failures = []
    problems = sorted((ROOT / "problems").glob("*.prob"))
    if not problems:
        failures.append("no problems/*.prob files")
    for prob in problems:
        for suffix, extra in GOLDEN_ARGS.items():
            golden = GOLDENS / f"{prob.stem}{suffix}.csv"
            out = tmpdir / "golden_out.csv"
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["solve", "--config", str(prob), "--out", str(out)] + extra)
            if code != 0:
                failures.append(f"bpcheb solve {prob.name} {extra} exited with {code}")
            elif not golden.is_file():
                failures.append(f"no golden {golden.name}")
            elif out.read_bytes() != golden.read_bytes():
                failures.append(f"bpcheb solve {prob.name} {extra} differs from {golden.name}")
    return failures


def reference_failure(workload: str, tmpdir: Path) -> str | None:
    """The first op at CHECK_SEED must agree with the stored values."""
    import numpy as np

    import workloads

    ref = np.array(json.loads(REFERENCE.read_text())[workload])
    wl = workloads.make(workload, CHECK_SEED)
    wl.setup(tmpdir)
    got = wl.values(wl.op(0))
    diff = float(np.max(np.abs(got - ref))) if got.shape == ref.shape else float("inf")
    bound = REFERENCE_RTOL * max(1.0, float(np.max(np.abs(ref))))
    if not diff <= bound:
        return f"seed {CHECK_SEED} op 0 differs from reference.json by {diff:.3e} > {bound:.3e}"
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def layer_metrics(tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-op means over the traced op phase, plus set-up-phase totals."""
    total, self_s = tracer.span_totals("op")
    setup_total, _ = tracer.span_totals("setup")

    def leaf(name):
        return tracer.leaves.get(("op", name), (0, 0.0))

    def calls(*names):
        return sum(tracer.counts.get(("op", n), 0) for n in names)

    op_dims = [d for phase, d in tracer.lu_dims if phase == "op"]
    per_op = {
        "kernel.fredholm_operator_s": (total["kernel.fredholm_operator"], "s"),
        "kernel.N_calls": (calls("N"), "count"),
        "linalg.kron_s": (total["linalg.kron"], "s"),
        "solver.system_matrix_s": (total["solver.system_matrix"], "s"),
        "linalg.lu_factor_s": (total["linalg.lu_factor"], "s"),
        "linalg.lu_flops": (sum(2.0 / 3.0 * d**3 for d in op_dims), "flop"),
        "linalg.lu_solve_s": (total["linalg.lu_solve"], "s"),
        "solver.solve_s": (total["solver.solve"], "s"),
        "solver.solve_self_s": (self_s["solver.solve"], "s"),
        "expansion.synthesize_s": (leaf("expansion.synthesize")[1], "s"),
        "expansion.synthesize_calls": (leaf("expansion.synthesize")[0], "count"),
        "solver.evaluate_many_s": (total["solver.evaluate_many"], "s"),
        "expansion.expand_s": (total["expansion.expand"], "s"),
        "expansion.data_calls": (calls("A", "B", "u"), "count"),
        "operational.build_p_s": (total["operational.build_p"], "s"),
        "solver.assemble_s": (total["solver.assemble"], "s"),
        "solver.assemble_self_s": (self_s["solver.assemble"], "s"),
        "exprlang.evaluate_calls": (leaf("exprlang.evaluate")[0], "count"),
        "exprlang.evaluate_s": (leaf("exprlang.evaluate")[1], "s"),
        "problem.load_s": (total["problem.load"], "s"),
        "cli.main_s": (total["cli.main"], "s"),
        "cli.main_self_s": (self_s["cli.main"], "s"),
    }
    metrics = {name: (value / n_ops, unit) for name, (value, unit) in per_op.items()}
    metrics["linalg.system_dim"] = (max((d for _, d in tracer.lu_dims), default=0), "rows")
    for name in ("kernel.fredholm_operator", "solver.assemble", "solver.system_matrix",
                 "linalg.lu_factor"):
        metrics[f"setup.{name}_s"] = (setup_total[name], "s")
    return metrics


def run(args, tmpdir: Path) -> tuple[dict, dict]:
    samples = [] if args.trace else setup_samples(args)
    import workloads

    problems = golden_failures(tmpdir)
    if not args.smoke:
        problems += filter(None, [reference_failure(args.workload, tmpdir)])

    wl = workloads.make(args.workload, args.seed, args.smoke)
    wl.setup(tmpdir)
    try:
        wl.prepare_checks()
    except workloads.CheckFailed as exc:
        problems.append(f"set-up check: {exc}")
    loop_s = args.seconds / 2 if args.trace else args.seconds
    stats = [measure(wl, loop_s)]
    del wl

    detail = {"workload": args.workload, "environment": environment(args.seed),
              "setup_samples_s": samples}
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced_wl = workloads.make(args.workload, args.seed, args.smoke)
            traced_wl.setup(tmpdir, wrap=tracer.counted)
            tracer.phase = "check"
            traced_wl.prepare_checks()
            stats.append(measure(traced_wl, loop_s, tracer))
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, stats[1].attempted)
        metrics["op_s.p50"] = (stats[0].p50, "s")
        metrics["trace.overhead_s"] = (stats[1].p50 - stats[0].p50, "s")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.dump()))
        detail.update(absent=tracer.absent, trace_file=str(trace_file.relative_to(ROOT)))
    else:
        lat = stats[0].latencies or [float("nan")]
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "op_s.p90": (percentile(lat, 90), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    attempted = sum(s.attempted for s in stats)
    failures = [f for s in stats for f in s.failures]
    detail.update({
        "ops_attempted": attempted,
        "ops_failed": len(failures),
        "op_samples": [len(s.latencies) for s in stats],
        "op_s.p50": stats[0].p50,
        "check.max_err": max(s.max_err for s in stats),
        "failures": failures[:5],
        "problems": problems,
    })
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # smoke size (K=2) for selftest.py; --probe-setup times one set-up
    parser.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "bpcheb" / "__init__.py").is_file():
        print(f"perfbench: no bpcheb sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tmpdir = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        if args.probe_setup:
            print(repr(setup_once(args.workload, args.seed, args.smoke, tmpdir)))
            return 0
        result, detail = run(args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
