"""Self-test of the benchmark at smoke size (K=2 blocks).

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that
* every workload emits every metric of BENCHMARK.json by name, in the
  untraced and the traced run, plus the ops_attempted, ops_failed and
  check.max_err details, with no failed op;
* a deliberately perturbed solution (1e-6 added to every synthesized state)
  is counted in ops_failed on every workload.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

DETAIL_KEYS = ("ops_attempted", "ops_failed", "check.max_err")


def check_emitted(spec: dict, workload: str) -> list[str]:
    errors = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "1",
               "--seconds", "0.5", "--trace", str(trace), "--smoke"]
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            return [f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}"]
        *_, detail_line, result_line = proc.stdout.strip().splitlines()
        detail, result = json.loads(detail_line), json.loads(result_line)
        wanted = {m["name"] for m in spec[group]}
        missing = wanted - set(result["metrics"])
        extra = set(result["metrics"]) - wanted
        if missing or extra:
            errors.append(f"{workload} trace={trace}: missing {sorted(missing)}, "
                          f"not in BENCHMARK.json {sorted(extra)}")
        errors += [f"{workload} trace={trace}: no {k} detail" for k in DETAIL_KEYS
                   if k not in detail]
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            errors.append(f"{workload} trace={trace}: {result_line} {detail.get('failures')} "
                          f"{detail.get('problems')}")
    return errors


def check_perturbed(workload: str, tmpdir: Path) -> list[str]:
    import bpcheb.solver

    import workloads

    wl = workloads.make(workload, 1, smoke=True)
    wl.setup(tmpdir)
    wl.prepare_checks()
    clean = run.measure(wl, 0.0)
    original = bpcheb.solver.synthesize
    bpcheb.solver.synthesize = lambda *args: original(*args) + 1e-6
    try:
        perturbed = run.measure(wl, 0.0)
    finally:
        bpcheb.solver.synthesize = original
    errors = []
    if clean.failures:
        errors.append(f"{workload}: clean op failed: {clean.failures}")
    if len(perturbed.failures) != perturbed.attempted:
        errors.append(f"{workload}: perturbed op was not counted as failed")
    return errors


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SRC))
    tmpdir = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=run.ROOT))
    errors = []
    try:
        import workloads

        for name in workloads.WORKLOADS:
            errors += check_perturbed(name, tmpdir)
            errors += check_emitted(spec, name)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
