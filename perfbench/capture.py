"""Capture the benchmark's goldens and fixed-seed reference values.

    python3 perfbench/capture.py

Writes perfbench/goldens/<problem><suffix>.csv (the `bpcheb solve` output of
every problems/*.prob file, for each argument set in run.GOLDEN_ARGS) and
perfbench/reference.json (the solution values of each workload's first op at
run.CHECK_SEED).  Run it only at a commit whose output is the one every later
commit must reproduce.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

from bpcheb import cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    run.GOLDENS.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=run.ROOT))
    try:
        for prob in sorted((run.ROOT / "problems").glob("*.prob")):
            for suffix, extra in run.GOLDEN_ARGS.items():
                out = run.GOLDENS / f"{prob.stem}{suffix}.csv"
                with contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(["solve", "--config", str(prob), "--out", str(out)] + extra)
                if code != 0:
                    raise SystemExit(f"bpcheb solve {prob} {extra} exited with {code}")
        reference = {}
        for name in workloads.WORKLOADS:
            wl = workloads.make(name, run.CHECK_SEED)
            wl.setup(tmpdir)
            wl.prepare_checks()
            out = wl.op(0)
            wl.check(0, out)
            reference[name] = wl.values(out).tolist()
        run.REFERENCE.write_text(json.dumps(reference) + "\n")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
