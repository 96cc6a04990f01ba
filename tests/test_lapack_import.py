"""bpcheb reaches LAPACK's getrf/getrs without importing scipy.linalg.

This test process has imported scipy.linalg already (conftest), so the import
checks run in fresh interpreters with src on the path.
"""

import os
import re
import subprocess
import sys
import textwrap

import pytest

from bpcheb import linalg

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

HEAVY = ("scipy.linalg", "numpy.f2py", "numpy.ma", "numpy.testing", "numpy.random")


def run_fresh(code: str) -> str:
    """stdout of code run by a new interpreter that imports bpcheb from src."""
    path = os.pathsep.join(filter(None, [os.path.abspath(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_flapack_alone():
    out = run_fresh(f"""
        import sys
        import bpcheb
        print(sorted(m for m in {HEAVY!r} if m in sys.modules))
        print("scipy.linalg._flapack" in sys.modules)
        import bpcheb.cli
        print(sorted(m for m in {HEAVY!r} if m in sys.modules))
    """)
    assert out.split("\n") == ["[]", "True", "[]", ""]


@pytest.mark.parametrize("bpcheb_first", [True, False])
def test_same_functions_as_get_lapack_funcs(bpcheb_first):
    first, then = "import bpcheb.linalg", "import scipy.linalg"
    if not bpcheb_first:
        first, then = then, first
    out = run_fresh(f"""
        {first}
        {then}
        import numpy as np
        from bpcheb.linalg import LU, _getrf, _getrs
        from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve
        getrf, getrs = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)
        print(_getrf is getrf, _getrs is getrs)
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((40, 40)), rng.standard_normal((40, 3))
        (lu, piv), ours = lu_factor(a), LU(a[np.newaxis])
        print(np.array_equal(lu, ours._lu[0]),
              np.array_equal(lu_solve((lu, piv), b), ours.solve(b[np.newaxis])[0]))
    """)
    assert out.split("\n") == ["True True", "True True", ""]


def test_missing_extension_names_the_directory(tmp_path):
    with pytest.raises(ImportError, match=f"not found in {re.escape(str(tmp_path))}"):
        linalg._load_extension("scipy.linalg._flapack", str(tmp_path))
