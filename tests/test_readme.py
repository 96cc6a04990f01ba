"""The README's library example runs and gives the values it states."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_usage_example():
    source = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    ns = {}
    exec(compile(source, str(README), "exec"), ns)
    sol, spec = ns["sol"], ns["spec"]
    np.testing.assert_allclose(sol.evaluate(0.5), [0.25, 0.125], rtol=0, atol=1e-10)
    assert ns["residual"](spec, sol, np.linspace(0, 1, 21)) <= 1e-9
    cfg = ns["cfg"]
    assert sol.xhat.shape == (cfg.K, cfg.M, spec.n) == (3, 4, 2)
