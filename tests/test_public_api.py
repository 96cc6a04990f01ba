"""Every exported name resolves, so no deletion leaves a stale export."""

import importlib
import pkgutil

import pytest

import bpcheb

MODULES = sorted(m.name for m in pkgutil.iter_modules(bpcheb.__path__, "bpcheb."))


def test_package_exports_resolve():
    missing = [name for name in bpcheb.__all__ if not hasattr(bpcheb, name)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    exports = module.__all__
    assert [n for n in exports if not hasattr(module, n)] == []
    assert len(exports) == len(set(exports))
