import importlib
import pkgutil

import pytest

import kduncd

MODULES = ["kduncd", *(f"kduncd.{m.name}" for m in pkgutil.iter_modules(kduncd.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_finds_every_exported_name(module):
    """A stale ``__all__`` entry makes ``from module import *`` raise."""
    namespace = {}
    exec(f"from {module} import *", namespace)
    exported = getattr(importlib.import_module(module), "__all__", [])
    assert set(exported) <= set(namespace)
