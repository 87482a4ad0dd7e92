import importlib
import inspect
import pkgutil
from pathlib import Path

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


@pytest.mark.parametrize("module", MODULES)
def test_no_exported_callable_takes_a_rank_tolerance_or_a_budget(module):
    """The numeric rank threshold is the fixed ``DEFAULT_RANK_TOL``, and every
    search runs to a Present or Hole answer."""
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        obj = getattr(mod, name)
        if callable(obj):
            try:
                params = inspect.signature(obj).parameters
            except ValueError:  # exception classes have no introspectable signature
                continue
            assert not {"tol", "rank_tol", "max_checks"} & set(params), f"{module}.{name}"


def test_pyproject_version_is_the_package_version():
    """The ``--cache`` key reads ``kduncd.__version__``; the distribution's
    version must not drift from it."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == kduncd.__version__
