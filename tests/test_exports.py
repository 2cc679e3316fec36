"""Every module of the package lists in `__all__` only names it defines."""
import importlib
import pkgutil

import pytest

import qhydro

MODULES = sorted(info.name for info in pkgutil.iter_modules(qhydro.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"qhydro.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
