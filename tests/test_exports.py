import importlib
import pkgutil

import pytest

import qsde


@pytest.mark.parametrize("name", sorted(info.name for info in pkgutil.iter_modules(qsde.__path__)))
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"qsde.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], f"qsde.{name}.__all__ names {missing}"
