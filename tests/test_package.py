"""The package's public surface is one list: every module's ``__all__``.

Each name a module declares public must be exported by
``mmwave_backhaul`` itself, as the same object, so the trimmed surface
has no second, module-only half.
"""

import importlib
import pkgutil

import pytest

import mmwave_backhaul

MODULES = sorted(info.name for info in pkgutil.iter_modules(mmwave_backhaul.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_is_exported_by_the_package(name):
    module = importlib.import_module(f"mmwave_backhaul.{name}")
    public = getattr(module, "__all__", [])
    missing = [attr for attr in public
               if getattr(mmwave_backhaul, attr, None) is not getattr(module, attr)]
    assert missing == []
