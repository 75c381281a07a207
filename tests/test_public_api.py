"""Every name a biotfv module lists in __all__ exists in that module."""

import importlib
import pkgutil

import pytest

import biotfv

MODULES = [
    info.name for info in pkgutil.walk_packages(biotfv.__path__, prefix="biotfv.")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []
