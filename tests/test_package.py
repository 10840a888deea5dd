"""The package's public surface: every exported name exists."""

import importlib
import pkgutil

import mlimb


def test_every_name_in_each_modules_all_resolves():
    names = [info.name for info in pkgutil.iter_modules(mlimb.__path__)]
    assert "network" in names
    missing = []
    for name in names:
        module = importlib.import_module(f"mlimb.{name}")
        missing += [f"{module.__name__}.{attr}" for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
