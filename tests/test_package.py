"""The package's public surface: every exported name exists, and every
module is written in the grammar of the oldest Python it declares."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import mlimb


def test_every_name_in_each_modules_all_resolves():
    names = [info.name for info in pkgutil.iter_modules(mlimb.__path__)]
    assert "network" in names
    missing = []
    for name in names:
        module = importlib.import_module(f"mlimb.{name}")
        missing += [f"{module.__name__}.{attr}" for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_every_module_parses_with_the_python_3_10_grammar():
    """``pyproject.toml`` declares Python 3.10 or later. ``feature_version``
    makes ``ast.parse`` refuse syntax newer than 3.10, such as ``except*``,
    ``type`` statements and PEP 695 generics. It checks grammar only: a
    standard-library call or a regex construct that 3.10 lacks still passes."""
    for path in sorted(Path(mlimb.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_cli_start_up_loads_no_process_or_executor_machinery():
    # train and predict run their worker on threading, which numpy already
    # loads; concurrent.futures alone costs milliseconds in every CLI process.
    src = str(Path(mlimb.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    probe = ("import sys, mlimb.cli; "
             "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
