import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sjj


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(sjj.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("module", ["sjj", "sjj.cli"])
def test_import_loads_no_numpy(module):
    assert _run(f"import sys, {module}; print('numpy' in sys.modules)") == "False"


def test_every_public_name_is_its_modules_object():
    for name in sjj.__all__:
        if name == "__version__":
            continue
        value = getattr(sjj, name)
        assert value.__module__.startswith("sjj."), name
        assert value is getattr(importlib.import_module(value.__module__), name), name


def test_star_import_and_dir():
    namespace: dict = {}
    exec("from sjj import *", namespace)
    assert set(sjj.__all__) <= set(namespace)
    assert namespace["__version__"] == sjj.__version__
    assert set(sjj.__all__) <= set(dir(sjj))


def test_submodule_attribute_and_unknown_name():
    assert sjj.eigensolve is importlib.import_module("sjj.eigensolve")
    with pytest.raises(AttributeError, match="no_such_name"):
        sjj.no_such_name
