"""Every surfplan module imports cleanly as the first one a fresh interpreter
loads, so an import cycle between two modules cannot hide behind the order in
which the package's ``__init__`` happens to load them."""

import os
import pkgutil
import subprocess
import sys

import pytest

import surfplan

SRC = os.path.dirname(os.path.dirname(surfplan.__file__))
MODULES = ["surfplan"] + sorted(
    info.name for info in pkgutil.walk_packages(surfplan.__path__, "surfplan."))


def test_every_module_is_listed():
    assert {"surfplan.cli", "surfplan.evaluate", "surfplan.models",
            "surfplan.ml.serialize"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
