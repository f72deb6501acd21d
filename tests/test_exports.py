"""Every name a ``dissdim`` module exports in ``__all__`` exists, and the
package root exports none.

A name left in ``__all__`` after its definition is deleted fails only when
someone star-imports the module; this finds it at test time.
"""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import dissdim

MODULES = sorted(m.name for m in pkgutil.iter_modules(dissdim.__path__, "dissdim."))


def test_the_exporting_modules_are_found():
    exporting = {name for name in MODULES if hasattr(importlib.import_module(name), "__all__")}
    assert {"dissdim.cutoffs", "dissdim.weak_balance", "dissdim.fields"} <= exporting


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is listed twice"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_the_package_root_loads_no_module():
    # every name is imported from its module, so the root pulls in neither
    # a dissdim submodule nor numpy
    code = "import sys, dissdim; print(*sorted(sys.modules))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = run.stdout.split()
    assert "dissdim" in loaded
    assert [m for m in loaded if m.startswith("dissdim.") or m.split(".")[0] == "numpy"] == []
