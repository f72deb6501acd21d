"""Every name a ``dissdim`` module exports in ``__all__`` exists.

A name left in ``__all__`` after its definition is deleted fails only when
someone star-imports the module; this finds it at test time.
"""

import importlib
import pkgutil

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
