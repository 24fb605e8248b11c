"""Every name a hwfib module exports exists: a deletion in ``src/`` that
leaves a stale ``__all__`` entry fails here."""

import importlib
import pkgutil

import pytest

import hwfib

MODULES = ["hwfib"] + sorted(m.name for m in pkgutil.iter_modules(hwfib.__path__, "hwfib."))


def test_modules_found():
    assert {"hwfib.exact", "hwfib.isometry", "hwfib.fpgroup", "hwfib.epimorphism"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", ())
    assert [n for n in names if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(names) <= set(namespace)
