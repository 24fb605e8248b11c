"""The names the benchmark reaches into exist in hwfib.

``bench/tracing.py`` patches the attributes listed in ``HOOKS``, and
``bench/run.py`` imports names from hwfib, some of them inside the code
strings it runs in child processes.  Both lists are read from the bench
sources with ``ast``, so a rename in ``src/`` fails here rather than only
when the benchmark runs.
"""

import ast
import importlib
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _hooked_names():
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["HOOKS"]:
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracing.py assigns no HOOKS")


def _hwfib_imports(tree):
    """(module, name) for each hwfib import in tree; name is None for a
    plain ``import``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hwfib":
            out.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.extend((a.name, None) for a in node.names if a.name.split(".")[0] == "hwfib")
    return out


def _run_imports():
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    out = _hwfib_imports(tree)
    # the child-process entry points are code strings
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "hwfib" in node.value:
            try:
                out.extend(_hwfib_imports(ast.parse(node.value)))
            except SyntaxError:
                pass
    return out


NAMES = sorted(set(_hooked_names() + _run_imports()), key=str)


def test_names_found():
    assert len(_hooked_names()) > 10
    assert ("hwfib.isometry", "SymIsometry1") in NAMES
    assert ("hwfib.cli", "main") in NAMES


@pytest.mark.parametrize("module, attr", NAMES, ids=str)
def test_bench_name_exists(module, attr):
    mod = importlib.import_module(module)
    if attr is not None:
        assert hasattr(mod, attr), f"{module}.{attr}"
