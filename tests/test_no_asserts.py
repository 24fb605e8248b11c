"""No ``assert`` statement in ``src/hwfib``: ``python -O`` strips them, so a
check written as one vanishes there.  The package raises instead."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "hwfib").glob("*.py"))


def test_sources_found():
    assert {"hwgroup.py", "epimorphism.py", "cli.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"
