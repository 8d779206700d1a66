"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import polysched

PACKAGE = Path(polysched.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check that carries
    # correctness must raise instead
    assert any(path.name == "coloring.py" for path in SOURCES)
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
