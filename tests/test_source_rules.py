"""Rules the package source keeps, checked on its syntax tree."""

import ast
import importlib
import importlib.util
import sys
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


def test_imports_only_the_standard_library():
    # the console script runs one command per process, so every import is
    # paid on every command; relative imports stay inside the package
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(PACKAGE)}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names | {"polysched"}]
    assert found == []


def test_functions_the_bench_traces_exist():
    # the bench's traced run wraps each of these by name and stops at a
    # missing one; the bench is not part of this suite, so a rename is
    # caught here
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = [(module, name) for entries in spans.TRACED.values() for module, name, _ in entries]
    assert ("polysched.satred.tiling", "solve_first") in traced
    missing = [f"{module}.{name}" for module, name in traced
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
