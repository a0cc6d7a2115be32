"""Every record in the package is a typing.NamedTuple: no module under
src/tracegen imports dataclasses. The sources are read as syntax trees, so
what a dependency happens to import does not matter."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "tracegen").glob("*.py"))


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in {name.partition(".")[0] for name in imported_modules(path)}
