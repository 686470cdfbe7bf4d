"""Rules the package's own source keeps, read with the standard library's ast:
every name a module imports is used there, and no line runs past 110
characters (CI's awk step checks the same limit)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "coseg"
MODULES = sorted(SRC.glob("*.py"))
MAX_LINE = 110


def imported_names(tree: ast.Module):
    """(bound name, line) for each name an import statement binds;
    `from __future__ import ...` binds none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_referenced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_line_longer_than_110_characters(path):
    # a line ends at LF only, as awk reads it
    lines = path.read_text(encoding="utf-8").split("\n")
    long = [f"{path.name}:{n}: {len(line)} characters"
            for n, line in enumerate(lines, start=1) if len(line) > MAX_LINE]
    assert long == []
