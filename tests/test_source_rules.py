"""Rules the package's own source keeps, read with the standard library's ast:
every name a module imports is used there, every top-level name and every
class's methods and properties are used in the package or allowlisted with
their outside user, the imports follow one layering with no cycle, and no line
runs past 110 characters (CI's awk step checks the same limit)."""

import ast
import graphlib
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "coseg"
MODULES = sorted(SRC.glob("*.py"))
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in MODULES}
MAX_LINE = 110

# a module imports only from modules in layers before its own
LAYERS = [
    {"__init__", "errors"},
    {"_binio"},
    {"geometry", "pnm", "embedder", "annindex"},
    {"descriptors", "metrics"},
    {"collage", "retrieval"},
    {"pipeline"},
    {"cli"},
    {"__main__"},
]

# top-level names (module.name) and class members (module.Class.member) no
# package module uses -> who uses them instead
OUTSIDE_USERS = {
    "__init__.__version__": "the package's public version, equal to pyproject.toml's",
    "annindex.RetrievalResult.ids": "the acceptance gate's criteria 3 and 4, and demo 03",
    "embedder.forward": "the tests and the acceptance gate",
    "embedder.contrastive_loss": "the tests and the acceptance gate",
    "embedder.loss_gradient": "the tests and the acceptance gate",
    "geometry.save_proposals": "the tests, tests/synthdata.py and demo 06",
    "metrics.precision": "the tests, the acceptance gate and demo 04",
    "metrics.jaccard": "the tests, the acceptance gate and demo 04",
    "pnm.write_pgm": "the tests' grayscale fixtures",
    "pnm.write_pbm": "the tests' mask fixtures and CI's determinism step",
}


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


def top_level_names(tree: ast.Module):
    """(name, defining statement) for each function, class and assigned name."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        yield node.id, stmt


def references(module: str, stmt: ast.stmt) -> set[str]:
    """Each `module.name` a top-level statement of module uses: a bare name of
    its own, a `from .m import name` or an `m.name` after `from . import m`."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(f"{module}.{node.id}")
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            out.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            out.add(f"{node.value.id}.{node.attr}")
    return out


def allowlisted(dots: int) -> set[str]:
    """OUTSIDE_USERS' keys with that many dots: 1 for top-level names, 2 for class members."""
    return {key for key in OUTSIDE_USERS if key.count(".") == dots}


def test_every_top_level_name_is_used_or_has_an_outside_user():
    uses = {stmt: references(module, stmt) for module, tree in TREES.items() for stmt in tree.body}
    unused = {f"{module}.{name}" for module, tree in TREES.items() for name, stmt in top_level_names(tree)
              if not any(f"{module}.{name}" in refs for user, refs in uses.items() if user is not stmt)}
    assert sorted(unused - allowlisted(1)) == []  # delete, use, or allowlist with the user
    assert sorted(allowlisted(1) - unused) == []  # used in the package: off the allowlist


def class_members(tree: ast.Module):
    """(class name, member name, def) for each method and property of a
    top-level class; dunder methods are left out."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for node in stmt.body:
                if isinstance(node, ast.FunctionDef) and not (node.name.startswith("__") and node.name.endswith("__")):
                    yield stmt.name, node.name, node


def attributes(node: ast.AST) -> Counter:
    """How often each name is read or written as an attribute (`x.name`) under node."""
    return Counter(child.attr for child in ast.walk(node) if isinstance(child, ast.Attribute))


def test_every_class_member_is_used_or_has_an_outside_user():
    # by name alone: an `x.name` anywhere outside the member's own def keeps it,
    # so a member that shares its name with another is kept and is left to a reader
    package = sum(map(attributes, TREES.values()), Counter())
    unused = {f"{module}.{cls}.{name}" for module, tree in TREES.items() for cls, name, node in class_members(tree)
              if package[name] == attributes(node)[name]}
    assert sorted(unused - allowlisted(2)) == []  # delete, use, or allowlist with the user
    assert sorted(allowlisted(2) - unused) == []  # used in the package: off the allowlist


def imports(tree: ast.Module) -> set[str]:
    """The package modules tree imports, `from . import m` included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else [alias.name for alias in node.names])
    return out


GRAPH = {module: imports(tree) for module, tree in TREES.items()}


def test_import_graph_has_no_cycle():
    tuple(graphlib.TopologicalSorter(GRAPH).static_order())  # raises CycleError naming the cycle


def test_imports_follow_the_layering():
    layer = {module: n for n, modules in enumerate(LAYERS) for module in modules}
    assert sorted(layer) == sorted(TREES)
    upward = [f"{module} imports {dep}" for module, deps in GRAPH.items() for dep in deps
              if layer[dep] >= layer[module]]
    assert upward == []
