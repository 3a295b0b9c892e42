"""Module structure: every import sits at module level and is read, the
groupoid (label algebra) never reaches into the arrangement (geometry),
the oracle builds its walls and levels without the engine's, and no module
computes with fractions."""

import ast
from pathlib import Path

import pytest

import cdvwall

MODULES = sorted(Path(cdvwall.__file__).parent.glob("*.py"))


def _imports(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = {id(node) for node in tree.body}
    nested = [node.lineno for node in _imports(tree) if id(node) not in top]
    assert not nested, f"{path.name}: imports inside a function or block at lines {nested}"


def test_groupoid_imports_nothing_from_arrangement():
    path = Path(cdvwall.__file__).parent / "groupoid.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in _imports(tree):
        names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
        assert not any("arrangement" in name for name in names), ast.unparse(node)


def test_oracle_builds_walls_and_levels_itself():
    path = Path(cdvwall.__file__).parent / "oracle.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.name for node in _imports(tree) for alias in node.names}
    assert not imported & {"arrangement_hyperplanes", "imaginary_restriction"}


def test_no_module_imports_fractions():
    offenders = []
    for path in MODULES:
        for node in _imports(ast.parse(path.read_text(encoding="utf-8"))):
            names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
            if "fractions" in names:
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"fractions imported at {offenders}"


def _read_names(tree):
    """Every name the module reads: loaded names, the roots of attribute
    chains, and the names inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _read_names(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations" and name not in read:
                    unused.append(f"{name} (line {node.lineno})")
    assert not unused, f"{path.name}: imported but never read: {unused}"
