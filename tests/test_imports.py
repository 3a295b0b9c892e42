"""Module structure: every import sits at module level and is read, every
module-level definition is read by the package, the groupoid (label
algebra) never reaches into the arrangement (geometry), the oracle builds
its walls and levels without the engine's, and no module computes with
fractions."""

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


def _definitions(tree):
    """The module-level functions, classes and assigned names, each with
    the index of the statement that defines it."""
    for index, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, index
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                        yield n.id, index


def _statement_reads(node):
    """The names a statement reads: loaded names, attribute names, and
    names imported from another module."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(alias.name for alias in n.names)
    return names


def test_every_definition_is_read_by_the_package():
    """Every module-level function, class and constant is read somewhere in
    the package outside its own definition, so no code is kept for the
    tests alone."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    reads = {(stem, i): _statement_reads(node)
             for stem, tree in trees.items() for i, node in enumerate(tree.body)}
    unread = [f"{stem}.{name}"
              for stem, tree in trees.items() for name, index in _definitions(tree)
              if not any(name in names for where, names in reads.items() if where != (stem, index))]
    assert not unread, f"defined but never read by the package: {unread}"
