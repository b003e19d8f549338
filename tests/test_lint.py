"""Source lint: checks on inputs and invariants must survive
``python -O``, so the package holds no ``assert`` statement; the
package exports only names it defines, references every private helper
it defines, keeps each private name inside its own module, and builds
every object through its ``__init__``."""

import ast
from pathlib import Path

import burnside

SOURCES = sorted(Path(burnside.__file__).parent.glob("*.py"))


def test_no_assert_in_the_package():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found


def test_no_constructor_is_hand_rolled():
    """No ``__new__`` call: an object whose attributes are set one by one
    outside ``__init__`` misses every attribute ``__init__`` gains."""
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "__new__"]
    assert SOURCES and not found, found


def test_no_module_imports_a_private_name():
    """A module reaches another module's helper only by a public name:
    no relative ``from .x import _name``."""
    found = [f"{path.name}:{node.lineno} {alias.name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names if alias.name.startswith("_")]
    assert SOURCES and not found, found


def test_every_exported_name_exists():
    """``from burnside import *`` needs every name of ``__all__``."""
    missing = [name for name in burnside.__all__
               if not hasattr(burnside, name)]
    assert burnside.__all__ and not missing, missing


def test_every_private_helper_is_referenced():
    """A private module-level function or class, or a private method,
    that nothing else in the package names is a leftover."""
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    defined = []
    used = set()
    for tree in trees:
        for node in tree.body:
            defs = [node]
            if isinstance(node, ast.ClassDef):
                defs += node.body
            defined += [d.name for d in defs
                        if isinstance(d, (ast.FunctionDef, ast.ClassDef))
                        and d.name.startswith("_")
                        and not d.name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    orphans = sorted(set(defined) - used)
    assert defined and not orphans, orphans


def test_every_imported_name_is_used():
    """A name a module imports and never uses is a leftover of deleted
    code.  ``__init__.py`` imports to re-export, so it is left out."""
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used]
    assert SOURCES and not found, found
