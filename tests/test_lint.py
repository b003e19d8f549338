"""Source lint: checks on inputs and invariants must survive
``python -O``, so the package holds no ``assert`` statement; and the
package exports only names it defines."""

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


def test_every_exported_name_exists():
    """``from burnside import *`` needs every name of ``__all__``."""
    missing = [name for name in burnside.__all__
               if not hasattr(burnside, name)]
    assert burnside.__all__ and not missing, missing
