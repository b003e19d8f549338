"""Source lint: checks on inputs and invariants must survive
``python -O``, so the package holds no ``assert`` statement; the
package exports only names it defines, references every private helper
it defines, keeps each private name inside its own module, lets no code
outside the subgroup handle read its element set, and builds every
object through its ``__init__``."""

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


PERFBENCH = Path(burnside.__file__).resolve().parents[2] / "perfbench"

# public names kept with no caller in the package, each for a reason
TEST_REFERENCES = {
    # the plain dict of the frozen JSON schema: the tests compare
    # pattern_to_json's text against json.dumps of it
    "pattern_to_dict",
    # every abelian group type of an order: the tests build the abelian
    # groups of the property suite from it
    "abelian_types",
}


def _definitions(tree):
    """The module's public functions and classes and their public
    methods, as AST nodes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (d for d in node.body
                            if isinstance(d, ast.FunctionDef))


def _references(tree, strings=False):
    """(name, line) of every name and attribute the module reads, and,
    with ``strings``, of every string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            yield node.value, node.lineno


def test_every_public_name_has_a_caller():
    """A public function, class or method is named in the package
    outside its own definition, exported in ``__all__``, or named by the
    benchmark (``perfbench/``, whose tracer lists its spans as strings);
    otherwise it is surface that only the tests keep.  The two names of
    ``TEST_REFERENCES`` are kept as test references."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    outside = set(burnside.__all__) | TEST_REFERENCES
    for path in sorted(PERFBENCH.glob("*.py")):
        outside.update(name for name, _ in _references(
            ast.parse(path.read_text(), str(path)), strings=True))
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    orphans = []
    for path, tree in trees.items():
        for node in _definitions(tree):
            name = node.name
            if name.startswith("_") or name in outside:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(n == name and (p != path or line not in own)
                       for p, pairs in refs.items() for n, line in pairs):
                orphans.append(f"{path.name}:{node.lineno} {name}")
    assert PERFBENCH.is_dir() and not orphans, orphans


def test_only_the_kernel_names_the_element_set_cap():
    """The element-set policy is the kernel's: ``SET_CAP`` is named,
    in code or in prose, by ``groups.py`` alone, and other modules ask a
    subgroup handle (``Subgroup.membership``, ``order_profile``)."""
    found = [f"{path.name}:{line}"
             for path in SOURCES if path.name != "groups.py"
             for line, text in enumerate(path.read_text().splitlines(), 1)
             if "SET_CAP" in text]
    assert any(p.name == "groups.py" and "SET_CAP" in p.read_text()
               for p in SOURCES) and not found, found


def test_only_the_subgroup_handle_reads_its_element_set():
    """The element set is the handle's own: no code outside ``class
    Subgroup`` names its ``_elems`` attribute, as an attribute or as a
    string, and other code asks the handle (``elements``,
    ``membership``)."""
    found, inside = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        own = [range(node.lineno, node.end_lineno + 1) for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "Subgroup"]
        for name, line in _references(tree, strings=True):
            if name == "_elems":
                (inside if any(line in r for r in own) else found).append(
                    f"{path.name}:{line}")
    assert inside and not found, found


def test_the_class_step_and_search_build_no_quotient_group():
    """No computation builds a quotient group: the class step and the
    class search read the order-p classes of N/H off one coset walk
    (``groups.quotient_classes``), the Dress rows count N's cyclic
    classes and the composition series refines on its own generators.
    So no module imports or names ``quotient_group`` or
    ``coset_action`` outside the bodies of the three reference
    functions, which name each other, and no second path to a quotient
    grows back."""
    banned, found = {"quotient_group", "coset_action"}, []
    held = banned | {"coset_transversal"}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        own = [range(node.lineno, node.end_lineno + 1)
               for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name in held and path.name == "groups.py"]
        names = list(_references(tree)) + [
            (alias.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names]
        found += [f"{path.name}:{line} {name}" for name, line in names
                  if name in banned and not any(line in r for r in own)]
    assert SOURCES and not found, found
