"""Static guards: every module-level import in the package is used, and
every definition is reached by the package or the benchmark.

No linter ships with the test environment, so these walk the source with
``ast``.  ``__init__.py`` is skipped: its imports are the public re-exports.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kurzmani"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_guard_flags_an_unused_import():
    src = "import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n"
    assert unused_imports(src) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def definitions(source):
    """Module-level functions and classes, and non-dunder methods, by line."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out += [(item.lineno, item.name) for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))]
    return out


def names_read(source):
    """Every name the source reads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unreached(modules, readers, exported):
    """(module, line, name) of every definition in ``modules`` (name ->
    source) that no source in ``readers`` reads and ``exported`` lacks."""
    read = set(exported)
    for source in readers:
        read |= names_read(source)
    return sorted((mod, line, name) for mod, source in modules.items()
                  for line, name in definitions(source) if name not in read)


def test_dead_definition_guard_flags_an_unread_definition():
    lib = ("def used():\n    pass\n\n\ndef unused():\n    pass\n\n\n"
           "class Box:\n    def __init__(self):\n        pass\n\n"
           "    def size(self):\n        return used()\n\n"
           "    def label(self):\n        return 1\n")
    caller = "print(Box().size())\n"
    assert unreached({"lib": lib}, [lib, caller], ()) == [
        ("lib", 5, "unused"), ("lib", 16, "label")]
    assert unreached({"lib": lib}, [lib, caller], ("unused",)) == [
        ("lib", 16, "label")]


def test_every_definition_is_reached_by_the_package_or_the_benchmark():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    bench = [p.read_text(encoding="utf-8")
             for p in sorted((ROOT / "perfbench").glob("*.py"))]
    init = ast.parse(sources["__init__.py"])
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert unreached(sources, list(sources.values()) + bench, exported) == []
