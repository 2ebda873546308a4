"""Every module-level import of the package and of its tests is used, every
module-level definition of the package is used inside it or exported, and no
package module uses the tuple views of an Lts (transitions, the one an Lts
still has, and outgoing)."""
import ast
import pathlib

import pytest

from avmodels.kernel import Lts

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "avmodels"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    bound = {}  # name -> line of the import binding it
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def dead_definitions(modules: dict, exported) -> list:
    """(module, name) of each module-level function, class or constant of
    the modules (name -> source) whose name no module loads, as a name or
    as an attribute, and exported does not hold. Names match by spelling
    alone, so a local variable of the same name counts as a load."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            dead += [(module, name) for name in names
                     if name not in loaded and name not in exported]
    return sorted(dead)


def exported_names() -> set:
    for node in ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Tuple\nx: List = 1\n") == \
        [(1, "os"), (2, "Tuple")]


def test_package_definitions_are_used_or_exported():
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    assert dead_definitions(modules, exported_names()) == []


def test_the_guard_sees_a_dead_definition():
    modules = {"kernel": "_NONE: dict = {}\nLIMIT = 3\ndef step(s):\n    return s\n"
                         "class Cache:\n    pass\n",
               "model": "from .kernel import step\nfrom . import kernel\n"
                        "def run():\n    return step(kernel.LIMIT)\n"}
    assert dead_definitions(modules, {"run"}) == [("kernel", "Cache"), ("kernel", "_NONE")]


TUPLE_VIEWS = ("transitions", "outgoing")


def tuple_view_uses(source: str) -> list:
    """(line, name) of each use of Lts.transitions or Lts.outgoing in source,
    apart from their definitions in a class Lts."""
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Lts":
            defined.update(id(n) for item in node.body
                           if isinstance(item, ast.FunctionDef) and item.name in TUPLE_VIEWS
                           for n in ast.walk(item))
    return sorted((n.lineno, n.attr) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr in TUPLE_VIEWS
                  and id(n) not in defined)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_package_module_uses_the_tuple_views_of_an_lts(path):
    assert tuple_view_uses(path.read_text(encoding="utf-8")) == []


def test_an_lts_has_no_outgoing_view():
    assert not hasattr(Lts, "outgoing")


def test_the_guard_sees_a_tuple_view():
    source = ("class Lts:\n    @property\n    def transitions(self):\n"
              "        return self.transitions\n"
              "def count(lts):\n    return len(lts.transitions) + len(lts.outgoing()[0])\n")
    assert tuple_view_uses(source) == [(6, "outgoing"), (6, "transitions")]
