"""Every public function, class, method and dataclass field of the
package has a caller or reader there: no production code that only its
own tests call or read. Every private module-level function, class and
constant is referenced there outside its own definition: no helper that
a refactor left behind.

A name counts as referenced when it appears as a name or an attribute in
any of the package's files outside an import statement; a definition is
not a reference to itself, nor is a field's annotated name in its class
body.
Click commands are called by click.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "clpair").glob("*.py"))

# rel_pos_variance_quadrature integrates the relative-position variance
# directly; it is kept as the closed form's independent check, which the
# `validate` oracle suite is to call.
ALLOWED = {"measures.rel_pos_variance_quadrature"}


def _is_click_command(node) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _public_definitions(tree):
    """Public module-level functions and classes, and the public methods and
    fields (class-level annotated names) of public classes, as (qualified
    name, bare name)."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if not _is_click_command(node):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name
                elif (field := _field_name(item)) and not field.startswith("_"):
                    yield f"{node.name}.{field}", field


def _field_name(item):
    """The name a class-body statement declares as a field, or None."""
    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
        return item.target.id
    return None


def _references(tree) -> set:
    declared = {
        id(item.target)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if _field_name(item)
    }
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and id(node) not in declared:
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def unreferenced(trees: dict) -> set:
    """Qualified names of the public definitions in `trees` ({module: ast})
    that no tree refers to."""
    refs = set().union(*map(_references, trees.values()))
    return {
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, name in _public_definitions(tree)
        if name not in refs
    }


def _private_definitions(tree):
    """Private (single-underscore) module-level functions, classes and
    assigned names, as (name, defining statement)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _name_counts(tree) -> Counter:
    """How often each name appears as a name or an attribute in `tree`."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def orphaned(trees: dict) -> set:
    """Qualified names of the private module-level definitions in `trees`
    ({module: ast}) that no tree refers to outside the definition itself."""
    counts = sum(map(_name_counts, trees.values()), Counter())
    return {
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if counts[name] == _name_counts(node)[name]
    }


def test_detector():
    trees = {
        "a": ast.parse(
            "import click\n"
            "def used(): pass\n"
            "def unused(): used()\n"
            "class Box:\n"
            "    read: int = 0\n"
            "    unread: int = 0\n"
            "    _hidden: int = 0\n"
            "    def called(self): return self.read\n"
            "    def uncalled(self): pass\n"
            "    def _private(self): pass\n"
            "@click.group()\n"
            "def main(): pass\n"
            "@main.command()\n"
            "def run(): Box().called()\n"
        ),
        "b": ast.parse("from a import unused, Box\n"),
    }
    assert unreferenced(trees) == {"a.unused", "a.Box.uncalled", "a.Box.unread"}


def test_orphan_detector():
    trees = {
        "a": ast.parse(
            "_CAP = 4\n"
            "_LEFT = 5\n"
            "_A, _B = 1, 2\n"
            "def _helper(n): return _helper(n - 1) if n else _CAP\n"
            "def _stale(n): return _stale(n - 1) if n else _B\n"
            "class _Kept: pass\n"
            "class _Dropped: pass\n"
            "__all__ = []\n"
            "x = _Kept\n"
        ),
        "b": ast.parse("import a\nfrom a import _LEFT\ny = a._helper(3)\n"),
    }
    assert orphaned(trees) == {"a._LEFT", "a._A", "a._stale", "a._Dropped"}


def test_no_private_name_is_orphaned():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert {"distributions", "oracles"} <= trees.keys()
    assert orphaned(trees) == set()


def test_every_public_name_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert {"cli", "model", "measures"} <= trees.keys()
    # an allowed name that gains a caller leaves the list
    assert unreferenced(trees) == ALLOWED
