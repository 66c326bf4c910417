"""Every public function, class and method of the package and the scripts
has a caller there: no production code that only its own tests call.

A name counts as referenced when it appears as a name or an attribute in
any of those files outside an import statement; a definition is not a
reference to itself. Click commands are called by click.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "clpair").glob("*.py"), *(ROOT / "scripts").glob("*.py")])

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
    """Public module-level functions and classes, and the public methods of
    public classes, as (qualified name, bare name)."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if not _is_click_command(node):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree) -> set:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
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


def test_detector():
    trees = {
        "a": ast.parse(
            "import click\n"
            "def used(): pass\n"
            "def unused(): used()\n"
            "class Box:\n"
            "    def called(self): pass\n"
            "    def uncalled(self): pass\n"
            "    def _private(self): pass\n"
            "@click.group()\n"
            "def main(): pass\n"
            "@main.command()\n"
            "def run(): Box().called()\n"
        ),
        "b": ast.parse("from a import unused, Box\n"),
    }
    assert unreferenced(trees) == {"a.unused", "a.Box.uncalled"}


def test_every_public_name_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert {"cli", "model", "measures"} <= trees.keys()
    # an allowed name that gains a caller leaves the list
    assert unreferenced(trees) == ALLOWED
