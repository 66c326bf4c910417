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

No module reads an environment variable, except that `__init__` sets
OpenBLAS's thread count by default: a setting that the environment could
change unseen would be missing from every artifact's provenance.

`cli.py` calls `sys.exit` only in `_Main.invoke`, the one place where a
command's outcome becomes an exit code.

One module reads MAX_ARRAY_BYTES, and `constants` alone defines a
module-level size cap: whether a grid fits is decided in one place.
"""

import ast
import re
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


# the ways to reach the environment through os
_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _is_blas_default(node) -> bool:
    """Whether `node` is os.environ.setdefault("OPENBLAS_NUM_THREADS", ...)."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "setdefault"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "environ"
        and bool(node.args)
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "OPENBLAS_NUM_THREADS"
    )


def environment_reads(trees: dict) -> set:
    """`module:line` of each use of os.environ or os.getenv in `trees`
    ({module: ast}), other than `__init__`'s OpenBLAS default."""
    found = set()
    for module, tree in trees.items():
        allowed = {id(n.func.value) for n in ast.walk(tree) if module == "__init__" and _is_blas_default(n)}
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in _ENV_NAMES and id(node) not in allowed:
                found.add(f"{module}:{node.lineno}")
    return found


def test_environment_detector():
    trees = {
        "__init__": ast.parse(
            "import os\n"
            "os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')\n"
            "os.environ.setdefault('OMP_NUM_THREADS', '1')\n"
        ),
        "a": ast.parse(
            "import os\n"
            "from os import environ, getenv\n"
            "x = os.environ['A']\n"
            "y = os.environ.get('B')\n"
            "z = os.getenv('C')\n"
            "w = environ.get('D') or getenv('E')\n"
            "os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')\n"
            "v = os.path.join('environ', 'getenv')\n"
        ),
    }
    assert environment_reads(trees) == {"__init__:3", "a:3", "a:4", "a:5", "a:6", "a:7"}


def test_no_module_reads_the_environment():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert {"__init__", "cli"} <= trees.keys()
    assert environment_reads(trees) == set()


def exit_sites(tree) -> set:
    """`qualname:line` of each sys.exit call in `tree`; the qualname names
    the innermost enclosing class or function ("" at module level)."""
    found = set()

    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{qualname}.{child.name}".lstrip("."))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "exit"
                and getattr(child.func.value, "id", None) == "sys"
            ):
                found.add(f"{qualname}:{child.lineno}")
            visit(child, qualname)

    visit(tree, "")
    return found


def test_exit_detector():
    tree = ast.parse(
        "import sys\n"
        "sys.exit(0)\n"
        "class A:\n"
        "    def f(self):\n"
        "        try:\n"
        "            sys.exit(1)\n"
        "        finally:\n"
        "            pass\n"
        "def g():\n"
        "    def h():\n"
        "        return sys.exit(2)\n"
        "    click.exit(3)\n"
    )
    assert exit_sites(tree) == {":2", "A.f:6", "g.h:11"}


def test_only_the_command_group_exits():
    # a command returns its failures, and _Main.invoke alone turns them
    # and the package's errors into exit codes
    tree = ast.parse((ROOT / "src" / "clpair" / "cli.py").read_text())
    sites = exit_sites(tree)
    assert len(sites) == 3
    assert {site.partition(":")[0] for site in sites} == {"_Main.invoke"}


def budget_readers(trees: dict) -> set:
    """Modules in `trees` ({module: ast}) that read MAX_ARRAY_BYTES: import
    it, or load it as a name or an attribute."""
    def reads(node):
        if isinstance(node, ast.ImportFrom):
            return any(alias.name == "MAX_ARRAY_BYTES" for alias in node.names)
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        return name == "MAX_ARRAY_BYTES" and isinstance(node.ctx, ast.Load)

    return {module for module, tree in trees.items() if any(map(reads, ast.walk(tree)))}


def size_caps(trees: dict) -> set:
    """`module.name` of each module-level name in `trees` that is a size
    cap: one spelt MAX_* or *_MAX_*."""
    return {
        f"{module}.{name.id}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and re.search(r"(^|_)MAX_", name.id)
    }


def test_budget_detectors():
    trees = {
        "constants": ast.parse("MAX_ARRAY_BYTES = 64\nK_C_MAX = 1e30\n"),
        "a": ast.parse("from constants import MAX_ARRAY_BYTES\n_CELLS_MAX_N, _W = MAX_ARRAY_BYTES // 16, 0\n"),
        "b": ast.parse("import constants\ndef f(n):\n    _T_MAX_NODES = 1\n    return n > constants.MAX_ARRAY_BYTES\n"),
        "c": ast.parse("W_MAX = 1\nx: int = 0\n"),
    }
    assert budget_readers(trees) == {"a", "b"}
    assert size_caps(trees) == {"constants.MAX_ARRAY_BYTES", "a._CELLS_MAX_N"}


def test_one_module_decides_every_grid_size():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert {"constants", "quadrature"} <= trees.keys()
    assert budget_readers(trees) == {"quadrature"}
    assert size_caps(trees) == {"constants.MAX_ARRAY_BYTES"}
