"""Every module-level function, class and constant of the package, and
every method and class-level field, is reachable by name from a command:
no production code that only its own tests call or read.

The reachability is by name. The roots are the click commands, `_Main.invoke`
(where click hands every command's outcome back), the module-level dunder
functions and names, and the module-level statements that are not
definitions, which Python runs at import. A definition reaches every
definition whose name it uses as a name or an attribute, its decorators and
default values included; a class reaches its dunder methods, which Python
calls; a field's annotated name in its class body is not a use.

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
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "clpair").glob("*.py"))

# the one non-dunder method that click calls, not a command
CLICK_HOOKS = {"cli._Main.invoke"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_click_command(node) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _uses(*nodes) -> set:
    """The names and attributes used anywhere in `nodes`."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for node in nodes
        if node is not None
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def _assigned(node) -> tuple:
    """The names an Assign or AnnAssign statement binds, with its value and
    annotation as what it uses."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names, [node.value, getattr(node, "annotation", None)]


def definitions(trees: dict):
    """The definitions in `trees` ({module: ast}) as {qualified name: (bare
    name, names it uses)}, and the qualified names of the roots; a
    module-level statement that defines nothing is a root named
    `module:line`."""
    defs, roots = {}, set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                qualified = f"{module}.{node.name}"
                if isinstance(node, ast.FunctionDef):
                    defs[qualified] = (node.name, _uses(node))
                    if _is_click_command(node) or _is_dunder(node.name):
                        roots.add(qualified)
                    continue
                uses = _uses(*node.decorator_list, *node.bases, *node.keywords)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{qualified}.{item.name}"] = (item.name, _uses(item))
                        if _is_dunder(item.name):
                            uses.add(item.name)
                    elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                        names, parts = _assigned(item)
                        for name in names:
                            defs[f"{qualified}.{name}"] = (name, _uses(*parts))
                    else:
                        uses |= _uses(item)
                defs[qualified] = (node.name, uses)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names, parts = _assigned(node)
                for name in names:
                    defs[f"{module}.{name}"] = (name, _uses(*parts))
                    if _is_dunder(name):
                        roots.add(f"{module}.{name}")
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots.add(f"{module}:{node.lineno}")
                defs[f"{module}:{node.lineno}"] = ("", _uses(node))
    return defs, roots


def unreachable(trees: dict, hooks=frozenset()) -> set:
    """Qualified names of the definitions in `trees` ({module: ast}) that no
    root reaches by name; `hooks` are roots besides the commands, the
    dunders and the module-level statements."""
    defs, roots = definitions(trees)
    by_name = defaultdict(set)
    for qualified, (name, _) in defs.items():
        by_name[name].add(qualified)
    seen, todo = set(), [*roots, *hooks]
    while todo:
        qualified = todo.pop()
        if qualified in seen:
            continue
        seen.add(qualified)
        todo.extend(d for name in defs[qualified][1] for d in by_name[name])
    return set(defs) - seen


def test_reachability_detector():
    # a recursive or a merely imported definition is not reached, and a
    # command's decorators are part of it
    trees = {
        "a": ast.parse(
            "import click\n"
            "_CAP = 4\n"
            "_LEFT, _RIGHT = 1, 2\n"
            "def used(): return _CAP\n"
            "def unused(): used()\n"
            "def _stale(n): return _stale(n - 1) if n else _LEFT\n"
            "@click.group()\n"
            "def main(): pass\n"
            "@main.command()\n"
            "@click.option('--n', default=_RIGHT)\n"
            "def run(n): return used()\n"
        ),
        "b": ast.parse("from a import unused, _stale\n"),
    }
    assert unreachable(trees) == {"a.unused", "a._LEFT", "a._stale"}


def test_reachability_through_classes():
    # a reached class reaches its dunder methods, and its other methods and
    # fields only by use; an unreached class reaches nothing
    trees = {
        "a": ast.parse(
            "import click\n"
            "class Box:\n"
            "    read: int = 0\n"
            "    unread: int = _DEFAULT\n"
            "    def __post_init__(self): _helper()\n"
            "    def called(self): return self.read\n"
            "    def uncalled(self): pass\n"
            "class _Dropped:\n"
            "    def __init__(self): _only_from_dropped()\n"
            "_DEFAULT = 0\n"
            "def _helper(): pass\n"
            "def _only_from_dropped(): pass\n"
            "@click.command()\n"
            "def run(): Box().called()\n"
        ),
    }
    assert unreachable(trees) == {
        "a.Box.unread",
        "a.Box.uncalled",
        "a._DEFAULT",
        "a._Dropped",
        "a._Dropped.__init__",
        "a._only_from_dropped",
    }


def test_reachability_roots():
    # a hook, a module-level dunder function and a statement run at import
    # are roots, and what each uses is reached
    trees = {
        "a": ast.parse(
            "import os\n"
            "class _Main:\n"
            "    def invoke(self): return _exit_code()\n"
            "def _exit_code(): return 0\n"
            "def __getattr__(name): return _EXPORTS[name]\n"
            "_EXPORTS = {}\n"
            "os.environ.setdefault('X', _DEFAULT)\n"
            "_DEFAULT = '1'\n"
            "def _unused(): pass\n"
        ),
    }
    assert unreachable(trees) == {"a._Main", "a._Main.invoke", "a._exit_code", "a._unused"}
    assert unreachable(trees, {"a._Main.invoke"}) == {"a._Main", "a._unused"}


def test_every_definition_is_reachable_from_a_command():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert {"cli", "model", "measures"} <= trees.keys()
    assert unreachable(trees, CLICK_HOOKS) == set()


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
