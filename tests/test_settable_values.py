"""The package's settable values and public names stay counted.

A settable value is a defaulted positional or keyword-only parameter of a
function or lambda, or a dataclass field with a default, in
``src/l1net/*.py``.  Each one doubles what a test or a benchmark may have
to cover, so a change that adds one raises ``_LIMIT`` here and says why.
A public name is an entry of a module's ``__all__``; a change that adds one
raises ``_NAMES_LIMIT`` and says why.  Each public name has one home, the
module that lists it, and is imported from there alone; the package root
holds only ``__version__``.
"""

import ast
import importlib
import types
from pathlib import Path

import l1net

_LIMIT = 32
_NAMES_LIMIT = 62
_MODULES = ("bounds", "cli", "datagen", "evaluate", "net", "sparsity")


def _is_dataclass(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _settable_values(tree):
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(
                isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                for stmt in node.body
            )
    return count


def test_settable_value_count_is_pinned():
    src = Path(l1net.__file__).parent
    counts = {
        path.stem: _settable_values(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(src.glob("*.py"))
    }
    assert sum(counts.values()) <= _LIMIT, counts


def test_public_name_count_is_pinned():
    counts = {
        name: len(importlib.import_module(f"l1net.{name}").__all__) for name in _MODULES
    }
    assert sum(counts.values()) <= _NAMES_LIMIT, counts


def test_each_public_name_has_one_home():
    exposed = [name for name, value in vars(l1net).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert exposed == [] and l1net.__version__
    homes = {}
    for module in _MODULES:
        for name in importlib.import_module(f"l1net.{module}").__all__:
            assert homes.setdefault(name, module) == module, name
    strays = [
        (path.stem, node.module, alias.name)
        for path in sorted(Path(l1net.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if homes.get(alias.name, node.module) != node.module
    ]
    assert strays == []


def test_counter_sees_each_kind_of_setting():
    tree = ast.parse(
        "import dataclasses\n"
        "def f(a, b=1, *, c, d=2): pass\n"
        "g = lambda x=0: x\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class C:\n"
        "    a: int\n"
        "    b: int = 3\n"
        "class Plain:\n"
        "    c: int = 4\n"
    )
    assert _settable_values(tree) == 4
