"""Code outside the package still finds what it uses of l1net.

The benchmark (``bench/``) runs outside the default test paths, and the
README's library example is never imported, so neither would notice a
renamed or deleted binding on its own.
"""

import ast
import importlib
import inspect
import json
import re
from pathlib import Path

from l1net.cli import ExperimentConfig, config_to_dict

ROOT = Path(__file__).resolve().parent.parent


def _l1net_modules(tree):
    """``{bound name: module}`` for every ``from l1net import ...`` in ``tree``."""
    return {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "l1net" and node.level == 0
        for alias in node.names
    }


def _module_bindings(path):
    """``{(module, name)}`` for every ``<module>.<name>`` attribute in ``path``
    whose ``<module>`` was bound by ``from l1net import ...``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = _l1net_modules(tree)
    return {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


def _module_calls(path):
    """``(module, name, call node)`` for every ``<module>.<name>(...)`` call in
    ``path`` whose ``<module>`` was bound by ``from l1net import ...``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = _l1net_modules(tree)
    return [
        (modules[node.func.value.id], node.func.attr, node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id in modules
    ]


def test_benchmark_bindings_exist():
    used = set().union(*(_module_bindings(p) for p in sorted((ROOT / "bench").glob("*.py"))))
    assert {("net", "forward"), ("net", "grad_input"), ("net", "laplacian_input"),
            ("cli", "train"), ("evaluate", "finite_diff_gradient")} <= used
    missing = sorted((module, name) for module, name in used
                     if not hasattr(importlib.import_module(f"l1net.{module}"), name))
    assert missing == []
    # Each call must also fit its function's current parameters: a benchmark
    # call such as report_bounds(cfg) would otherwise break outside tier-1.
    calls = [call for p in sorted((ROOT / "bench").glob("*.py")) for call in _module_calls(p)]
    assert len(calls) >= 21 and ("cli", "report_bounds") in {call[:2] for call in calls}
    unbound = []
    for module, name, node in calls:
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            continue  # *args or **kwargs: the arity is not known here
        obj = getattr(importlib.import_module(f"l1net.{module}"), name)
        try:
            inspect.signature(obj).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            unbound.append(f"{module}.{name} (line {node.lineno}): {exc}")
    assert unbound == []


def test_readme_library_example_runs(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_config_defaults_match_the_dataclasses():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Config file\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```json\n(.*?)```", section, re.DOTALL)
    assert json.loads(block) == config_to_dict(ExperimentConfig())
