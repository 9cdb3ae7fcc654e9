"""Code outside the package still finds what it uses of l1net.

The benchmark (``bench/``) runs outside the default test paths, and the
README's library example is never imported, so neither would notice a
renamed or deleted binding on its own.
"""

import ast
import importlib
import json
import re
from pathlib import Path

from l1net.cli import ExperimentConfig, config_to_dict

ROOT = Path(__file__).resolve().parent.parent


def _module_bindings(path):
    """``{(module, name)}`` for every ``<module>.<name>`` attribute in ``path``
    whose ``<module>`` was bound by ``from l1net import ...``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "l1net" and node.level == 0
        for alias in node.names
    }
    return {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


def test_benchmark_bindings_exist():
    used = set().union(*(_module_bindings(p) for p in sorted((ROOT / "bench").glob("*.py"))))
    assert {("net", "forward"), ("net", "grad_input"), ("net", "laplacian_input"),
            ("cli", "train"), ("evaluate", "finite_diff_gradient")} <= used
    missing = sorted((module, name) for module, name in used
                     if not hasattr(importlib.import_module(f"l1net.{module}"), name))
    assert missing == []


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
