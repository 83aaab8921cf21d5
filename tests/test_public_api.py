"""The public surface: every exported name resolves, and the README examples run."""

import ast
import importlib
import json
import pkgutil
import re
import shlex
from pathlib import Path

import jsonschema
import pytest

import unimoments
from unimoments import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
MODULES = ["unimoments"] + [
    f"unimoments.{info.name}" for info in pkgutil.iter_modules(unimoments.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def leading_literal(comment):
    """The Python literal that ``comment`` begins with, or None.

    The literal is the shortest prefix that ``ast.literal_eval`` reads and no
    digit, letter, point or underscore continues, so "10988, the" gives
    10988.  A prefix with an elided ``...``, or a comment that begins with an
    approximation such as "~0.3", gives none.
    """
    for end in range(1, len(comment) + 1):
        if comment[end:end + 1].isalnum() or comment[end:end + 1] in ("_", "."):
            continue
        try:
            value = ast.literal_eval(comment[:end])
        except (SyntaxError, TypeError, ValueError):
            continue
        return None if "..." in comment[:end] else value
    return None


def test_readme_library_tour_runs():
    (tour,) = re.findall(r"## Library tour\n\n```python\n(.*?)```", README, re.DOTALL)
    lines = tour.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(tour).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        expected = leading_literal(lines[node.end_lineno - 1].partition("#")[2].strip())
        if expected is not None:
            assert value == expected, lines[node.end_lineno - 1]
            checked.append(expected)
    # a reader that finds no literal would pass vacuously
    assert len(checked) == 6


(COMMAND_BLOCK,) = re.findall(r"## Command line\n\n```sh\n(.*?)```", README, re.DOTALL)
COMMAND_LINES = [shlex.split(line, comments=True) for line in COMMAND_BLOCK.splitlines()]


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=" ".join)
def test_readme_command_line_runs(capsys, argv):
    assert argv[0] == "unimoments"
    assert cli.main(argv[1:]) == 0
    if "csv" not in argv:
        jsonschema.validate(json.loads(capsys.readouterr().out), cli.OUTPUT_SCHEMAS[argv[1]])


def benchmark_names():
    """Every ``unimoments`` name the benchmark in ``perfbench/`` imports or reads.

    Tier 1 does not collect the benchmark, so a name that leaves the package
    would otherwise surface only when the benchmark runs.  Each
    ``from unimoments... import x`` and each ``module.attr`` read on a name
    bound to a ``unimoments`` module is a (module, attr) pair.
    """
    pairs = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = {}  # local name -> dotted module name
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((alias.asname or alias.name, alias.name) for alias in node.names
                               if alias.name.split(".")[0] == "unimoments")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "unimoments":
                for alias in node.names:
                    pairs.add((node.module, alias.name))
                    if f"{node.module}.{alias.name}" in MODULES:
                        modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        pairs.update((modules[node.value.id], node.attr) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in modules and isinstance(node.ctx, ast.Load))
    return sorted(pairs)


BENCHMARK_NAMES = benchmark_names()


def test_benchmark_reads_names():
    # a parser that finds nothing would pass the test below vacuously
    assert ("unimoments.graphs", "injective_traffic_value") in BENCHMARK_NAMES
    assert ("unimoments.cli", "OUTPUT_SCHEMAS") in BENCHMARK_NAMES


@pytest.mark.parametrize("module, attr", BENCHMARK_NAMES,
                         ids=[f"{module}.{attr}" for module, attr in BENCHMARK_NAMES])
def test_every_name_the_benchmark_reads_resolves(module, attr):
    # a submodule need not be an attribute of its package until it is imported
    assert hasattr(importlib.import_module(module), attr) or f"{module}.{attr}" in MODULES
