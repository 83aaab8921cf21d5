"""The public surface: every exported name resolves, and the README examples run."""

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


def test_readme_library_tour_runs():
    (tour,) = re.findall(r"## Library tour\n\n```python\n(.*?)```", README, re.DOTALL)
    exec(compile(tour, "README.md", "exec"), {})


(COMMAND_BLOCK,) = re.findall(r"## Command line\n\n```sh\n(.*?)```", README, re.DOTALL)
COMMAND_LINES = [shlex.split(line, comments=True) for line in COMMAND_BLOCK.splitlines()]


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=" ".join)
def test_readme_command_line_runs(capsys, argv):
    assert argv[0] == "unimoments"
    assert cli.main(argv[1:]) == 0
    if "csv" not in argv:
        jsonschema.validate(json.loads(capsys.readouterr().out), cli.OUTPUT_SCHEMAS[argv[1]])
