"""The public surface: every exported name resolves, and the README tour runs."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import unimoments

ROOT = Path(__file__).resolve().parents[1]
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
    readme = (ROOT / "README.md").read_text()
    (tour,) = re.findall(r"## Library tour\n\n```python\n(.*?)```", readme, re.DOTALL)
    exec(compile(tour, "README.md", "exec"), {})
