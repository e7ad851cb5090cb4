"""Smoke tests of the package surface: public names resolve, demos run."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", ["special", "models", "moments", "bounds", "montecarlo"])
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"mlebounds.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse((SRC / "mlebounds" / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    missing = []
    for node in imports:
        module = importlib.import_module(f"mlebounds.{node.module}")
        missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert missing == []


# Each module may import only from modules before it.
LAYERS = ("errors", "special", "models", "moments", "bounds", "montecarlo", "cli")


@pytest.mark.parametrize("name", LAYERS)
def test_modules_import_only_lower_layers(name):
    tree = ast.parse((SRC / "mlebounds" / f"{name}.py").read_text())
    targets = []
    for node in ast.walk(tree):  # function-level imports included
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:
                targets += [a.name for a in node.names]
            else:
                targets.append(node.module.split(".")[0])
    assert [t for t in targets if t not in LAYERS[: LAYERS.index(name)]] == []


def test_layers_cover_the_package():
    modules = {p.stem for p in (SRC / "mlebounds").glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_there_are_demos():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
