"""Smoke tests of the package surface: public names, and those the
benchmark looks up, resolve; demos and the README examples run."""

import ast
import contextlib
import importlib
import io
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mlebounds
from mlebounds import cli
from mlebounds.models import MODEL_FAMILIES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"

# The modules that declare public names; cli is an entry point only.
PUBLIC_MODULES = ("errors", "special", "models", "moments", "bounds", "montecarlo")


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"mlebounds.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_exactly_the_modules_all():
    declared = set()
    for name in PUBLIC_MODULES:
        declared.update(importlib.import_module(f"mlebounds.{name}").__all__)
    exported = {
        name for name, value in vars(mlebounds).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(exported - declared) == []
    assert sorted(declared - exported) == []


def test_exp_canonical_mse_has_one_public_spelling():
    # The formula is the mse field of exp_canonical_model, reached through
    # mse_closed_form; the former helper mse_exp_canonical is not exported.
    from mlebounds import models

    assert "mse_exp_canonical" not in models.__all__
    assert not hasattr(models, "mse_exp_canonical")
    assert not hasattr(mlebounds, "mse_exp_canonical")
    m = mlebounds.exp_canonical_model()
    assert mlebounds.mse_closed_form(m, 10, 1.0) == 12 * 1.0**2 / (9 * 8)


def test_package_star_imports_exactly_the_public_modules():
    # Each module's __all__ is the only export list; the package keeps none.
    tree = ast.parse((SRC / "mlebounds" / "__init__.py").read_text())
    imports = [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports == [f"from .{name} import *" for name in PUBLIC_MODULES]


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


def test_only_models_reads_the_derivative_fields():
    # D = A'/k', i(theta) and D' = i/k' are computed in models alone.
    calls = {}
    for path in (SRC / "mlebounds").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("k1", "A1", "fisher")):
                calls.setdefault(path.stem, set()).add(node.func.attr)
    assert set(calls) == {"models"}


def test_layers_cover_the_package():
    modules = {p.stem for p in (SRC / "mlebounds").glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


BENCHMARKS = ROOT / "benchmarks"


def _literal(path: Path, name: str):
    """The literal value assigned to ``name`` at the top of ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def _mb_chains(path: Path) -> set[tuple[str, ...]]:
    """Every attribute chain the benchmark spells below ``env.mb``, also
    through a function-local alias such as ``mc = env.mb.montecarlo``."""

    def chain(node):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        return [node.id] + names[::-1] if isinstance(node, ast.Name) else []

    chains = set()
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, ast.FunctionDef):
            continue
        aliases = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                pairs = (
                    zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                    and isinstance(value, ast.Tuple) else [(target, value)]
                )
                for t, v in pairs:
                    if isinstance(t, ast.Name) and chain(v)[:2] == ["env", "mb"]:
                        aliases[t.id] = tuple(chain(v)[2:])
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                names = chain(node)
                if names[:2] == ["env", "mb"]:
                    chains.add(tuple(names[2:]))
                elif names and names[0] in aliases:
                    chains.add(aliases[names[0]] + tuple(names[1:]))
    return chains


def test_benchmark_names_resolve_in_the_package():
    # The benchmark's tracer and workloads look these names up when they
    # run; a name deleted or moved here would only break the benchmark.
    missing = []
    for module, attribute, _ in _literal(BENCHMARKS / "tracing.py", "TARGETS"):
        if not hasattr(importlib.import_module(module), attribute):
            missing.append(f"{module}.{attribute}")
    for module, cls, method, _ in _literal(BENCHMARKS / "tracing.py", "CLASS_TARGETS"):
        if not hasattr(getattr(importlib.import_module(module), cls, None), method):
            missing.append(f"{module}.{cls}.{method}")
    chains = _mb_chains(BENCHMARKS / "workloads.py")
    assert {c[:2] for c in chains} >= {("models", "sup_abs_d_second"), ("montecarlo", "table1")}
    for names in chains:
        obj = mlebounds
        for name in names:
            obj = getattr(obj, name, missing)
        if obj is missing:
            missing.append("mlebounds." + ".".join(names))
    assert missing == []


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


# Blocks scipy, mpmath and hypothesis (the test extras), then uses the
# library and its CLI; an import of any of them raises ImportError.
NUMPY_ONLY = """
import sys
for name in ("scipy", "mpmath", "hypothesis"):
    sys.modules[name] = None
import mlebounds
from mlebounds import cli
argv = ["bound", "--formula", "expfam", "--model", "gg", "--d", "2", "--p", "1.5",
        "--theta0", "1.5", "--n", "100", "--format", "json"]
assert cli.main(argv) == 0
assert len(mlebounds.table1(trials=1000)) == 5
"""


def test_the_runtime_needs_only_numpy():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert '"formula": "expfam"' in done.stdout


@pytest.mark.parametrize("argv, code", [
    (["bound", "--formula", "exp-noncanonical", "--n", "10"], 0),
    (["bound", "--formula", "exp-noncanonical", "--n", "0"], 2),
], ids=["bound", "n-zero"])
def test_the_console_entry_point_exits_with_mains_code(argv, code):
    # python -m runs cli.entrypoint, which passes main's return to sys.exit.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "mlebounds.cli", *argv],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == code, done.stderr
    if code == 0:
        assert "exp-noncanonical" in done.stdout
    else:
        assert done.stdout == ""
        assert done.stderr.startswith("error: n must be an integer >= 1")


def _readme_section(heading: str) -> str:
    """The text under the README's ``## heading``."""
    return README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def _readme_block(heading: str) -> str:
    """The first fenced block under the README's ``## heading``."""
    return _readme_section(heading).split("```", 2)[1].split("\n", 1)[1]


def test_readme_command_lines_succeed(capsys):
    lines = [line for line in _readme_block("Command line").splitlines() if line.strip()]
    assert lines and all(line.startswith("mlebounds ") for line in lines)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()


def test_readme_quick_start_runs_and_prints_its_total():
    code = _readme_block("Library quick start")
    (comment,) = [line.split("#", 1)[1] for line in code.splitlines() if "print(bd.total)" in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README quick start", "exec"), {})
    assert out.getvalue().startswith(comment.strip().rstrip(".")), out.getvalue()


def test_readme_lists_the_cli_vocabulary():
    prose = _readme_section("Command line")
    formulas = prose.split("Formulas:", 1)[1].split("Models:", 1)[0]
    models, flags = prose.split("Models:", 1)[1].split("shape flags", 1)
    flags = flags.split(")", 1)[0]

    def ticked(text):
        return set(re.findall(r"`([^`]+)`", text))

    assert ticked(formulas) == set(cli.FORMULAS)
    assert ticked(models) == set(MODEL_FAMILIES)
    assert ticked(flags) == {f"--{name}" for name in cli._MODEL_PARAM_FLAGS}
