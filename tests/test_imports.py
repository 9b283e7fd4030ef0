"""Every name a module of the package imports is read in that module, every
name a package's ``__all__`` lists exists, every package name the
benchmark's tracer patches exists, importing the package loads none of its
modules, and importing the command line loads no ``dataclasses``.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kkfree"
MODULES = sorted(PACKAGE.rglob("*.py"))
PACKAGES = sorted(p.parent for p in PACKAGE.rglob("__init__.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports (``__future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            imported += [alias.asname or alias.name.partition(".")[0]
                         for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_unused_imports_finds_a_name_never_read():
    source = ("from __future__ import annotations\n"
              "import json, os.path\nfrom math import lcm as m, gcd\n"
              "print(os.path.sep, gcd(4, 6))\n")
    assert unused_imports(source) == ["json", "m"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("name", [
    ".".join(p.relative_to(PACKAGE.parent).parts) for p in PACKAGES])
def test_every_name_in_all_exists(name):
    # A deleted name left in ``__all__`` breaks only ``import *``.
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ())
            if not hasattr(module, n)] == []


def patched_names(source: str) -> list[tuple[str, str]]:
    """The (module, attribute) pair that starts each ``("kkfree...",
    "attr", ...)`` tuple in ``source``."""
    return [(node.elts[0].value, node.elts[1].value)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Tuple) and len(node.elts) >= 2
            and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in node.elts[:2])
            and node.elts[0].value.split(".")[0] == "kkfree"]


def test_every_name_the_benchmark_tracer_patches_exists():
    # bench/tracing.py patches these names by string; a renamed one would
    # fail only the traced benchmark run.
    names = patched_names((ROOT / "bench" / "tracing.py").read_text())
    assert ("kkfree.reductions", "Reduction.verify") in names
    missing = []
    for module, attr in names:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_importing_the_package_loads_no_submodule():
    # Each name is imported from its defining module, so the package
    # ``__init__`` re-exports nothing.  -S leaves out site, as below.
    code = ("import sys, kkfree; "
            "print(sorted(m for m in sys.modules if m.startswith('kkfree.')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr


def test_importing_the_cli_loads_no_dataclasses():
    # Every command and every benchmark worker imports the CLI first;
    # dataclasses would generate and compile methods for each class there.
    # -S leaves out site, whose imports depend on the environment.
    code = "import sys, kkfree.cli; print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr
