"""Every name a module of the package imports is read in that module.

The package ``__init__.py`` files are left out: they import names to
re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kkfree"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


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
