"""Every name a library module imports is read somewhere in that module.

`__init__.py` is exempt: its imports are re-exports. So are `from
__future__` imports, which change the compiler and bind nothing read.
"""

import ast
from pathlib import Path

import pytest

import affhur

MODULES = sorted(p for p in Path(affhur.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_scan_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nfrom math import gcd, lcm\n"
              "def f(x) -> int:\n    return gcd(x, 2)\n")
    assert unused_imports(source) == ["lcm (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
