"""Every name a library module imports is read somewhere in that module,
and every public top-level function or class, and every public method of a
public class, has a reader outside the tests.

`__init__.py` is exempt from the import scan: its imports are re-exports.
So are `from __future__` imports, which change the compiler and bind
nothing read.

The CLI's import loads neither click nor dataclasses: each command starts
a fresh interpreter, which would pay for both.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import affhur
from affhur.cli import COMMANDS

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


# The paper's definitions, kept although only the tests read them so far:
# ROADMAP items 7 and 9 wire them into `affhur verify`.
UNREAD_ALLOWED = {"is_quasi_coxeter_fin", "is_parabolic_quasi_coxeter_fin",
                  "is_parabolic_quasi_coxeter_affine", "smallest_subsystem"}
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def public_definitions(source: str) -> list[str]:
    """The public functions and classes a module defines at top level."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def names_read(source: str) -> set[str]:
    """Names the source loads, bare or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unread_definitions(modules: dict[str, str], used: set[str]) -> list[str]:
    """The public definitions of `modules` (name -> source) that no module
    reads and that are not in `used`."""
    read = set().union(*map(names_read, modules.values()))
    return sorted(f"{name}.{d}" for name, source in modules.items()
                  for d in public_definitions(source)
                  if d not in read and d not in used)


def test_scan_flags_an_unread_definition():
    modules = {"a": "def f():\n    return g()\n\ndef g():\n    return 1\n"
                    "class C:\n    pass\n\ndef _h():\n    pass\n",
               "b": "from .a import f\n\ndef k():\n    return f\n"}
    assert unread_definitions(modules, {"k"}) == ["a.C"]


def test_every_public_definition_has_a_reader():
    # read by a library module, exported by the package, a command of the
    # CLI, or named by the benchmark (its tracer's targets)
    modules = {p.stem: p.read_text() for p in MODULES}
    commands = {fn.__name__ for fn, _ in COMMANDS.values()}
    perfbench = set(re.findall(r"\w+", "\n".join(
        p.read_text() for p in sorted(PERFBENCH.glob("*.py")))))
    used = set(affhur.__all__) | commands | perfbench | UNREAD_ALLOWED
    assert unread_definitions(modules, used) == []


def public_methods(source: str) -> list[str]:
    """Class.method for the public methods and properties of the public
    classes a module defines at top level; dunder methods are not public."""
    return [f"{cls.name}.{node.name}" for cls in ast.parse(source).body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def attributes_read(source: str) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_methods(modules: dict[str, str], used: set[str]) -> list[str]:
    """The public methods of `modules` (name -> source) whose name no module
    reads as an attribute and that are not in `used`."""
    read = set().union(*map(attributes_read, modules.values())) | used
    return sorted(f"{name}.{m}" for name, source in modules.items()
                  for m in public_methods(source) if m.split(".")[1] not in read)


def test_scan_flags_an_unread_method():
    modules = {"a": "class C:\n    def f(self):\n        return self.g()\n"
                    "    def g(self):\n        return 1\n"
                    "    @property\n    def p(self):\n        return 2\n"
                    "    def h(self):\n        pass\n"
                    "    def m(self):\n        pass\n"
                    "    def __len__(self):\n        return 0\n"
                    "    def _q(self):\n        pass\n"
                    "class _D:\n    def k(self):\n        pass\n",
               "b": "def use(c):\n    c.m = None\n    return c.f, c.p\n"}
    # h is named elsewhere; a store to c.m is not a read
    assert unread_methods(modules, {"h"}) == ["a.C.m"]
    mentioned = names_mentioned('TARGETS = ("C.h", "affhur.a")\nx = "the m"\n'
                                '# m\nprint(y.f)\n')
    assert {"C", "h", "affhur", "a", "f"} <= mentioned and "m" not in mentioned


def names_mentioned(source: str) -> set[str]:
    """Names the source reads, and the parts of its string constants that
    are dotted names, such as the tracer's "Class.method" targets; not the
    words of comments or prose."""
    out = names_read(source)
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and re.fullmatch(r"\w+(\.\w+)*", node.value)):
            out.update(node.value.split("."))
    return out


def test_every_public_method_has_a_reader():
    # read as an attribute by a library module, or named by the benchmark
    modules = {p.stem: p.read_text() for p in MODULES}
    perfbench = set().union(*(names_mentioned(p.read_text())
                              for p in PERFBENCH.glob("*.py")))
    assert unread_methods(modules, perfbench) == []


def test_the_cli_imports_neither_click_nor_dataclasses():
    # every command starts a fresh interpreter: importing click or
    # generating dataclass methods would cost each of them
    src = str(Path(affhur.__file__).resolve().parent.parent)
    code = ("import sys, affhur.cli; "
            "print(sorted({'click', 'dataclasses'} & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
