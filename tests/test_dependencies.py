"""The package imports nothing beyond the standard library and mpmath.

Every `import` and `from ... import` in src/orbitforms/*.py, at any depth
(function-local imports included), must name a standard-library module,
mpmath, or the package itself (a relative import or `orbitforms.*`).  Exact
algebra such as the symmetric reduction is written here, never borrowed
from a computer-algebra package.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "orbitforms"
ALLOWED = {"mpmath", "orbitforms"}


def foreign_imports(source: str) -> list[str]:
    """The top-level module names imported from outside the allowed set."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names
            if name.split(".")[0] not in sys.stdlib_module_names | ALLOWED]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_stdlib_and_mpmath(path):
    assert foreign_imports(path.read_text()) == []


def test_the_guard_sees_imports_at_every_depth():
    source = ("import os, sympy.core\nfrom . import poly\nfrom mpmath import mp\n"
              "def f():\n    from numpy import array\n    import orbitforms.cli\n")
    assert foreign_imports(source) == ["sympy.core", "numpy"]
