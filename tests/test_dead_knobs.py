"""No dead knobs: every key of `report._CONFIG_FIELDS` is read somewhere in
`src/orbitforms/*.py`, as the string first argument of a `.get(...)` or
`.fraction(...)` call.  A key that nothing reads still changes the report's
`config` block and the cache key, while the run does the same work."""

import ast
from pathlib import Path

from orbitforms.report import _CONFIG_FIELDS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orbitforms"


def dead_knobs(fields, sources: list[str]) -> list[str]:
    """The keys of `fields` that no `.get("key", ...)` or
    `.fraction("key", ...)` call of `sources` (source texts) reads."""
    read = set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("get", "fraction") and node.args
                    and isinstance(node.args[0], ast.Constant)):
                read.add(node.args[0].value)
    return sorted(set(fields) - read)


def test_every_config_key_is_read_in_the_package():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert dead_knobs(_CONFIG_FIELDS, sources) == []


def test_the_guard_flags_a_planted_unread_key():
    sources = ['def run(config):\n'
               '    return config.get("seed", 1), config.fraction("nu", 0)\n',
               'LIMITS = {"orthogonality_tol": "1e-10"}\n'
               'def lookup(key):\n    return LIMITS[key], get("residual_tol")\n']
    fields = {"seed": int, "nu": str, "orthogonality_tol": str, "residual_tol": str}
    # a key named elsewhere, or read by a bare call, is still unread
    assert dead_knobs(fields, sources) == ["orthogonality_tol", "residual_tol"]
