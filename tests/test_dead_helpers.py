"""No dead helpers in the package: every module-level def or class in
`src/orbitforms/*.py` is referred to somewhere in `src/`, by a Name or an
Attribute, unless the package exports it (`orbitforms.__all__`) or the
benchmark's tracer wraps it (the `LAYERS` table of `perfbench/spans.py`,
read here as source, not imported).  A helper only tests call belongs in
the tests, or the tests call the primitive it wraps."""

import ast
from pathlib import Path

import orbitforms

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orbitforms"


def dead_helpers(sources: dict[str, str], exempt: set[str]) -> list[str]:
    """"module.name" for each module-level def or class of `sources`
    (module name -> source text) that no Name or Attribute of any of them
    refers to, and that is not in `exempt` ("module.name" entries)."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{module}.{node.name}"
            for module, tree in sorted(trees.items()) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in used and f"{module}.{node.name}" not in exempt]


def traced_names() -> set[str]:
    """"module.name" of each `LAYERS` entry of perfbench/spans.py; for a
    method ("Class.method") the class."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)):
            return {f"{ast.literal_eval(module)}.{ast.literal_eval(attr).split('.')[0]}"
                    for _, module, attr, _ in (entry.elts for entry in node.value.elts)}
    raise AssertionError("perfbench/spans.py has no LAYERS table")


def test_every_package_helper_is_used_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    exported = {f"{module}.{name}" for module in sources for name in orbitforms.__all__}
    assert dead_helpers(sources, exported | traced_names()) == []


def test_the_guard_flags_a_planted_dead_helper():
    sources = {
        "a": "def used():\n    pass\n\ndef dead():\n    pass\n\n"
             "class Kept:\n    pass\n\ndef exported():\n    pass\n",
        "b": "from .a import used, dead\nimport a\n\n"
             "def caller():\n    return used(), a.Kept\n",
    }
    # an import alone is no use, and a def in one module is seen from another
    assert dead_helpers(sources, set()) == ["a.dead", "a.exported", "b.caller"]
    assert dead_helpers(sources, {"a.exported", "b.caller"}) == ["a.dead"]
    assert "cartesian.psi0_cartesian" in traced_names()
