"""No dead knobs: every key of `report._CONFIG_FIELDS` is read somewhere in
`src/orbitforms/*.py`, as the string first argument of a `.get(...)` or
`.fraction(...)` call.  A key that nothing reads still changes the report's
`config` block and the cache key, while the run does the same work.  The
same holds per command: `table` refuses every key but the three it reads.
And every default lives in `report._DEFAULTS` alone: no `.get("key", default)`
restates the default of a key that `RunConfig.from_items` always fills."""

import ast
from pathlib import Path

from orbitforms.cli import main
from orbitforms.report import _CONFIG_FIELDS, _DEFAULTS

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


def restated_defaults(defaults, sources: list[str]) -> list[str]:
    """The keys of `defaults` that a `.get("key", default)` call of
    `sources` (source texts) reads with a default of its own."""
    restated = set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get" and len(node.args) == 2
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value in defaults):
                restated.add(node.args[0].value)
    return sorted(restated)


def test_no_read_restates_a_config_default():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert restated_defaults(_DEFAULTS, sources) == []


def test_the_guard_flags_a_planted_restated_default():
    sources = ['def run(config):\n'
               '    return (int(config.get("seed", 1)), config.get("dps"),\n'
               '            config.get("command", "verify"))\n']
    # a read without a default, or of a key with no default, passes
    assert restated_defaults({"seed": 1, "dps": 40}, sources) == ["seed"]


def test_table_refuses_every_key_it_does_not_read(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    assert main(["table"]) == 0
    plain = capsys.readouterr().out
    cfg = tmp_path / "run.cfg"

    def refused(argv, key):
        assert main(["table", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error: table takes no {key}; "
                                     "it reads only format, out and cache_dir\n")

    refused(["--seed", "7", "--dps", "30"], "seed")
    refused(["--dps", "30"], "dps")
    for key, value in (("nu", "1/2"), ("seed", "1"), ("suite", "pi"),
                       ("numeric_check", "false"), ("model", "bc1")):
        cfg.write_text(f"format=csv\n{key}={value}\n")
        refused(["--config", str(cfg)], key)
    # the keys it reads, from the command line and from a config file
    cfg.write_text(f"format=json\ncache_dir={tmp_path / 'cache'}\n")
    assert main(["table", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == plain
    csv_out = tmp_path / "table.csv"
    assert main(["table", "--format", "csv", "--out", str(csv_out)]) == 0
    assert csv_out.read_text().startswith("model,column,vector")
