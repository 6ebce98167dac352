"""CLI fuzzing: every argv ends in exit 0, 2 or 3, never in a traceback, and
exit 2 says what was wrong in exactly one `error:` line."""

import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from orbitforms.cli import main

# mostly valid values, so that a fair share of the runs does real work
RATIONALS = ["0", "1", "-1", "1/2", "-3/4", "-1/2", "-7/3", "7/3", "2/5", "1/0",
             "-1/0", "0.5x", "2/-3"]
# huge values are refused before any work starts
HUGE = ["1000000000", "9" * 40]
COUNTS = ["1", "2", "3", "0", "-2", "x", *HUGE]
LEVELS = ["0", "1", "2", "3", "-1", "two", "41", *HUGE]
VECTORS = ["1", "2", "1,2", "2,1", "1,1", "2,3", "0,1", "a,b", "1,2,3"]
# each value is under its ceiling, but the flag is far above the dimension
# ceiling; the last two flags are weighted
HUGE_FLAGS = ["spectrum --model bcn --N 10 --n 40",
              "spectrum --model sutherland --N 9 --n 30",
              "spectrum --model sutherland --N 6 --f 1,2,3,4,5 --n 40",
              "spectrum --model bcn --N 4 --n 40 --f 1,1,2,1"]


@pytest.fixture(scope="module")
def paths():
    """Config files, output paths and cache directories, good and bad."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        files = {
            "good.cfg": "# small run\nseed=2\ntuples=1\n",
            "no_equals.cfg": "just a line\n",
            "unknown_key.cfg": "n_max=4\n",
            "bad_value.cfg": "seed=many\n",
            "bad_rational.cfg": "nu2=1/0\n",
            "bad_bool.cfg": "numeric_check=maybe\n",
            "binary.cfg": None,
            "plain_file": "not a directory\n",
        }
        for name, text in files.items():
            if text is None:
                (root / name).write_bytes(b"\xff\xfe\x00seed=1")
            else:
                (root / name).write_text(text)
        (root / "cache").mkdir()
        yield {
            "config": [str(root / name) for name in files if name.endswith(".cfg")]
            + [str(root / "missing.cfg"), str(root)],
            "out": [str(root / "out.json"), str(root), str(root / "no" / "out.json")],
            "cache": [str(root / "cache"), str(root / "plain_file")],
        }


def _option(flag: str, values) -> st.SearchStrategy:
    """`--flag value` or `--flag=value`."""
    if not isinstance(values, st.SearchStrategy):
        values = st.sampled_from(values)
    return st.tuples(st.booleans(), values).map(
        lambda pair: [f"{flag}={pair[1]}"] if pair[0] else [flag, pair[1]])


def _common(paths) -> list[st.SearchStrategy]:
    return [
        _option("--config", paths["config"]),
        _option("--out", paths["out"]),
        _option("--cache-dir", paths["cache"]),
        _option("--format", ["json", "json", "csv", "xml"]),
        _option("--seed", COUNTS),
        _option("--dps", ["30", "15", "0", "-4", "501", *HUGE]),
        st.just(["--bogus"]),
    ]


def _argv(paths) -> st.SearchStrategy:
    spectrum = [
        _option("--N", COUNTS),
        _option("--f", VECTORS),
        st.just(["--no-numeric-check"]),
    ] + [_option(f"--{key}", RATIONALS) for key in ("nu", "nu2", "nu3", "mu", "b")]
    verify = [
        _option("--model", ["bc1", "sutherland", "g2", "all", "BC1"]),
        _option("--tuples", COUNTS),
        _option("--sample-points", COUNTS),
        _option("--n", LEVELS),
        st.just(["--include-timings"]),
    ]
    models = ["bc1", "bc1_qes", "sutherland", "bcn", "g2", "nope"]
    heads = st.sampled_from([
        (st.tuples(_option("--model", models), _option("--n", LEVELS)).map(
            lambda pair: ["spectrum", *pair[0], *pair[1]]), spectrum),
        # no option of its own follows, since a smaller --N or --f could
        # bring the flag under the ceiling and start a long computation
        (st.sampled_from(HUGE_FLAGS).map(str.split), []),
        (st.just(["verify", "--suite", "flags"]), verify),
        (st.just(["verify", "--suite", "pi"]), verify),
        (st.just(["table"]), []),
    ])

    @st.composite
    def build(draw):
        head, own = draw(heads)
        options = own + _common(paths)
        argv = draw(head)
        for i in draw(st.sets(st.integers(0, len(options) - 1), max_size=4)):
            argv += draw(options[i])
        return argv

    return build()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_fuzz_exit_codes_and_messages(paths, data):
    argv = data.draw(_argv(paths), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("ORBITFORMS_CACHE", None)
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse refuses the argv itself
            code = exc.code
    stderr = err.getvalue()
    event(f"exit {code}")
    assert code in (0, 2, 3), (argv, stderr)
    assert "Traceback" not in stderr and "internal error" not in stderr, (argv, stderr)
    # every option of the argv has its value, negative rationals included
    assert "expected one argument" not in stderr, (argv, stderr)
    if code == 2:
        assert sum("error:" in line for line in stderr.splitlines()) == 1, (argv, stderr)
