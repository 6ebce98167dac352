"""Configuration, reports, cache and the command-line interface."""

import functools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from orbitforms import report
from orbitforms.cli import main
from orbitforms.errors import DomainError
from orbitforms.poly import flag_dimension
from orbitforms.report import (CEILINGS, FLAG_DIM_CEILING, FLOORS, RunConfig,
                               cache_lookup, cache_store, load_whitelist,
                               parse_config_file)
from orbitforms.suites import run_suite


def run_cli(*args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "orbitforms.cli", *args],
                          capture_output=True, text=True, env=full_env)


# -- configuration -------------------------------------------------------------

def test_config_rejects_unknown_keys():
    with pytest.raises(DomainError):
        RunConfig.from_items({"bogus": 1})


def test_config_rational_round_trip():
    cfg = RunConfig.from_items({"nu2": "22/7"})
    assert cfg.fraction("nu2") == Fraction(22, 7)
    assert cfg.canonical()["nu2"] == "22/7"


def test_config_rejects_float_like_garbage():
    with pytest.raises((DomainError, ValueError)):
        RunConfig.from_items({"nu2": "not-a-number"})


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nseed=9\nnu2=1/3\n")
    items = parse_config_file(path)
    assert items == {"seed": "9", "nu2": "1/3"}
    cfg = RunConfig.from_items(items)
    assert cfg.get("seed") == 9


def test_config_file_rejects_bad_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just a line\n")
    with pytest.raises(DomainError):
        parse_config_file(path)


def test_whitelist_loads():
    wl = load_whitelist()
    assert "bc1_hidden_linear" in wl
    assert "ttw_radial_power" in wl


# -- determinism and cache ------------------------------------------------------

def test_report_bytes_deterministic():
    cfg = RunConfig.from_items({"command": "verify", "suite": "pi", "seed": 3})
    a = run_suite("pi", cfg).to_bytes()
    b = run_suite("pi", cfg).to_bytes()
    assert a == b


def test_cache_round_trip(tmp_path):
    env = {"ORBITFORMS_CACHE": str(tmp_path)}
    first = run_cli("verify", "--suite", "pi", "--seed", "2", env=env)
    assert first.returncode == 0
    cached = run_cli("verify", "--suite", "pi", "--seed", "2", env=env)
    assert cached.returncode == 0
    assert first.stdout == cached.stdout
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_cache_truncated_entry_is_recomputed(tmp_path):
    args = ("spectrum", "--model", "bc1", "--nu2", "1/3", "--nu3", "2/5",
            "--n", "3", "--cache-dir", str(tmp_path))
    first = run_cli(*args)
    assert first.returncode == 0
    (entry,) = tmp_path.glob("*.json")
    entry.write_bytes(entry.read_bytes()[:40])
    again = run_cli(*args)
    assert again.returncode == 0
    assert again.stdout == first.stdout
    json.loads(entry.read_bytes())            # the store rewrote it whole
    assert list(tmp_path.iterdir()) == [entry]


def test_cache_misses_on_another_version_or_schema(tmp_path, monkeypatch):
    items = {"command": "spectrum", "model": "bc1", "n": 1, "cache_dir": str(tmp_path)}
    cfg = RunConfig.from_items(items)
    cache_store(cfg, b"payload")
    assert cache_lookup(cfg) == b"payload"
    monkeypatch.setattr(report, "__version__", "0.0.0")
    assert cache_lookup(RunConfig.from_items(items)) is None
    monkeypatch.undo()
    (entry,) = tmp_path.glob("*.json")
    entry.write_text(json.dumps({"schema": "orbit-forms/0", "payload": "payload"}))
    assert cache_lookup(cfg) is None


def test_cache_key_covers_the_whitelist(monkeypatch, tmp_path):
    items = {"command": "verify", "suite": "pi"}
    source_digest = report._source_digest.__wrapped__    # uncached
    before = RunConfig.from_items(items).digest()
    monkeypatch.setattr(report, "_whitelist_text", lambda: '{"entries": {}}')
    assert RunConfig.from_items(items).digest() != before
    # a changed program under the same version string keys a new entry
    monkeypatch.undo()
    assert RunConfig.from_items(items).digest() == before
    monkeypatch.setattr(report, "_source_digest", lambda: "0" * 64)
    assert RunConfig.from_items(items).digest() != before
    # and that digest reads every module and data file of the package
    package = tmp_path / "orbitforms"
    shutil.copytree(Path(report.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(report, "__file__", str(package / "report.py"))
    digests = {source_digest()}
    for name in ("linalg.py", "data/whitelist.json"):
        with open(package / name, "a") as f:
            f.write(" ")
        digests.add(source_digest())
    assert len(digests) == 3


def test_one_main_call_computes_the_cache_key_once(tmp_path, monkeypatch, capsys):
    # a miss looks the key up and stores under it: one digest for both
    original = RunConfig._digest
    configs = []

    def counted(config):
        configs.append(config)
        return original.func(config)

    monkeypatch.setattr(RunConfig, "_digest", functools.cached_property(counted))
    RunConfig._digest.__set_name__(RunConfig, "_digest")
    assert main([*SMALL_SPECTRUM, "--cache-dir", str(tmp_path)]) == 0
    (config,) = configs
    (entry,) = tmp_path.glob("*.json")
    assert entry.name == f"{config.digest()}.json" == f"{original.func(config)}.json"


def test_cache_store_whose_rename_fails_leaves_no_temporary_file(tmp_path, monkeypatch,
                                                                   capsys):
    def failing(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(report.os, "replace", failing)
    _main_one_line_error(capsys, [*SMALL_SPECTRUM, "--cache-dir", str(tmp_path)])
    assert list(tmp_path.iterdir()) == []


# -- CLI ------------------------------------------------------------------------

def test_cli_spectrum_bc1():
    res = run_cli("spectrum", "--model", "bc1", "--nu2", "1", "--nu3", "2",
                  "--n", "4", "--no-numeric-check")
    assert res.returncode == 0
    body = json.loads(res.stdout)
    assert body["dim"] == 5
    values = [e["eigenvalue"] for e in body["entries"]]
    assert values == ["0", "5", "12", "21", "32"]


def test_cli_spectrum_sutherland_dimension():
    res = run_cli("spectrum", "--model", "sutherland", "--N", "3",
                  "--nu", "1/2", "--n", "2", "--no-numeric-check")
    assert res.returncode == 0
    assert json.loads(res.stdout)["dim"] == 6


def test_cli_spectrum_g2_weighted_flag():
    # lattice enumeration oracle: p1 + 2 p2 <= 2 has 4 points
    res = run_cli("spectrum", "--model", "g2", "--nu", "1", "--mu", "1",
                  "--n", "2", "--f", "1,2", "--no-numeric-check")
    assert res.returncode == 0
    assert json.loads(res.stdout)["dim"] == 4


def test_cli_spectrum_csv():
    res = run_cli("spectrum", "--model", "bc1", "--nu2", "1", "--nu3", "2",
                  "--n", "2", "--no-numeric-check", "--format", "csv")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "eigenvalue,multiplicity,quantum_indices"
    assert len(lines) == 4


def test_cli_calls_in_one_process_share_no_state(tmp_path, monkeypatch):
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    out = tmp_path / "report.json"
    query = ["spectrum", "--model", "bcn", "--N", "2", "--nu", "1/2",
             "--nu2", "1/3", "--nu3", "1/5", "--n", "2", "--out", str(out)]
    assert main([*query, "--no-numeric-check"]) == 0
    assert json.loads(out.read_text())["numeric_checked"] is False
    assert main(query) == 0
    assert json.loads(out.read_text())["numeric_checked"] is True


@pytest.mark.parametrize("argv", [
    ["--model", "bc1", "--nu2", "1/3", "--nu3", "1/5"],
    ["--model", "bc1_qes", "--nu2", "1/3", "--nu3", "1/5", "--b", "2/3"],
    ["--model", "sutherland", "--N", "3", "--nu", "1/2"],
    ["--model", "bcn", "--N", "2", "--nu", "1/2", "--nu2", "1/3", "--nu3", "1/5"],
    ["--model", "g2", "--nu", "1/2", "--mu", "1/3"],
], ids=lambda argv: argv[1])
def test_spectrum_json_names_the_model_as_its_config_does(tmp_path, monkeypatch, argv):
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    out = tmp_path / "report.json"
    assert main(["spectrum", *argv, "--n", "2", "--out", str(out)]) == 0
    body = json.loads(out.read_text())
    assert body["model"] == body["config"]["model"] == argv[1]


def test_cli_qes_spectrum():
    res = run_cli("spectrum", "--model", "bc1_qes", "--nu2", "0", "--nu3", "0",
                  "--b", "1", "--n", "1")
    assert res.returncode == 0
    body = json.loads(res.stdout)
    assert body["exact_trace"] == "7"
    assert len(body["entries"]) == 2


def test_cli_qes_spectrum_csv():
    res = run_cli("spectrum", "--model", "bc1_qes", "--nu2", "0", "--nu3", "0",
                  "--b", "1", "--n", "1", "--format", "csv")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "eigenvalue,multiplicity,quantum_indices"
    values = json.loads(run_cli("spectrum", "--model", "bc1_qes", "--nu2", "0",
                                "--nu3", "0", "--b", "1", "--n", "1").stdout)
    assert lines[1:] == [f"{e['eigenvalue_numeric']},1,"
                         for e in values["entries"]]


def test_cli_qes_char_vector():
    args = ("spectrum", "--model", "bc1_qes", "--nu2", "0", "--nu3", "0",
            "--b", "1", "--n", "1", "--f")
    assert run_cli(*args, "1").returncode == 0
    _one_line_error(run_cli(*args, "2"))


def test_cli_table_rows():
    res = run_cli("table")
    assert res.returncode == 0
    rows = json.loads(res.stdout)["rows"]
    assert rows["E7/trig_minimal"] == [1, 2, 2, 2, 3, 3, 4]
    assert rows["A_N/rational"] == "1^N"
    assert rows["H4/rational"] == [1, 5, 8, 12]


def test_cli_invalid_config_exit_2():
    res = run_cli("spectrum", "--model", "bc1", "--nu2", "0.5x", "--n", "2")
    assert res.returncode == 2
    assert "error" in res.stderr


def test_cli_missing_level_exit_2():
    res = run_cli("spectrum", "--model", "bc1")
    assert res.returncode == 2


def test_cli_unknown_suite_exit_2():
    res = run_cli("verify", "--suite", "bogus")
    assert res.returncode == 2


def test_cli_verify_pass_exit_0(tmp_path):
    out = tmp_path / "rep.json"
    res = run_cli("verify", "--suite", "pi", "--out", str(out))
    assert res.returncode == 0
    body = json.loads(out.read_text())
    assert body["schema"] == "orbit-forms/1"
    assert body["summary"]["fail"] == 0
    assert all(set(c) >= {"name", "status", "exact", "numeric", "witness"}
               for c in body["checks"])


def test_cli_verify_filters_by_model():
    res = run_cli("verify", "--suite", "flags", "--model", "g2")
    assert res.returncode == 0


def test_report_identical_across_output_paths(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("verify", "--suite", "ttw", "--seed", "5", "--out", str(a),
            "--sample-points", "8")
    run_cli("verify", "--suite", "ttw", "--seed", "5", "--out", str(b),
            "--sample-points", "8")
    assert a.read_bytes() == b.read_bytes()


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nu2=1\nnu3=2\nn=2\nnumeric_check=false\n")
    res = run_cli("spectrum", "--model", "bc1", "--config", str(cfg), "--n", "4")
    assert res.returncode == 0
    body = json.loads(res.stdout)
    assert body["dim"] == 5            # CLI --n overrides the file value
    assert body["config"]["nu3"] == "2"


def test_cli_config_file_unknown_key_exit_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate=1\n")
    res = run_cli("spectrum", "--model", "bc1", "--n", "2", "--config", str(cfg))
    assert res.returncode == 2


def test_cli_include_timings_flag():
    res = run_cli("verify", "--suite", "pi", "--include-timings")
    assert res.returncode == 0
    body = json.loads(res.stdout)
    assert all("timing_ms" in c for c in body["checks"])


def _one_line_error(res):
    assert res.returncode == 2
    assert res.stderr.startswith("error: ")
    assert res.stderr.count("\n") == 1


def test_cli_zero_denominator_exit_2():
    _one_line_error(run_cli("spectrum", "--model", "bc1", "--nu2", "1/0",
                            "--nu3", "1", "--n", "2"))


def test_cli_non_integer_char_vector_exit_2():
    _one_line_error(run_cli("spectrum", "--model", "g2", "--nu", "1", "--mu", "1",
                            "--n", "2", "--f", "a,b"))


def test_cli_qes_non_real_spectrum_exit_2():
    # the pair 3.203 +- 0.618i and one real eigenvalue
    res = run_cli("spectrum", "--model", "bc1_qes", "--nu2", "-3/4", "--nu3", "0",
                  "--b", "1/2", "--n", "2", "--format", "csv")
    _one_line_error(res)
    assert "2 of its 3 eigenvalues are non-real" in res.stderr
    assert res.stdout == ""


def test_cli_char_vector_length_exit_2():
    _one_line_error(run_cli("spectrum", "--model", "g2", "--nu", "1", "--mu", "1",
                            "--n", "2", "--f", "1"))


@pytest.mark.parametrize("argv, witness", [
    (("--model", "g2", "--nu", "1/2", "--mu", "1/3", "--n", "3", "--f", "1,1"),
     "it maps (0, 3) to (3, 1)"),
    (("--model", "bcn", "--N", "3", "--n", "2", "--f", "1,1,2"),
     "it maps (0, 2, 0) to (1, 0, 1)"),
])
def test_cli_flag_the_model_does_not_preserve_exit_2(argv, witness):
    res = run_cli("spectrum", *argv)
    _one_line_error(res)
    assert witness in res.stderr


def test_cli_violation_of_a_bundle_flag_stays_exit_3(monkeypatch, capsys):
    # the bundle's own flags are proven preserved; a violation there is the
    # engine's inconsistency, not the user's configuration
    import orbitforms.cli as cli
    from orbitforms.errors import FlagViolation

    def violating(*args, **kwargs):
        raise FlagViolation("planted", (1, 0), (0, 3))

    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    monkeypatch.setattr(cli, "spectrum", violating)
    for argv in ((), ("--f", "3,5")):
        assert main(["spectrum", "--model", "g2", "--nu", "1/2", "--mu", "1/3",
                     "--n", "2", *argv]) == 3
        assert "planted" in capsys.readouterr().err


@pytest.mark.parametrize("args, config_text", [
    (("--suite", "flags", "--model", "nope"), None),
    (("--suite", "flags", "--tuples", "-1"), None),
    (("--suite", "cartesian", "--sample-points", "0"), None),
    (("--suite", "cartesian", "--sample-points", "-3"), None),
    (("--suite", "cartesian", "--dps", "0"), None),
    (("--suite", "cartesian", "--dps", "-4"), None),
    (("--suite", "ttw"), "sample_points=0\n"),
    (("--suite", "flags"), "model=BC1\n"),
    # the tolerances are constants of the suites, not configuration: each
    # of the three keys is unknown, whatever its value
    (("--suite", "cartesian"), "residual_tol=abc\n"),
    (("--suite", "ttw"), "constancy_tol=xyz\n"),
    (("--suite", "cartesian"), "orthogonality_tol=1/0\n"),
    (("--suite", "cartesian"), "residual_tol=-1e-6\n"),
    (("--suite", "ttw"), "constancy_tol=0\n"),
    (("--suite", "cartesian"), "fd_step=1/100\n"),
    (("--suite", "pi"), "a=1/2\n"),
    (("--suite", "pi"), "omega=1\n"),
    (("--suite", "pi"), "beta=3/2\n"),
    (("--suite", "pi"), "m=2\n"),
    (("--suite", "pi"), "n_max=4\n"),
    # one point cannot show the ttw ground energy constant
    (("--suite", "ttw", "--sample-points", "1"), None),
    (("--suite", "all", "--sample-points", "1"), None),
    (("--suite", "ttw"), "sample_points=1\n"),
])
def test_cli_verify_rejects_bad_model_and_counts(tmp_path, args, config_text):
    if config_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
        args = (*args, "--config", str(cfg))
    _one_line_error(run_cli("verify", *args))


HUGE_VALUES = [
    ("spectrum --model bc1 --n", "n"), ("spectrum --model bcn --n 1 --N", "N"),
    ("verify --suite flags --tuples", "tuples"),
    ("verify --suite ttw --sample-points", "sample_points"),
    ("verify --suite cartesian --dps", "dps"),
]


@pytest.mark.parametrize("head,key", HUGE_VALUES)
@pytest.mark.parametrize("via_config", [False, True])
def test_cli_refuses_values_over_their_ceiling(tmp_path, capsys, head, key, via_config):
    argv = head.split()
    for value in (CEILINGS[key] + 1, 10 ** 9):
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={value}\n")
            run = [*argv[:-1], "--config", str(cfg)]
        else:
            run = [*argv, str(value)]
        _main_one_line_error(capsys, run)


@pytest.mark.parametrize("via_config", [False, True])
def test_cli_refuses_dps_below_its_floor(tmp_path, capsys, via_config):
    # a run needs at least one digit, and is refused before any work starts
    assert FLOORS["dps"] == 1
    for value in (0, -1):
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"dps={value}\n")
            run = ["verify", "--suite", "cartesian", "--config", str(cfg)]
        else:
            run = ["verify", "--suite", "cartesian", "--dps", str(value)]
        _main_one_line_error(capsys, run)


@pytest.mark.parametrize("suite", ["cartesian", "ttw", "gauge"])
def test_every_suite_that_reads_dps_ends_at_the_floor(tmp_path, monkeypatch, suite):
    # its checks may fail at so few digits (exit 3), but the run ends
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    assert main(["verify", "--suite", suite, "--sample-points", "2",
                 "--dps", str(FLOORS["dps"]), "--out", str(tmp_path / "r")]) in (0, 3)


def test_cartesian_suite_passes_at_14_digits(tmp_path, monkeypatch):
    # every bound of the suite follows the working precision: the a2 ground
    # identity's is 10^(10 - dps), not a fixed 1e-12 (its deviation reads
    # 1.6e-12 at 14 digits, seed 1)
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    assert main(["verify", "--suite", "cartesian", "--dps", "14",
                 "--out", str(tmp_path / "r")]) == 0


def test_ceilings_admit_every_shipped_level():
    # the largest levels the suites ship or the benchmark asks
    shipped = {"n": 12, "N": 5, "tuples": 5, "sample_points": 50, "dps": 60}
    for key, level in shipped.items():
        assert CEILINGS[key] >= 2 * level
        RunConfig.from_items({key: CEILINGS[key]})


# every value under its own ceiling, but the flags have 1.0e10, 2.9e5, 4.7e4
# and 1820 monomials
HUGE_FLAGS = [
    "spectrum --model bcn --N 10 --n 40",
    "spectrum --model sutherland --N 10 --n 12",
    "spectrum --model bcn --N 5 --f 1,2,2,3,3 --n 40",
    "spectrum --model bcn --N 4 --n 12",
]


@pytest.mark.parametrize("argv", HUGE_FLAGS)
def test_spectrum_refuses_a_flag_above_the_ceiling(capsys, argv):
    # without the ceiling the flag would be built: fail instead of trying
    with mock.patch("orbitforms.cli.spectrum",
                    side_effect=AssertionError("the flag was built")):
        _main_one_line_error(capsys, argv.split())


def test_flag_ceiling_admits_every_shipped_flag():
    # Sutherland N=6 n=6, g2 n=30 and BC_N N=6 n=4 are the largest flags
    # whose spectra have been timed before the ceiling was set
    for f, n in (((1,) * 5, 6), ((1, 2), 30), ((1,) * 6, 4)):
        assert 2 * flag_dimension(f, n) <= FLAG_DIM_CEILING


def test_cli_verify_has_no_level_flag():
    res = run_cli("verify", "--suite", "pi", "--n", "3")
    assert res.returncode == 2
    assert "unrecognized arguments: --n 3" in res.stderr


# -- bad paths: one error line, exit 2 ----------------------------------------------

def _main_one_line_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


SMALL_SPECTRUM = ["spectrum", "--model", "bc1", "--n", "1", "--no-numeric-check"]


def test_cli_missing_config_file_exit_2(tmp_path, capsys):
    missing = tmp_path / "none.cfg"
    _main_one_line_error(capsys, [*SMALL_SPECTRUM, "--config", str(missing)])


def test_cli_config_directory_exit_2(tmp_path, capsys):
    _main_one_line_error(capsys, [*SMALL_SPECTRUM, "--config", str(tmp_path)])


def test_cli_unwritable_out_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    out = tmp_path / "missing" / "out.json"
    _main_one_line_error(capsys, [*SMALL_SPECTRUM, "--out", str(out)])


def test_cli_cache_dir_that_is_a_file_exit_2(tmp_path, capsys):
    plain = tmp_path / "plain"
    plain.write_text("not a directory\n")
    _main_one_line_error(capsys, [*SMALL_SPECTRUM, "--cache-dir", str(plain)])
    assert plain.read_text() == "not a directory\n"


# -- negative rationals and a closed stdout -------------------------------------------

def test_cli_negative_rationals_take_the_space_form(monkeypatch, capsys):
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    argv = ["spectrum", "--model", "bc1_qes", "--nu2", "-1/2", "--nu3", "-1",
            "--b", "-3", "--n", "3"]
    assert main(argv) == 0
    spaced = capsys.readouterr()
    assert spaced.err == ""
    assert json.loads(spaced.out)["config"]["nu2"] == "-1/2"
    assert main(["spectrum", "--model", "bc1_qes", "--nu2=-1/2", "--nu3", "-1",
                 "--b", "-3", "--n", "3"]) == 0
    assert capsys.readouterr().out == spaced.out


class _ClosedStdout:
    """A stdout whose reader has gone: writing or flushing raises EPIPE."""

    def __init__(self, fail_on):
        self.fail_on = fail_on

    def write(self, text):
        if self.fail_on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fail_on", ["write", "flush"])
@pytest.mark.parametrize("argv", [SMALL_SPECTRUM, ["verify", "--suite", "pi"]],
                         ids=["spectrum", "verify"])
def test_cli_closed_stdout_ends_quietly(argv, fail_on, monkeypatch, capsys):
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    monkeypatch.setattr(sys, "stdout", _ClosedStdout(fail_on))
    assert main(argv) == 141
    assert capsys.readouterr().err == ""


def test_cli_closed_pipe_ends_quietly_at_exit():
    # a real pipe whose read end is closed before the report is written; the
    # interpreter's flush at exit must not meet it again
    import os
    proc = subprocess.Popen(
        [sys.executable, "-m", "orbitforms.cli", *SMALL_SPECTRUM],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={k: v for k, v in os.environ.items() if k != "ORBITFORMS_CACHE"})
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == ""


@pytest.mark.parametrize("via_config", [False, True])
def test_cli_verify_refuses_csv(tmp_path, capsys, monkeypatch, via_config):
    # csv serves spectrum and table; a verify report is JSON only
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    argv = ["verify", "--suite", "pi"]
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=csv\n")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--format", "csv"]
    _main_one_line_error(capsys, argv)


@pytest.mark.parametrize("argv", [[*SMALL_SPECTRUM], ["table"], ["verify", "--suite", "pi"]])
def test_cli_refuses_a_format_other_than_json_and_csv(tmp_path, capsys, monkeypatch, argv):
    # argparse limits --format; a config file's format=xml meets the same rule
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=xml\n")
    assert main([*argv, "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: format must be json or csv, not 'xml'\n"
    assert main([*argv, "--config", str(cfg), "--format", "json"]) == 0


SPECTRUM_LEVELS = {"bc1": ["--n", "1"], "bc1_qes": ["--n", "1"],
                   "sutherland": ["--N", "2", "--n", "1"],
                   "bcn": ["--N", "2", "--n", "1"], "g2": ["--n", "1"]}


@pytest.mark.parametrize("model", sorted(report.MODEL_PARAMETERS))
@pytest.mark.parametrize("via_config", [False, True])
def test_cli_spectrum_refuses_a_coupling_its_model_does_not_take(
        tmp_path, capsys, monkeypatch, model, via_config):
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    own = report.MODEL_PARAMETERS[model]
    head = ["spectrum", "--model", model, "--no-numeric-check", *SPECTRUM_LEVELS[model]]
    couplings = [arg for key in own if key != "N" for arg in (f"--{key}", "1/2")]
    assert main([*head, *couplings]) == 0
    capsys.readouterr()
    for key in sorted({"N", "nu", "nu2", "nu3", "mu", "b"} - set(own)):
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}=2\n")
            argv = [*head, "--config", str(cfg)]
        else:
            argv = [*head, f"--{key}", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model} takes no --{key};") and err.count("\n") == 1


def test_the_benchmark_queries_pass_only_their_models_couplings():
    import ast
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "run.py").read_text()
    shipped = next(ast.literal_eval(node.value) for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "SHIPPED")
    assert set(shipped) == set(report.MODEL_PARAMETERS)
    for model, couplings in shipped.items():
        assert set(couplings) <= set(report.MODEL_PARAMETERS[model])
