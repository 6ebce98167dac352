"""The benchmark's contract with the package: the names its tracer wraps
still exist, and the outputs it collects pass its own gate.

perfbench/spans.py lists in LAYERS every (module, attribute) it wraps to
time a layer; a name deleted or renamed here would break a traced run
(`perfbench/run.py --trace`) without any other test noticing, since
`Tracer.install` raises on a missing name.  perfbench/gate.py refuses a
run whose verify reports lack a check name of perfbench/expected_checks.json
or whose spectrum answers it cannot confirm, so the same gate runs here
on every suite and on one spectrum query per family.
"""

import importlib
import importlib.util
import json
from functools import reduce
from pathlib import Path

import pytest

from orbitforms.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected_checks.json").read_text())


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load("spans")
gate = load("gate")
LAYERS = spans.LAYERS


def resolve(module, attribute):
    owner = importlib.import_module(f"orbitforms.{module}")
    return reduce(getattr, attribute.split("."), owner)


def resolve_all():
    return [resolve(module, attribute) for _, module, attribute, _ in LAYERS]


@pytest.mark.parametrize("span, module, attribute",
                         [layer[:3] for layer in LAYERS], ids=[layer[0] for layer in LAYERS])
def test_every_traced_layer_resolves(span, module, attribute):
    assert callable(resolve(module, attribute)), span


def test_the_tracer_installs_over_the_package_and_restores_it():
    importlib.import_module("orbitforms.cli")   # imports every layer module
    targets = resolve_all()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert [getattr(fn, "__wrapped__", None) for fn in resolve_all()] == targets
    finally:
        tracer.uninstall()
    assert resolve_all() == targets


def run(argv, capsys):
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().out


# the oracle suites at the sample count perfbench/run.py gives them
SAMPLE_POINTS = {"cartesian": ["--sample-points", "10"], "ttw": ["--sample-points", "10"]}


@pytest.mark.parametrize("suite", sorted(EXPECTED))
def test_every_suite_passes_the_benchmark_gate(suite, capsys, monkeypatch):
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    code, out = run(["verify", "--suite", suite, "--seed", "1",
                     *SAMPLE_POINTS.get(suite, [])], capsys)
    assert gate.check_verify(code, out, EXPECTED[suite]) == (0, [])


SPECTRUM_QUERIES = [
    {"model": "bc1", "nu2": "1/3", "nu3": "2/5", "n": "6"},
    {"model": "bc1_qes", "nu2": "1/3", "nu3": "1/5", "b": "2/3", "n": "4"},
    {"model": "sutherland", "N": "3", "nu": "1/2", "n": "4"},
    {"model": "bcn", "N": "2", "nu": "1/2", "nu2": "1/3", "nu3": "1/5", "n": "3"},
    {"model": "g2", "nu": "1/2", "mu": "1/3", "n": "5"},
]


@pytest.mark.parametrize("params", SPECTRUM_QUERIES,
                         ids=[q["model"] for q in SPECTRUM_QUERIES])
def test_one_spectrum_per_family_passes_the_benchmark_gate(params, capsys, monkeypatch,
                                                           tmp_path):
    monkeypatch.delenv("ORBITFORMS_CACHE", raising=False)
    argv = ["spectrum", "--cache-dir", str(tmp_path)]
    for key, value in params.items():
        argv += [f"--{key}", value]
    code, out = run(argv, capsys)
    assert gate.check_spectrum(params, code, out) == []
