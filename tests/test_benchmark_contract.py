"""The names the benchmark tracer wraps still exist in the package.

perfbench/spans.py lists in LAYERS every (module, attribute) it wraps to
time a layer; a name deleted or renamed here would break a traced run
(`perfbench/run.py --trace`) without any other test noticing, since
`Tracer.install` raises on a missing name.
"""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


spans = load_spans()
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
