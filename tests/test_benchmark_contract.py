"""The names the benchmark tracer wraps still exist in the package.

perfbench/spans.py lists in LAYERS every (module, attribute) it wraps to
time a layer; a name deleted or renamed here would break a traced run
(`perfbench/run.py --trace`) without any other test noticing.
"""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


LAYERS = load_layers()


@pytest.mark.parametrize("span, module, attribute",
                         [layer[:3] for layer in LAYERS], ids=[layer[0] for layer in LAYERS])
def test_every_traced_layer_resolves(span, module, attribute):
    owner = importlib.import_module(f"orbitforms.{module}")
    target = reduce(getattr, attribute.split("."), owner)
    assert callable(target), span
