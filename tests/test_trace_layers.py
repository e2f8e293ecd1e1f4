"""The benchmark's layer tracer wraps package functions by (module, name).

A refactor that renames or drops one of them breaks the traced benchmark
run when it installs its wrappers; this test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_traced_name_resolves_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_FILE)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = [t for group in layers.LAYERS.values() for t in group]
    assert targets
    missing = [f"{mod}.{attr}" for mod, attr in targets
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []
