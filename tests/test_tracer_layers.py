"""The benchmark's tracer wraps library functions by name; every name it
lists must exist, or a traced run fails before it measures anything."""

import importlib.util
from pathlib import Path

import hyperpoly

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    layers = _load_tracer().LAYERS
    assert layers
    for module_name, names in layers.items():
        module = getattr(hyperpoly, module_name)
        for name in names:
            owner, _, attr = name.rpartition(".")
            # the tracer replaces methods through the class's own __dict__
            scope = vars(getattr(module, owner)) if owner else vars(module)
            assert callable(scope.get(attr)), f"{module_name}.{name}"
