"""The per-layer tracer names functions by module and name; a rename or a
removal in the package must show here as a list of missing names, not as
an AttributeError deep inside a benchmark run."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_in_its_module():
    tracing = _tracing()
    missing = []
    for table in (tracing.SPANS, tracing.COUNTS):
        for mod, funcs in table.items():
            module = importlib.import_module(f"veerlab.{mod}")
            missing += [f"{mod}.{f}" for f in funcs if not callable(getattr(module, f, None))]
    assert not missing, f"perfbench/tracing.py names functions that are gone: {missing}"
