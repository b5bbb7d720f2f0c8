"""The benchmark's tracer wraps functions at module name bindings; every
binding it names must exist, or a traced benchmark run fails."""

import importlib.util
import inspect
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    spans = _load_spans()
    assert spans.TARGETS
    for owner, attr, *_ in spans.TARGETS:
        inspect.getattr_static(spans._owner(owner), attr)
