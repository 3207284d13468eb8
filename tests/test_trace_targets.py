"""Every function the benchmark's tracer patches is still bound where it
looks: a ``Class.method`` target among the names the class body defines,
and a plain target as an attribute of its module."""

import importlib
import importlib.util
from pathlib import Path

import pytest


def _load_spans():
    """perfbench/spans.py, loaded by its path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
TARGETS = [(module, path) for module, path, *_ in spans.TARGETS + spans.CALL_COUNTERS]


@pytest.mark.parametrize("module_name, path", TARGETS, ids=[".".join(t) for t in TARGETS])
def test_trace_target_is_bound_where_the_tracer_looks(module_name, path):
    module = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
    cls_name, _, attr = path.rpartition(".")
    if cls_name:
        # The tracer reads vars(Class)[attr]: an inherited method is not found.
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
