"""Span recording around the package's public entry points, patched from outside.

A traced pass replaces every binding of each traced function: the defining
module's, each importing module's alias (``cli.evaluate_path`` is the same
object as ``lattice.evaluate_path``), the package's re-export, and methods
on their classes. Each wrapper records one span (name, start, end, parent,
request id) and optional size counters. ``installed`` restores every binding
on exit, so untraced passes run the package exactly as shipped.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "latticegroups"

_MARK = "_perfbench_span"


def _count_reduce(counts, args, result):
    counts["words.letters_in"] += len(args[0])
    counts["words.letters_reduced"] += len(result)


def _count_fold(counts, args, result):
    counts["lattice.flow_support"] += len(result.flow)


def _count_plaquettes(counts, args, result):
    counts["homology.plaquettes"] += len(result.entries())


# (module, attribute or Class.method, span name, counter). Spans that share a
# name form one layer; a span nested in another of the same name only moves
# time between their self times.
TARGETS = [
    ("words", "parse_word", "words.parse", None),
    ("words", "parse_letters", "words.parse", None),
    ("words", "free_reduce", "words.reduce", _count_reduce),
    ("lattice", "evaluate_path", "lattice.fold", None),
    ("lattice", "evaluate_letters", "lattice.fold", _count_fold),
    ("lattice", "EdgeFlow.__init__", "lattice.flow_init", None),
    ("lattice", "EdgeFlow.boundary", "lattice.boundary", None),
    ("lattice", "EdgeFlow.__add__", "lattice.flow_algebra", None),
    ("lattice", "EdgeFlow.__sub__", "lattice.flow_algebra", None),
    ("lattice", "EdgeFlow.__neg__", "lattice.flow_algebra", None),
    ("lattice", "EdgeFlow.__mul__", "lattice.flow_algebra", None),
    ("lattice", "EdgeFlow.translate", "lattice.flow_algebra", None),
    ("lattice", "EdgeFlow.as_json", "cli.serialise", None),
    ("lattice", "PathEvaluation.as_json", "cli.serialise", None),
    ("homology", "decompose_cycle", "homology.decompose", _count_plaquettes),
    ("homology", "decompose_cycle_2d", "homology.decompose", None),
    ("homology", "algebraic_area", "homology.area", None),
    ("homology", "PlaquetteSum.as_json", "cli.serialise", None),
    ("cocycles", "canonical_cocycle", "cocycles.canonical", None),
    ("cocycles", "cocycle_index", "cocycles.index", None),
    ("metabelian", "MetabelianElement.__init__", "metabelian.element_init", None),
    ("metabelian", "MetabelianElement.__mul__", "metabelian.product", None),
    ("metabelian", "MetabelianElement.inverse", "metabelian.product", None),
    ("metabelian", "MetabelianElement.as_json", "cli.serialise", None),
    ("metabelian", "fox_image", "metabelian.fox", None),
    ("metabelian", "FoxImage.as_json", "cli.serialise", None),
    ("nilpotent", "HeisenbergElement.from_word", "nilpotent.fold", None),
    ("nilpotent", "HeisenbergElement.as_json", "cli.serialise", None),
    ("satellite", "SatelliteElement.__mul__", "satellite.product", None),
    ("satellite", "SatelliteElement.inverse", "satellite.product", None),
    ("satellite", "SatelliteElement.in_N", "satellite.member", None),
    ("satellite", "SatelliteElement.in_M", "satellite.member", None),
    ("satellite", "SatelliteElement.in_commutant", "satellite.member", None),
    ("satellite", "SatelliteElement.as_json", "cli.serialise", None),
    ("cli", "main", "cli", None),
    ("cli", "_dumps", "cli.serialise", None),
]

# Counted without a span of their own, so their time stays in the caller's.
CALL_COUNTERS = [("cli", "_build_parser", "cli.parser_builds")]


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index, request id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.request_id = None

    def wrap(self, name, fn, count=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.request_id]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        setattr(traced, _MARK, name)
        return traced

    def counting(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(counted, _MARK, key)
        return counted

    def run_request(self, request_id, fn, *args):
        """Run one request under a root span; the package's spans nest in it."""
        self.request_id = request_id
        try:
            return self.wrap("request", fn)(*args)
        finally:
            self.request_id = None

    def summary(self) -> tuple[Counter, Counter]:
        """Per span name: calls, and self time in ns (duration minus the
        durations of direct children)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[index]
        return calls, self_ns


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


@contextmanager
def installed(tracer: Tracer):
    """Patch every binding of every target; restore all of them on exit."""
    saved = []

    def patch(module_name, path, make):
        module = sys.modules[f"{PACKAGE}.{module_name}"]
        cls_name, _, attr = path.rpartition(".")
        if cls_name:
            # Every name on the class bound to the method: EdgeFlow.__rmul__ is __mul__.
            owners = [getattr(module, cls_name)]
            original = vars(owners[0])[attr]
        else:
            # The defining module, the package's re-export and each importing module's alias.
            owners = _package_modules()
            original = getattr(module, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(make(original.__func__))
        else:
            wrapped = make(original)
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if value is original:
                    saved.append((owner, name, original))
                    setattr(owner, name, wrapped)

    try:
        for module_name, path, name, count in TARGETS:
            patch(module_name, path, lambda fn, name=name, count=count: tracer.wrap(name, fn, count))
        for module_name, path, key in CALL_COUNTERS:
            patch(module_name, path, lambda fn, key=key: tracer.counting(key, fn))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
        assert_untraced()


def assert_untraced() -> None:
    """Fail if any wrapper is still bound anywhere in the package."""
    for module in _package_modules():
        for attr, value in vars(module).items():
            inner = vars(value).values() if isinstance(value, type) else [value]
            for item in inner:
                item = item.__func__ if isinstance(item, classmethod) else item
                if hasattr(item, _MARK):
                    raise RuntimeError(f"traced wrapper left on {module.__name__}.{attr}")
