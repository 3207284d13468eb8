"""Benchmark of the latticegroups calculator, one workload per invocation.

    python3 perfbench/run.py --workload batch_small --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the package is imported from ./src. The
benchmark is one closed-loop client in one process (one request in flight,
no threads). A child interpreter turns the seed into a pool of requests
(perfbench/workloads.py); this process times every request once per pass,
in whole passes until --seconds have gone by, and checks every answer
against perfbench/reference.py outside the timed region.

--trace 0 reports the end-to-end metrics of untraced passes, given at a
fixed host speed. Between every two requests the client times a fixed
stdlib-only task (``probe``) PROBES_PER_GAP times; a request's latency in a
pass is scaled by REFERENCE_PROBE_S over the median of the probes just
before and just after it, and its reported latency is the median of its
scaled passes. Other tenants of a shared host slow the probe and the
package alike, in bursts from milliseconds to minutes long, so the scaled
figures move by a few percent between runs where raw ones move by a fifth
or more; the raw figures (medians of unscaled passes) are printed on the
text lines. setup_s is scaled the same way, by probes timed in each fresh
interpreter right after the import. --trace 1 alternates untraced and
traced passes over the same pool and reports the per-layer metrics of the
traced passes (spans from perfbench/spans.py), unscaled.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it spell out every metric
with its unit and base, and failed_frac. An operation counts once however
many passes ran it, and fails if it failed on any pass, so attempted and
failed depend on the inputs alone. ``correct`` is false when any answer
disagrees with the reference; ``failed`` also counts operations the package
refused or raised on. Self-test: python3 perfbench/selftest.py.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = Path(".perfbench-work")  # batch and --perturb files, relative to ROOT

SETUP_LAUNCHES = 15
WARMUP_REQUESTS = 5
MIN_PASSES = 3
# The fixed host speed of the reported timings: they read as if every probe
# had taken this long (about its time on a 2-vCPU x86-64 cloud host under
# CPython 3.11). Raw timings are printed beside them.
REFERENCE_PROBE_S = 0.002
PROBES_PER_GAP = 3

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (metric, unit, source, key, end-to-end metric it should move). Sources:
# "self" = summed self time of the spans named key, "calls" = their number,
# "count" = a size counter recorded at a layer boundary.
PER_LAYER = [
    ("cli.self_s", "s", "self", "cli", "requests_per_s, latency_p50_ms on batch_small; no change on the others"),
    ("cli.parser_builds", "count", "count", "cli.parser_builds", "requests_per_s, latency_p50_ms on batch_small"),
    ("cli.lines", "count", "count", "cli.lines", "requests_per_s, latency_p50_ms on batch_small"),
    ("cli.error_lines", "count", "count", "cli.error_lines", "requests_per_s, latency_p50_ms on batch_small"),
    ("cli.serialise_s", "s", "self", "cli.serialise", "latency_p50_ms on long_words"),
    ("words.parse_s", "s", "self", "words.parse", "requests_per_s on long_words"),
    ("words.reduce_s", "s", "self", "words.reduce", "requests_per_s on long_words"),
    ("words.letters_in", "count", "count", "words.letters_in", "requests_per_s on long_words"),
    ("words.letters_reduced", "count", "count", "words.letters_reduced", "requests_per_s on long_words"),
    ("lattice.fold_s", "s", "self", "lattice.fold", "requests_per_s, latency_p50_ms on long_words"),
    ("lattice.flow_support", "count", "count", "lattice.flow_support", "requests_per_s, latency_p50_ms, peak_rss_mb on long_words"),
    ("nilpotent.fold_s", "s", "self", "nilpotent.fold", "requests_per_s, latency_p50_ms on long_words"),
    ("metabelian.fox_s", "s", "self", "metabelian.fox", "requests_per_s, latency_p50_ms on long_words"),
    ("lattice.flow_init_calls", "count", "calls", "lattice.flow_init", "requests_per_s on planar_products, less on long_words"),
    ("lattice.flow_init_s", "s", "self", "lattice.flow_init", "requests_per_s on planar_products, less on long_words"),
    ("lattice.boundary_calls", "count", "calls", "lattice.boundary", "requests_per_s on planar_products, less on long_words"),
    ("lattice.boundary_s", "s", "self", "lattice.boundary", "requests_per_s on planar_products, less on long_words"),
    ("lattice.flow_algebra_calls", "count", "calls", "lattice.flow_algebra", "requests_per_s on planar_products, less on long_words"),
    ("lattice.flow_algebra_s", "s", "self", "lattice.flow_algebra", "requests_per_s on planar_products, less on long_words"),
    ("metabelian.element_inits", "count", "calls", "metabelian.element_init", "requests_per_s on planar_products, less on long_words"),
    ("metabelian.element_init_s", "s", "self", "metabelian.element_init", "requests_per_s on planar_products, less on long_words"),
    ("metabelian.products", "count", "calls", "metabelian.product", "requests_per_s on planar_products, less on long_words"),
    ("metabelian.product_s", "s", "self", "metabelian.product", "requests_per_s on planar_products, less on long_words"),
    ("cocycles.canonical_calls", "count", "calls", "cocycles.canonical", "latency_tail_ms, requests_per_s on planar_products"),
    ("cocycles.canonical_s", "s", "self", "cocycles.canonical", "latency_tail_ms, requests_per_s on planar_products"),
    ("cocycles.index_s", "s", "self", "cocycles.index", "latency_tail_ms, requests_per_s on planar_products"),
    ("satellite.products", "count", "calls", "satellite.product", "latency_tail_ms, requests_per_s on planar_products"),
    ("satellite.product_s", "s", "self", "satellite.product", "latency_tail_ms, requests_per_s on planar_products"),
    ("satellite.member_s", "s", "self", "satellite.member", "latency_tail_ms, requests_per_s on planar_products"),
    ("homology.decompose_s", "s", "self", "homology.decompose", "latency_tail_ms on planar_products"),
    ("homology.area_s", "s", "self", "homology.area", "latency_tail_ms on planar_products"),
    ("homology.plaquettes", "count", "count", "homology.plaquettes", "latency_tail_ms on planar_products"),
    ("trace.overhead_frac", "ratio", "overhead", None, "none: traced wall time / untraced wall time - 1"),
]

_SETUP_CHILD = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import latticegroups, latticegroups.cli\n"
    "imported = time.perf_counter() - start\n"
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import run\n"
    "print(imported, run.probe_seconds(7), latticegroups.__file__)\n"
)


def probe() -> int:
    """A fixed task of the kind the package does, from the standard library
    alone: build and use a small argparse parser, fold steps into a dict of
    lattice edges, and serialise the result."""
    parser = argparse.ArgumentParser(prog="probe")
    verbs = parser.add_subparsers(dest="verb")
    for verb in ("reduce", "eval", "eq", "fox"):
        sub = verbs.add_parser(verb)
        sub.add_argument("--d", type=int, default=2)
        sub.add_argument("--json", action="store_true")
        sub.add_argument("words", nargs="*")
    args = parser.parse_args(["eval", "--d", "3", "--json", "x1 x2^-1 x3"])
    flow: dict = {}
    point = [0] * args.d
    for step in range(300):
        axis = step * 7 % args.d
        sign = 1 if step % 5 < 3 else -1
        base = tuple(point) if sign > 0 else tuple(point[:axis] + [point[axis] - 1] + point[axis + 1:])
        flow[(base, axis)] = flow.get((base, axis), 0) + sign
        point[axis] += sign
    text = json.dumps({"verb": args.verb, "flow": sorted([list(b), a, m] for (b, a), m in flow.items() if m)})
    return len(text)


def time_probe() -> float:
    """Seconds of one probe, with the collector off so that the size of the
    package's heap does not reach into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        probe()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def probe_seconds(times: int) -> float:
    """Median of ``times`` probes after one untimed one."""
    probe()
    return statistics.median(time_probe() for _ in range(times))


class BenchError(Exception):
    """The benchmark cannot run here; nothing is reported."""


def _check_source(path: str) -> None:
    if Path(path).resolve().parent != (SRC / "latticegroups").resolve():
        raise BenchError(f"latticegroups was imported from {path}, not from {SRC}")


def measure_setup() -> tuple[float, list[float]]:
    """Median import time of latticegroups and latticegroups.cli over fresh
    interpreters, launched one after another, each scaled by probes timed
    in the same interpreter; and the raw import times. The first launch
    writes the bytecode caches and is not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    for launch in range(SETUP_LAUNCHES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(HERE)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing latticegroups failed:\n{proc.stderr}")
        seconds, probe_s, path = proc.stdout.split()
        _check_source(path)
        if launch:
            raw.append(float(seconds))
            scaled.append(float(seconds) * REFERENCE_PROBE_S / float(probe_s))
    return statistics.median(scaled), raw


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import latticegroups
        import latticegroups.cli  # noqa: F401  (binds latticegroups.cli)
    except ImportError as exc:
        raise BenchError(f"cannot import latticegroups from {SRC}: {exc}") from None
    _check_source(latticegroups.__file__)
    return latticegroups


def load_pool(name: str, seed: int):
    """Generate the pool in a separate interpreter, so that this process's
    peak memory is the package's and not the generator's, and load it."""
    code = f"import workloads; workloads.save_pool({name!r}, {seed}, {str(WORKDIR)!r})"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(HERE)), capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise BenchError(f"generating inputs failed:\n{proc.stderr}")
    # The pickle was written just now by our own generator.
    with open(WORKDIR / "pool.pickle", "rb") as handle:
        pool = pickle.load(handle)
    return workloads.WORKLOADS[name](), pool


class Checks:
    """The worst outcome of each request over every pass that ran it."""

    def __init__(self, pool):
        self.per_request = [workloads.Outcome() for _ in pool]

    def add(self, request_id: int, outcome) -> None:
        self.per_request[request_id] = self.per_request[request_id].worst(outcome)

    def total(self):
        total = workloads.Outcome()
        for outcome in self.per_request:
            total.add(outcome)
        return total


def run_pass(workload, pool, lg, checks, latencies=None, probes=None, tracer=None):
    """One pass over the pool; returns (seconds spent inside requests, the
    pass's summed outcome). With ``probes``, PROBES_PER_GAP probes are
    timed before each request and after the last one, and a list of their
    seconds appended per gap."""
    outcome = workloads.Outcome()
    busy = 0
    for request_id, request in enumerate(pool):
        if probes is not None:
            probes.append([time_probe() for _ in range(PROBES_PER_GAP)])
        start = time.perf_counter_ns()
        if tracer is None:
            result = workload.execute(lg, request)
        else:
            result = tracer.run_request(request_id, workload.execute, lg, request)
        elapsed = time.perf_counter_ns() - start
        busy += elapsed
        if latencies is not None:
            latencies.append(elapsed)
        checked = workload.check(request, result)
        checks.add(request_id, checked)
        outcome.add(checked)
    if probes is not None:
        probes.append([time_probe() for _ in range(PROBES_PER_GAP)])
    return busy / 1e9, outcome


def tail(latencies_ns) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 samples beyond it,
    and that percentile."""
    ordered = sorted(latencies_ns)
    rank = max(len(ordered) - 10, 1)
    return ordered[rank - 1] / 1e6, 100.0 * rank / len(ordered)


def end_to_end(workload, pool, lg, seconds, setup):
    """Time every request of the pool once per pass, for at least
    MIN_PASSES passes and while another pass fits in ``seconds``. Each
    latency is scaled to the reference host speed by the probes on either
    side of it; a request's latency is the median of its passes."""
    checks = Checks(pool)
    raw: list[list[int]] = []
    scaled: list[list[float]] = []
    start = time.perf_counter()
    # elapsed * (passes + 1) / passes: the time so far plus a mean pass
    while len(raw) < MIN_PASSES or (time.perf_counter() - start) * (len(raw) + 1) / len(raw) <= seconds:
        latencies: list[int] = []
        probes: list[list[float]] = []
        run_pass(workload, pool, lg, checks, latencies, probes)
        raw.append(latencies)
        scaled.append([ns * REFERENCE_PROBE_S / statistics.median(before + after)
                       for ns, before, after in zip(latencies, probes, probes[1:])])

    def figures(passes):
        per_request = [statistics.median(times) for times in zip(*passes)]
        tail_ms, tail_pct = tail(per_request)
        return len(per_request) / (sum(per_request) / 1e9), statistics.median(per_request) / 1e6, tail_ms, tail_pct

    rps, p50, tail_ms, tail_pct = figures(scaled)
    raw_rps, raw_p50, raw_tail, _ = figures(raw)
    setup_s, setup_raw = setup
    metrics = {
        "requests_per_s": rps,
        "latency_p50_ms": p50,
        "latency_tail_ms": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = f"{len(pool)} requests, each the median of {len(raw)} passes"
    notes = {
        "requests_per_s": f"{samples}; time inside requests only; raw {raw_rps:.4f}",
        "latency_p50_ms": f"median over {samples}; raw {raw_p50:.4f}",
        "latency_tail_ms": f"p{tail_pct:.2f} over {samples} (10 beyond it); raw {raw_tail:.4f}",
        "setup_s": f"median import time over {len(setup_raw)} fresh interpreters; raw {statistics.median(setup_raw):.6f}",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return checks.total(), metrics, notes


def per_layer(workload, pool, lg, seconds):
    """Alternate untraced and traced passes (at least one pair, more while
    they fit in ``seconds``) after one untimed pass that grows the heap.
    Counts come from the first traced pass, times are medians over traced
    passes."""
    checks = Checks(pool)
    run_pass(workload, pool, lg, checks)
    walls, self_times, first = [], [], None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        spans.assert_untraced()
        untraced, _ = run_pass(workload, pool, lg, checks)
        tracer = spans.Tracer()
        with spans.installed(tracer):
            traced, part = run_pass(workload, pool, lg, checks, tracer=tracer)
        tracer.counts.update({"cli.lines": part.lines, "cli.error_lines": part.error_lines})
        calls, self_ns = tracer.summary()
        walls.append(traced / untraced)
        self_times.append(self_ns)
        if first is None:
            first = (calls, tracer.counts)
        pair = time.perf_counter() - began
        if time.perf_counter() - start + pair > seconds:
            break
    calls, counts = first
    metrics = {}
    for name, unit, source, key, _moves in PER_LAYER:
        if source == "self":
            value = statistics.median(s[key] for s in self_times) / 1e9
        elif source == "calls":
            value = calls[key]
        elif source == "count":
            value = counts[key]
        else:
            value = statistics.median(walls) - 1
        metrics[name] = value
    return checks.total(), metrics, {"trace.overhead_frac": f"{len(walls)} traced passes of {len(pool)} requests"}


def inputs_digest(pool) -> str:
    return hashlib.sha256("\n".join(r.describe() for r in pool).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "latticegroups" / "__init__.py").is_file():
            raise BenchError(f"no package source at {SRC}")
        os.chdir(ROOT)
        shutil.rmtree(WORKDIR, ignore_errors=True)
        WORKDIR.mkdir()
        try:
            setup = None if args.trace else measure_setup()
            lg = import_package()
            workload, pool = load_pool(args.workload, args.seed)
            digest = inputs_digest(pool)
            for request in pool[:WARMUP_REQUESTS]:  # untimed: fills the caches
                workload.check(request, workload.execute(lg, request))
            probe_seconds(WARMUP_REQUESTS)
            if args.trace:
                outcome, metrics, notes = per_layer(workload, pool, lg, args.seconds)
                units = {name: unit for name, unit, *_ in PER_LAYER}
            else:
                outcome, metrics, notes = end_to_end(workload, pool, lg, args.seconds, setup)
                units = END_TO_END
        finally:
            shutil.rmtree(WORKDIR, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} inputs sha256 {digest}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6f} {units[name]:6s} {notes.get(name, '')}")
    print(f"  {'failed_frac':28s} {outcome.failed / outcome.ops:>16.6f} {'ratio':6s} "
          f"{outcome.failed}/{outcome.ops} operations, each checked on every pass "
          f"({outcome.refused} refused or raised, {outcome.wrong} wrong)")
    print(json.dumps({
        "correct": outcome.wrong == 0,
        "attempted": outcome.ops,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
