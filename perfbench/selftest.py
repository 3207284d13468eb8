"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that the same seed gives byte-identical inputs (every generated
file included) and another seed different ones; that two traced runs of one
seed report identical per-layer counts, and runs of two seeds the same
numbers of attempted and failed operations; that tracing leaves no wrapper
behind; that BENCHMARK.json names exactly the workloads and metrics run.py
reports; and that run.py refuses, without a result, to run where there is
no package source. Exits 0 when every check holds.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import spans
import workloads

SCRATCH = Path(".perfbench-selftest")


def generated_bytes(name: str, seed: int) -> str:
    shutil.rmtree(run.WORKDIR, ignore_errors=True)
    run.WORKDIR.mkdir()
    try:
        _, pool = workloads.generate(name, seed, run.WORKDIR)
        digest = hashlib.sha256(run.inputs_digest(pool).encode())
        for path in sorted(run.WORKDIR.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return digest.hexdigest()
    finally:
        shutil.rmtree(run.WORKDIR, ignore_errors=True)


def traced_counts(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    counted = {name for name, _, source, *_ in run.PER_LAYER if source in ("calls", "count")}
    counts = {name: result["metrics"][name]["value"] for name in counted}
    counts.update(attempted=result["attempted"], failed=result["failed"])
    return counts


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    os.chdir(run.ROOT)
    for name in workloads.WORKLOADS:
        first, again, other = generated_bytes(name, 7), generated_bytes(name, 7), generated_bytes(name, 8)
        expect(first == again, f"{name}: seed 7 twice gives byte-identical inputs")
        expect(first != other, f"{name}: seeds 7 and 8 give different inputs")
        counts = traced_counts(name, 7)
        expect(counts == traced_counts(name, 7), f"{name}: two traced runs of seed 7 give identical counts")
        other = traced_counts(name, 8)
        expect((counts["attempted"], counts["failed"]) == (other["attempted"], other["failed"]),
               f"{name}: seeds 7 and 8 attempt and fail as many operations")
        expect(any(counts.values()), f"{name}: the traced run records work")

    run.import_package()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        import latticegroups
        patched = latticegroups.evaluate_path
        expect(latticegroups.cli.evaluate_path is patched and latticegroups.metabelian.evaluate_path is patched,
               "aliases of one function are all patched")
    spans.assert_untraced()
    expect(latticegroups.evaluate_path is not patched, "tracing restores every binding")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "BENCHMARK.json lists the workloads")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END, "BENCHMARK.json lists the end-to-end metrics")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, *_ in run.PER_LAYER],
           "BENCHMARK.json lists the per-layer metrics")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "perfbench", SCRATCH / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", SCRATCH)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "batch_small", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=SCRATCH, capture_output=True, text=True, timeout=180,
        )
        expect(proc.returncode != 0 and not proc.stdout, "without package source: nonzero exit, no result")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
