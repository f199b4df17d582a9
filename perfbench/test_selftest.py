"""Self-test of the benchmark at its tiny size.

    python3 -m pytest perfbench/test_selftest.py -q

Each workload runs twice with tracing on: every count metric, the failed-op
count and the output digest must repeat exactly.  A different seed must
change the generated inputs, and the metric names must be the ones
BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solver", "surd", "rational", "cli")
MODULES = ("intsets", "birkhoff", "exactreal", "bohr", "dynamics", "seqexpr", "report", "cli")


def bench(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("output sha256 "))
    return json.loads(lines[-1]), digest


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_digest_repeat(workload):
    first, first_digest = bench(workload, 7, trace=1)
    second, second_digest = bench(workload, 7, trace=1)
    assert first["correct"] and second["correct"]
    assert first_digest == second_digest
    assert counts(first) == counts(second)
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert sum(counts(first).values()) > 0


def test_seed_changes_inputs(tmp_path):
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    for workload in WORKLOADS:
        def inputs(seed):
            return [op.inputs for op in workloads.build(workload, seed, True, str(tmp_path))]

        assert inputs(1) == inputs(1), workload
        assert inputs(1) != inputs(2), workload


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    e2e, _ = bench("solver", 3, trace=0)
    layer, _ = bench("solver", 3, trace=1)
    assert {n: m["unit"] for n, m in e2e["metrics"].items()} == declared_e2e
    assert {n: m["unit"] for n, m in layer["metrics"].items()} == declared_layer
    assert all(m["value"] > 0 for m in e2e["metrics"].values())
    assert {name.split(".")[0] for name in declared_layer} >= set(MODULES)
