"""Smoke test of the benchmark: one tiny seeded cycle of every workload, in
both modes, reports every metric BENCHMARK.json names and no wrong output."""

import copy
import json

import pytest

import run
import worker

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = json.loads((run.HERE / "spec.json").read_text(encoding="utf-8"))

# Size parameters shrunk so that a whole pass takes well under a second.
# Flat fact lists keep their sizes: they fail fast today and must still be
# counted as failures, not as wrong outputs.
TINY = {"vars": 6, "clauses": 12, "links": 20, "pairs": 3, "symbols": 6}


def tiny_spec():
    spec = copy.deepcopy(SPEC)
    for mix in spec["workloads"].values():
        for entry in mix:
            for key, cap in TINY.items():
                if key in entry:
                    entry[key] = min(entry[key], cap)
    return spec


def expected(kind):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def test_spec_matches_benchmark_file():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(SPEC["workloads"])
    end_to_end, workload_names = set(expected("end_to_end")), set(SPEC["workloads"])
    mapped = [name for entry in SPEC["layer_map"] for name in entry["metrics"]]
    assert sorted(mapped) == sorted(expected("per_layer"))
    for entry in SPEC["layer_map"]:
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) | set(entry["no_change_on"]) <= workload_names


@pytest.mark.parametrize("workload", list(SPEC["workloads"]))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(workload, trace):
    result, metrics = run.run(workload, seed=7, seconds=0, trace=trace, spec=tiny_spec())
    assert result["wrong"] == 0, result["wrong_examples"]
    pool = sum(entry.get("count", 1) for entry in SPEC["workloads"][workload])
    if trace:
        assert result["attempted"] == pool
    else:
        assert result["attempted"] == worker.MIN_PASSES * pool
        # p90 needs at least ten samples beyond it.
        assert len(result["latencies_s"]) >= 100
    kind = "per_layer" if trace else "end_to_end"
    assert {name: unit for name, (_, unit) in metrics.items()} == expected(kind)
    assert all(isinstance(value, float) for value, _ in metrics.values())
