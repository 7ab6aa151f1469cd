"""The workload seed changes item order and probes, never checked outputs."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

# cheap items of each workload; certify has no cheap item and no seeded input
SUBSETS = {
    "genus2": lambda key: key.startswith("jacobian/") and int(key.split("/")[2]) <= 40,
    "algebra": lambda key: (key.startswith("weil/") and key.split("/")[1] in ("2", "3", "4"))
    or not key.startswith(("weil/", "maximal_order/-13", "lattice/11", "lattice/7"))
    and not (key.startswith("residue/") and int(key.split("/")[2]) > 12),
}


def checked_outputs(name: str, seed: int) -> dict:
    workload = workloads.build(name, seed)
    reference = workloads.load_reference()[name]
    outputs = {}
    for item in workload.items:
        if SUBSETS[name](item.key):
            out = item.canon(item.call())
            assert item.check(out, reference[item.key]), item.key
            outputs[item.key] = out
    return outputs


@pytest.mark.parametrize("name", sorted(SUBSETS))
def test_two_seeds_give_identical_checked_outputs(name):
    first, second = checked_outputs(name, 1), checked_outputs(name, 2)
    assert first and first == second


def test_workloads_cover_every_pipeline_once():
    pipelines = [p for group in workloads.WORKLOADS.values() for p in group]
    assert sorted(pipelines) == sorted(workloads.PIPELINES)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_permutes_items(name):
    one = [item.key for item in workloads.build(name, 1).items]
    two = [item.key for item in workloads.build(name, 2).items]
    assert one != two and sorted(one) == sorted(two)
    assert set(one) == set(workloads.load_reference()[name])


def test_jacobian_check_accepts_only_consistent_invariants():
    ref = {"order": 36, "two_rank": 2}
    check = workloads._check_jacobian
    assert check({"order": 36, "two_rank": 2, "invariants": [6, 6]}, ref)
    assert check({"order": 36, "two_rank": 2, "invariants": None}, ref)
    assert not check({"order": 36, "two_rank": 2, "invariants": [3, 12]}, ref)  # 2-rank 1
    assert not check({"order": 36, "two_rank": 2, "invariants": [4, 9]}, ref)  # not a chain
    assert not check({"order": 72, "two_rank": 2, "invariants": [6, 12]}, ref)


def test_benchmark_json_lists_the_reported_metrics():
    import layers
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
