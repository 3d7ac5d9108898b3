"""A tiny run of every workload emits every metric BENCHMARK.json names,
with its unit, and passes its own output checks.

Run with: python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import os

import pytest

import run
from workloads import WORKLOADS

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def tiny(w):
    return dataclasses.replace(w, train_pairs=8, eval_pairs=8, steps=2,
                               batch=2, checkpoint_interval=1,
                               evals_per_cycle=1)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace,section", [(False, "end_to_end"),
                                           (True, "per_layer")])
def test_tiny_run_emits_every_metric(name, trace, section, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result, _ = run.run_workload(tiny(WORKLOADS[name]), seed=0, seconds=0.01,
                              trace=trace, work=str(tmp_path / "work"),
                              spans_path=str(spans))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC[section]}
    assert not (tmp_path / "work").exists()
    if trace:
        assert spans.stat().st_size > 0
