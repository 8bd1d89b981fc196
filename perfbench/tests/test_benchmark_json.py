"""BENCHMARK.json names exactly the metrics, units and workloads the benchmark reports."""

import json
from pathlib import Path

import run
from layers import END_TO_END, PER_LAYER

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_and_units_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


def test_gated_workloads_are_benchmark_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def test_lane_steps_match_configs():
    import workloads

    for name, (_, lane_steps) in run.WORKLOADS.items():
        spec = workloads.load_config(name, run.SEED).run
        lanes = len(spec.nu_grid) if spec.nu_grid is not None else spec.ntraj
        assert lanes * round(spec.horizon / spec.dt) == lane_steps, name
