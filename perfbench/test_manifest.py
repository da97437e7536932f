"""``BENCHMARK.json`` must list exactly the workloads and metrics the
benchmark produces.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
from pathlib import Path

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

MANIFEST = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
)


def test_manifest_workloads_match_definitions():
    assert {w["name"]: w["why"] for w in MANIFEST["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }


def test_manifest_metrics_match_the_printed_ones():
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == PER_LAYER
    assert any(m["name"] == "setup_s" and m["better"] == "lower"
               for m in MANIFEST["end_to_end"])
