"""What the benchmark measures, read from ``BENCHMARK.json`` at the repo root.

``BENCHMARK.json`` is the only list of the workloads and metrics; this module
turns it into the name -> unit tables the runner prints and checks against.
"""
from __future__ import annotations

import json
from pathlib import Path

_MANIFEST = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

RUN_SECONDS = _MANIFEST["run_seconds"]
WORKLOADS = [w["name"] for w in _MANIFEST["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in _MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _MANIFEST["per_layer"]}

SWEEP_PROPERTIES = ("parity", "same-length", "rescue", "steps", "cds-same-length", "commutation")

LAYERS = ("perm", "ops", "graph", "analysis", "verify", "games", "cli")
