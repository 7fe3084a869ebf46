"""The benchmark's traced hooks must still find the program's layers.

``perfbench/layers.py`` times a validation cell by wrapping functions by
name in :mod:`repro.analysis.validation`'s namespace.  A rename, or a block
body that stops calling those functions through that namespace, would leave
a traced ``sim-cell`` run without its layers.  This test installs the hooks
in a fresh interpreter (they patch modules for the life of the process),
runs one small validation cell and checks the spans and the observation
counter it records.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.dont_write_bytecode = True
sys.path[:0] = [{perfbench!r}, {src!r}]
import layers
tracer = layers.Tracer(timing=True)
layers.install(tracer)
import repro.analysis.validation as validation
from repro.core.quorum import ReplicaConfig
from repro.latency.distributions import ExponentialLatency
from repro.latency.production import WARSDistributions
result = validation.run_validation(
    distributions=WARSDistributions.write_specialised(
        write=ExponentialLatency.from_mean(20.0),
        other=ExponentialLatency.from_mean(10.0),
    ),
    config=ReplicaConfig(n=3, r=1, w=1),
    writes=200,
    prediction_trials=2_000,
    rng=0,
    workers=1,
)
print(json.dumps({{
    "spans": sorted({{span[0] for span in tracer.spans}}),
    "observed": tracer.counts["analysis.observations"],
    "observations": result.observations,
}}))
"""


def test_traced_validation_cell_records_every_layer():
    script = SCRIPT.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    record = json.loads(completed.stdout.strip().splitlines()[-1])
    assert {
        "analysis.observe",
        "workloads.generate",
        "analysis.latencies",
        "cluster.run",
        "analysis.compare",
    } <= set(record["spans"])
    assert record["observations"] > 0
    assert record["observed"] == record["observations"]
