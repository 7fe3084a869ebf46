"""The benchmark's traced hooks must still find the program's layers.

``perfbench/layers.py`` times a validation cell by wrapping functions by
name in :mod:`repro.analysis.validation`'s namespace, and the
``answer-paths`` op by wrapping methods of the sweep engine, the kernel, the
analytic predictor and the SLA optimiser.  A rename, or a body that stops
calling those functions through the wrapped name, would leave a traced run
without its layers.  These tests install the hooks in a fresh interpreter
(they patch modules for the life of the process), run one scaled-down op of
each workload and check the spans and counters it records.
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


def _run_traced(script: str) -> dict:
    """Run ``script`` in a fresh interpreter; return the JSON it prints last."""
    script = script.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_traced_validation_cell_records_every_layer():
    record = _run_traced(SCRIPT)
    assert {
        "analysis.observe",
        "workloads.generate",
        "analysis.latencies",
        "cluster.run",
        "analysis.compare",
    } <= set(record["spans"])
    assert record["observations"] > 0
    assert record["observed"] == record["observations"]


ANSWER_PATHS_SCRIPT = """
import json, sys
sys.dont_write_bytecode = True
sys.path[:0] = [{perfbench!r}, {src!r}]
import layers
tracer = layers.Tracer(timing=True)
layers.install(tracer)
import batch
answer = batch.AnswerPaths(trials=2_000).op(0)
names = [span[0] for span in tracer.spans]
print(json.dumps({{
    "spans": {{name: names.count(name) for name in set(names)}},
    "counts": dict(tracer.counts),
    "rows": len(answer["table"]),
}}))
"""


def test_traced_answer_paths_op_records_every_layer():
    record = _run_traced(ANSWER_PATHS_SCRIPT)
    spans, counts = record["spans"], record["counts"]
    assert {
        "montecarlo.sweep",
        "kernels.reduce",
        "analytic.env_build",
        "analytic.tables",
        "analytic.query",
        "core.sla",
    } <= set(spans)
    assert record["rows"] > 0
    assert counts["kernels.calls"] == spans["kernels.reduce"] > 0
    assert counts["analytic.env_builds"] == spans["analytic.env_build"] > 0
    assert counts["montecarlo.trials_run"] > 0
