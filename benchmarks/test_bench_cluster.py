"""Benchmarks for the cluster-simulator hot path (the §5.2 measured side).

Two claims are asserted:

* a full §5.2 grid cell at the paper's 50,000 writes completes within a
  modest wall-clock budget, which is what makes paper-fidelity validation a
  practical slow-suite target rather than an overnight job;
* the columnar trace analytics pass resolves that cell's ~400,000 staleness
  observations.

``measure_cluster_events_per_sec`` times the simulator's event throughput on
the single-cell validation workload for ``BENCH_sweep.json``; no assertion
here gates it (the repository benchmark's ``sim-cell`` workload bounds
simulator throughput).

Timed regions run with the cyclic garbage collector paused: the measured
quantity is simulator throughput, and gen-2 GC scans of the accumulated
trace log would otherwise dominate it with allocator noise.  A paused collector also hides what garbage collection
costs the simulator, so these numbers cannot show a regression there; the
repository benchmark's ``sim-cell`` workload (``perfbench/``) keeps the
collector on.  The ``measure_*`` bodies are shared with
``tools/bench_to_json.py`` so ``BENCH_sweep.json`` records the same numbers
the assertions gate.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

import pytest

from repro.analysis.staleness import (
    measured_t_visibility,
    observe_staleness,
    operation_latencies,
)
from repro.analysis.validation import run_validation
from repro.cluster.client import WorkloadRunner
from repro.cluster.store import DynamoCluster
from repro.core.quorum import ReplicaConfig
from repro.latency.distributions import ExponentialLatency
from repro.latency.production import WARSDistributions
from repro.workloads.operations import validation_workload

#: The §5.2 cell used throughout: W mean 20 ms, A=R=S mean 10 ms, N=3 R=W=1.
W_MEAN_MS = 20.0
ARS_MEAN_MS = 10.0
CONFIG = ReplicaConfig(n=3, r=1, w=1)
READ_OFFSETS_MS = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0)

#: Writes per measured run of the events/sec benchmark (~189k events each).
BENCH_WRITES = 2_500
#: Timed repetitions per measurement; the median damps shared-machine noise.
BENCH_REPEATS = 3


def _cell_distributions() -> WARSDistributions:
    return WARSDistributions.write_specialised(
        write=ExponentialLatency.from_mean(W_MEAN_MS),
        other=ExponentialLatency.from_mean(ARS_MEAN_MS),
        name=f"exp W={W_MEAN_MS}ms ARS={ARS_MEAN_MS}ms",
    )


def _run_cell_workload(writes: int, seed: int) -> float:
    """Run one validation-cell workload; return events processed per second."""
    cluster = DynamoCluster(config=CONFIG, distributions=_cell_distributions(), rng=seed)
    operations = validation_workload(
        key="validation-key",
        writes=writes,
        write_interval_ms=max(10.0 * W_MEAN_MS, 100.0),
        read_offsets_ms=READ_OFFSETS_MS,
    )
    runner = WorkloadRunner(cluster)
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        runner.run(operations)
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return cluster.simulator.processed_events / elapsed


def measure_cluster_events_per_sec(
    writes: int = BENCH_WRITES, repeats: int = BENCH_REPEATS
) -> dict:
    """Simulator throughput on the single-cell validation workload."""
    _run_cell_workload(200, seed=0)  # warm imports, allocator, distribution caches
    events_per_sec = statistics.median(
        _run_cell_workload(writes, seed=0) for _ in range(repeats)
    )
    return {"writes": writes, "repeats": repeats, "events_per_sec": events_per_sec}


def measure_paper_scale_validation_cell(writes: int = 50_000, workers: int | None = None) -> dict:
    """One §5.2 grid cell at paper fidelity through ``run_validation``."""
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    start = time.perf_counter()
    result = run_validation(
        distributions=_cell_distributions(),
        config=CONFIG,
        writes=writes,
        write_interval_ms=max(10.0 * W_MEAN_MS, 100.0),
        read_offsets_ms=READ_OFFSETS_MS,
        prediction_trials=100_000,
        rng=0,
        workers=workers,
    )
    elapsed = time.perf_counter() - start
    return {
        "writes": writes,
        "workers": workers,
        "wall_clock_s": elapsed,
        "observations": result.observations,
        "consistency_rmse_pct": result.consistency_rmse * 100.0,
        "read_latency_nrmse_pct": result.read_latency_nrmse * 100.0,
        "write_latency_nrmse_pct": result.write_latency_nrmse * 100.0,
    }


def measure_trace_analytics(writes: int = 50_000, seed: int = 0) -> dict:
    """Trace recording and analytics on one §5.2 baseline cell.

    Runs the baseline cell (timing the simulation, which includes trace
    recording), then times the full analytics pass on its log: staleness
    observation, t-visibility at four targets, and the operation-latency
    extraction.  Each timing is the fastest of :data:`BENCH_REPEATS` runs,
    to suppress scheduler noise.
    """

    def _timed_cell() -> tuple[DynamoCluster, float]:
        cluster = DynamoCluster(
            config=CONFIG, distributions=_cell_distributions(), rng=seed
        )
        operations = validation_workload(
            key="validation-key",
            writes=writes,
            write_interval_ms=max(10.0 * W_MEAN_MS, 100.0),
            read_offsets_ms=READ_OFFSETS_MS,
        )
        runner = WorkloadRunner(cluster)
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            runner.run(operations)
            elapsed = time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()
        return cluster, elapsed

    def _timed_analytics(trace_log) -> tuple[object, float]:
        """Time observe → t-visibility (4 targets) → latency extraction."""
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            frame = observe_staleness(trace_log)
            for target in (0.9, 0.99, 0.999, 0.9999):
                measured_t_visibility(frame, target)
            operation_latencies(trace_log)
            elapsed = time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()
        return frame, elapsed

    # Each repeat is a fresh cluster (the trace accumulates).
    cluster, sim_s = min(
        (_timed_cell() for _ in range(BENCH_REPEATS)), key=lambda pair: pair[1]
    )
    frame, analytics_s = min(
        (_timed_analytics(cluster.trace_log) for _ in range(BENCH_REPEATS)),
        key=lambda pair: pair[1],
    )
    return {
        "writes": writes,
        "observations": len(frame),
        "sim_s": sim_s,
        "analytics_s": analytics_s,
    }


def test_paper_scale_validation_cell_under_budget():
    """One full §5.2 cell at 50,000 writes stays inside the wall-clock budget.

    The budget is deliberately loose (shared CI runners); the point is the
    order of magnitude: pre-overhaul this cell took tens of minutes of
    simulation plus an O(writes x reads) analysis pass.
    """
    result = measure_paper_scale_validation_cell(writes=50_000)
    assert result["wall_clock_s"] < 600.0, (
        f"paper-scale cell took {result['wall_clock_s']:.0f}s "
        f"(workers={result['workers']})"
    )
    # ~400k staleness observations; the measured curve should now track the
    # prediction closely (paper: 0.28% average RMSE on its own cluster).
    assert result["observations"] >= 390_000
    assert result["consistency_rmse_pct"] < 2.0
    assert result["read_latency_nrmse_pct"] < 3.0
    assert result["write_latency_nrmse_pct"] < 5.0


def test_reduced_scale_validation_cell():
    """A >= 5,000-write cell (the CI-sized paper-scale stand-in) stays accurate."""
    result = measure_paper_scale_validation_cell(writes=5_000)
    assert result["wall_clock_s"] < 240.0
    assert result["observations"] >= 39_000
    assert result["consistency_rmse_pct"] < 4.0


def test_trace_analytics_at_paper_scale():
    """The columnar analytics pass covers the paper's 50,000-write cell."""
    result = measure_trace_analytics(writes=50_000)
    assert result["observations"] >= 390_000
