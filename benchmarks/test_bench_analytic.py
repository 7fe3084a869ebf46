"""Benchmark: analytic fast path vs the Monte Carlo sweep engine.

The acceptance claim for :mod:`repro.analytic`: on the figure-4-style
8-configuration sweep (N=3 quorum grid, exponential W with a 10 ms mean
against 1 ms A=R=S), a *warm* analytic predictor answers the full sweep —
consistency curve, 99%/99.9% t-visibility, latency percentiles — within
:data:`WARM_SWEEP_BOUND_SECONDS`, while every consistency probability stays
within 1% absolute of a 100k-trial engine run's.

The bound is on the warm sweep's own time, not on its ratio to the engine's:
a ratio moves with either side, and a faster engine made it fail with the
analytic side unchanged.  The engine time and the ratio are still reported.

"Warm" means the environment tables (leg grids, the α matrix, per-(N, R)
freshness curves) are built; the cold build is reported alongside so the
amortisation story is visible.  Per-configuration answers are recomputed on
every sweep — nothing config-level is cached between the timed calls.

The measurement body lives in ``measure_analytic_vs_montecarlo`` so
``tools/bench_to_json.py`` can emit it into ``BENCH_sweep.json``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analytic.predictor import AnalyticPredictor
from repro.core.quorum import ReplicaConfig
from repro.latency.distributions import ExponentialLatency
from repro.latency.production import WARSDistributions
from repro.montecarlo.engine import SweepEngine

TRIALS = 100_000
CONFIGS = (
    ReplicaConfig(3, 1, 1),
    ReplicaConfig(3, 1, 2),
    ReplicaConfig(3, 1, 3),
    ReplicaConfig(3, 2, 1),
    ReplicaConfig(3, 2, 2),
    ReplicaConfig(3, 2, 3),
    ReplicaConfig(3, 3, 1),
    ReplicaConfig(3, 3, 3),
)
TIMES_MS = (0.0, 1.0, 10.0, 100.0, 1000.0)

#: Largest best-of-5 time of one warm analytic sweep.  On a 2-vCPU x86-64
#: host the sweep measured 0.55-0.60 ms in 20 runs; the bound leaves over 3x
#: for slower hosts and catches a sweep that loses its warm tables.
WARM_SWEEP_BOUND_SECONDS = 0.002

#: Figure 4's slowest-write ratio (1:0.10): the staleness-heaviest and
#: therefore least forgiving environment for the analytic quadratures.
DISTRIBUTIONS = WARSDistributions.write_specialised(
    write=ExponentialLatency(rate=0.1),
    other=ExponentialLatency(rate=1.0),
    name="figure4-1:0.10",
)


def _time_best_of(repeats: int, callable_) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def measure_analytic_vs_montecarlo() -> dict:
    """Time the figure-4 8-config sweep through both paths and compare answers."""

    def engine_sweep():
        engine = SweepEngine(
            DISTRIBUTIONS,
            CONFIGS,
            times_ms=TIMES_MS,
            target_probability=(0.99, 0.999),
        )
        return engine.run(TRIALS, np.random.default_rng(1))

    cold_start = time.perf_counter()
    predictor = AnalyticPredictor(distributions=DISTRIBUTIONS)
    predictor.environment
    analytic_cold_seconds = time.perf_counter() - cold_start

    def analytic_sweep():
        return predictor.sweep(CONFIGS, times_ms=TIMES_MS)

    # Warm both paths (imports, allocator, per-(N, R) environment caches).
    mc_result = engine_sweep()
    analytic_results = analytic_sweep()

    engine_seconds = _time_best_of(2, engine_sweep)
    analytic_seconds = _time_best_of(5, analytic_sweep)

    max_abs_error = 0.0
    for config, analytic in zip(CONFIGS, analytic_results):
        summary = mc_result.for_config(config)
        for t_ms, p_analytic in analytic.curve:
            error = abs(p_analytic - summary.consistency_probability(t_ms))
            max_abs_error = max(max_abs_error, error)
    return {
        "configs": len(CONFIGS),
        "trials": TRIALS,
        "probe_times": len(TIMES_MS),
        "engine_seconds": engine_seconds,
        "analytic_sweep_seconds": analytic_seconds,
        "analytic_cold_build_seconds": analytic_cold_seconds,
        "speedup": engine_seconds / analytic_seconds,
        "max_abs_error": max_abs_error,
    }


@pytest.mark.benchmark(group="analytic")
def test_warm_analytic_sweep_is_fast_and_within_one_percent():
    """Warm analytic sweep within its time bound, <= 1% abs error."""
    result = measure_analytic_vs_montecarlo()
    print(
        f"\nengine: {result['engine_seconds']*1e3:.1f}ms  "
        f"analytic sweep: {result['analytic_sweep_seconds']*1e3:.3f}ms  "
        f"(cold build {result['analytic_cold_build_seconds']*1e3:.1f}ms)  "
        f"speedup: {result['speedup']:.0f}x  "
        f"max |Δp|: {result['max_abs_error']:.5f}"
    )
    assert result["max_abs_error"] <= 0.01, (
        f"analytic sweep disagrees with the Monte Carlo oracle by "
        f"{result['max_abs_error']:.4f} absolute probability (bar: 0.01)"
    )
    assert result["analytic_sweep_seconds"] <= WARM_SWEEP_BOUND_SECONDS, (
        f"expected a warm analytic sweep of {len(CONFIGS)} configs within "
        f"{WARM_SWEEP_BOUND_SECONDS * 1e3:.1f}ms, got "
        f"{result['analytic_sweep_seconds'] * 1e3:.3f}ms"
    )
