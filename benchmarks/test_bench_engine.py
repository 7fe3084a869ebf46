"""Benchmark: shared-sample sweep engine vs the per-configuration kernel loop.

The headline claim of the engine is that a Table-4-style sweep — one latency
environment, many (R, W) configurations — costs O(trials) sampling instead of
O(configs x trials).  This benchmark times an 8-configuration, 100k-trial
sweep both ways and asserts the engine is at least 3x faster, while its
per-configuration results stay within the equivalence-test tolerances of
independent kernel runs.

The measurement bodies live in module-level ``measure_*`` functions (returning
plain dicts) so that ``tools/bench_to_json.py`` can run the same scenarios and
emit ``BENCH_sweep.json`` for cross-PR perf tracking; the tests assert the
performance claims on those measurements.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.quorum import ReplicaConfig
from repro.core.wars import WARSModel
from repro.kernels import KERNEL
from repro.latency.distributions import ExponentialLatency
from repro.latency.production import WARSDistributions, ymmr
from repro.montecarlo.convergence import wilson_interval
from repro.montecarlo.engine import SAMPLE_BLOCK, SweepEngine

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


def _time_best_of(repeats: int, callable_) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def measure_engine_vs_per_config_loop() -> dict:
    """Time the 8-config sweep as a shared-sample engine run vs a kernel loop."""
    distributions = ymmr()

    def per_config_loop():
        generator = np.random.default_rng(1)
        return [
            WARSModel(distributions, config).sample(TRIALS, generator)
            for config in CONFIGS
        ]

    def engine_sweep():
        engine = SweepEngine(distributions, CONFIGS, times_ms=TIMES_MS)
        return engine.run(TRIALS, np.random.default_rng(1))

    # Warm both paths once (imports, allocator, scipy ppf caches).
    per_config_loop()
    engine_sweep()

    loop_seconds = _time_best_of(2, per_config_loop)
    engine_seconds = _time_best_of(2, engine_sweep)
    return {
        "configs": len(CONFIGS),
        "trials": TRIALS,
        "loop_seconds": loop_seconds,
        "engine_seconds": engine_seconds,
        "speedup": loop_seconds / engine_seconds,
    }


@pytest.mark.benchmark(group="engine")
def test_engine_speedup_over_per_config_loop():
    """The shared-sample engine beats the per-config kernel loop by >= 3x."""
    result = measure_engine_vs_per_config_loop()
    loop_seconds, engine_seconds = result["loop_seconds"], result["engine_seconds"]
    speedup = result["speedup"]
    print(
        f"\nper-config loop: {loop_seconds:.3f}s  engine: {engine_seconds:.3f}s  "
        f"speedup: {speedup:.2f}x"
    )
    assert speedup >= 3.0, (
        f"expected >= 3x speedup for an {len(CONFIGS)}-config {TRIALS}-trial sweep, "
        f"got {speedup:.2f}x ({loop_seconds:.3f}s vs {engine_seconds:.3f}s)"
    )


def _sort_reduction(write_delays, ack_delays, read_delays, response_delays):
    """The sort-based reduction the kernel's insertion network replaced.

    ``tests/montecarlo/test_accumulator_oracle.py`` keeps the same steps as
    the kernel's oracle; here they are the speed baseline.
    """
    trials = write_delays.shape[0]
    commit = np.sort(write_delays + ack_delays, axis=1)
    read_round_trips = read_delays + response_delays
    order = np.argsort(read_round_trips, axis=1, kind="stable")
    rows = np.arange(trials)[:, None]
    margins = (write_delays - read_delays)[rows, order]
    return commit, read_round_trips[rows, order], np.minimum.accumulate(margins, axis=1)


def measure_reduction_vs_sort(max_n: int = 10, trials: int = SAMPLE_BLOCK) -> dict:
    """Time the kernel's reduction against the sort-based one, N = 1..max_n.

    One sampling block of exponential delays per N; best of 7 rounds of 20
    calls each, per side.
    """
    rng = np.random.default_rng(0)
    by_n = {}
    for n in range(1, max_n + 1):
        legs = [rng.exponential(1.0, (trials, n)) for _ in range(4)]
        seconds = {}
        for name, reduce in (("network", KERNEL.reduce_batch), ("sort", _sort_reduction)):

            def twenty_calls():
                for _ in range(20):
                    reduce(*legs)

            twenty_calls()
            seconds[name] = _time_best_of(7, twenty_calls) / 20
        by_n[str(n)] = {
            "network_us": seconds["network"] * 1e6,
            "sort_us": seconds["sort"] * 1e6,
            "speedup": seconds["sort"] / seconds["network"],
        }
    slower = [int(n) for n, row in by_n.items() if row["speedup"] < 1.0]
    return {
        "trials": trials,
        "by_n": by_n,
        "first_n_slower_than_sort": min(slower) if slower else None,
    }


@pytest.mark.benchmark(group="engine")
def test_reduction_not_slower_than_sort_up_to_five_replicas():
    """The paper's replication factors (N <= 5) reduce at least as fast as by sorting."""
    result = measure_reduction_vs_sort(max_n=5)
    for n, row in result["by_n"].items():
        print(
            f"\nN={n}: network {row['network_us']:.0f}us  sort {row['sort_us']:.0f}us  "
            f"speedup {row['speedup']:.2f}x",
            end="",
        )
        assert row["speedup"] >= 1.0, (
            f"the insertion network is slower than sorting at N={n}: "
            f"{row['network_us']:.0f}us vs {row['sort_us']:.0f}us"
        )


def measure_sharded_speedup(workers: int = 4) -> dict:
    """Time the 8-config sweep serial vs sharded across ``workers`` processes.

    Block-sized chunks give the pool 13 tasks to balance; the coordinator's
    overhead is one inline chunk (layout freezing) plus per-chunk accumulator
    pickling.  Also counts result mismatches (the merge contract requires
    zero).
    """
    distributions = ymmr()

    def sweep(worker_count: int):
        return SweepEngine(
            distributions,
            CONFIGS,
            times_ms=TIMES_MS,
            chunk_size=SAMPLE_BLOCK,
            workers=worker_count,
        ).run(TRIALS, 1)

    # Warm both paths (imports, allocator, fork machinery).
    serial_result = sweep(1)
    sharded_result = sweep(workers)
    mismatches = sum(
        ours.consistent_counts != theirs.consistent_counts
        or any(
            ours.read_latency_percentile(p) != theirs.read_latency_percentile(p)
            or ours.write_latency_percentile(p) != theirs.write_latency_percentile(p)
            for p in (50.0, 99.0, 99.9)
        )
        for ours, theirs in zip(serial_result, sharded_result)
    )
    serial_seconds = _time_best_of(2, lambda: sweep(1))
    sharded_seconds = _time_best_of(2, lambda: sweep(workers))
    return {
        "configs": len(CONFIGS),
        "trials": TRIALS,
        "workers": workers,
        "serial_seconds": serial_seconds,
        "sharded_seconds": sharded_seconds,
        "speedup": serial_seconds / sharded_seconds,
        "result_mismatches": mismatches,
    }


@pytest.mark.benchmark(group="engine")
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel speedup needs >= 4 CPU cores; equivalence is covered by "
    "tier-1 tests on any machine",
)
def test_sharded_engine_speedup_at_four_workers():
    """4 worker processes beat the serial engine by >= 1.8x on a Table-4-style
    sweep (8 configs, 100k trials), with bit-for-bit identical results.
    """
    result = measure_sharded_speedup(workers=4)
    assert result["result_mismatches"] == 0
    serial_seconds, sharded_seconds = result["serial_seconds"], result["sharded_seconds"]
    speedup = result["speedup"]
    print(
        f"\nserial: {serial_seconds:.3f}s  4 workers: {sharded_seconds:.3f}s  "
        f"speedup: {speedup:.2f}x"
    )
    assert speedup >= 1.8, (
        f"expected >= 1.8x speedup at 4 workers for an {len(CONFIGS)}-config "
        f"{TRIALS}-trial sweep, got {speedup:.2f}x "
        f"({serial_seconds:.3f}s vs {sharded_seconds:.3f}s)"
    )


@pytest.mark.benchmark(group="engine")
def test_adaptive_grid_early_stopping_beats_fixed_grid():
    """Adaptive refinement reaches the Wilson tolerance in fewer samples than
    a fixed grid of equal resolution.

    The scenario is chosen so the fixed grid pays for what adaptivity
    avoids: N=10 with slow writes puts the commit-time consistency around
    0.15 and the curve rises gradually, so a 4 ms fixed grid over the whole
    span necessarily probes the p ~ 0.5 region where Wilson intervals are
    widest — every one of those probes must individually converge.  The
    adaptive run probes only {0, span} plus the refined probes near the
    0.999 crossing (p(1-p) tiny at both extremes), and its stop gate still
    delivers the same guarantee for the number that matters: the crossing is
    bracketed to the same 4 ms resolution by tolerance-tight probes.
    """
    config = ReplicaConfig(10, 1, 1)
    distributions = WARSDistributions.write_specialised(
        write=ExponentialLatency.from_mean(20.0),
        other=ExponentialLatency.from_mean(1.0),
        name="bench-adaptive",
    )
    resolution, span, tolerance, budget = 4.0, 256.0, 0.002, 1_000_000
    fixed = SweepEngine(
        distributions,
        (config,),
        times_ms=tuple(np.arange(0.0, span + resolution, resolution)),
        chunk_size=SAMPLE_BLOCK,
        tolerance=tolerance,
        min_trials=1,
    ).run(budget, 11)
    adaptive = SweepEngine(
        distributions,
        (config,),
        times_ms=(0.0, span),
        chunk_size=SAMPLE_BLOCK,
        tolerance=tolerance,
        min_trials=1,
        target_probability=0.999,
        probe_resolution_ms=resolution,
    ).run(budget, 11)
    assert fixed.stopped_early and fixed.converged
    assert adaptive.stopped_early and adaptive.converged
    print(
        f"\nfixed grid ({len(fixed.results[0].times_ms)} probes): "
        f"{fixed.trials_run} trials  adaptive "
        f"({len(adaptive.results[0].times_ms)} base + "
        f"{len(adaptive.results[0].refined_times_ms)} refined): "
        f"{adaptive.trials_run} trials"
    )
    assert adaptive.trials_run < fixed.trials_run, (
        f"adaptive refinement should stop sooner than the fixed grid at equal "
        f"resolution, got {adaptive.trials_run} vs {fixed.trials_run}"
    )
    # Refinement actually engaged and resolved the crossing to resolution.
    summary = adaptive.results[0]
    assert summary.refined_times_ms
    low, high = summary.t_visibility_bracket(0.999)
    assert 0.0 < high - low <= resolution
    # Both estimates agree on where the crossing is (within a few probe
    # spans of Monte Carlo noise; the exact reference is ~134 ms).
    assert summary.t_visibility(0.999) == pytest.approx(
        fixed.results[0].t_visibility(0.999), abs=3 * resolution
    )


@pytest.mark.benchmark(group="engine")
def test_engine_results_match_kernel_within_tolerances():
    """Per-config engine results match independent kernel runs statistically."""
    distributions = ymmr()
    sweep = SweepEngine(distributions, CONFIGS, times_ms=TIMES_MS).run(TRIALS, 1)
    # Same seed, samples kept: identical trials, exact percentile queries.
    exact_sweep = SweepEngine(distributions, CONFIGS, times_ms=TIMES_MS, keep_samples=True).run(
        TRIALS, 1
    )
    for summary, exact in zip(sweep, exact_sweep):
        independent = WARSModel(distributions, summary.config).sample(TRIALS, 2)
        # Consistency curves agree within combined 99.9% Wilson half-widths.
        for t_ms in TIMES_MS:
            estimate = summary.estimate_at(t_ms, confidence=0.999)
            kernel_p = independent.consistency_probability(t_ms)
            kernel_margin = wilson_interval(
                int(round(kernel_p * TRIALS)), TRIALS, 0.999
            ).margin
            assert abs(estimate.probability - kernel_p) <= estimate.margin + kernel_margin
        # The percentile sketches track the exact per-trial percentiles of
        # the same trials within 2% — the engine-specific approximation
        # error, isolated from the seed-to-seed Monte Carlo noise of YMMR's
        # heavy write tail.
        for percentile in (50.0, 99.0, 99.9):
            assert summary.read_latency_percentile(percentile) == pytest.approx(
                exact.read_latency_percentile(percentile), rel=0.02
            )
            assert summary.write_latency_percentile(percentile) == pytest.approx(
                exact.write_latency_percentile(percentile), rel=0.02
            )
        # Against an independent seed, percentiles agree within the
        # seed-to-seed Monte Carlo noise.  YMMR's write CDF is nearly flat
        # around p99 (the fsync tail kicks in), so the write tail quantiles
        # are intrinsically noisy across seeds and get a wider allowance.
        for percentile in (50.0, 95.0, 99.0):
            assert summary.read_latency_percentile(percentile) == pytest.approx(
                independent.read_latency_percentile(percentile), rel=0.05
            )
        for percentile in (50.0, 95.0):
            assert summary.write_latency_percentile(percentile) == pytest.approx(
                independent.write_latency_percentile(percentile), rel=0.05
            )
        for percentile in (99.0, 99.9):
            assert summary.write_latency_percentile(percentile) == pytest.approx(
                independent.write_latency_percentile(percentile), rel=0.15
            )
