"""Benchmark: the serving layer's warm load and its cold path after a refit.

The serving layer's contract: once a tenant's analytic environment is warm,
:class:`repro.serving.PredictorService` sustains at least 1,000 requests per
second with a p99 request latency under 10 ms on the cached/analytic path.
The load mix alternates predictions across the N=3 quorum grid with SLA
recommendations, so both the fingerprint-keyed cache hits and the warm
analytic misses are on the measured path.

A refit retires the warm environment: the first query afterwards rebuilds
it from the tenant's empirical reservoirs (four leg grids, two convolutions
and the α matrix).  ``measure_serving_refit`` times that rebuild and the
first recommendation after it; the load test above never reaches this path.

The measurement bodies live in ``measure_serving_load`` and
``measure_serving_refit`` so ``tools/bench_to_json.py`` can emit them into
``BENCH_sweep.json`` as the ``serving_load`` and ``serving_refit`` scenarios.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.core.quorum import ReplicaConfig
from repro.core.sla import SLATarget
from repro.serving import PredictorService

REQUESTS = 5_000

#: The N=3 quorum grid served by the prediction half of the load mix.
CONFIGS = (
    ReplicaConfig(3, 1, 1),
    ReplicaConfig(3, 1, 2),
    ReplicaConfig(3, 2, 1),
    ReplicaConfig(3, 2, 2),
    ReplicaConfig(3, 3, 1),
    ReplicaConfig(3, 1, 3),
    ReplicaConfig(3, 3, 3),
)

#: SLA targets served by the recommendation half (distinct cache entries).
TARGETS = (
    SLATarget(read_latency_ms=10.0, t_visibility_ms=20.0),
    SLATarget(read_latency_ms=5.0, t_visibility_ms=50.0),
    SLATarget(t_visibility_ms=5.0),
)

#: Refits timed by ``measure_serving_refit``, and the observations ingested
#: per leg before each (the default reservoir capacity, so it fills).
REFITS = 5
REFIT_OBSERVATIONS = 4_096


def measure_serving_load(requests: int = REQUESTS) -> dict:
    """Drive a warm PredictorService and report throughput and latency tails."""
    service = PredictorService()
    service.register_tenant("bench", "LNKD-SSD")

    # Warm the environment tables and populate the cache: the claim is about
    # the serving path, not the one-off environment build (reported alongside).
    cold_start = time.perf_counter()
    for config in CONFIGS:
        service.predict("bench", config)
    for target in TARGETS:
        service.recommend("bench", target)
    warmup_seconds = time.perf_counter() - cold_start

    latencies = np.empty(requests)
    started = time.perf_counter()
    for index in range(requests):
        request_start = time.perf_counter()
        if index % 5 == 4:
            service.recommend("bench", TARGETS[index % len(TARGETS)])
        else:
            service.predict("bench", CONFIGS[index % len(CONFIGS)])
        latencies[index] = time.perf_counter() - request_start
    elapsed = time.perf_counter() - started

    stats = service.stats()
    return {
        "requests": requests,
        "requests_per_second": requests / elapsed,
        "p50_ms": float(np.percentile(latencies, 50.0) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99.0) * 1e3),
        "max_ms": float(latencies.max() * 1e3),
        "warmup_seconds": warmup_seconds,
        "cache_hit_rate": stats.cache.hit_rate,
        "spot_checks_pending": stats.spot_checks_pending,
    }


def measure_serving_refit() -> dict:
    """Time the first ``predict`` and ``recommend`` after each of ``REFITS`` refits.

    Each round registers a fresh LNKD-SSD tenant, ingests
    ``REFIT_OBSERVATIONS`` seeded exponential values (mean 5 ms, as in
    ``perfbench``'s ``serve-http``) per leg, and refits, so every leg becomes
    an empirical distribution over a full default reservoir.  The first
    ``predict`` pays the environment rebuild; the first ``recommend`` then
    pays the SLA search over the warm environment.  Medians are over the
    rounds.
    """
    rebuild_ms, recommend_ms = [], []
    for round_index in range(REFITS):
        service = PredictorService()
        service.register_tenant("bench", "LNKD-SSD")
        rng = np.random.default_rng(round_index)
        for leg in ("W", "A", "R", "S"):
            service.ingest("bench", leg, rng.exponential(5.0, size=REFIT_OBSERVATIONS))
        service.refit("bench")
        started = time.perf_counter()
        service.predict("bench", CONFIGS[0])
        rebuild_ms.append((time.perf_counter() - started) * 1e3)
        started = time.perf_counter()
        service.recommend("bench", TARGETS[0])
        recommend_ms.append((time.perf_counter() - started) * 1e3)
    return {
        "refits": REFITS,
        "observations_per_leg": REFIT_OBSERVATIONS,
        "rebuild_median_ms": statistics.median(rebuild_ms),
        "rebuild_max_ms": max(rebuild_ms),
        "recommend_median_ms": statistics.median(recommend_ms),
    }


@pytest.mark.benchmark(group="serving")
def test_serving_load_1000_rps_p99_under_10ms():
    """>= 1,000 req/s at p99 < 10 ms on the cached/analytic serving path."""
    result = measure_serving_load()
    print(
        f"\n{result['requests']} requests: "
        f"{result['requests_per_second']:.0f} req/s  "
        f"p50 {result['p50_ms']*1e3:.1f}us  p99 {result['p99_ms']*1e3:.1f}us  "
        f"max {result['max_ms']:.2f}ms  "
        f"(warmup {result['warmup_seconds']*1e3:.0f}ms, "
        f"hit rate {result['cache_hit_rate']:.2%})"
    )
    assert result["requests_per_second"] >= 1_000.0, (
        f"expected the warm serving path to sustain >= 1,000 requests/sec, "
        f"got {result['requests_per_second']:.0f}"
    )
    assert result["p99_ms"] < 10.0, (
        f"expected p99 request latency < 10 ms on the cached/analytic path, "
        f"got {result['p99_ms']:.2f} ms"
    )


@pytest.mark.benchmark(group="serving")
def test_serving_refit_rebuild_under_150ms():
    """The first query after a refit rebuilds the environment in <= 150 ms."""
    result = measure_serving_refit()
    print(
        f"\n{result['refits']} refits of {result['observations_per_leg']} "
        f"observations per leg: rebuild median {result['rebuild_median_ms']:.1f} ms "
        f"(max {result['rebuild_max_ms']:.1f} ms), first recommend median "
        f"{result['recommend_median_ms']:.1f} ms"
    )
    assert result["rebuild_median_ms"] <= 150.0, (
        f"expected the post-refit environment rebuild to take <= 150 ms, "
        f"got a median of {result['rebuild_median_ms']:.1f} ms"
    )
