"""Ablation benchmarks for the design choices called out in DESIGN.md.

These do not correspond to a single numbered figure; they quantify the
assumptions the paper makes (and that this reproduction mirrors):

* read repair and hinted handoff disabled (conservative anti-entropy model);
* reads fanned out to all N replicas (Dynamo) vs only R (Voldemort);
* Equation 4's instantaneous-read assumption vs the full WARS Monte Carlo.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.staleness import observe_staleness
from repro.cluster.client import WorkloadRunner
from repro.cluster.store import DynamoCluster
from repro.core.quorum import ReplicaConfig
from repro.core.tvisibility import EmpiricalPropagation, visibility_lower_bound
from repro.core.wars import WARSModel
from repro.latency.distributions import ConstantLatency, ExponentialLatency
from repro.latency.production import WARSDistributions
from repro.workloads.operations import validation_workload


def _slow_write_distributions() -> WARSDistributions:
    return WARSDistributions(
        w=ExponentialLatency.from_mean(50.0),
        a=ConstantLatency(0.5),
        r=ConstantLatency(0.5),
        s=ConstantLatency(0.5),
    )


def _staleness_rate(read_repair: bool, fanout_all: bool, seed: int = 17) -> float:
    cluster = DynamoCluster(
        ReplicaConfig(3, 1, 1),
        _slow_write_distributions(),
        read_repair=read_repair,
        read_fanout_all=fanout_all,
        rng=seed,
    )
    operations = validation_workload(
        key="k", writes=300, write_interval_ms=40.0, read_offsets_ms=(1.0, 10.0)
    )
    WorkloadRunner(cluster).run(operations)
    observations = observe_staleness(cluster.trace_log, key="k")
    return 1.0 - float(np.mean(observations.consistent))


@pytest.mark.benchmark(group="ablations")
def test_bench_read_repair_ablation(benchmark):
    """Read repair (extra anti-entropy beyond WARS) only reduces observed staleness."""

    def run() -> tuple[float, float]:
        return _staleness_rate(read_repair=False, fanout_all=True), _staleness_rate(
            read_repair=True, fanout_all=True
        )

    without_repair, with_repair = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["staleness_without_repair"] = without_repair
    benchmark.extra_info["staleness_with_repair"] = with_repair
    assert without_repair > 0.0
    assert with_repair <= without_repair + 0.02


@pytest.mark.benchmark(group="ablations")
def test_bench_read_fanout_ablation(benchmark):
    """Voldemort-style fanout (send reads to only R replicas) leaves staleness unchanged.

    §2.3: provided staleness probabilities are independent across requests,
    contacting R of N replicas instead of N of N does not affect staleness —
    the coordinator only ever waits for R responses.
    """

    def run() -> tuple[float, float]:
        return _staleness_rate(read_repair=False, fanout_all=True), _staleness_rate(
            read_repair=False, fanout_all=False
        )

    dynamo_style, voldemort_style = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["staleness_fanout_all"] = dynamo_style
    benchmark.extra_info["staleness_fanout_r"] = voldemort_style
    assert dynamo_style == pytest.approx(voldemort_style, abs=0.08)


@pytest.mark.benchmark(group="ablations")
def test_bench_equation4_vs_wars(benchmark):
    """Equation 4 (instantaneous reads) is an upper bound on staleness vs full WARS.

    The closed-form bound ignores the extra propagation time writes gain while
    read requests and responses are in flight, so its predicted probability of
    consistency is never higher than the Monte Carlo estimate.
    """
    config = ReplicaConfig(3, 1, 1)
    distributions = WARSDistributions.write_specialised(
        write=ExponentialLatency.from_mean(20.0), other=ExponentialLatency.from_mean(2.0)
    )

    def run() -> list[tuple[float, float, float]]:
        result = WARSModel(distributions, config).sample(60_000, rng=3)
        arrivals = result.write_arrivals_ms - result.commit_latencies_ms[:, None]
        propagation = EmpiricalPropagation(arrival_delays_ms=arrivals)
        rows = []
        for t_ms in (0.0, 5.0, 10.0, 20.0, 50.0):
            rows.append(
                (
                    t_ms,
                    visibility_lower_bound(config, propagation, t_ms),
                    result.consistency_probability(t_ms),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["rows"] = [
        {"t_ms": t, "equation4_lower_bound": eq4, "wars_monte_carlo": mc} for t, eq4, mc in rows
    ]
    for _, eq4_bound, wars_estimate in rows:
        assert eq4_bound <= wars_estimate + 0.02
