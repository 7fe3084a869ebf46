"""Ablation experiments for the modelling choices the paper (and DESIGN.md) call out.

These do not reproduce a numbered figure; they quantify assumptions:

* ``ablation-read-repair`` — the paper's conservative model ignores read repair
  (§4.2).  How much staleness does read repair actually remove on the cluster?
* ``ablation-read-fanout`` — Dynamo sends reads to all N replicas, Voldemort to
  only R (§2.3).  Staleness should be unaffected; replica read load is not.
* ``ablation-failures`` — §6 "Failure modes": fail-stop crashes turn into
  latency/staleness tail mass.  Measure t-visibility with and without a crashed
  replica.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.staleness import measured_t_visibility, observe_staleness
from repro.cluster.client import WorkloadRunner
from repro.cluster.store import DynamoCluster
from repro.core.quorum import ReplicaConfig
from repro.experiments.registry import ExperimentResult, register
from repro.latency.base import as_rng
from repro.latency.distributions import ConstantLatency, ExponentialLatency
from repro.latency.production import WARSDistributions
from repro.montecarlo.engine import SweepEngine
from repro.workloads.operations import validation_workload

__all__ = ["run_read_repair_ablation", "run_fanout_ablation", "run_failure_ablation"]


def _wars_predicted_t_visibility(
    config: ReplicaConfig,
    distributions: WARSDistributions,
    target: float = 0.90,
    trials: int = 20_000,
    workers: int = 1,
    probe_resolution_ms: float | None = None,
) -> float:
    """WARS sweep-engine prediction to place next to the measured cluster numbers.

    The ablations quantify departures from the paper's conservative model, so
    each table carries the model's own t-visibility prediction as the
    reference column.  A fixed seed keeps the prediction independent of the
    cluster workload's random stream.  By default the prediction retains raw
    samples (exact order statistics); with ``probe_resolution_ms`` it streams
    the same trials through the adaptive probe grid instead — bounded memory,
    crossing bracketed to the requested resolution, and shardable across
    ``workers``.
    """
    engine = SweepEngine(
        distributions,
        (config,),
        keep_samples=probe_resolution_ms is None,
        workers=workers,
        target_probability=target,
        probe_resolution_ms=probe_resolution_ms,
    )
    return engine.run(trials, rng=0).results[0].t_visibility(target)


def _slow_write_distributions(write_mean_ms: float = 50.0) -> WARSDistributions:
    """Slow, long-tailed writes with fast reads: maximises observable staleness."""
    return WARSDistributions(
        w=ExponentialLatency.from_mean(write_mean_ms),
        a=ConstantLatency(0.5),
        r=ConstantLatency(0.5),
        s=ConstantLatency(0.5),
        name=f"exp W={write_mean_ms}ms, A=R=S=0.5ms",
    )


def _run_cluster_workload(
    config: ReplicaConfig,
    distributions: WARSDistributions,
    writes: int,
    rng,
    read_repair: bool = False,
    read_fanout_all: bool = True,
    crash_replica: bool = False,
    draw_batch_size: int | None = None,
) -> dict[str, float]:
    """Run the single-key overwrite workload and summarise staleness and load."""
    cluster_kwargs: dict = {}
    if draw_batch_size is not None:
        cluster_kwargs["draw_batch_size"] = draw_batch_size
    cluster = DynamoCluster(
        config=config,
        distributions=distributions,
        read_repair=read_repair,
        read_fanout_all=read_fanout_all,
        rng=rng,
        **cluster_kwargs,
    )
    key = "ablation-key"
    if crash_replica:
        # Crash one replica of the key for the whole run; with R=W=1 the
        # remaining two replicas keep serving.
        cluster.replicas_for(key)[-1].crash()
    operations = validation_workload(
        key=key, writes=writes, write_interval_ms=40.0, read_offsets_ms=(1.0, 5.0, 15.0)
    )
    WorkloadRunner(cluster).run(operations)
    observations = observe_staleness(cluster.trace_log, key=key)
    staleness_rate = 1.0 - float(np.mean(observations.consistent))
    reads_served_per_replica = [node.served_reads for node in cluster.replicas_for(key)]
    return {
        "observations": float(len(observations)),
        "staleness_rate": staleness_rate,
        "t_visibility_90_ms": measured_t_visibility(observations, 0.90),
        "repairs_sent": float(sum(c.repairs_sent for c in cluster.coordinators)),
        "max_replica_read_load": float(max(reads_served_per_replica)),
        "total_replica_read_load": float(sum(reads_served_per_replica)),
    }


@register("ablation-read-repair", "Ablation: staleness with and without read repair (§4.2)")
def run_read_repair_ablation(
    trials: int = 400,
    rng: np.random.Generator | int | None = 0,
    workers: int = 1,
    probe_resolution_ms: float | None = None,
    draw_batch_size: int | None = None,
) -> ExperimentResult:
    """Compare observed staleness with read repair disabled (paper's model) vs enabled."""
    generator = as_rng(rng)
    config = ReplicaConfig(3, 1, 1)
    distributions = _slow_write_distributions()
    predicted = _wars_predicted_t_visibility(
        config,
        distributions,
        workers=workers,
        probe_resolution_ms=probe_resolution_ms,
    )
    rows = []
    for label, read_repair in (("disabled (paper model)", False), ("enabled", True)):
        summary = _run_cluster_workload(
            config,
            distributions,
            writes=trials,
            rng=generator,
            read_repair=read_repair,
            draw_batch_size=draw_batch_size,
        )
        rows.append(
            {"read_repair": label, **summary, "wars_predicted_t_visibility_90_ms": predicted}
        )
    return ExperimentResult(
        experiment_id="ablation-read-repair",
        title="Read-repair ablation",
        paper_artifact="Section 4.2 (conservative anti-entropy assumptions)",
        rows=rows,
        notes=(
            "The WARS model deliberately excludes read repair; enabling it on the cluster "
            "shows how much extra anti-entropy tightens staleness beyond the prediction.",
        ),
    )


@register(
    "ablation-read-fanout",
    "Ablation: Dynamo-style (N) vs Voldemort-style (R) read fan-out (§2.3)",
)
def run_fanout_ablation(
    trials: int = 400,
    rng: np.random.Generator | int | None = 0,
    workers: int = 1,
    probe_resolution_ms: float | None = None,
    draw_batch_size: int | None = None,
) -> ExperimentResult:
    """Staleness is unchanged by fan-out choice; per-replica read load is not."""
    generator = as_rng(rng)
    config = ReplicaConfig(3, 1, 1)
    distributions = _slow_write_distributions()
    predicted = _wars_predicted_t_visibility(
        config,
        distributions,
        workers=workers,
        probe_resolution_ms=probe_resolution_ms,
    )
    rows = []
    for label, fanout_all in (("all N replicas (Dynamo)", True), ("only R replicas (Voldemort)", False)):
        summary = _run_cluster_workload(
            config,
            distributions,
            writes=trials,
            rng=generator,
            read_fanout_all=fanout_all,
            draw_batch_size=draw_batch_size,
        )
        rows.append(
            {"read_fanout": label, **summary, "wars_predicted_t_visibility_90_ms": predicted}
        )
    return ExperimentResult(
        experiment_id="ablation-read-fanout",
        title="Read fan-out ablation",
        paper_artifact="Section 2.3 (Voldemort sends reads to R of N replicas)",
        rows=rows,
        notes=(
            "Coordinators only wait for R responses either way, so staleness probabilities "
            "match; sending reads to fewer replicas lowers per-replica read load.",
        ),
    )


@register("ablation-failures", "Ablation: fail-stop replica failure vs steady state (§6)")
def run_failure_ablation(
    trials: int = 400,
    rng: np.random.Generator | int | None = 0,
    workers: int = 1,
    probe_resolution_ms: float | None = None,
    draw_batch_size: int | None = None,
) -> ExperimentResult:
    """A crashed replica effectively shrinks N, changing both staleness and availability."""
    generator = as_rng(rng)
    config = ReplicaConfig(3, 1, 1)
    distributions = _slow_write_distributions()
    # The model's steady-state reference; a crashed replica shrinks the
    # effective N, which the two-replica prediction below captures.
    predicted_steady = _wars_predicted_t_visibility(
        config,
        distributions,
        workers=workers,
        probe_resolution_ms=probe_resolution_ms,
    )
    predicted_degraded = _wars_predicted_t_visibility(
        ReplicaConfig(2, 1, 1),
        distributions,
        workers=workers,
        probe_resolution_ms=probe_resolution_ms,
    )
    rows = []
    for label, crash in (("steady state", False), ("one replica crashed", True)):
        summary = _run_cluster_workload(
            config,
            distributions,
            writes=trials,
            rng=generator,
            crash_replica=crash,
            draw_batch_size=draw_batch_size,
        )
        rows.append(
            {
                "scenario": label,
                **summary,
                "wars_predicted_t_visibility_90_ms": (
                    predicted_degraded if crash else predicted_steady
                ),
            }
        )
    return ExperimentResult(
        experiment_id="ablation-failures",
        title="Failure-mode ablation",
        paper_artifact="Section 6 (Failure modes)",
        rows=rows,
        notes=(
            "With independent fail-stop failures, an N-replica set with F failures behaves "
            "like an (N - F)-replica set; per Figure 7, fewer replicas means a read quorum "
            "of one is more likely to land on a replica that already has the write.",
        ),
    )
