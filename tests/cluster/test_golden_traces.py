"""Golden trace digests: fixed-seed cluster runs must reproduce bit for bit.

Each cell below runs a small §5.2-style workload on a fixed seed and hashes
a canonical dump of everything the run recorded: every trace column (read
through the public row views, so the dump does not depend on how the trace
log stores or interns them) plus the network and simulator counters
(``draws_consumed``, ``draw_refills``, ``processed_events``,
``dropped_messages``).  Operation ids are rebased to the run's first id, so
the digests do not depend on where the id numbering starts.

A digest changes when anything about the simulation changes: which message
receives which latency draw, the ``(time, sequence)`` order of events, the
number of events, or what the coordinator records.  A change that is meant
to be behaviour-preserving (a hot-path rewrite, a storage refactor) must
leave every digest as it is.  The digests also depend on NumPy's generator
streams: if a NumPy upgrade moves them, confirm that the unchanged parent
commit moves identically before regenerating.

Two more digest families widen the net:

* ``PER_DRAW_DIGESTS`` — the same dump for ``draw_batch_size=1`` runs, which
  make one numpy call per message;
* ``ANALYSIS_DIGESTS`` — each cell's staleness observations (operation ids
  rebased, keys as strings) and both operation-latency arrays.

The scenario reports and the fast validation grid are digested in
``tests/scenarios/test_scenarios.py`` and
``tests/integration/test_integration.py``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.staleness import observe_staleness, operation_latencies
from repro.cluster.client import WorkloadRunner
from repro.cluster.store import DynamoCluster
from repro.core.quorum import ReplicaConfig
from repro.latency.distributions import ExponentialLatency
from repro.latency.production import WARSDistributions
from repro.scenarios.definitions import GRAY_FAILURE_PLAN, GRAY_READ_OFFSETS_MS
from repro.workloads.operations import validation_workload

KEY = "golden-key"
WRITES = 300
WRITE_INTERVAL_MS = 200.0
READ_OFFSETS_MS = (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0)

#: cell name -> (seed, (N, R, W), DynamoCluster keyword arguments, read offsets).
CELLS = {
    "baseline-seed0": (0, (3, 1, 1), {}, READ_OFFSETS_MS),
    "baseline-seed1": (1, (3, 1, 1), {}, READ_OFFSETS_MS),
    "loss-0.1": (2, (3, 1, 1), {"loss_probability": 0.1}, READ_OFFSETS_MS),
    "crash-recover": (
        3,
        (3, 2, 2),
        {
            "node_count": 5,
            "hinted_handoff": True,
            "sloppy_quorum": True,
            "read_repair": True,
        },
        READ_OFFSETS_MS,
    ),
    "two-coordinators": (4, (3, 1, 1), {"coordinator_count": 2}, READ_OFFSETS_MS),
    "gray-failure": (5, (3, 1, 1), {"fault_plan": GRAY_FAILURE_PLAN}, GRAY_READ_OFFSETS_MS),
}

GOLDEN_DIGESTS = {
    "baseline-seed0": "8f4203cf553d727b477e226471a1418acfeac2a5e83d9d2741fdf26ba5cde575",
    "baseline-seed1": "fe307570441aab9f69cd0f121c169f35d9425a538eb4b076246445ee1b80ab6d",
    "loss-0.1": "c29fb96994aae69a66a77f1c6b9872b49782fc3ef356c2b74530ee9fcace9ab7",
    "crash-recover": "7960b5efff304c3d939c2fef3d2ccb187d6b5e663a75bca7bf40b2befba28e4e",
    "two-coordinators": "cda566dd6b69242f43d64466c7e36dac55f6cd455c4b9ad9aff9bd5d74fd3224",
    "gray-failure": "655d41cfb3b568a0fbc4399ae2d39d2e66771b9c2f0bed5687dd187b4015e534",
}

#: ``canonical_dump`` digests of ``draw_batch_size=1`` runs of four cells.
PER_DRAW_DIGESTS = {
    "baseline-seed0": "a9b1e6cab5923b8fb7d38e53731acaf5e140db725ff1be8128905f22dae3291c",
    "loss-0.1": "66ad613384bd3be95b3aa3c84b7c8211656b0882190d4298bda9b307cc761e4a",
    "crash-recover": "ff312e8d56a7144d01e0edd173d4858098ed0ad71f3ba7fc263c9ec10e01d6fb",
    "two-coordinators": "6b035d9adaf008cc3636373f76a23d9e1a88be0be55f4efc8c922b7dc232f3df",
}

#: ``analysis_dump`` digests of every cell.
ANALYSIS_DIGESTS = {
    "baseline-seed0": "e6d43a934c8231f4dd04c3f3ced3b7f1b1d009c5b4a66476809bc05e12351f0a",
    "baseline-seed1": "4adfdbafe99e8b73fadc6dc836aa47c1b85c07350c7786830f94120530e8de5c",
    "loss-0.1": "1741cc75b00a9ae6e21c56fe510a57aefe311cc37b38cbd1a363933d06004723",
    "crash-recover": "3094c2728a17faa8e75e3481bf911cbd8608eb6aaaad459b3b336fd9e9dc1b48",
    "two-coordinators": "0da0a581a4adb589fe860b311a310c7681a04fc3c742c75c4c9ddb6d76db3893",
    "gray-failure": "ed1e1cbaac13c882d40dcefd039d2f54bf0c4c601c8722ad29bfbd3b5e30af21",
}


def run_cell(name: str, **overrides) -> DynamoCluster:
    """Run one golden cell; ``overrides`` adds DynamoCluster keyword arguments."""
    seed, (n, r, w), cluster_kwargs, read_offsets = CELLS[name]
    cluster = DynamoCluster(
        config=ReplicaConfig(n=n, r=r, w=w),
        distributions=WARSDistributions.write_specialised(
            write=ExponentialLatency.from_mean(20.0),
            other=ExponentialLatency.from_mean(10.0),
        ),
        rng=seed,
        **cluster_kwargs,
        **overrides,
    )
    horizon_ms = WRITES * WRITE_INTERVAL_MS
    if name == "crash-recover":
        # One home replica is down for 30% of the run; hints held for it are
        # replayed shortly after it recovers.
        victim = cluster.replicas_for(KEY)[0].node_id
        cluster.failure_injector.schedule_crash(
            victim, at_ms=0.25 * horizon_ms, downtime_ms=0.30 * horizon_ms
        )
        cluster.simulator.schedule_at(0.60 * horizon_ms, cluster.replay_hints)
    operations = validation_workload(
        key=KEY,
        writes=WRITES,
        write_interval_ms=WRITE_INTERVAL_MS,
        read_offsets_ms=read_offsets,
    )
    WorkloadRunner(cluster).run(operations)
    return cluster


def _version(version) -> list | None:
    return None if version is None else [version.timestamp, version.writer]


def canonical_dump(cluster: DynamoCluster) -> dict:
    """Every recorded trace column and run counter, in a storage-neutral form."""
    log = cluster.trace_log
    writes, reads = log.writes, log.reads
    base = min(trace.operation_id for trace in [*writes, *reads])
    columns: dict[str, list] = {
        name: []
        for name in (
            "w_operation", "w_key", "w_version", "w_coordinator", "w_started",
            "w_committed", "w_arrivals", "w_acks", "w_drops",
            "r_operation", "r_key", "r_coordinator", "r_started", "r_completed",
            "r_timed_out", "r_returned", "r_repairs", "r_responses", "r_quorum",
            "r_late",
        )
    }
    for row, trace in enumerate(writes):
        columns["w_operation"].append(trace.operation_id - base)
        columns["w_key"].append(trace.key)
        columns["w_version"].append(_version(trace.version))
        columns["w_coordinator"].append(trace.coordinator)
        columns["w_started"].append(trace.started_ms)
        columns["w_committed"].append(trace.committed_ms)
        columns["w_arrivals"].extend([row, n, t] for n, t in trace.replica_arrivals_ms.items())
        columns["w_acks"].extend([row, n, t] for n, t in trace.ack_arrivals_ms.items())
        columns["w_drops"].extend([row, n] for n in sorted(trace.dropped_replicas))
    for row, trace in enumerate(reads):
        columns["r_operation"].append(trace.operation_id - base)
        columns["r_key"].append(trace.key)
        columns["r_coordinator"].append(trace.coordinator)
        columns["r_started"].append(trace.started_ms)
        columns["r_completed"].append(trace.completed_ms)
        columns["r_timed_out"].append(trace.timed_out)
        columns["r_returned"].append(_version(trace.returned_version))
        columns["r_repairs"].append(trace.repairs_issued)
        columns["r_responses"].extend(
            [row, n, t] for n, t in trace.response_arrivals_ms.items()
        )
        columns["r_quorum"].extend(
            [row, n, _version(v)] for n, v in trace.quorum_responses.items()
        )
        columns["r_late"].extend([row, n, _version(v)] for n, v in trace.late_responses.items())
    network = cluster.network
    columns["counters"] = [
        network.draws_consumed,
        network.draw_refills,
        cluster.simulator.processed_events,
        network.dropped_messages,
    ]
    return columns


def sha256_json(payload) -> str:
    """sha256 of a canonical JSON text (floats serialise exactly via repr)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digest(cluster: DynamoCluster) -> str:
    """sha256 of :func:`canonical_dump`."""
    return sha256_json(canonical_dump(cluster))


def analysis_dump(cluster: DynamoCluster) -> dict:
    """The staleness observations and operation latencies of a run."""
    log = cluster.trace_log
    base = min(trace.operation_id for trace in [*log.writes, *log.reads])
    reads, writes = operation_latencies(log)
    return {
        "observations": [
            [obs.operation_id - base, obs.key, obs.t_since_commit_ms, obs.consistent,
             obs.version_lag]
            for obs in observe_staleness(log).observations()
        ],
        "read_latencies": reads.tolist(),
        "write_latencies": writes.tolist(),
    }


@pytest.mark.parametrize("name", sorted(CELLS))
def test_golden_digest(name):
    assert digest(run_cell(name)) == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PER_DRAW_DIGESTS))
def test_per_draw_golden_digest(name):
    assert digest(run_cell(name, draw_batch_size=1)) == PER_DRAW_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CELLS))
def test_analysis_golden_digest(name):
    assert sha256_json(analysis_dump(run_cell(name))) == ANALYSIS_DIGESTS[name]


def test_cells_exercise_their_conditions():
    """Each non-baseline cell really departs from the baseline it names."""
    lossy = run_cell("loss-0.1")
    assert lossy.network.dropped_messages > 0
    crashed = run_cell("crash-recover")
    coordinator = crashed.coordinators[0]
    assert coordinator.hints_replayed > 0 and coordinator.repairs_sent > 0
    assert any(trace.dropped_replicas for trace in crashed.trace_log.writes)
    two = run_cell("two-coordinators")
    assert {trace.coordinator for trace in two.trace_log.reads} == {
        "coordinator-0",
        "coordinator-1",
    }
