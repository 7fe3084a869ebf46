"""Integration tests spanning the cluster substrate, the analytical models, and analysis.

These are the end-to-end checks that make the §5.2 validation trustworthy:
the discrete-event store, driven by generated workloads, must agree with the
closed-form and Monte Carlo predictions that consume the same latency model.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.analysis.staleness import (
    k_staleness_fraction,
    measured_t_visibility,
    observe_staleness,
)
from repro.analysis.validation import run_validation
from repro.cluster.client import ClientSession, WorkloadRunner
from repro.cluster.store import DynamoCluster
from repro.core.kstaleness import consistency_probability
from repro.core.quorum import ReplicaConfig
from repro.core.wars import WARSModel
from repro.latency.distributions import ConstantLatency, ExponentialLatency
from repro.latency.production import WARSDistributions, lnkd_ssd
from repro.workloads.keys import UniformKeys
from repro.workloads.operations import MixedWorkload, validation_workload
from repro.workloads.arrivals import PoissonArrivals


def exponential_wars(write_mean: float, other_mean: float) -> WARSDistributions:
    return WARSDistributions.write_specialised(
        write=ExponentialLatency.from_mean(write_mean),
        other=ExponentialLatency.from_mean(other_mean),
    )


class TestClusterAgreesWithWARS:
    def test_measured_staleness_tracks_prediction(self):
        """The §5.2 validation: measured and predicted consistency curves agree."""
        result = run_validation(
            distributions=exponential_wars(10.0, 2.0),
            config=ReplicaConfig(3, 1, 1),
            writes=400,
            write_interval_ms=150.0,
            read_offsets_ms=(1.0, 5.0, 10.0, 20.0, 40.0, 80.0),
            prediction_trials=60_000,
            rng=0,
        )
        assert result.observations > 1_000
        assert result.consistency_rmse < 0.06
        assert result.read_latency_nrmse < 0.10
        assert result.write_latency_nrmse < 0.12

    def test_strict_quorum_cluster_never_returns_stale_data(self):
        cluster = DynamoCluster(ReplicaConfig(3, 2, 2), exponential_wars(20.0, 1.0), rng=3)
        operations = validation_workload(
            key="k", writes=100, write_interval_ms=100.0, read_offsets_ms=(1.0, 10.0)
        )
        WorkloadRunner(cluster).run(operations)
        observations = observe_staleness(cluster.trace_log, key="k")
        assert observations
        assert observations.consistent.all()

    def test_partial_quorum_k_staleness_respects_closed_form_bound(self):
        """Measured k-staleness is at least the non-expanding closed-form bound.

        The closed form assumes no write propagation, so the real (expanding)
        cluster must do at least as well for every k.
        """
        config = ReplicaConfig(3, 1, 1)
        # Very slow writes and fast reads maximise observable staleness.
        distributions = WARSDistributions(
            w=ExponentialLatency.from_mean(200.0),
            a=ConstantLatency(0.1),
            r=ConstantLatency(0.1),
            s=ConstantLatency(0.1),
        )
        cluster = DynamoCluster(config, distributions, rng=11)
        operations = validation_workload(
            key="k", writes=300, write_interval_ms=20.0, read_offsets_ms=(1.0,)
        )
        WorkloadRunner(cluster).run(operations)
        observations = observe_staleness(cluster.trace_log, key="k")
        assert len(observations) > 200
        for k in (1, 2, 3, 5):
            assert k_staleness_fraction(observations, k) >= (
                consistency_probability(config, k) - 0.08
            )

    def test_measured_t_visibility_finite_for_partial_quorums(self):
        cluster = DynamoCluster(ReplicaConfig(3, 1, 1), exponential_wars(10.0, 1.0), rng=5)
        operations = validation_workload(
            key="k", writes=300, write_interval_ms=100.0, read_offsets_ms=(1.0, 5.0, 20.0, 60.0)
        )
        WorkloadRunner(cluster).run(operations)
        observations = observe_staleness(cluster.trace_log, key="k")
        t90 = measured_t_visibility(observations, 0.90)
        assert np.isfinite(t90)
        assert t90 < 200.0


class TestReadRepairAblation:
    def test_read_repair_reduces_staleness(self):
        """Enabling read repair (extra anti-entropy) can only help consistency."""
        config = ReplicaConfig(3, 1, 1)
        distributions = WARSDistributions(
            w=ExponentialLatency.from_mean(100.0),
            a=ConstantLatency(0.5),
            r=ConstantLatency(0.5),
            s=ConstantLatency(0.5),
        )
        operations = validation_workload(
            key="k", writes=250, write_interval_ms=50.0, read_offsets_ms=(1.0, 10.0, 25.0)
        )

        def staleness_rate(read_repair: bool) -> float:
            cluster = DynamoCluster(
                config, distributions, read_repair=read_repair, rng=21
            )
            WorkloadRunner(cluster).run(list(operations))
            observations = observe_staleness(cluster.trace_log, key="k")
            return 1.0 - float(np.mean(observations.consistent))

        without_repair = staleness_rate(False)
        with_repair = staleness_rate(True)
        assert without_repair > 0.0
        assert with_repair <= without_repair + 0.02


class TestMultiKeyWorkloads:
    def test_mixed_workload_across_many_keys(self):
        cluster = DynamoCluster(
            ReplicaConfig(3, 1, 1), lnkd_ssd(), node_count=5, coordinator_count=2, rng=2
        )
        workload = MixedWorkload(
            keys=UniformKeys(50),
            arrivals=PoissonArrivals(rate_per_ms=0.2),
            read_fraction=0.6,
        )
        operations = workload.generate(horizon_ms=5_000.0, rng=9)
        WorkloadRunner(cluster).run(operations)
        completed_reads = cluster.trace_log.completed_reads()
        committed_writes = cluster.trace_log.committed_writes()
        assert len(committed_writes) > 100
        assert len(completed_reads) > 100
        # Every committed write eventually reaches all of its replicas.
        cluster.run()
        sampled = committed_writes[:: max(1, len(committed_writes) // 20)]
        for write in sampled:
            replicas = cluster.replicas_for(write.key)
            newest = max(
                (w.version for w in committed_writes if w.key == write.key),
            )
            for node in replicas:
                assert node.version_of(write.key) is not None
                assert node.version_of(write.key) >= newest

    def test_client_sessions_see_better_guarantees_with_strict_quorums(self):
        distributions = exponential_wars(20.0, 1.0)
        partial_cluster = DynamoCluster(ReplicaConfig(3, 1, 1), distributions, rng=31)
        strict_cluster = DynamoCluster(ReplicaConfig(3, 2, 2), distributions, rng=31)
        partial_session = ClientSession(partial_cluster, "user")
        strict_session = ClientSession(strict_cluster, "user")
        for index in range(50):
            partial_session.write("k", index)
            partial_session.read("k")
            strict_session.write("k", index)
            strict_session.read("k")
        assert strict_session.stats.read_your_writes_violations == 0
        assert (
            partial_session.stats.read_your_writes_violations
            >= strict_session.stats.read_your_writes_violations
        )


#: sha256 of the rows of the fast 27-cell grid (60 writes per cell, seed 5,
#: 3,000 prediction trials), each cell one seed-spawned 60-write block.  Any
#: change to what the simulator records, how staleness and latency are
#: measured from it, or the prediction moves it.
BLOCKED_FAST_GRID_DIGEST = "98b1e3c4751bf8e0d2640ed5c26117aa3c4256157dd69122906dd1f6bf3c6d48"


def _rows_digest(rows) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestValidationGridMatchesPerCellRuns:
    def test_grid_rows_reproduce_independent_cell_runs(self):
        """``run_validation_grid`` is exactly the per-cell ``run_validation``
        loop: one shared generator, one root-entropy draw per cell, cells
        visited in configs × W × A=R=S order.  Replaying that protocol by
        hand must reproduce every row bit-for-bit."""
        from repro.experiments.validation import (
            VALIDATION_ARS_MEANS_MS,
            VALIDATION_CONFIGS,
            VALIDATION_W_MEANS_MS,
            run_validation_grid,
        )

        trials, prediction_trials, seed = 60, 3_000, 5
        grid = run_validation_grid(
            trials=trials, rng=seed, prediction_trials=prediction_trials
        )
        assert len(grid.rows) == (
            len(VALIDATION_CONFIGS)
            * len(VALIDATION_W_MEANS_MS)
            * len(VALIDATION_ARS_MEANS_MS)
        )

        generator = np.random.default_rng(seed)
        row_iter = iter(grid.rows)
        for config in VALIDATION_CONFIGS:
            for w_mean in VALIDATION_W_MEANS_MS:
                for ars_mean in VALIDATION_ARS_MEANS_MS:
                    cell = run_validation(
                        distributions=exponential_wars(w_mean, ars_mean),
                        config=config,
                        writes=trials,
                        write_interval_ms=max(10.0 * w_mean, 100.0),
                        read_offsets_ms=(1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0),
                        prediction_trials=prediction_trials,
                        rng=generator,
                    )
                    row = next(row_iter)
                    assert (row["n"], row["r"], row["w"]) == (config.n, config.r, config.w)
                    assert (row["w_mean_ms"], row["ars_mean_ms"]) == (w_mean, ars_mean)
                    assert row["observations"] == cell.observations
                    assert row["consistency_rmse_pct"] == cell.consistency_rmse * 100.0
                    assert row["read_latency_nrmse_pct"] == cell.read_latency_nrmse * 100.0
                    assert row["write_latency_nrmse_pct"] == cell.write_latency_nrmse * 100.0


    def test_blocked_fast_grid_rows_match_golden_digest(self):
        from repro.experiments.validation import run_validation_grid

        rows = run_validation_grid(trials=60, rng=5, prediction_trials=3_000).rows
        assert len(rows) == 27
        assert _rows_digest(rows) == BLOCKED_FAST_GRID_DIGEST

    @pytest.mark.slow
    def test_grid_matches_per_cell_runs_at_5k_writes(self):
        """The same grid-vs-cell replay at 5,000 writes per cell (sharded):
        the full §5.2 grid in one call equals 27 independent cell runs."""
        import os

        from repro.experiments.validation import (
            VALIDATION_ARS_MEANS_MS,
            VALIDATION_CONFIGS,
            VALIDATION_W_MEANS_MS,
            run_validation_grid,
        )

        trials, prediction_trials, seed = 5_000, 20_000, 0
        workers = min(4, os.cpu_count() or 1)
        grid = run_validation_grid(
            trials=trials,
            rng=seed,
            prediction_trials=prediction_trials,
            workers=workers,
        )
        generator = np.random.default_rng(seed)
        row_iter = iter(grid.rows)
        for config in VALIDATION_CONFIGS:
            for w_mean in VALIDATION_W_MEANS_MS:
                for ars_mean in VALIDATION_ARS_MEANS_MS:
                    cell = run_validation(
                        distributions=exponential_wars(w_mean, ars_mean),
                        config=config,
                        writes=trials,
                        write_interval_ms=max(10.0 * w_mean, 100.0),
                        read_offsets_ms=(1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0),
                        prediction_trials=prediction_trials,
                        rng=generator,
                        workers=workers,
                    )
                    row = next(row_iter)
                    assert row["observations"] == cell.observations
                    assert row["consistency_rmse_pct"] == cell.consistency_rmse * 100.0
                    # At 5k writes every cell should already be inside a few
                    # percent of the prediction.
                    assert row["consistency_rmse_pct"] < 4.0


class TestPredictorEndToEnd:
    def test_predictor_report_matches_direct_wars_run(self):
        # Passing generators in the same state selects the sweep engine's
        # sequential mode, which reproduces the kernel's trials exactly (an
        # integer seed would instead select the chunk-size-invariant seeded
        # mode, whose stream legitimately differs from the kernel's).
        config = ReplicaConfig(3, 2, 1)
        distributions = lnkd_ssd()
        from repro.core.predictor import PBSPredictor

        report = PBSPredictor(distributions, config).report(
            trials=30_000, rng=np.random.default_rng(7)
        )
        direct = WARSModel(distributions, config).sample(30_000, np.random.default_rng(7))
        assert report.consistency_at_commit == pytest.approx(
            direct.probability_never_stale(), abs=1e-12
        )
        assert report.t_visibility_999 == pytest.approx(direct.t_visibility(0.999), rel=0.02)
