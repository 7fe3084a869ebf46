"""Unit tests for :class:`repro.serving.PredictorService`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.quorum import ReplicaConfig
from repro.core.sla import SLAOptimizer, SLATarget
from repro.exceptions import ConfigurationError, PBSError
from repro.latency.distributions import ExponentialLatency
from repro.latency.production import WARSDistributions, production_fit
from repro.serving import PredictorService


@pytest.fixture
def service() -> PredictorService:
    svc = PredictorService()
    svc.register_tenant("acme", "LNKD-SSD")
    return svc


class TestTenantLifecycle:
    def test_register_by_fit_name_and_explicit_distributions(self):
        svc = PredictorService()
        by_name = svc.register_tenant("a", "LNKD-SSD")
        explicit = svc.register_tenant("b", production_fit("LNKD-SSD"))
        # Same parameters -> same fingerprint, regardless of construction.
        assert by_name == explicit
        assert svc.tenants() == ("a", "b")

    def test_wan_model_rejected(self):
        svc = PredictorService()
        with pytest.raises(ConfigurationError, match="i.i.d."):
            svc.register_tenant("wan", production_fit("WAN", replica_count=3))

    def test_unknown_tenant_raises_key_error(self, service):
        with pytest.raises(KeyError, match="ghost"):
            service.predict("ghost", ReplicaConfig(3, 1, 1))

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            PredictorService().register_tenant("", "LNKD-SSD")


class TestPredict:
    def test_matches_offline_analytic_predictor(self, service):
        from repro.analytic.predictor import AnalyticPredictor

        config = ReplicaConfig(3, 1, 2)
        served = service.predict("acme", config)
        offline = AnalyticPredictor(distributions=production_fit("LNKD-SSD")).result(
            config
        )
        assert served.consistency_at_commit == offline.probability_never_stale()
        assert served.t_visibility_ms[0.999] == offline.t_visibility(0.999)
        assert served.read_latency_ms[99.9] == offline.read_latency_percentile(99.9)

    def test_repeat_queries_hit_the_cache(self, service):
        config = ReplicaConfig(3, 1, 1)
        first = service.predict("acme", config)
        second = service.predict("acme", config)
        assert first == second
        stats = service.stats()
        assert stats.cache.hits == 1
        assert stats.predictions_served == 2

    def test_strict_quorum_is_immediately_consistent(self, service):
        served = service.predict("acme", ReplicaConfig(3, 2, 2))
        assert served.consistency_at_commit == 1.0
        assert served.t_visibility_ms[0.999] == 0.0

    def test_to_dict_is_json_ready(self, service):
        import json

        payload = service.predict("acme", ReplicaConfig(3, 1, 1)).to_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestRecommend:
    def test_byte_identical_to_offline_sla_optimizer(self, service):
        # The acceptance criterion: a served recommendation for a static
        # environment equals the offline analytic optimiser's, field for field.
        target = SLATarget(read_latency_ms=10.0, t_visibility_ms=20.0)
        served = service.recommend("acme", target)
        offline = SLAOptimizer(production_fit("LNKD-SSD"), mode="analytic")
        assert served.best == offline.best(target)
        assert list(served.evaluations) == offline.evaluate_all(target)

    def test_infeasible_target_yields_none(self, service):
        served = service.recommend(
            "acme", SLATarget(read_latency_ms=1e-6, t_visibility_ms=1e-6)
        )
        assert served.best is None
        assert all(not e.meets_target for e in served.evaluations)

    def test_recommendations_cached(self, service):
        target = SLATarget(t_visibility_ms=10.0)
        service.recommend("acme", target)
        service.recommend("acme", target)
        assert service.stats().cache.hits == 1


class TestRefit:
    def test_refit_changes_fingerprint_and_invalidates(self):
        svc = PredictorService()
        original = svc.register_tenant("t", "LNKD-SSD")
        config = ReplicaConfig(3, 1, 1)
        before = svc.predict("t", config)
        svc.ingest("t", "W", np.random.default_rng(0).exponential(5.0, size=1_000))
        refit = svc.refit("t")
        assert refit != original
        after = svc.predict("t", config)
        assert after.fingerprint == refit
        # The old entry was not served: both lookups were cache misses.
        assert svc.stats().cache.misses == 2
        assert before.fingerprint == original

    def test_refit_is_deterministic(self):
        def build() -> str:
            svc = PredictorService()
            svc.register_tenant("t", "LNKD-SSD")
            rng = np.random.default_rng(7)
            for leg in "WARS":
                svc.ingest("t", leg, rng.exponential(2.0, size=300))
            return svc.refit("t")

        assert build() == build()

    def test_refit_without_observations_keeps_distributions(self):
        svc = PredictorService()
        original = svc.register_tenant("t", "LNKD-SSD")
        assert svc.refit("t") == original

    def test_auto_refit_after_threshold(self):
        svc = PredictorService(refit_every=100)
        original = svc.register_tenant("t", "LNKD-SSD")
        svc.ingest("t", "W", np.random.default_rng(1).exponential(1.0, size=100))
        assert svc.fingerprint_of("t") != original

    def test_mixture_refit_uses_fit_pipeline(self):
        svc = PredictorService(refit_method="mixture")
        svc.register_tenant("t", "LNKD-SSD")
        svc.ingest("t", "W", np.random.default_rng(2).exponential(2.0, size=2_000))
        svc.refit("t")
        # Smooth parametric tail: the refit leg must support deep quantiles.
        served = svc.predict("t", ReplicaConfig(3, 1, 1))
        assert served.write_latency_ms[99.9] > served.write_latency_ms[50.0]

    def test_invalid_leg_rejected(self):
        svc = PredictorService()
        svc.register_tenant("t", "LNKD-SSD")
        with pytest.raises(ConfigurationError, match="leg"):
            svc.ingest("t", "X", [1.0])


class TestSpotChecks:
    def test_served_answers_are_audited_within_tolerance(self):
        svc = PredictorService(spot_check_trials=20_000)
        svc.register_tenant("t", "LNKD-SSD")
        svc.predict("t", ReplicaConfig(3, 1, 1))
        results = svc.run_pending_spot_checks()
        assert len(results) == 1
        assert results[0].passed
        assert results[0].max_absolute_error < 0.02
        stats = svc.stats()
        assert stats.spot_checks_run == 1 and stats.spot_checks_failed == 0

    def test_cache_hits_do_not_enqueue_audits(self):
        svc = PredictorService()
        svc.register_tenant("t", "LNKD-SSD")
        config = ReplicaConfig(3, 1, 1)
        svc.predict("t", config)
        svc.predict("t", config)
        assert svc.stats().spot_checks_pending == 1

    def test_recommendation_winner_is_audited(self):
        svc = PredictorService()
        svc.register_tenant("t", "LNKD-SSD")
        served = svc.recommend("t", SLATarget(t_visibility_ms=100.0))
        assert served.best is not None
        results = svc.run_pending_spot_checks()
        assert results[0].config == served.best.config

    def test_worker_thread_drains_queue(self):
        import time

        svc = PredictorService(spot_check_trials=1_000)
        svc.register_tenant("t", "LNKD-SSD")
        svc.predict("t", ReplicaConfig(3, 1, 1))
        svc.start_spot_check_worker(interval_seconds=0.01)
        try:
            deadline = time.monotonic() + 10.0
            while svc.stats().spot_checks_run == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            svc.stop_spot_check_worker()
        assert svc.stats().spot_checks_run == 1


class TestStats:
    def test_snapshot_shape(self, service):
        service.ingest("acme", "W", [1.0, 2.0])
        service.predict("acme", ReplicaConfig(3, 1, 1))
        stats = service.stats()
        assert stats.tenants[0].name == "acme"
        assert stats.tenants[0].observed == {"W": 2}
        assert stats.predictions_served == 1
        payload = stats.to_dict()
        import json

        assert json.loads(json.dumps(payload)) == payload


class TestConstructionValidation:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            PredictorService(replication_factors=())
        with pytest.raises(ConfigurationError):
            PredictorService(refit_method="magic")
        with pytest.raises(ConfigurationError):
            PredictorService(refit_every=0)
        with pytest.raises(ConfigurationError):
            PredictorService(spot_check_trials=10)
        with pytest.raises(ConfigurationError):
            PredictorService(spot_check_tolerance=0.0)
        with pytest.raises(ConfigurationError):
            PredictorService(spot_check_queue=0)


class TestSharedStaticPredictor:
    def test_sla_optimizer_shares_one_predictor_for_static_distributions(self):
        optimizer = SLAOptimizer(production_fit("LNKD-SSD"), mode="analytic")
        optimizer.evaluate_all(SLATarget(t_visibility_ms=10.0))
        # One environment for all five replication factors, not five.
        assert len(optimizer._analytic_cache) == 1

    def test_injected_predictor_is_used(self):
        from repro.analytic.predictor import AnalyticPredictor

        predictor = AnalyticPredictor(distributions=production_fit("LNKD-SSD"))
        optimizer = SLAOptimizer(
            production_fit("LNKD-SSD"), mode="analytic", analytic_predictor=predictor
        )
        assert optimizer._analytic_for(3) is predictor
        assert optimizer._analytic_for(5) is predictor

    def test_injected_predictor_rejected_with_callable_distributions(self):
        from repro.analytic.predictor import AnalyticPredictor

        wars = WARSDistributions.symmetric(ExponentialLatency(rate=1.0))
        with pytest.raises(ConfigurationError):
            SLAOptimizer(
                lambda n: wars,
                mode="analytic",
                analytic_predictor=AnalyticPredictor(distributions=wars),
            )

    def test_rebind_preserves_tuning(self):
        from repro.analytic.predictor import AnalyticPredictor

        first = AnalyticPredictor(
            distributions=production_fit("LNKD-SSD"), grid_points=512
        )
        rebound = first.rebind(production_fit("LNKD-DISK"))
        assert rebound.grid_points == 512
        assert rebound.distributions.name == "LNKD-DISK"
        # Same object -> same predictor (warm tables preserved).
        assert first.rebind(first.distributions) is first


class _FailingRebind:
    """Predictor stand-in whose ``rebind`` always raises.

    Wraps the tenant's real predictor so serving keeps working (all other
    attribute access delegates) while every refit attempt blows up — the
    shape of a wedged fit pipeline, not a dead tenant.
    """

    def __init__(self, inner) -> None:
        self._inner = inner

    def rebind(self, distributions):
        raise RuntimeError("fit pipeline wedged")

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _wedge(svc: PredictorService, tenant: str) -> None:
    state = svc._tenants[tenant]
    state.predictor = _FailingRebind(state.predictor)


def _heal(svc: PredictorService, tenant: str) -> None:
    state = svc._tenants[tenant]
    state.predictor = state.predictor._inner


class TestGracefulDegradation:
    def _observations(self, n: int = 8):
        return np.random.default_rng(0).exponential(2.0, size=n)

    def test_failed_auto_refit_keeps_serving_degraded(self):
        svc = PredictorService(refit_every=8, refit_retries=0)
        svc.register_tenant("t", "LNKD-SSD")
        config = ReplicaConfig(3, 1, 1)
        healthy = svc.predict("t", config)
        assert not healthy.degraded

        _wedge(svc, "t")
        svc.ingest("t", "W", self._observations())  # trips auto-refit -> fails
        served = svc.predict("t", config)
        assert served.degraded
        # Stale-while-revalidate: same last-good environment as before.
        assert served.fingerprint == healthy.fingerprint
        assert served.consistency_at_commit == healthy.consistency_at_commit

        tenant = svc.stats().tenants[0]
        assert tenant.degraded
        assert tenant.refit_failures == 1
        assert tenant.consecutive_refit_failures == 1
        assert "wedged" in tenant.last_refit_error

    def test_cache_hits_carry_the_current_degraded_flag(self):
        svc = PredictorService(refit_every=8, refit_retries=0)
        svc.register_tenant("t", "LNKD-SSD")
        config = ReplicaConfig(3, 1, 1)
        assert not svc.predict("t", config).degraded  # miss, cached healthy

        _wedge(svc, "t")
        svc.ingest("t", "W", self._observations())
        flagged = svc.predict("t", config)  # cache hit, flag must flip
        assert flagged.degraded
        assert svc.stats().cache.hits == 1

    def test_retries_consume_attempts_before_degrading(self):
        svc = PredictorService(refit_retries=2)
        svc.register_tenant("t", "LNKD-SSD")
        svc.ingest("t", "W", self._observations())
        _wedge(svc, "t")
        with pytest.raises(PBSError):
            svc.refit("t")
        # One failed *round* regardless of the internal attempt count.
        assert svc.stats().tenants[0].refit_failures == 1

    def test_backoff_doubles_auto_refit_threshold(self):
        svc = PredictorService(refit_every=8, refit_retries=0)
        svc.register_tenant("t", "LNKD-SSD")
        _wedge(svc, "t")
        svc.ingest("t", "W", self._observations())  # failure #1 at 8 obs
        assert svc.stats().tenants[0].refit_failures == 1
        svc.ingest("t", "W", self._observations(4))  # 12 since refit: below 16
        assert svc.stats().tenants[0].refit_failures == 1
        svc.ingest("t", "W", self._observations(4))  # 16 since refit -> retry
        assert svc.stats().tenants[0].refit_failures == 2

    def test_circuit_opens_after_threshold_and_manual_probe_closes_it(self):
        svc = PredictorService(
            refit_every=4, refit_retries=0, refit_failure_threshold=2
        )
        svc.register_tenant("t", "LNKD-SSD")
        config = ReplicaConfig(3, 1, 1)
        _wedge(svc, "t")
        for _ in range(3):  # 4, 8 (backoff x2) -> two failures, circuit opens
            svc.ingest("t", "W", self._observations(4))
        assert svc.stats().tenants[0].consecutive_refit_failures == 2

        # Open circuit: further ingests never attempt a refit.
        for _ in range(10):
            svc.ingest("t", "W", self._observations(4))
        assert svc.stats().tenants[0].refit_failures == 2

        # Manual probe against the still-broken pipeline: raises, keeps serving.
        with pytest.raises(PBSError):
            svc.refit("t")
        assert svc.predict("t", config).degraded

        # Repair the pipeline; the next manual refit closes the circuit.
        _heal(svc, "t")
        svc.refit("t")
        tenant = svc.stats().tenants[0]
        assert not tenant.degraded
        assert tenant.consecutive_refit_failures == 0
        assert tenant.last_refit_error is None
        assert not svc.predict("t", config).degraded

    def test_service_level_counters_and_json_shape(self):
        svc = PredictorService(refit_every=8, refit_retries=0)
        svc.register_tenant("t", "LNKD-SSD")
        _wedge(svc, "t")
        svc.ingest("t", "W", self._observations())
        stats = svc.stats()
        assert stats.refit_failures == 1
        assert stats.degraded_tenants == 1
        payload = stats.to_dict()
        assert payload["refit_failures"] == 1
        assert payload["degraded_tenants"] == 1
        assert payload["tenants"][0]["degraded"] is True
        assert payload["spot_checks"]["worker_errors"] == 0
        assert payload["spot_checks"]["worker_backoff_seconds"] == 0.0

    def test_consistency_probabilities_curve(self):
        svc = PredictorService()
        svc.register_tenant("t", "LNKD-SSD")
        curve = svc.consistency_probabilities(
            "t", ReplicaConfig(3, 1, 1), (1.0, 10.0, 100.0)
        )
        assert len(curve) == 3
        assert all(0.0 <= p <= 1.0 for p in curve)
        assert curve == tuple(sorted(curve))  # monotone in t


class TestWorkerResilience:
    def test_worker_survives_exceptions_with_bounded_backoff(self, monkeypatch):
        import time

        svc = PredictorService(spot_check_worker_backoff_max_seconds=0.08)
        svc.register_tenant("t", "LNKD-SSD")

        def boom(max_checks=None):
            raise RuntimeError("audit crashed")

        monkeypatch.setattr(svc, "run_pending_spot_checks", boom)
        svc.start_spot_check_worker(interval_seconds=0.01)
        try:
            deadline = time.monotonic() + 10.0
            while svc.stats().spot_check_worker_errors < 3 and time.monotonic() < deadline:
                time.sleep(0.02)
            stats = svc.stats()
            assert stats.spot_check_worker_errors >= 3
            assert 0.0 < stats.spot_check_worker_backoff_seconds <= 0.08
            assert svc._worker.is_alive()
        finally:
            svc.stop_spot_check_worker()

    def test_backoff_resets_after_clean_drain(self, monkeypatch):
        import time

        svc = PredictorService(spot_check_worker_backoff_max_seconds=0.08)
        svc.register_tenant("t", "LNKD-SSD")
        failures = {"left": 2}
        real = svc.run_pending_spot_checks

        def flaky(max_checks=None):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("transient")
            return real(max_checks)

        monkeypatch.setattr(svc, "run_pending_spot_checks", flaky)
        svc.start_spot_check_worker(interval_seconds=0.01)
        try:
            deadline = time.monotonic() + 10.0
            while failures["left"] > 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            time.sleep(0.1)  # let one clean drain land
            stats = svc.stats()
            assert stats.spot_check_worker_errors == 2
            assert stats.spot_check_worker_backoff_seconds == pytest.approx(0.01)
        finally:
            svc.stop_spot_check_worker()


class TestBatchedAudits:
    """Queued answers of one (tenant, fingerprint) share one audit sweep."""

    #: Eight distinct configurations, N = 3 and N = 5.
    CONFIGS = (
        ReplicaConfig(3, 1, 1),
        ReplicaConfig(3, 1, 2),
        ReplicaConfig(3, 2, 1),
        ReplicaConfig(3, 2, 2),
        ReplicaConfig(3, 3, 1),
        ReplicaConfig(3, 1, 3),
        ReplicaConfig(5, 1, 1),
        ReplicaConfig(5, 2, 2),
    )

    @pytest.fixture
    def sweeps(self, monkeypatch) -> list:
        """The ``(distributions, configs)`` of every audit sweep, in order."""
        from repro.montecarlo.engine import SweepEngine

        recorded = []
        real_run = SweepEngine.run

        def counting_run(engine, *args, **kwargs):
            recorded.append((engine._distributions, engine.configs))
            return real_run(engine, *args, **kwargs)

        monkeypatch.setattr(SweepEngine, "run", counting_run)
        return recorded

    def test_one_sweep_audits_every_answer_of_an_environment(self, sweeps):
        svc = PredictorService(spot_check_trials=20_000)
        fingerprint = svc.register_tenant("t", "LNKD-SSD")
        for config in self.CONFIGS:
            svc.predict("t", config)
        results = svc.run_pending_spot_checks()
        assert len(sweeps) == 1
        assert sweeps[0][1] == self.CONFIGS
        assert [result.config for result in results] == list(self.CONFIGS)
        assert all(result.passed and result.trials == 20_000 for result in results)
        assert {result.fingerprint for result in results} == {fingerprint}
        stats = svc.stats()
        assert stats.spot_checks_run == 8 and stats.spot_checks_pending == 0
        assert svc.spot_check_results() == tuple(results)

    def test_repeated_configuration_is_swept_once_and_judged_twice(self, sweeps):
        svc = PredictorService()
        svc.register_tenant("t", "LNKD-SSD")
        config = ReplicaConfig(3, 1, 1)
        svc.predict("t", config)
        svc.predict("t", config, target_probabilities=(0.9,))
        svc.recommend("t", SLATarget(t_visibility_ms=100.0))
        results = svc.run_pending_spot_checks()
        assert len(sweeps) == 1 and len(results) == 3
        assert sweeps[0][1].count(config) == 1
        assert all(result.passed for result in results)

    def test_environments_are_never_mixed_and_keep_queue_order(self, sweeps):
        svc = PredictorService()
        first = svc.register_tenant("a", "LNKD-SSD")
        other_tenant = svc.register_tenant("b", "YMMR")
        svc.ingest("a", "W", np.random.default_rng(3).exponential(5.0, 200))
        queued = [("a", first, self.CONFIGS[0]), ("b", other_tenant, self.CONFIGS[1])]
        for tenant, _, config in queued:
            svc.predict(tenant, config)
        refitted = svc.refit("a")
        assert refitted != first
        queued += [("a", refitted, self.CONFIGS[2]), ("b", other_tenant, self.CONFIGS[3])]
        for tenant, _, config in queued[2:]:
            svc.predict(tenant, config)
        svc.predict("a", self.CONFIGS[4])
        queued.append(("a", refitted, self.CONFIGS[4]))

        results = svc.run_pending_spot_checks()
        # Head first: a's old fingerprint alone, then b's two answers, then
        # a's two answers under the refitted fingerprint.
        order = [0, 1, 3, 2, 4]
        assert [(r.tenant, r.fingerprint, r.config) for r in results] == [
            queued[index] for index in order
        ]
        assert [configs for _, configs in sweeps] == [
            (self.CONFIGS[0],),
            (self.CONFIGS[1], self.CONFIGS[3]),
            (self.CONFIGS[2], self.CONFIGS[4]),
        ]
        assert sweeps[0][0] != sweeps[2][0]
        assert all(result.passed for result in results)

    def test_max_checks_bounds_each_call(self, sweeps):
        svc = PredictorService()
        svc.register_tenant("t", "LNKD-SSD")
        for config in self.CONFIGS:
            svc.predict("t", config)
        first = svc.run_pending_spot_checks(max_checks=3)
        assert [result.config for result in first] == list(self.CONFIGS[:3])
        assert svc.stats().spot_checks_pending == 5
        rest = svc.run_pending_spot_checks()
        assert [result.config for result in rest] == list(self.CONFIGS[3:])
        assert [configs for _, configs in sweeps] == [self.CONFIGS[:3], self.CONFIGS[3:]]
        assert svc.run_pending_spot_checks(max_checks=0) == []

    def test_a_wrong_answer_fails_only_itself(self, sweeps):
        svc = PredictorService()
        svc.register_tenant("t", "LNKD-SSD")
        for config in self.CONFIGS:
            svc.predict("t", config)
        wrong = svc._spot_queue[3]
        wrong.probes = tuple((t, p - 0.5) for t, p in wrong.probes)
        results = svc.run_pending_spot_checks()
        assert len(sweeps) == 1
        assert [result.passed for result in results] == [True] * 3 + [False] + [True] * 4
        assert results[3].max_absolute_error > 0.45
        stats = svc.stats()
        assert stats.spot_checks_failed == 1
        assert stats.max_spot_check_error == results[3].max_absolute_error
