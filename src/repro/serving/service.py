"""Online PBS prediction service (paper §6 operated as a control loop).

The paper frames PBS as something an operator *runs*, not a one-off analysis:
measure latencies in production, refit the WARS model, and re-answer "how
eventual? how consistent? which (N, R, W)?" as the environment drifts.
:class:`PredictorService` packages that loop for many tenants at once:

* **Ingest** — per-tenant, per-leg latency observations stream into bounded
  :class:`~repro.serving.reservoir.StreamingReservoir` samples, so memory is
  fixed no matter how long the service runs.
* **Refit** — on demand (or every ``refit_every`` observations) the reservoirs
  are turned back into latency distributions, either directly
  (:class:`~repro.latency.empirical.EmpiricalDistribution`) or through the
  paper's §5.5 mixture fit (:func:`~repro.latency.fitting.fit_from_observations`).
* **Serve** — predictions and SLA recommendations are answered analytically
  (PR 6's :class:`~repro.analytic.AnalyticPredictor`, microseconds when warm)
  and memoised in an LRU cache keyed by an *environment fingerprint*: a hash
  of the distribution parameters, so a refit implicitly invalidates every
  stale answer without an invalidation pass.
* **Spot-check** — the Monte Carlo engine is demoted to an asynchronous
  auditor: served answers enqueue a sampling cross-check which a background
  worker (or an explicit :meth:`run_pending_spot_checks` call) drains off the
  request path, mirroring the hybrid-mode contract of
  :meth:`repro.core.predictor.PBSPredictor.report`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.analytic.predictor import AnalyticPredictor
from repro.core.quorum import ReplicaConfig
from repro.core.sla import ConfigurationEvaluation, SLAOptimizer, SLATarget
from repro.exceptions import ConfigurationError, PBSError
from repro.latency.composite import PerReplicaLatency
from repro.latency.empirical import EmpiricalDistribution
from repro.latency.fitting import DEFAULT_FIT_PERCENTILES, fit_from_observations
from repro.latency.production import WARSDistributions, production_fit
from repro.serving.cache import CacheStats, LRUCache
from repro.serving.fingerprint import environment_fingerprint, request_key
from repro.serving.reservoir import StreamingReservoir

__all__ = [
    "PredictorService",
    "ServedPrediction",
    "ServedRecommendation",
    "SpotCheckResult",
    "TenantStats",
    "ServiceStats",
    "DEFAULT_TARGETS",
    "DEFAULT_PERCENTILES",
]

#: Consistency targets answered by :meth:`PredictorService.predict` by default.
DEFAULT_TARGETS: tuple[float, ...] = (0.99, 0.999)

#: Latency percentiles answered by :meth:`PredictorService.predict` by default.
DEFAULT_PERCENTILES: tuple[float, ...] = (50.0, 95.0, 99.0, 99.9)

_WARS_LETTERS = ("W", "A", "R", "S")


def _reject_per_replica(distributions: WARSDistributions) -> None:
    for letter, leg in distributions.components().items():
        if isinstance(leg, PerReplicaLatency):
            raise ConfigurationError(
                f"the serving layer answers analytically and requires i.i.d. "
                f"replicas, but the {letter} leg of "
                f"{distributions.name!r} is per-replica (the WAN scenario); "
                f"use the offline Monte Carlo tooling for per-replica models"
            )


@dataclass(frozen=True)
class ServedPrediction:
    """One served staleness/latency answer for a (tenant, configuration) pair."""

    tenant: str
    config: ReplicaConfig
    #: Environment fingerprint the answer was computed under.
    fingerprint: str
    #: ``P(consistent read immediately after commit)``.
    consistency_at_commit: float
    #: Target probability -> t-visibility (ms).
    t_visibility_ms: Mapping[float, float]
    #: Percentile -> read latency (ms).
    read_latency_ms: Mapping[float, float]
    #: Percentile -> write latency (ms).
    write_latency_ms: Mapping[float, float]
    #: ``True`` when the tenant's most recent refit failed and the answer is
    #: served stale-while-revalidate from the last-good environment.
    degraded: bool = False

    def to_dict(self) -> dict:
        """JSON-ready representation (string keys, plain floats)."""
        return {
            "tenant": self.tenant,
            "config": {"n": self.config.n, "r": self.config.r, "w": self.config.w},
            "fingerprint": self.fingerprint,
            "consistency_at_commit": self.consistency_at_commit,
            "t_visibility_ms": {str(k): v for k, v in self.t_visibility_ms.items()},
            "read_latency_ms": {str(k): v for k, v in self.read_latency_ms.items()},
            "write_latency_ms": {str(k): v for k, v in self.write_latency_ms.items()},
            "degraded": self.degraded,
        }

    @functools.cached_property
    def json_body(self) -> bytes:
        """:meth:`to_dict` as JSON bytes, encoded once per object."""
        return json.dumps(self.to_dict()).encode()


@dataclass(frozen=True)
class ServedRecommendation:
    """One served SLA optimisation: the winner plus the full ranking."""

    tenant: str
    fingerprint: str
    target: SLATarget
    #: The winning evaluation, or ``None`` when no configuration meets the SLA.
    best: ConfigurationEvaluation | None
    #: Every candidate evaluation, sorted by combined tail latency.
    evaluations: tuple[ConfigurationEvaluation, ...]

    def to_dict(self) -> dict:
        """JSON-ready representation."""

        def evaluation_dict(evaluation: ConfigurationEvaluation) -> dict:
            return {
                "config": evaluation.config.label(),
                "read_latency_ms": evaluation.read_latency_ms,
                "write_latency_ms": evaluation.write_latency_ms,
                "t_visibility_ms": evaluation.t_visibility_ms,
                "consistency_at_commit": evaluation.consistency_at_commit,
                "meets_target": evaluation.meets_target,
                "violations": list(evaluation.violations),
            }

        return {
            "tenant": self.tenant,
            "fingerprint": self.fingerprint,
            "best": evaluation_dict(self.best) if self.best is not None else None,
            "evaluations": [evaluation_dict(e) for e in self.evaluations],
        }

    @functools.cached_property
    def json_body(self) -> bytes:
        """:meth:`to_dict` as JSON bytes, encoded once per object."""
        return json.dumps(self.to_dict()).encode()


@dataclass(frozen=True)
class SpotCheckResult:
    """Outcome of one asynchronous Monte Carlo audit of a served answer."""

    tenant: str
    config: ReplicaConfig
    fingerprint: str
    trials: int
    #: Largest |analytic − sampled| consistency disagreement over the probes.
    max_absolute_error: float
    #: Whether the disagreement stayed within the service tolerance.
    passed: bool


@dataclass(frozen=True)
class TenantStats:
    """Ingest/refit counters for one tenant."""

    name: str
    fingerprint: str
    refits: int
    #: WARS letter -> observations ever ingested for that leg.
    observed: Mapping[str, int]
    #: WARS letter -> observations currently retained in the reservoir.
    retained: Mapping[str, int]
    #: Serving stale-while-revalidate from the last-good environment.
    degraded: bool = False
    #: Refit rounds that failed (the tenant kept its last-good model).
    refit_failures: int = 0
    #: Consecutive failures; at the service's threshold the circuit opens
    #: and auto-refits are suspended until a manual refit succeeds.
    consecutive_refit_failures: int = 0
    #: Message of the most recent refit failure (``None`` when healthy).
    last_refit_error: str | None = None


@dataclass(frozen=True)
class ServiceStats:
    """A point-in-time snapshot of service health."""

    tenants: tuple[TenantStats, ...]
    cache: CacheStats
    predictions_served: int
    recommendations_served: int
    spot_checks_pending: int
    spot_checks_run: int
    spot_checks_failed: int
    #: Largest disagreement seen across all completed spot-checks.
    max_spot_check_error: float
    #: Failed refit rounds across all tenants (each left last-good serving).
    refit_failures: int = 0
    #: Tenants currently serving degraded (stale-while-revalidate) answers.
    degraded_tenants: int = 0
    #: Exceptions survived by the spot-check worker thread.
    spot_check_worker_errors: int = 0
    #: The worker's current restart backoff (seconds); its poll interval
    #: when healthy, doubled per consecutive error up to the service bound.
    spot_check_worker_backoff_seconds: float = 0.0

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "tenants": [
                {
                    "name": t.name,
                    "fingerprint": t.fingerprint,
                    "refits": t.refits,
                    "observed": dict(t.observed),
                    "retained": dict(t.retained),
                    "degraded": t.degraded,
                    "refit_failures": t.refit_failures,
                    "consecutive_refit_failures": t.consecutive_refit_failures,
                    "last_refit_error": t.last_refit_error,
                }
                for t in self.tenants
            ],
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "size": self.cache.size,
                "capacity": self.cache.capacity,
                "hit_rate": self.cache.hit_rate,
            },
            "predictions_served": self.predictions_served,
            "recommendations_served": self.recommendations_served,
            "refit_failures": self.refit_failures,
            "degraded_tenants": self.degraded_tenants,
            "spot_checks": {
                "pending": self.spot_checks_pending,
                "run": self.spot_checks_run,
                "failed": self.spot_checks_failed,
                "max_absolute_error": self.max_spot_check_error,
                "worker_errors": self.spot_check_worker_errors,
                "worker_backoff_seconds": self.spot_check_worker_backoff_seconds,
            },
        }


@dataclass
class _SpotCheckItem:
    """A queued audit: re-derive the analytic probabilities by sampling."""

    tenant: str
    config: ReplicaConfig
    fingerprint: str
    distributions: WARSDistributions
    #: ``(t_ms, analytic P(consistent at t))`` pairs to cross-check.
    probes: tuple[tuple[float, float], ...]


class _TenantState:
    """Mutable per-tenant state (guarded by the service lock)."""

    __slots__ = (
        "name",
        "distributions",
        "predictor",
        "fingerprint",
        "reservoirs",
        "refits",
        "ingested_since_refit",
        "seed",
        "refit_failures",
        "consecutive_refit_failures",
        "last_refit_error",
        "degraded",
    )

    def __init__(
        self,
        name: str,
        distributions: WARSDistributions,
        predictor: AnalyticPredictor,
        fingerprint: str,
        seed: int,
    ) -> None:
        self.name = name
        self.distributions = distributions
        self.predictor = predictor
        self.fingerprint = fingerprint
        self.reservoirs: dict[str, StreamingReservoir] = {}
        self.refits = 0
        self.ingested_since_refit = 0
        self.seed = seed
        self.refit_failures = 0
        self.consecutive_refit_failures = 0
        self.last_refit_error: str | None = None
        self.degraded = False


class PredictorService:
    """Multi-tenant online PBS predictor (analytic-first, sampling-audited).

    Parameters
    ----------
    replication_factors:
        Candidate N values for SLA recommendations (and part of every
        tenant's environment fingerprint).
    cache_capacity:
        Entries in the shared LRU result cache.
    reservoir_capacity:
        Per-leg reservoir size for each tenant's observation stream.
    refit_every:
        Automatically refit a tenant after this many ingested observations
        (``None`` disables auto-refit; :meth:`refit` always works).
    refit_method:
        ``"empirical"`` turns each reservoir directly into an
        :class:`EmpiricalDistribution`; ``"mixture"`` runs the paper's §5.5
        Pareto+exponential fit over the reservoir (slower, smooth tails).
    refit_retries:
        Extra immediate attempts when a refit throws before the round is
        recorded as a failure (bounded retry; refits are deterministic, so
        this mostly covers transient resource errors).
    refit_failure_threshold:
        Consecutive failed refit rounds after which the circuit opens:
        auto-refits are suspended and the tenant keeps serving from its
        last-good environment (answers flagged ``degraded``) until a manual
        :meth:`refit` — the half-open probe — succeeds.
    spot_check_trials:
        Monte Carlo trials per asynchronous audit.
    spot_check_tolerance:
        Largest |analytic − sampled| consistency disagreement an audit may
        report and still pass.
    spot_check_queue:
        Bound on queued audits; the oldest pending audit is dropped first
        (the request path never blocks on the auditor).
    spot_check_worker_backoff_max_seconds:
        Upper bound on the spot-check worker's restart backoff: the worker
        survives exceptions in :meth:`run_pending_spot_checks`, doubling its
        poll interval per consecutive error up to this bound.
    seed:
        Base seed for reservoirs and spot-check sampling.
    """

    def __init__(
        self,
        replication_factors: Sequence[int] = (1, 2, 3, 4, 5),
        cache_capacity: int = 1024,
        reservoir_capacity: int = 4096,
        refit_every: int | None = None,
        refit_method: str = "empirical",
        refit_percentiles: Sequence[float] = DEFAULT_FIT_PERCENTILES,
        refit_retries: int = 1,
        refit_failure_threshold: int = 3,
        spot_check_trials: int = 20_000,
        spot_check_tolerance: float = 0.02,
        spot_check_queue: int = 256,
        spot_check_worker_backoff_max_seconds: float = 5.0,
        seed: int = 0,
    ) -> None:
        if not replication_factors:
            raise ConfigurationError("at least one replication factor is required")
        if refit_method not in ("empirical", "mixture"):
            raise ConfigurationError(
                f"refit method must be 'empirical' or 'mixture', got {refit_method!r}"
            )
        if refit_every is not None and refit_every < 1:
            raise ConfigurationError(
                f"refit_every must be >= 1 observations, got {refit_every}"
            )
        if spot_check_trials < 100:
            raise ConfigurationError(
                f"spot checks need at least 100 trials, got {spot_check_trials}"
            )
        if not 0.0 < spot_check_tolerance <= 1.0:
            raise ConfigurationError(
                f"spot-check tolerance must be in (0, 1], got {spot_check_tolerance}"
            )
        if spot_check_queue < 1:
            raise ConfigurationError(
                f"spot-check queue bound must be >= 1, got {spot_check_queue}"
            )
        if refit_retries < 0:
            raise ConfigurationError(
                f"refit_retries must be >= 0, got {refit_retries}"
            )
        if refit_failure_threshold < 1:
            raise ConfigurationError(
                f"refit_failure_threshold must be >= 1, got {refit_failure_threshold}"
            )
        if spot_check_worker_backoff_max_seconds <= 0.0:
            raise ConfigurationError(
                "spot_check_worker_backoff_max_seconds must be positive, got "
                f"{spot_check_worker_backoff_max_seconds}"
            )
        self._replication_factors = tuple(sorted(set(int(n) for n in replication_factors)))
        self._reservoir_capacity = int(reservoir_capacity)
        self._refit_every = refit_every
        self._refit_method = refit_method
        self._refit_percentiles = tuple(refit_percentiles)
        self._refit_retries = int(refit_retries)
        self._refit_failure_threshold = int(refit_failure_threshold)
        self._spot_check_trials = int(spot_check_trials)
        self._spot_check_tolerance = float(spot_check_tolerance)
        self._seed = int(seed)
        self._lock = threading.RLock()
        self._tenants: dict[str, _TenantState] = {}
        self._cache: LRUCache[object] = LRUCache(cache_capacity)
        self._spot_queue: deque[_SpotCheckItem] = deque(maxlen=int(spot_check_queue))
        self._spot_results: deque[SpotCheckResult] = deque(maxlen=int(spot_check_queue))
        self._spot_rng = np.random.default_rng(self._seed)
        self._spot_runs = 0
        self._spot_failures = 0
        self._max_spot_error = 0.0
        self._predictions_served = 0
        self._recommendations_served = 0
        self._refit_failures = 0
        self._worker: threading.Thread | None = None
        self._worker_stop = threading.Event()
        self._worker_errors = 0
        self._worker_backoff_seconds = 0.0
        self._worker_backoff_max = float(spot_check_worker_backoff_max_seconds)

    # ------------------------------------------------------------------
    # Tenant lifecycle.
    # ------------------------------------------------------------------
    def register_tenant(
        self, name: str, distributions: WARSDistributions | str
    ) -> str:
        """Register (or replace) a tenant and return its environment fingerprint.

        ``distributions`` is either explicit :class:`WARSDistributions` or a
        production-fit name (``"LNKD-SSD"``, ``"LNKD-DISK"``, ``"YMMR"``).
        Per-replica (WAN) models are rejected: the serving layer answers
        analytically, which requires i.i.d. replicas.
        """
        if not name:
            raise ConfigurationError("tenant name must be non-empty")
        if isinstance(distributions, str):
            distributions = production_fit(distributions)
        _reject_per_replica(distributions)
        predictor = AnalyticPredictor(distributions=distributions)
        fingerprint = self._fingerprint(distributions, predictor)
        with self._lock:
            self._tenants[name] = _TenantState(
                name=name,
                distributions=distributions,
                predictor=predictor,
                fingerprint=fingerprint,
                seed=self._seed + len(self._tenants),
            )
        return fingerprint

    def tenants(self) -> tuple[str, ...]:
        """Registered tenant names, sorted."""
        with self._lock:
            return tuple(sorted(self._tenants))

    def fingerprint_of(self, tenant: str) -> str:
        """The tenant's current environment fingerprint."""
        return self._tenant(tenant).fingerprint

    def _tenant(self, name: str) -> _TenantState:
        with self._lock:
            try:
                return self._tenants[name]
            except KeyError:
                raise KeyError(f"unknown tenant {name!r}") from None

    def _fingerprint(
        self, distributions: WARSDistributions, predictor: AnalyticPredictor
    ) -> str:
        return environment_fingerprint(
            distributions,
            self._replication_factors,
            extra=(
                predictor.grid_points,
                predictor.tail_mass,
                predictor.request_cells,
                predictor.quad_cells,
            ),
        )

    # ------------------------------------------------------------------
    # Ingest + refit.
    # ------------------------------------------------------------------
    def ingest(
        self, tenant: str, leg: str, observations: Iterable[float] | np.ndarray
    ) -> int:
        """Ingest latency observations (ms) for one WARS leg of a tenant.

        Returns the number of observations ingested.  When ``refit_every`` is
        configured and the tenant has accumulated that many observations
        since its last refit, a refit runs synchronously before returning.
        An auto-refit that throws is absorbed (bounded retries, then the
        failure is recorded and the tenant keeps serving from its last-good
        environment); subsequent auto-refits back off exponentially in
        observation count and stop entirely once the circuit opens.
        """
        letter = leg.upper()
        if letter not in _WARS_LETTERS:
            raise ConfigurationError(
                f"leg must be one of {', '.join(_WARS_LETTERS)}, got {leg!r}"
            )
        state = self._tenant(tenant)
        with self._lock:
            reservoir = state.reservoirs.get(letter)
            if reservoir is None:
                reservoir = StreamingReservoir(
                    capacity=self._reservoir_capacity,
                    seed=state.seed + _WARS_LETTERS.index(letter),
                )
                state.reservoirs[letter] = reservoir
            count = reservoir.extend(observations)
            state.ingested_since_refit += count
            if (
                self._refit_every is not None
                and state.consecutive_refit_failures < self._refit_failure_threshold
                and state.ingested_since_refit >= self._auto_refit_due(state)
            ):
                self._attempt_refit_locked(state)
        return count

    def _auto_refit_due(self, state: _TenantState) -> int:
        """Observations required before the next auto-refit attempt.

        Healthy tenants refit every ``refit_every`` observations; after a
        failed round the requirement doubles per consecutive failure
        (bounded backoff in observation count — the service has no wall
        clock of its own), so a persistently failing fit is not retried on
        every ingest batch.
        """
        assert self._refit_every is not None
        backoff = 2 ** min(state.consecutive_refit_failures, 6)
        return self._refit_every * backoff

    def refit(self, tenant: str) -> str:
        """Refit the tenant's distributions from its reservoirs.

        Legs with at least one retained observation are replaced by a
        distribution rebuilt from the reservoir (per ``refit_method``); legs
        without observations keep their current model.  Returns the new
        environment fingerprint.  Refitting is deterministic: the same
        reservoir contents always produce the same fingerprint.

        A failing refit raises (:class:`~repro.exceptions.PBSError` at the
        API boundary) but never corrupts the tenant: the last-good
        distributions, predictor, and fingerprint keep serving, flagged
        ``degraded``.  A successful manual refit is the circuit breaker's
        half-open probe — it closes the circuit and re-enables auto-refits.
        """
        state = self._tenant(tenant)
        with self._lock:
            try:
                self._refit_locked(state)
            except Exception as error:
                self._note_refit_failure(state, error)
                if isinstance(error, PBSError):
                    raise
                raise PBSError(
                    f"refit failed for tenant {state.name!r}: {error}"
                ) from error
            return state.fingerprint

    def _attempt_refit_locked(self, state: _TenantState) -> bool:
        """Auto-refit with bounded retries; absorbs failures, returns success."""
        attempts = 1 + self._refit_retries
        error: Exception | None = None
        for _ in range(attempts):
            try:
                self._refit_locked(state)
                return True
            except Exception as exc:  # keep serving last-good on any failure
                error = exc
        assert error is not None
        self._note_refit_failure(state, error)
        return False

    def _note_refit_failure(self, state: _TenantState, error: Exception) -> None:
        state.refit_failures += 1
        state.consecutive_refit_failures += 1
        state.last_refit_error = str(error)
        state.degraded = True
        self._refit_failures += 1

    def _refit_locked(self, state: _TenantState) -> None:
        replacements: dict[str, object] = {}
        for letter, reservoir in state.reservoirs.items():
            if len(reservoir) == 0:
                continue
            values = reservoir.values()
            if self._refit_method == "empirical":
                replacements[letter.lower()] = EmpiricalDistribution.from_samples(values)
            else:
                replacements[letter.lower()] = fit_from_observations(
                    values, percentiles=self._refit_percentiles
                ).distribution
        if replacements:
            # Build everything before touching the tenant: a throw from the
            # fit or the predictor rebind leaves the last-good environment
            # fully intact (graceful degradation, not partial state).
            distributions = dataclasses.replace(state.distributions, **replacements)
            # Carry the discretisation tuning across the drift; the
            # fingerprint change retires every cached answer for the old
            # environment.
            predictor = state.predictor.rebind(distributions)
            fingerprint = self._fingerprint(distributions, predictor)
            state.distributions = distributions
            state.predictor = predictor
            state.fingerprint = fingerprint
        state.ingested_since_refit = 0
        state.refits += 1
        state.consecutive_refit_failures = 0
        state.last_refit_error = None
        state.degraded = False

    # ------------------------------------------------------------------
    # Serving.
    # ------------------------------------------------------------------
    def predict(
        self,
        tenant: str,
        config: ReplicaConfig,
        target_probabilities: Sequence[float] = DEFAULT_TARGETS,
        percentiles: Sequence[float] = DEFAULT_PERCENTILES,
    ) -> ServedPrediction:
        """Serve staleness and latency answers for one configuration.

        Answers come from the tenant's warm analytic predictor and are
        memoised under the environment fingerprint, so repeated queries
        against an unchanged environment are cache hits.  Every cache miss
        enqueues an asynchronous Monte Carlo spot-check.

        When the tenant's most recent refit failed, answers keep coming from
        the last-good environment (stale-while-revalidate) and are flagged
        ``degraded=True`` — the caller decides whether a stale answer is
        acceptable; the service never errors a predict because a refit did.
        """
        state = self._tenant(tenant)
        targets = tuple(float(t) for t in target_probabilities)
        points = tuple(float(p) for p in percentiles)
        with self._lock:
            fingerprint = state.fingerprint
            predictor = state.predictor
            distributions = state.distributions
            degraded = state.degraded
        key = request_key(
            fingerprint, "predict", (config.n, config.r, config.w, targets, points)
        )
        cached = self._cache.get(key)
        if cached is not None:
            with self._lock:
                self._predictions_served += 1
            if cached.degraded != degraded:  # type: ignore[union-attr]
                # Cached answers are keyed by the (last-good) fingerprint;
                # only the freshness flag changes while degraded.
                cached = dataclasses.replace(cached, degraded=degraded)  # type: ignore[arg-type]
            return cached  # type: ignore[return-value]
        result = predictor.result(config)
        prediction = ServedPrediction(
            tenant=tenant,
            config=config,
            fingerprint=fingerprint,
            consistency_at_commit=result.probability_never_stale(),
            t_visibility_ms={t: result.t_visibility(t) for t in targets},
            read_latency_ms={p: result.read_latency_percentile(p) for p in points},
            write_latency_ms={p: result.write_latency_percentile(p) for p in points},
            degraded=degraded,
        )
        self._cache.put(key, prediction)
        probes = tuple(
            (t_ms, result.consistency_probability(t_ms))
            for t_ms in {0.0, *prediction.t_visibility_ms.values()}
        )
        with self._lock:
            self._predictions_served += 1
            self._spot_queue.append(
                _SpotCheckItem(
                    tenant=tenant,
                    config=config,
                    fingerprint=fingerprint,
                    distributions=distributions,
                    probes=probes,
                )
            )
        return prediction

    def consistency_probabilities(
        self, tenant: str, config: ReplicaConfig, times_ms: Sequence[float]
    ) -> tuple[float, ...]:
        """``P(consistent at t)`` at each probe time under the tenant's model.

        A bulk curve probe for monitoring and the adaptive-recovery loop
        (:mod:`repro.faults.recovery`): answered directly from the tenant's
        warm analytic predictor, bypassing the request cache (curves are
        arbitrary probe grids, so memoising them would only churn the LRU).
        """
        state = self._tenant(tenant)
        with self._lock:
            predictor = state.predictor
        result = predictor.result(config)
        return tuple(result.consistency_probability(float(t)) for t in times_ms)

    def recommend(self, tenant: str, target: SLATarget) -> ServedRecommendation:
        """Serve an SLA-driven (N, R, W) recommendation.

        The search runs through :class:`SLAOptimizer` in ``analytic`` mode
        over the service's replication grid, sharing the tenant's warm
        predictor, so a served recommendation for a static environment is
        identical to the offline ``SLAOptimizer(distributions,
        mode="analytic")`` answer.
        """
        state = self._tenant(tenant)
        with self._lock:
            fingerprint = state.fingerprint
            predictor = state.predictor
            distributions = state.distributions
        key = request_key(fingerprint, "recommend", target)
        cached = self._cache.get(key)
        if cached is not None:
            with self._lock:
                self._recommendations_served += 1
            return cached  # type: ignore[return-value]
        optimizer = SLAOptimizer(
            distributions,
            replication_factors=self._replication_factors,
            mode="analytic",
            analytic_predictor=predictor,
        )
        evaluations = tuple(optimizer.evaluate_all(target))
        feasible = [e for e in evaluations if e.meets_target]
        feasible.sort(key=lambda e: (e.combined_latency_ms, -e.config.w))
        best = feasible[0] if feasible else None
        recommendation = ServedRecommendation(
            tenant=tenant,
            fingerprint=fingerprint,
            target=target,
            best=best,
            evaluations=evaluations,
        )
        self._cache.put(key, recommendation)
        with self._lock:
            self._recommendations_served += 1
            if best is not None:
                # Audit the winner: its t-visibility verdict is what the
                # operator acts on.
                result = predictor.result(best.config)
                probe_t = best.t_visibility_ms
                self._spot_queue.append(
                    _SpotCheckItem(
                        tenant=tenant,
                        config=best.config,
                        fingerprint=fingerprint,
                        distributions=distributions,
                        probes=(
                            (0.0, result.consistency_probability(0.0)),
                            (probe_t, result.consistency_probability(probe_t)),
                        ),
                    )
                )
        return recommendation

    # ------------------------------------------------------------------
    # Asynchronous Monte Carlo audits.
    # ------------------------------------------------------------------
    def run_pending_spot_checks(self, max_checks: int | None = None) -> list[SpotCheckResult]:
        """Drain queued audits (up to ``max_checks``) and return their results.

        Each audit replays the served probe times through the Monte Carlo
        sweep engine and compares the sampled consistency probabilities with
        the analytic answers that were served.  Sampling runs outside the
        service lock, so serving continues while audits are in flight.
        """
        from repro.montecarlo.engine import SweepEngine

        results: list[SpotCheckResult] = []
        while max_checks is None or len(results) < max_checks:
            with self._lock:
                if not self._spot_queue:
                    break
                item = self._spot_queue.popleft()
                seed = int(self._spot_rng.integers(0, 2**31 - 1))
            probe_times = tuple(t for t, _ in item.probes)
            engine = SweepEngine(item.distributions, (item.config,), times_ms=probe_times)
            summary = engine.run(self._spot_check_trials, seed).results[0]
            error = max(
                abs(expected - summary.consistency_probability(t))
                for t, expected in item.probes
            )
            outcome = SpotCheckResult(
                tenant=item.tenant,
                config=item.config,
                fingerprint=item.fingerprint,
                trials=self._spot_check_trials,
                max_absolute_error=error,
                passed=error <= self._spot_check_tolerance,
            )
            with self._lock:
                self._spot_runs += 1
                if not outcome.passed:
                    self._spot_failures += 1
                self._max_spot_error = max(self._max_spot_error, error)
                self._spot_results.append(outcome)
            results.append(outcome)
        return results

    def spot_check_results(self) -> tuple[SpotCheckResult, ...]:
        """The most recent completed audits (bounded history)."""
        with self._lock:
            return tuple(self._spot_results)

    def start_spot_check_worker(self, interval_seconds: float = 0.1) -> None:
        """Start a daemon thread draining the audit queue off the request path.

        The worker survives exceptions: an error in
        :meth:`run_pending_spot_checks` is counted
        (``spot_check_worker_errors`` in :meth:`stats`) and the loop resumes
        after a backoff that doubles per consecutive error, bounded by the
        service's ``spot_check_worker_backoff_max_seconds``; a clean drain
        resets the backoff to the poll interval.
        """
        with self._lock:
            if self._worker is not None and self._worker.is_alive():
                return
            self._worker_stop.clear()
            self._worker_backoff_seconds = interval_seconds

            def run() -> None:
                backoff = interval_seconds
                while not self._worker_stop.is_set():
                    try:
                        self.run_pending_spot_checks()
                    except Exception:
                        # The audit thread must outlive any one bad audit:
                        # count the error, back off, try again.
                        backoff = min(backoff * 2.0, self._worker_backoff_max)
                        with self._lock:
                            self._worker_errors += 1
                            self._worker_backoff_seconds = backoff
                    else:
                        backoff = interval_seconds
                        with self._lock:
                            self._worker_backoff_seconds = backoff
                    self._worker_stop.wait(backoff)

            self._worker = threading.Thread(
                target=run, name="pbs-spot-checks", daemon=True
            )
            self._worker.start()

    def stop_spot_check_worker(self) -> None:
        """Stop the audit thread (pending audits stay queued)."""
        with self._lock:
            worker = self._worker
            self._worker = None
        if worker is not None:
            self._worker_stop.set()
            worker.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """A point-in-time snapshot of tenants, cache, and audit health."""
        with self._lock:
            tenants = tuple(
                TenantStats(
                    name=state.name,
                    fingerprint=state.fingerprint,
                    refits=state.refits,
                    observed={
                        letter: reservoir.total_observed
                        for letter, reservoir in sorted(state.reservoirs.items())
                    },
                    retained={
                        letter: len(reservoir)
                        for letter, reservoir in sorted(state.reservoirs.items())
                    },
                    degraded=state.degraded,
                    refit_failures=state.refit_failures,
                    consecutive_refit_failures=state.consecutive_refit_failures,
                    last_refit_error=state.last_refit_error,
                )
                for state in sorted(self._tenants.values(), key=lambda s: s.name)
            )
            return ServiceStats(
                tenants=tenants,
                cache=self._cache.stats(),
                predictions_served=self._predictions_served,
                recommendations_served=self._recommendations_served,
                spot_checks_pending=len(self._spot_queue),
                spot_checks_run=self._spot_runs,
                spot_checks_failed=self._spot_failures,
                max_spot_check_error=self._max_spot_error,
                refit_failures=self._refit_failures,
                degraded_tenants=sum(
                    1 for state in self._tenants.values() if state.degraded
                ),
                spot_check_worker_errors=self._worker_errors,
                spot_check_worker_backoff_seconds=self._worker_backoff_seconds,
            )
