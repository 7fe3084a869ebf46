"""SLA-driven replication configuration (paper §6, "Latency/Staleness SLAs").

The paper observes that PBS turns replication tuning into a small optimisation
problem: the configuration space is only ``O(N^2)`` per replication factor, so
an operator can exhaustively evaluate every (N, R, W) choice against measured
latency distributions and pick the one that best satisfies a service level
agreement combining

* an operation-latency target (e.g. "99.9th percentile read latency <= 10 ms"),
* a staleness target (e.g. "99.9% of reads consistent within 20 ms of commit"),
* a minimum durability / availability requirement (a floor on ``W`` and ``N``).

:class:`SLAOptimizer` implements that search over WARS Monte Carlo evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.quorum import ReplicaConfig, iter_configs
from repro.exceptions import ConfigurationError
from repro.latency.production import WARSDistributions

__all__ = ["SLATarget", "ConfigurationEvaluation", "SLAOptimizer"]


@dataclass(frozen=True)
class SLATarget:
    """A combined latency/staleness/durability service-level target.

    Attributes
    ----------
    read_latency_ms / write_latency_ms:
        Upper bounds on operation latency at ``latency_percentile``.  ``None``
        disables the corresponding constraint.
    latency_percentile:
        Percentile at which the latency bounds apply (the paper uses 99.9).
    t_visibility_ms:
        Upper bound on the time after commit needed to reach
        ``consistency_probability`` probability of consistent reads.  ``None``
        disables the staleness constraint.
    consistency_probability:
        The probability level for the staleness constraint (default 99.9%).
    min_write_quorum:
        Durability floor: the minimum acceptable ``W``.
    min_replication:
        Availability floor: the minimum acceptable ``N``.
    """

    read_latency_ms: float | None = None
    write_latency_ms: float | None = None
    latency_percentile: float = 99.9
    t_visibility_ms: float | None = None
    consistency_probability: float = 0.999
    min_write_quorum: int = 1
    min_replication: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.latency_percentile <= 100.0:
            raise ConfigurationError(
                f"latency percentile must be in (0, 100], got {self.latency_percentile}"
            )
        if not 0.0 < self.consistency_probability <= 1.0:
            raise ConfigurationError(
                "consistency probability must be in (0, 1], got "
                f"{self.consistency_probability}"
            )
        if self.min_write_quorum < 1:
            raise ConfigurationError(
                f"minimum write quorum must be >= 1, got {self.min_write_quorum}"
            )
        if self.min_replication < 1:
            raise ConfigurationError(
                f"minimum replication must be >= 1, got {self.min_replication}"
            )


@dataclass(frozen=True)
class ConfigurationEvaluation:
    """The measured behaviour of one (N, R, W) configuration under a workload."""

    config: ReplicaConfig
    read_latency_ms: float
    write_latency_ms: float
    t_visibility_ms: float
    consistency_at_commit: float
    meets_target: bool
    violations: tuple[str, ...] = field(default_factory=tuple)

    @property
    def combined_latency_ms(self) -> float:
        """Read + write tail latency; the paper's headline trade-off metric."""
        return self.read_latency_ms + self.write_latency_ms


class SLAOptimizer:
    """Exhaustive (N, R, W) search against an :class:`SLATarget`.

    Parameters
    ----------
    distributions:
        WARS latency distributions, or a callable mapping a replication factor
        to distributions (needed when the latency model depends on N, as in
        the WAN scenario).
    replication_factors:
        The N values to consider (defaults to 1 through 5).
    trials:
        Monte Carlo trials per configuration.
    rng:
        Seed or generator, forwarded to every sweep verbatim (integer seeds
        give common random numbers across evaluations).
    chunk_size:
        Engine chunk size (``None`` selects the engine default).
    tolerance:
        Optional Wilson half-width for early stopping per sweep.
    workers:
        Shard each sweep across this many worker processes; seed-mode
        results are worker-count invariant, so sharding never changes which
        configuration wins.
    probe_resolution_ms:
        Enable adaptive probe-grid refinement in every evaluation sweep: the
        engine probes the coarse
        :data:`~repro.montecarlo.engine.DEFAULT_ADAPTIVE_GRID_MS` base grid
        and refines around each candidate's staleness-target crossing, so
        ``t_visibility_ms`` is resolved to this many milliseconds from exact
        bracketing counts — the quantity the SLA verdict hinges on.
    analytic_predictor:
        Optional pre-built :class:`repro.analytic.AnalyticPredictor` used by
        the analytic modes when ``distributions`` is static.  Passing a warm
        predictor lets callers (e.g. the serving layer) share one set of
        environment tables across many optimisations; its distributions must
        be the ones passed as ``distributions``.  Ignored when
        ``distributions`` is callable (each N then owns its environment).
    mode:
        ``"montecarlo"`` (default) evaluates every candidate by sampling.
        ``"analytic"`` evaluates through :class:`repro.analytic.AnalyticPredictor`
        instead — the whole ``O(N^2)`` search then costs milliseconds, which
        is the paper's "SLA search as a small optimisation problem" reading
        taken literally.  ``"hybrid"`` searches analytically and then
        re-evaluates only the winning configuration by Monte Carlo in
        :meth:`best` (the verdict reported is the Monte Carlo one).  The
        analytic modes require i.i.d. replicas, so WAN-style per-replica
        models must use ``"montecarlo"``.
    """

    def __init__(
        self,
        distributions: WARSDistributions | Callable[[int], WARSDistributions],
        replication_factors: Sequence[int] = (1, 2, 3, 4, 5),
        trials: int = 50_000,
        rng: np.random.Generator | int | None = None,
        chunk_size: int | None = None,
        tolerance: float | None = None,
        workers: int = 1,
        probe_resolution_ms: float | None = None,
        mode: str = "montecarlo",
        analytic_predictor: object | None = None,
    ) -> None:
        if trials < 100:
            raise ConfigurationError(f"at least 100 trials are required, got {trials}")
        if not replication_factors:
            raise ConfigurationError("at least one replication factor is required")
        if mode not in ("montecarlo", "analytic", "hybrid"):
            raise ConfigurationError(
                f"mode must be 'montecarlo', 'analytic' or 'hybrid', got {mode!r}"
            )
        self._distributions = distributions
        self._replication_factors = tuple(sorted(set(replication_factors)))
        self._trials = trials
        # Kept verbatim: integer seeds select the engine's chunk-size-invariant
        # mode (and give common random numbers across evaluate() calls); a
        # generator is consumed sequentially across evaluations.
        self._rng = rng
        self._chunk_size = chunk_size
        self._tolerance = tolerance
        # Forwarded to each sweep; seed-mode results are worker-count
        # invariant, so sharding never changes which configuration wins.
        self._workers = workers
        self._probe_resolution_ms = probe_resolution_ms
        self._mode = mode
        if analytic_predictor is not None and callable(distributions):
            raise ConfigurationError(
                "a pre-built analytic predictor can only be supplied with static "
                "distributions (a callable gives each replication factor its own "
                "environment)"
            )
        # Analytic predictors cached per replication factor when the
        # distributions are callable (each N may then have its own environment
        # tables); static distributions define a single environment whose
        # tables are shared by every N, so one predictor serves them all.
        self._analytic_cache: dict[object, object] = {}
        if analytic_predictor is not None:
            self._analytic_cache["static"] = analytic_predictor

    def _distributions_for(self, n: int) -> WARSDistributions:
        if callable(self._distributions):
            return self._distributions(n)
        return self._distributions

    def _analytic_for(self, n: int):
        # Imported lazily for symmetry with the engine import in _engine_for.
        from repro.analytic.predictor import AnalyticPredictor

        key: object = n if callable(self._distributions) else "static"
        predictor = self._analytic_cache.get(key)
        if predictor is None:
            predictor = AnalyticPredictor(distributions=self._distributions_for(n))
            self._analytic_cache[key] = predictor
        return predictor

    def _candidate_configs(self, target: SLATarget) -> Iterable[ReplicaConfig]:
        for n in self._replication_factors:
            if n < target.min_replication:
                continue
            for config in iter_configs(n):
                if config.w >= target.min_write_quorum:
                    yield config

    def _build_evaluation(
        self,
        config: ReplicaConfig,
        target: SLATarget,
        read_latency: float,
        write_latency: float,
        t_visibility: float,
        consistency_at_commit: float,
    ) -> ConfigurationEvaluation:
        violations: list[str] = []
        if target.read_latency_ms is not None and read_latency > target.read_latency_ms:
            violations.append(
                f"read latency {read_latency:.2f} ms exceeds {target.read_latency_ms:.2f} ms"
            )
        if target.write_latency_ms is not None and write_latency > target.write_latency_ms:
            violations.append(
                f"write latency {write_latency:.2f} ms exceeds {target.write_latency_ms:.2f} ms"
            )
        if target.t_visibility_ms is not None and t_visibility > target.t_visibility_ms:
            violations.append(
                f"t-visibility {t_visibility:.2f} ms exceeds {target.t_visibility_ms:.2f} ms"
            )
        return ConfigurationEvaluation(
            config=config,
            read_latency_ms=read_latency,
            write_latency_ms=write_latency,
            t_visibility_ms=t_visibility,
            consistency_at_commit=consistency_at_commit,
            meets_target=not violations,
            violations=tuple(violations),
        )

    def evaluate(self, config: ReplicaConfig, target: SLATarget) -> ConfigurationEvaluation:
        """Evaluate one configuration against the target.

        Runs a single-configuration sweep through the same engine as
        :meth:`evaluate_all`.  With an integer seed and no early-stopping
        ``tolerance`` the numbers agree exactly with the corresponding
        :meth:`evaluate_all` row (seeded sample streams are keyed by
        replication factor, not by sweep shape).  With a tolerance the two
        calls may stop at different trial counts (a lone configuration can
        converge before its whole group); with a shared generator they
        consume the stream at different points.  Either way the numbers
        differ only within Monte Carlo noise.

        Args
        ----
        config:
            The (N, R, W) configuration to measure.
        target:
            The SLA to judge it against.

        Returns
        -------
        A :class:`ConfigurationEvaluation` with the measured latencies,
        t-visibility, and the per-constraint violations (empty when the
        configuration meets the target).

        Example
        -------
        >>> from repro import ReplicaConfig, SLAOptimizer, SLATarget, production_fit
        >>> optimizer = SLAOptimizer(production_fit("LNKD-SSD"), trials=2_000, rng=0)
        >>> evaluation = optimizer.evaluate(
        ...     ReplicaConfig(3, 1, 1), SLATarget(t_visibility_ms=1_000.0))
        >>> evaluation.meets_target
        True
        """
        if self._mode in ("analytic", "hybrid"):
            return self._evaluation_from_analytic(config, target)
        summary = self._engine_for(config.n, (config,), target).run(
            self._trials, self._rng
        ).results[0]
        return self._evaluation_from_summary(summary, target)

    def _evaluate_montecarlo(
        self, config: ReplicaConfig, target: SLATarget
    ) -> ConfigurationEvaluation:
        """Monte Carlo evaluation regardless of mode (hybrid confirmation)."""
        summary = self._engine_for(config.n, (config,), target).run(
            self._trials, self._rng
        ).results[0]
        return self._evaluation_from_summary(summary, target)

    def _evaluation_from_analytic(
        self, config: ReplicaConfig, target: SLATarget
    ) -> ConfigurationEvaluation:
        result = self._analytic_for(config.n).result(config)
        return self._build_evaluation(
            config,
            target,
            read_latency=result.read_latency_percentile(target.latency_percentile),
            write_latency=result.write_latency_percentile(target.latency_percentile),
            t_visibility=result.t_visibility(target.consistency_probability),
            consistency_at_commit=result.probability_never_stale(),
        )

    def _engine_for(self, n: int, configs: Sequence[ReplicaConfig], target: SLATarget):
        # Imported lazily: repro.core must stay importable without pulling in
        # the montecarlo package at module-import time.
        from repro.montecarlo.engine import SweepEngine, min_trials_for_quantile

        return SweepEngine(
            self._distributions_for(n),
            configs,
            chunk_size=self._chunk_size,
            tolerance=self._tolerance,
            # The evaluation reports tail quantiles of the target; early
            # stopping must leave them ~100 tail samples of support.
            min_trials=max(
                min_trials_for_quantile(target.consistency_probability),
                min_trials_for_quantile(target.latency_percentile / 100.0),
            ),
            workers=self._workers,
            # Refine around the staleness target the SLA verdict hinges on
            # (a no-op unless probe_resolution_ms enables the adaptive grid).
            target_probability=target.consistency_probability,
            probe_resolution_ms=self._probe_resolution_ms,
        )

    def _evaluation_from_summary(self, summary, target: SLATarget) -> ConfigurationEvaluation:
        return self._build_evaluation(
            summary.config,
            target,
            read_latency=summary.read_latency_percentile(target.latency_percentile),
            write_latency=summary.write_latency_percentile(target.latency_percentile),
            t_visibility=summary.t_visibility(target.consistency_probability),
            consistency_at_commit=summary.probability_never_stale(),
        )

    def evaluate_all(self, target: SLATarget) -> list[ConfigurationEvaluation]:
        """Evaluate every candidate configuration, sorted by combined tail latency.

        Candidates sharing a replication factor are evaluated against one
        shared sample batch (:class:`~repro.montecarlo.engine.SweepEngine`),
        so each latency environment is sampled once per replication factor
        rather than once per (R, W) pair.

        Args
        ----
        target:
            The SLA every candidate is judged against (also supplies the
            durability/availability floors that prune the candidate set).

        Returns
        -------
        Every candidate's :class:`ConfigurationEvaluation`, sorted by
        combined read+write tail latency (best trade-off first).
        """
        by_factor: dict[int, list[ReplicaConfig]] = {}
        for config in self._candidate_configs(target):
            by_factor.setdefault(config.n, []).append(config)
        if not by_factor:
            raise ConfigurationError(
                "no candidate configurations satisfy the durability/availability floors"
            )
        evaluations: list[ConfigurationEvaluation] = []
        if self._mode in ("analytic", "hybrid"):
            for configs in by_factor.values():
                for config in configs:
                    evaluations.append(self._evaluation_from_analytic(config, target))
            return sorted(evaluations, key=lambda e: e.combined_latency_ms)
        for n, configs in by_factor.items():
            for summary in self._engine_for(n, configs, target).run(self._trials, self._rng):
                evaluations.append(self._evaluation_from_summary(summary, target))
        return sorted(evaluations, key=lambda e: e.combined_latency_ms)

    def best(self, target: SLATarget) -> ConfigurationEvaluation | None:
        """Return the lowest-latency configuration meeting the target, or ``None``.

        Ties are broken toward lower combined read+write tail latency, then
        toward higher durability (larger ``W``), matching the paper's framing
        that replication for durability can be decoupled from replication for
        latency.

        Args
        ----
        target:
            The SLA to satisfy.

        Returns
        -------
        The winning :class:`ConfigurationEvaluation`, or ``None`` when no
        candidate meets every constraint.  In ``hybrid`` mode the analytic
        search picks the winner and a Monte Carlo evaluation of that single
        configuration is returned (and must itself meet the target),
        combining the analytic search speed with a sampled verdict.
        """
        feasible = [
            evaluation for evaluation in self.evaluate_all(target) if evaluation.meets_target
        ]
        if not feasible:
            return None
        feasible.sort(key=lambda e: (e.combined_latency_ms, -e.config.w))
        if self._mode == "hybrid":
            confirmed = self._evaluate_montecarlo(feasible[0].config, target)
            return confirmed if confirmed.meets_target else None
        return feasible[0]
