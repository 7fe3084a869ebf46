"""High-level PBS prediction API.

:class:`PBSPredictor` ties the closed-form k-staleness results, the WARS
Monte Carlo t-visibility machinery, and the ⟨k, t⟩ combination into a single
object that mirrors how an operator would consume PBS: pick a replication
configuration and a latency environment, then ask "how eventual?" and
"how consistent?".

Example
-------
>>> from repro import PBSPredictor, ReplicaConfig, production_fit
>>> predictor = PBSPredictor(production_fit("LNKD-SSD"), ReplicaConfig(n=3, r=1, w=1))
>>> report = predictor.report(trials=20_000, rng=0)
>>> 0.0 <= report.consistency_at_commit <= 1.0
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.kstaleness import KStalenessModel
from repro.core.ktstaleness import kt_consistency_probability
from repro.core.monotonic import MonotonicReadsModel
from repro.core.quorum import ReplicaConfig
from repro.core.tvisibility import EmpiricalPropagation
from repro.core.wars import WARSModel, WARSTrialResult
from repro.exceptions import ConfigurationError
from repro.latency.production import WARSDistributions

__all__ = ["PBSReport", "PBSPredictor"]

#: Latency percentiles included in :class:`PBSReport`, matching Table 4's focus
#: on tail latency plus the medians quoted in §5.6.
_REPORT_PERCENTILES: tuple[float, ...] = (50.0, 95.0, 99.0, 99.9)

#: Monte Carlo trials used by the hybrid-mode spot-check (capped by the
#: caller's ``trials`` budget).
_HYBRID_SPOT_TRIALS: int = 20_000


@dataclass(frozen=True)
class PBSReport:
    """A bundled prediction for one configuration and latency environment."""

    config: ReplicaConfig
    #: Monte Carlo trials behind the report: the full sweep budget in
    #: ``montecarlo`` mode, the spot-check budget in ``hybrid`` mode, zero in
    #: ``analytic`` mode.
    trials: int
    #: Probability a read immediately after commit (t = 0) is consistent.
    consistency_at_commit: float
    #: t (ms) needed for 99.9% probability of consistent reads.
    t_visibility_999: float
    #: t (ms) needed for 99% probability of consistent reads.
    t_visibility_99: float
    #: Closed-form probability of reading one of the last k versions (k = 1, 2, 3).
    k_staleness: Mapping[int, float]
    #: Read latency percentiles (ms) keyed by percentile.
    read_latency_ms: Mapping[float, float]
    #: Write (commit) latency percentiles (ms) keyed by percentile.
    write_latency_ms: Mapping[float, float]
    #: Achieved t-visibility brackets keyed by target probability, set on
    #: adaptive runs (``probe_resolution_ms``): the probe times the crossing
    #: sits between, or ``None`` when the crossing lies beyond the probe
    #: grid.  A bracket wider than the resolution means the crossing left
    #: its pilot window, and that t-visibility is a histogram estimate.
    t_visibility_brackets: Mapping[float, tuple[float, float] | None] | None = None
    #: How the staleness/latency numbers were produced: ``"montecarlo"``
    #: (sweep-engine sampling), ``"analytic"`` (numerical convolution), or
    #: ``"hybrid"`` (analytic numbers spot-checked by a small sweep).
    mode: str = "montecarlo"
    #: Hybrid mode only: the Monte Carlo spot-check — trials run, the checked
    #: consistency probabilities, and their disagreement with the analytic
    #: values.
    montecarlo_check: Mapping[str, float] | None = None

    def summary_lines(self) -> list[str]:
        """Human-readable summary, one finding per line."""
        lines = [
            f"configuration: {self.config.label()} "
            f"({'strict' if self.config.is_strict else 'partial'} quorum)",
            f"P(consistent read immediately after commit) = {self.consistency_at_commit:.4f}",
            f"t-visibility for 99%   consistent reads = {self.t_visibility_99:.2f} ms",
            f"t-visibility for 99.9% consistent reads = {self.t_visibility_999:.2f} ms",
        ]
        for k, probability in sorted(self.k_staleness.items()):
            lines.append(f"P(read within {k} version{'s' if k > 1 else ''}) = {probability:.4f}")
        lines.append(
            "read latency ms (p50/p99/p99.9) = "
            f"{self.read_latency_ms[50.0]:.2f} / {self.read_latency_ms[99.0]:.2f} / "
            f"{self.read_latency_ms[99.9]:.2f}"
        )
        lines.append(
            "write latency ms (p50/p99/p99.9) = "
            f"{self.write_latency_ms[50.0]:.2f} / {self.write_latency_ms[99.0]:.2f} / "
            f"{self.write_latency_ms[99.9]:.2f}"
        )
        if self.mode != "montecarlo":
            lines.append(f"prediction mode: {self.mode} (numerical convolution)")
        if self.montecarlo_check is not None:
            lines.append(
                "Monte Carlo spot-check: "
                f"{int(self.montecarlo_check['trials'])} trials, max disagreement "
                f"{self.montecarlo_check['max_absolute_error']:.4f}"
            )
        return lines


@dataclass(frozen=True)
class PBSPredictor:
    """Predict staleness and latency for a replication configuration.

    Parameters
    ----------
    distributions:
        The WARS one-way latency distributions describing the deployment.
    config:
        The (N, R, W) configuration to evaluate.
    """

    distributions: WARSDistributions
    config: ReplicaConfig

    # ------------------------------------------------------------------
    # Closed-form predictions.
    # ------------------------------------------------------------------
    def k_staleness(self) -> KStalenessModel:
        """Closed-form k-staleness model (paper §3.1) for this configuration."""
        return KStalenessModel(self.config)

    def monotonic_reads(
        self, global_write_rate: float, client_read_rate: float
    ) -> MonotonicReadsModel:
        """Monotonic-reads model (paper §3.2) for the given workload rates."""
        return MonotonicReadsModel(
            config=self.config,
            global_write_rate=global_write_rate,
            client_read_rate=client_read_rate,
        )

    # ------------------------------------------------------------------
    # Monte Carlo predictions.
    # ------------------------------------------------------------------
    def wars(self) -> WARSModel:
        """The underlying WARS Monte Carlo model."""
        return WARSModel(distributions=self.distributions, config=self.config)

    def simulate(
        self, trials: int = 100_000, rng: np.random.Generator | int | None = None
    ) -> WARSTrialResult:
        """Run a batch of WARS trials and return the raw result.

        Args
        ----
        trials:
            Number of Monte Carlo trials to draw.
        rng:
            Seed or generator for reproducibility.

        Returns
        -------
        The per-trial arrays as a :class:`~repro.core.wars.WARSTrialResult`.
        """
        return self.wars().sample(trials, rng)

    def t_visibility(
        self,
        target_probability: float = 0.999,
        trials: int = 100_000,
        rng: np.random.Generator | int | None = None,
    ) -> float:
        """Time (ms) after commit needed to reach the target consistency probability.

        Args
        ----
        target_probability:
            Consistency probability in (0, 1] to reach.
        trials:
            Number of Monte Carlo trials backing the estimate.
        rng:
            Seed or generator for reproducibility.

        Returns
        -------
        The smallest ``t`` (ms) whose probability of consistent reads meets
        the target (exact order statistics over the sampled trials).

        Example
        -------
        >>> from repro import PBSPredictor, ReplicaConfig, production_fit
        >>> predictor = PBSPredictor(production_fit("LNKD-SSD"), ReplicaConfig(3, 1, 1))
        >>> predictor.t_visibility(0.9, trials=5_000, rng=0) >= 0.0
        True
        """
        return self.simulate(trials, rng).t_visibility(target_probability)

    def consistency_curve(
        self,
        times_ms: Sequence[float],
        trials: int = 100_000,
        rng: np.random.Generator | int | None = None,
    ) -> list[tuple[float, float]]:
        """``(t, P(consistent))`` pairs over a grid of times since commit.

        Args
        ----
        times_ms:
            Times since commit (ms) to evaluate.
        trials:
            Number of Monte Carlo trials backing the curve.
        rng:
            Seed or generator for reproducibility.

        Returns
        -------
        ``(t_ms, probability)`` pairs, one per requested time.
        """
        return self.simulate(trials, rng).consistency_curve(times_ms)

    def kt_staleness(
        self,
        k: int,
        t_ms: float,
        trials: int = 100_000,
        rng: np.random.Generator | int | None = None,
    ) -> float:
        """Monte-Carlo-backed ⟨k, t⟩-staleness consistency probability (paper §3.5).

        Uses the simulated write-arrival delays to build an empirical
        propagation model, then applies Equation 5.
        """
        result = self.simulate(trials, rng)
        if result.write_arrivals_ms is None:
            raise ConfigurationError(
                "kt_staleness requires trial results that retain the per-replica "
                "write-arrival matrix (write_arrivals_ms is None)"
            )
        arrivals = result.write_arrivals_ms - result.commit_latencies_ms[:, None]
        propagation = EmpiricalPropagation(arrival_delays_ms=arrivals)
        return kt_consistency_probability(self.config, propagation, k, t_ms)

    # ------------------------------------------------------------------
    # Bundled report.
    # ------------------------------------------------------------------
    def report(
        self,
        trials: int = 100_000,
        rng: np.random.Generator | int | None = None,
        ks: Sequence[int] = (1, 2, 3),
        chunk_size: int | None = None,
        tolerance: float | None = None,
        workers: int = 1,
        probe_resolution_ms: float | None = None,
        mode: str = "montecarlo",
    ) -> PBSReport:
        """Produce a :class:`PBSReport` summarising latency and staleness predictions.

        In the default ``montecarlo`` mode, trials run through the streaming
        sweep engine, so arbitrarily large trial counts use bounded memory.
        ``mode="analytic"`` answers from :class:`repro.analytic.AnalyticPredictor`
        instead — no sampling at all, microsecond queries after a one-off
        tabulation — and ``mode="hybrid"`` takes the analytic numbers but runs
        a small Monte Carlo sweep as a spot-check, recording the disagreement
        in :attr:`PBSReport.montecarlo_check`.  The analytic path requires
        i.i.d. replicas (the WAN per-replica model stays Monte Carlo only).

        Args
        ----
        trials:
            Monte Carlo trial budget (at least 100).
        rng:
            Forwarded to the engine verbatim, so integer seeds give results
            independent of ``chunk_size`` — and of ``workers``.
        ks:
            The k values for the closed-form k-staleness rows.
        chunk_size:
            Engine chunk size (``None`` selects the engine default).
        tolerance:
            Optional Wilson half-width: stop early once the consistency
            estimates are this tight.
        workers:
            Shard seeded chunks across processes without changing any number.
        probe_resolution_ms:
            Enable the adaptive probe grid: the engine probes the coarse
            :data:`~repro.montecarlo.engine.DEFAULT_ADAPTIVE_GRID_MS` base
            grid plus every multiple of this resolution across pilot windows
            around the report's 99% and 99.9% t-visibility crossings, so
            both figures come from exact bracketing counts at this
            resolution instead of the histogram sketch.
        mode:
            ``"montecarlo"`` (default), ``"analytic"``, or ``"hybrid"``.
            The sweep-engine knobs (``chunk_size``, ``tolerance``,
            ``workers``, ``probe_resolution_ms``) apply to the Monte Carlo
            sweep only; in ``analytic`` mode they are ignored, and in
            ``hybrid`` mode they tune the spot-check sweep.

        Returns
        -------
        A :class:`PBSReport`.

        Example
        -------
        >>> from repro import PBSPredictor, ReplicaConfig, production_fit
        >>> predictor = PBSPredictor(production_fit("LNKD-SSD"), ReplicaConfig(3, 1, 1))
        >>> report = predictor.report(trials=5_000, rng=0)
        >>> report.t_visibility_99 <= report.t_visibility_999
        True
        """
        # Imported lazily: repro.core must stay importable without pulling in
        # the montecarlo package at module-import time.
        from repro.montecarlo.engine import SweepEngine, min_trials_for_quantile

        if mode not in ("montecarlo", "analytic", "hybrid"):
            raise ConfigurationError(
                f"mode must be 'montecarlo', 'analytic' or 'hybrid', got {mode!r}"
            )
        if mode != "montecarlo":
            return self._analytic_report(
                mode=mode,
                trials=trials,
                rng=rng,
                ks=ks,
                chunk_size=chunk_size,
                tolerance=tolerance,
                workers=workers,
            )
        if trials < 100:
            raise ConfigurationError(
                f"at least 100 trials are required for a meaningful report, got {trials}"
            )
        engine = SweepEngine(
            self.distributions,
            (self.config,),
            chunk_size=chunk_size,
            tolerance=tolerance,
            # The report quotes 99.9% t-visibility and p99.9 latencies; keep
            # early stopping from starving that tail of samples.
            min_trials=min_trials_for_quantile(0.999),
            workers=workers,
            # The report quotes both the 99% and 99.9% crossings; the
            # adaptive grid (when probe_resolution_ms is set) resolves each
            # over the engine's default coarse base grid.
            target_probability=(0.99, 0.999),
            probe_resolution_ms=probe_resolution_ms,
        )
        sweep = engine.run(trials, rng)
        summary = sweep.results[0]
        staleness_model = self.k_staleness()
        brackets = (
            {target: summary.t_visibility_bracket(target) for target in (0.99, 0.999)}
            if probe_resolution_ms is not None
            else None
        )
        return PBSReport(
            config=self.config,
            trials=sweep.trials_run,
            consistency_at_commit=summary.probability_never_stale(),
            t_visibility_999=summary.t_visibility(0.999),
            t_visibility_99=summary.t_visibility(0.99),
            k_staleness={k: staleness_model.consistency(k) for k in ks},
            read_latency_ms={
                p: summary.read_latency_percentile(p) for p in _REPORT_PERCENTILES
            },
            write_latency_ms={
                p: summary.write_latency_percentile(p) for p in _REPORT_PERCENTILES
            },
            t_visibility_brackets=brackets,
        )

    def _analytic_report(
        self,
        mode: str,
        trials: int,
        rng: np.random.Generator | int | None,
        ks: Sequence[int],
        chunk_size: int | None,
        tolerance: float | None,
        workers: int,
    ) -> PBSReport:
        """Answer a report analytically; in hybrid mode, spot-check it by sampling."""
        # Imported lazily for symmetry with the engine: repro.core stays
        # importable without the analytic package.
        from repro.analytic.predictor import AnalyticPredictor

        analytic = AnalyticPredictor(distributions=self.distributions).result(self.config)
        staleness_model = self.k_staleness()
        check: dict[str, float] | None = None
        check_trials = 0
        if mode == "hybrid":
            from repro.montecarlo.engine import SweepEngine

            check_trials = max(min(trials, _HYBRID_SPOT_TRIALS), 100)
            probe_times = (0.0, analytic.t_visibility(0.99))
            engine = SweepEngine(
                self.distributions,
                (self.config,),
                times_ms=probe_times,
                chunk_size=chunk_size,
                tolerance=tolerance,
                workers=workers,
            )
            summary = engine.run(check_trials, rng).results[0]
            disagreements = [
                abs(analytic.consistency_probability(t) - summary.consistency_probability(t))
                for t in probe_times
            ]
            check = {
                "trials": float(check_trials),
                "consistency_at_commit": summary.probability_never_stale(),
                "consistency_at_t99": summary.consistency_probability(probe_times[1]),
                "max_absolute_error": max(disagreements),
            }
        return PBSReport(
            config=self.config,
            trials=check_trials,
            consistency_at_commit=analytic.consistency_probability(0.0),
            t_visibility_999=analytic.t_visibility(0.999),
            t_visibility_99=analytic.t_visibility(0.99),
            k_staleness={k: staleness_model.consistency(k) for k in ks},
            read_latency_ms={
                p: analytic.read_latency_percentile(p) for p in _REPORT_PERCENTILES
            },
            write_latency_ms={
                p: analytic.write_latency_percentile(p) for p in _REPORT_PERCENTILES
            },
            mode=mode,
            montecarlo_check=check,
        )
