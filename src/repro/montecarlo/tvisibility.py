"""t-visibility sweeps built on the WARS Monte Carlo kernel.

These helpers implement the repeated patterns of the paper's evaluation
(Figures 4, 6, 7 and Table 4): evaluate the probability-of-consistency curve
over a grid of times for a set of (R, W) configurations, or invert the curve
to find the ``t`` achieving a target probability.

All three entry points accept ``probe_resolution_ms`` to enable the engine's
adaptive probe grid: the requested times become a coarse base grid, and each
configuration adds a probe at every multiple of the resolution across a
pilot window around its ``t_visibility(target_probability)`` crossing,
placed on the first block of trials and then frozen (see the "Adaptive probe
grid" section of :mod:`repro.montecarlo.engine`).  Every probe counts every
trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.quorum import ReplicaConfig
from repro.core.wars import WARSModel
from repro.exceptions import ConfigurationError
from repro.latency.production import WARSDistributions
from repro.montecarlo.convergence import ProbabilityEstimate, wilson_interval
from repro.montecarlo.engine import SweepEngine, min_trials_for_quantile

__all__ = ["TVisibilityCurve", "visibility_curve", "visibility_curves", "t_visibility_table"]


@dataclass(frozen=True)
class TVisibilityCurve:
    """A (t, probability-of-consistency) curve for one configuration.

    Attributes
    ----------
    config:
        The (N, R, W) configuration the curve describes.
    label:
        Human-readable series label (environment + configuration).
    times_ms / probabilities:
        The curve's grid.  For adaptive sweeps this is the configuration's
        frozen probe grid — the requested base times plus the fine probes
        around the crossing.
    trials:
        Monte Carlo trials behind every estimate.
    probe_successes:
        Exact per-probe consistent-trial counts, when the producer carried
        them through (all the shipped front-ends do).  ``None`` on curves
        built from probabilities alone; :meth:`confidence_at` then falls
        back to reconstructing counts by rounding.
    """

    config: ReplicaConfig
    label: str
    times_ms: tuple[float, ...]
    probabilities: tuple[float, ...]
    trials: int
    probe_successes: tuple[int, ...] | None = None

    def probability_at(self, t_ms: float) -> float:
        """Interpolated probability of consistency at an arbitrary ``t``.

        Args
        ----
        t_ms:
            Time since commit, in milliseconds.

        Returns
        -------
        The linearly interpolated probability over the curve's grid.
        """
        return float(np.interp(t_ms, self.times_ms, self.probabilities))

    def t_for_probability(self, target: float) -> float:
        """Smallest ``t`` whose (interpolated) probability reaches the target.

        The inverse of :meth:`probability_at`: when the crossing falls
        between two probes, the time is linearly interpolated within the
        bracketing span — so ``probability_at(t_for_probability(p))``
        recovers ``p`` (up to the curve's own interpolation) instead of
        overshooting by up to a whole probe span on coarse grids.  Targets
        met exactly at a probe, or already met at the first probe, return
        that grid time unchanged.

        Args
        ----
        target:
            Consistency probability in (0, 1].

        Returns
        -------
        The crossing time in ms, or ``inf`` when the curve never reaches
        the target.  On an adaptive curve the bracketing span is at most
        the sweep's ``probe_resolution_ms`` when the crossing lies inside
        its pilot window.
        """
        if not 0.0 < target <= 1.0:
            raise ConfigurationError(f"target probability must be in (0, 1], got {target}")
        probabilities = np.asarray(self.probabilities, dtype=float)
        reached = np.nonzero(probabilities >= target)[0]
        if reached.size == 0:
            return float("inf")
        index = int(reached[0])
        if index == 0 or probabilities[index] == target:
            return float(self.times_ms[index])
        # index is the *first* probe at/above the target and the exact-hit
        # case returned above, so p_low < target < p_high strictly here.
        p_low = float(probabilities[index - 1])
        p_high = float(probabilities[index])
        t_low = float(self.times_ms[index - 1])
        t_high = float(self.times_ms[index])
        fraction = (target - p_low) / (p_high - p_low)
        return t_low + fraction * (t_high - t_low)

    def confidence_at(self, t_ms: float, confidence: float = 0.95) -> ProbabilityEstimate:
        """Wilson interval for the estimate at ``t_ms`` given its trial support.

        Args
        ----
        t_ms:
            Time since commit, in milliseconds.
        confidence:
            Confidence level for the interval (default 95%).

        Returns
        -------
        A :class:`~repro.montecarlo.convergence.ProbabilityEstimate` over
        ``trials``.  At a probe time the interval rests on the probe's
        observed consistent count (``probe_successes``), when the curve
        carries it; between probes the probability is interpolated and the
        count is necessarily a rounded reconstruction.
        """
        times = np.asarray(self.times_ms, dtype=float)
        index = int(np.searchsorted(times, t_ms))
        on_probe = index < times.size and times[index] == t_ms
        if on_probe and self.probe_successes is not None:
            return wilson_interval(self.probe_successes[index], self.trials, confidence)
        probability = float(self.probabilities[index]) if on_probe else self.probability_at(t_ms)
        return wilson_interval(int(round(probability * self.trials)), self.trials, confidence)

    def as_rows(self) -> list[dict[str, float]]:
        """Rows of ``{"t_ms", "p_consistent"}`` for table rendering."""
        return [
            {"t_ms": t, "p_consistent": p}
            for t, p in zip(self.times_ms, self.probabilities)
        ]


def _curve_points(
    summary, times_ms: Sequence[float], adaptive: bool
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[int, ...]]:
    """``(times, probabilities, probe_successes)`` for one curve.

    Adaptive curves cover the configuration's whole frozen probe grid;
    non-adaptive curves sample the requested times, with the exact
    consistent counts where a requested time is a probe.
    """
    if adaptive:
        probabilities = tuple(p for _, p in summary.probe_grid())
        return summary.times_ms, probabilities, summary.consistent_counts
    curve_times = tuple(float(t) for t in times_ms)
    probabilities = tuple(
        summary.consistency_probability(float(t)) for t in times_ms
    )
    exact = dict(zip((float(t) for t in summary.times_ms), summary.consistent_counts))
    successes = tuple(
        int(exact.get(t, round(p * summary.trials)))
        for t, p in zip(curve_times, probabilities)
    )
    return curve_times, probabilities, successes


def visibility_curve(
    distributions: WARSDistributions,
    config: ReplicaConfig,
    times_ms: Sequence[float],
    trials: int = 100_000,
    rng: np.random.Generator | int | None = None,
    label: str | None = None,
    streaming: bool = False,
    chunk_size: int | None = None,
    workers: int = 1,
    target_probability: float = 0.999,
    probe_resolution_ms: float | None = None,
) -> TVisibilityCurve:
    """Estimate the probability-of-consistency curve for one configuration.

    Args
    ----
    distributions:
        The WARS latency environment to sample.
    config:
        The (N, R, W) configuration to evaluate.
    times_ms:
        Times since commit (ms) to probe.  With ``probe_resolution_ms`` this
        is the coarse base grid.
    trials:
        Monte Carlo trial budget.
    rng:
        Integer seed (or ``None``) for the chunk-size-invariant seeded mode,
        or a ``numpy.random.Generator`` consumed sequentially.
    label:
        Series label override (defaults to environment + configuration).
    streaming:
        Route the trials through :class:`~repro.montecarlo.engine.SweepEngine`
        in bounded memory.  Implied by ``workers > 1`` or the adaptive grid.
    chunk_size:
        Engine chunk size (``None`` selects the engine default).
    workers:
        Shard seeded chunks across this many processes; results are
        identical for any worker count.
    target_probability:
        The consistency level the adaptive grid resolves (only used when
        ``probe_resolution_ms`` is set).
    probe_resolution_ms:
        Enable the adaptive grid: probe every multiple of this resolution
        across a pilot window around the
        ``t_visibility(target_probability)`` crossing.  The returned curve's
        grid is then ``times_ms`` plus those fine probes.

    Returns
    -------
    A :class:`TVisibilityCurve`.

    Example
    -------
    >>> from repro import ReplicaConfig, production_fit
    >>> curve = visibility_curve(
    ...     production_fit("LNKD-SSD"), ReplicaConfig(3, 1, 1),
    ...     times_ms=(0.0, 1.0, 5.0), trials=5_000, rng=0)
    >>> 0.0 <= curve.probability_at(1.0) <= 1.0
    True
    """
    adaptive = probe_resolution_ms is not None
    if streaming or workers > 1 or adaptive:
        engine = SweepEngine(
            distributions,
            (config,),
            times_ms=times_ms,
            chunk_size=chunk_size,
            workers=workers,
            target_probability=target_probability,
            probe_resolution_ms=probe_resolution_ms,
        )
        summary = engine.run(trials, rng).results[0]
        curve_times, curve_probabilities, probe_successes = _curve_points(
            summary, times_ms, adaptive
        )
        return TVisibilityCurve(
            config=config,
            label=label or f"{distributions.name} {config.label()}",
            times_ms=curve_times,
            probabilities=curve_probabilities,
            trials=summary.trials,
            probe_successes=probe_successes,
        )
    model = WARSModel(distributions=distributions, config=config)
    result = model.sample(trials, rng)
    curve = result.consistency_curve(times_ms)
    counts = result.consistency_counts([t for t, _ in curve])
    return TVisibilityCurve(
        config=config,
        label=label or f"{distributions.name} {config.label()}",
        times_ms=tuple(t for t, _ in curve),
        probabilities=tuple(p for _, p in curve),
        trials=trials,
        probe_successes=tuple(int(c) for c in counts),
    )


def visibility_curves(
    distributions: WARSDistributions,
    configs: Sequence[ReplicaConfig],
    times_ms: Sequence[float],
    trials: int = 100_000,
    rng: np.random.Generator | int | None = None,
    chunk_size: int | None = None,
    tolerance: float | None = None,
    workers: int = 1,
    target_probability: float = 0.999,
    probe_resolution_ms: float | None = None,
) -> list[TVisibilityCurve]:
    """Curves for several configurations sharing one latency environment.

    All configurations are evaluated against one shared sample batch via
    :class:`~repro.montecarlo.engine.SweepEngine`, so the delay matrices are
    drawn once per chunk (not once per configuration) and the curves are
    comparable trial-for-trial.

    Args
    ----
    distributions:
        The WARS latency environment shared by every configuration.
    configs:
        The (N, R, W) configurations to evaluate together.
    times_ms:
        Times since commit (ms) to probe (the base grid of an adaptive
        sweep).
    trials:
        Monte Carlo trial budget shared by the sweep.
    rng:
        Forwarded to the engine verbatim: an integer seed (or ``None``)
        selects the chunk-size-invariant seeded mode, a generator is
        consumed sequentially.
    chunk_size:
        Engine chunk size (``None`` selects the engine default).
    tolerance:
        Optional Wilson half-width for early stopping.
    workers:
        Shard seeded chunks across processes without changing any result.
    target_probability:
        Consistency level the adaptive grid resolves per configuration
        (only used when ``probe_resolution_ms`` is set).
    probe_resolution_ms:
        Enable the adaptive grid; each returned curve's grid becomes
        ``times_ms`` plus that configuration's fine probes.

    Returns
    -------
    One :class:`TVisibilityCurve` per configuration, in input order.

    Example
    -------
    >>> from repro import ReplicaConfig, production_fit
    >>> curves = visibility_curves(
    ...     production_fit("LNKD-SSD"),
    ...     [ReplicaConfig(3, 1, 1), ReplicaConfig(3, 2, 1)],
    ...     times_ms=(0.0, 1.0, 5.0), trials=5_000, rng=0)
    >>> len(curves)
    2
    """
    adaptive = probe_resolution_ms is not None
    engine = SweepEngine(
        distributions,
        configs,
        times_ms=times_ms,
        chunk_size=chunk_size,
        tolerance=tolerance,
        workers=workers,
        target_probability=target_probability,
        probe_resolution_ms=probe_resolution_ms,
    )
    sweep = engine.run(trials, rng)
    curves = []
    for summary in sweep:
        curve_times, curve_probabilities, probe_successes = _curve_points(
            summary, times_ms, adaptive
        )
        curves.append(
            TVisibilityCurve(
                config=summary.config,
                label=f"{distributions.name} {summary.config.label()}",
                times_ms=curve_times,
                probabilities=curve_probabilities,
                trials=sweep.trials_run,
                probe_successes=probe_successes,
            )
        )
    return curves


def t_visibility_table(
    distributions_by_name: Mapping[str, WARSDistributions],
    configs: Sequence[ReplicaConfig],
    target_probability: float = 0.999,
    latency_percentile: float = 99.9,
    trials: int = 100_000,
    rng: np.random.Generator | int | None = None,
    chunk_size: int | None = None,
    tolerance: float | None = None,
    workers: int = 1,
    probe_resolution_ms: float | None = None,
) -> list[dict[str, object]]:
    """Build Table 4 style rows: per (environment, config), tail latencies and t-visibility.

    Each row contains the environment name, the configuration, the read and
    write latency at ``latency_percentile``, and the ``t`` needed to reach
    ``target_probability`` probability of consistent reads.  Every environment
    evaluates all configurations against one shared sample batch.

    Args
    ----
    distributions_by_name:
        Environment name -> WARS distributions, one engine sweep each.
    configs:
        The (N, R, W) configurations evaluated under every environment.
    target_probability:
        Consistency level for the t-visibility column (and the level the
        adaptive grid resolves).
    latency_percentile:
        Percentile for the read/write latency columns.
    trials:
        Monte Carlo trial budget per environment.
    rng:
        Forwarded to each environment's engine verbatim, so an integer seed
        keeps the results independent of ``chunk_size`` (environments then
        share the same underlying uniforms — common random numbers across
        rows).
    chunk_size:
        Engine chunk size (``None`` selects the engine default).
    tolerance:
        Optional Wilson half-width for early stopping.
    workers:
        Shard each environment's seeded sweep across processes without
        changing any number.
    probe_resolution_ms:
        Enable the adaptive grid.  The engines probe the coarse
        :data:`~repro.montecarlo.engine.DEFAULT_ADAPTIVE_GRID_MS` base grid
        plus every multiple of this resolution across each configuration's
        pilot window, so the ``t_visibility_ms`` column is resolved to this
        many milliseconds from exact bracketing counts instead of the
        histogram sketch.

    Returns
    -------
    One row dict per (environment, configuration) pair with keys
    ``environment``, ``config``, ``read_latency_ms``, ``write_latency_ms``,
    ``t_visibility_ms``, and ``consistency_at_commit``.

    Example
    -------
    >>> from repro import ReplicaConfig, production_fit
    >>> rows = t_visibility_table(
    ...     {"LNKD-SSD": production_fit("LNKD-SSD")},
    ...     [ReplicaConfig(3, 1, 1)], trials=5_000, rng=0)
    >>> sorted(rows[0])[:3]
    ['config', 'consistency_at_commit', 'environment']
    """
    # The table's headline columns are tail quantiles, which the Wilson
    # tolerance does not constrain; keep early stopping from cutting the
    # tail support below ~100 samples.
    tail_floor = max(
        min_trials_for_quantile(target_probability),
        min_trials_for_quantile(latency_percentile / 100.0),
    )
    rows: list[dict[str, object]] = []
    for name, distributions in distributions_by_name.items():
        engine = SweepEngine(
            distributions,
            configs,
            chunk_size=chunk_size,
            tolerance=tolerance,
            min_trials=tail_floor,
            workers=workers,
            # With probe_resolution_ms set the engine falls back to its
            # default coarse base grid and adds fine probes around this
            # target; otherwise the target is informational.
            target_probability=target_probability,
            probe_resolution_ms=probe_resolution_ms,
        )
        sweep = engine.run(trials, rng)
        for summary in sweep:
            rows.append(
                {
                    "environment": name,
                    "config": summary.config,
                    "read_latency_ms": summary.read_latency_percentile(latency_percentile),
                    "write_latency_ms": summary.write_latency_percentile(latency_percentile),
                    "t_visibility_ms": summary.t_visibility(target_probability),
                    "consistency_at_commit": summary.probability_never_stale(),
                }
            )
    return rows
