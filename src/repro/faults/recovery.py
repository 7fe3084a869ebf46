"""Adaptive-recovery closed loop: hostile trace → online refits → convergence.

The scenario matrix (:mod:`repro.scenarios.divergence`) quantifies how far a
*static* predictor drifts when its latency assumptions are violated.  This
module closes the loop: it replays a hostile scenario run as a timeline of
per-leg W/A/R/S observations, streams them into a
:class:`~repro.serving.service.PredictorService` tenant in timed windows,
refits after each window, and measures how quickly the adaptive model's
consistency curve converges back onto the measured one.

The headline metric is ``recovered_fraction``: ``1 − adaptive/static`` mean
per-probe ``|Δp|`` against the measured consistency curve.  ``0`` means the
refits bought nothing; ``1`` means the adaptive model matches the measured
curve exactly.  ``windows_to_threshold`` reports how many ingest→refit
windows it took to cross a target fraction (the closed loop's "time to
recover").

Determinism
-----------
The measured side is :func:`run_scenario`'s own: the same
:func:`repro.analysis.blocks.run_blocks` runs the same
:func:`~repro.scenarios.divergence.scenario_block` on the same seeds, so the
simulated run here is bit-for-bit the one ``run_scenario(name, writes=…,
rng=…)`` measures.  Blocks run serially and each keeps its trace log.  The
R/S split draws come from the root seed's third child, consumed in trace
order across blocks, so the harvested sample stream is one seeded stream,
reproducible end to end; the fourth child seeds the serving stack.

Harvesting
----------
``W`` (coordinator → replica write delay) and ``A`` (replica → coordinator
ack delay) are read directly off the trace log.  The trace records a read's
*response arrival* only — the round trip ``R + S`` — so the combined sample
``T`` is split by a seeded uniform draw: ``R = U·T``, ``S = T − U·T``.  For
i.i.d. exponential legs this is exact (given ``R + S = T``, ``R`` is uniform
on ``[0, T]``); for other distributions it is an approximation, which is
itself realistic: a production measurement layer rarely sees one-way read
legs either.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.analysis.blocks import populated_bins, run_blocks
from repro.analytic.predictor import AnalyticPredictor
from repro.cluster.sampling import DEFAULT_DRAW_BATCH_SIZE
from repro.core.quorum import ReplicaConfig
from repro.exceptions import ScenarioError
from repro.scenarios.divergence import SCENARIO_BLOCK_WRITES, scenario_block
from repro.scenarios.registry import get_scenario
from repro.serving.service import PredictorService

__all__ = [
    "LegSample",
    "RecoveryWindow",
    "RecoveryTrajectory",
    "harvest_wars_observations",
    "run_adaptive_recovery",
]

#: Tenant name the closed loop registers on its service.
RECOVERY_TENANT = "adaptive"


@dataclass(frozen=True)
class LegSample:
    """One harvested per-leg latency observation on the global timeline.

    ``at_ms`` is the *global* simulated time the observation became visible
    at the coordinator (message arrival), which is when a real measurement
    layer could have recorded it — windows slice on this, not on operation
    start times.
    """

    leg: str
    at_ms: float
    value_ms: float


def harvest_wars_observations(
    trace_log,
    offset_ms: float = 0.0,
    split_rng: np.random.Generator | None = None,
) -> list[LegSample]:
    """Extract per-leg W/A/R/S samples from one block's trace log.

    Args:
        trace_log: A cluster's :class:`~repro.cluster.tracelog.ColumnarTraceLog`
            (read through its ``writes``/``reads`` row views).
        offset_ms: Added to every local timestamp, mapping this block onto
            the run's global timeline.
        split_rng: Generator for the R/S round-trip split draws (one uniform
            per read response, consumed in trace order).  Defaults to a fresh
            seeded generator, but callers wanting cross-block reproducibility
            should pass their own.
    """
    rng = np.random.default_rng(0) if split_rng is None else split_rng
    samples: list[LegSample] = []
    for write in trace_log.writes:
        start = write.started_ms
        arrivals = write.replica_arrivals_ms
        for replica, arrival in arrivals.items():
            samples.append(LegSample("W", offset_ms + arrival, arrival - start))
        for replica, ack in write.ack_arrivals_ms.items():
            arrival = arrivals.get(replica)
            if arrival is None:  # ack without a recorded arrival: lost trace
                continue
            samples.append(LegSample("A", offset_ms + ack, ack - arrival))
    for read in trace_log.reads:
        start = read.started_ms
        for replica, response in read.response_arrivals_ms.items():
            round_trip = response - start
            r_leg = float(rng.random()) * round_trip
            samples.append(LegSample("R", offset_ms + response, r_leg))
            samples.append(LegSample("S", offset_ms + response, round_trip - r_leg))
    return samples


@dataclass(frozen=True)
class RecoveryWindow:
    """One ingest→refit→re-measure step of the closed loop."""

    index: int
    start_ms: float
    end_ms: float
    samples: Mapping[str, int]
    fingerprint: str
    mean_abs_delta_p: float
    recovered_fraction: float

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "samples": dict(self.samples),
            "fingerprint": self.fingerprint,
            "mean_abs_delta_p": self.mean_abs_delta_p,
            "recovered_fraction": self.recovered_fraction,
        }


@dataclass(frozen=True)
class RecoveryTrajectory:
    """Divergence-vs-window curve for one adaptive-recovery run."""

    scenario: str
    config: ReplicaConfig
    writes: int
    observations: int
    harvested_samples: int
    static_mean_abs_delta_p: float
    recovery_threshold: float
    windows: tuple[RecoveryWindow, ...]
    windows_to_threshold: int | None

    @property
    def final_mean_abs_delta_p(self) -> float:
        return self.windows[-1].mean_abs_delta_p

    @property
    def final_recovered_fraction(self) -> float:
        return self.windows[-1].recovered_fraction

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "config": {"n": self.config.n, "r": self.config.r, "w": self.config.w},
            "writes": self.writes,
            "observations": self.observations,
            "harvested_samples": self.harvested_samples,
            "static_mean_abs_delta_p": self.static_mean_abs_delta_p,
            "recovery_threshold": self.recovery_threshold,
            "windows": [window.to_dict() for window in self.windows],
            "windows_to_threshold": self.windows_to_threshold,
            "final_mean_abs_delta_p": self.final_mean_abs_delta_p,
            "final_recovered_fraction": self.final_recovered_fraction,
        }

    def summary_lines(self) -> list[str]:
        reached = (
            "never reached"
            if self.windows_to_threshold is None
            else f"window {self.windows_to_threshold}/{len(self.windows)}"
        )
        lines = [
            f"scenario: {self.scenario} ({self.config.label()})",
            f"harvested samples: {self.harvested_samples} "
            f"from {self.observations} staleness observations",
            f"static model mean |delta p|: {self.static_mean_abs_delta_p * 100:.2f}%",
            f"threshold ({self.recovery_threshold:.0%} recovered): {reached}",
        ]
        for window in self.windows:
            lines.append(
                f"  window {window.index}: mean |delta p| "
                f"{window.mean_abs_delta_p * 100:.2f}% "
                f"({window.recovered_fraction:+.0%} recovered)"
            )
        return lines


def run_adaptive_recovery(
    name: str = "gray-failure",
    writes: int = 2_000,
    config: ReplicaConfig | None = None,
    windows: int = 8,
    recovery_threshold: float = 0.5,
    bin_width_ms: float = 5.0,
    block_writes: int = SCENARIO_BLOCK_WRITES,
    draw_batch_size: int = DEFAULT_DRAW_BATCH_SIZE,
    refit_method: str = "empirical",
    reservoir_capacity: int = 8_192,
    rng: np.random.Generator | int | None = 0,
    service: PredictorService | None = None,
) -> RecoveryTrajectory:
    """Run the closed loop on one scenario and report its recovery curve.

    The hostile run is simulated block-by-block (the measured side is
    bit-for-bit :func:`~repro.scenarios.divergence.run_scenario`'s for the
    same ``rng``), its trace is harvested into a globally-timestamped
    observation stream, and the stream is replayed through a serving tenant
    in ``windows`` equal time slices: ingest the slice, refit, and score the
    refitted analytic curve against the measured consistency curve.

    Args:
        name: Registered scenario to run (any scenario works; fault-plan
            scenarios are the motivating case).
        windows: Number of equal-width ingest→refit windows.
        recovery_threshold: Recovered fraction that counts as "recovered"
            for ``windows_to_threshold``.
        service: Optional pre-configured service (must not already have a
            tenant named ``"adaptive"``); by default a fresh one is built
            with ``refit_method``/``reservoir_capacity`` and auto-refit off
            (the loop refits explicitly at window boundaries).
    """
    scenario = get_scenario(name)
    if config is None:
        config = ReplicaConfig(n=3, r=1, w=1)
    if windows < 1:
        raise ScenarioError(f"at least one window is required, got {windows}")
    if not 0.0 < recovery_threshold < 1.0:
        raise ScenarioError(
            f"recovery threshold must be in (0, 1), got {recovery_threshold}"
        )

    # --- Measured side: run_scenario's blocks, each keeping its trace log. ---
    run = run_blocks(
        functools.partial(
            scenario_block,
            scenario_name=scenario.name,
            config=config,
            draw_batch_size=draw_batch_size,
            extract=operator.attrgetter("trace_log"),
        ),
        writes=writes,
        block_writes=block_writes,
        rng=rng,
        workers=1,
        error=ScenarioError,
    )
    if not len(run.frame):
        raise ScenarioError(f"scenario {name!r} produced no staleness observations")
    split_seed, service_seed = run.root.spawn(2)
    split_rng = np.random.default_rng(split_seed)
    samples: list[LegSample] = []
    offset_ms = 0.0
    for size, trace_log in zip(run.sizes, run.extras):
        samples.extend(harvest_wars_observations(trace_log, offset_ms, split_rng))
        offset_ms += size * scenario.write_interval_ms
    if not samples:
        raise ScenarioError(f"scenario {name!r} produced no harvestable leg samples")

    # --- Measured consistency curve at populated bins (run_scenario's). ---
    centers, measured_curve = populated_bins(run.frame, bin_width_ms, ScenarioError)
    probe_ts = [max(center, 0.0) for center in centers]
    measured = np.asarray(measured_curve)

    # --- Static baseline: the unmutated analytic model's divergence. ---
    base = scenario.base_distributions()
    static_result = AnalyticPredictor(distributions=base).result(config)
    static_curve = np.asarray(
        [static_result.consistency_probability(t) for t in probe_ts]
    )
    static_mean = float(np.mean(np.abs(static_curve - measured)))
    if static_mean <= 0.0:
        raise ScenarioError(
            f"scenario {name!r} has zero static divergence; nothing to recover"
        )

    # --- Serving side: ingest windows, refit, re-score. ---
    if service is None:
        service = PredictorService(
            refit_every=None,
            refit_method=refit_method,
            reservoir_capacity=reservoir_capacity,
            seed=int(service_seed.generate_state(1)[0]),
        )
    if RECOVERY_TENANT in service.tenants():
        raise ScenarioError(
            f"service already has a tenant named {RECOVERY_TENANT!r}"
        )
    service.register_tenant(RECOVERY_TENANT, base)

    samples.sort(key=lambda sample: sample.at_ms)
    total_ms = max(offset_ms, samples[-1].at_ms)
    window_ms = total_ms / windows
    recovery_windows: list[RecoveryWindow] = []
    threshold_window: int | None = None
    cursor = 0
    for index in range(1, windows + 1):
        start_ms = (index - 1) * window_ms
        end_ms = index * window_ms
        window_values: dict[str, list[float]] = {}
        # The final window's right edge is inclusive: the workload drain can
        # place the last arrivals exactly at (or past) the nominal horizon.
        while cursor < len(samples) and (
            samples[cursor].at_ms < end_ms or index == windows
        ):
            sample = samples[cursor]
            window_values.setdefault(sample.leg, []).append(sample.value_ms)
            cursor += 1
        for leg, values in sorted(window_values.items()):
            service.ingest(RECOVERY_TENANT, leg, values)
        fingerprint = service.refit(RECOVERY_TENANT)
        adaptive_curve = np.asarray(
            service.consistency_probabilities(RECOVERY_TENANT, config, probe_ts)
        )
        adaptive_mean = float(np.mean(np.abs(adaptive_curve - measured)))
        recovered = 1.0 - adaptive_mean / static_mean
        if threshold_window is None and recovered >= recovery_threshold:
            threshold_window = index
        recovery_windows.append(
            RecoveryWindow(
                index=index,
                start_ms=start_ms,
                end_ms=end_ms,
                samples={leg: len(values) for leg, values in sorted(window_values.items())},
                fingerprint=fingerprint,
                mean_abs_delta_p=adaptive_mean,
                recovered_fraction=recovered,
            )
        )

    return RecoveryTrajectory(
        scenario=scenario.name,
        config=config,
        writes=writes,
        observations=len(run.frame),
        harvested_samples=len(samples),
        static_mean_abs_delta_p=static_mean,
        recovery_threshold=float(recovery_threshold),
        windows=tuple(recovery_windows),
        windows_to_threshold=threshold_window,
    )
