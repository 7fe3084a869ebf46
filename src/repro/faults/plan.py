"""Declarative fault plans: gray failures and correlated latency bursts.

The scenario registry (:mod:`repro.scenarios`) mutates clusters through the
seams :class:`~repro.cluster.store.DynamoCluster` already exposes — dead
links, lost messages, crashed nodes.  Two failure modes lie outside those
seams, because each changes how long a message takes rather than whether it
arrives: *gray failures*, where a replica is slow but alive, and *correlated
bursts*, where latencies stop being i.i.d. and arrive in epochs.  A
:class:`FaultPlan` describes those conditions declaratively:

* :class:`GrayFailure` — a per-node latency multiplier (plus optional tail
  inflation) active on a deterministic schedule, optionally periodic.
* :class:`BurstProcess` — a seeded Markov-modulated ON/OFF state machine
  whose ON epochs multiply latencies, producing correlated non-i.i.d. runs.

Plans are frozen, validated, and picklable, so a scenario can carry one in
its ``cluster_kwargs`` and sharded workers can rebuild identical per-cluster
runtimes from it (see :mod:`repro.faults.runtime`).  The determinism
contract: a plan only *modulates* values already drawn from the network's
batched buffers — it never consumes draws of its own — so a modulated run
consumes exactly as many generator draws as an unmodulated one and the
serial ≡ sharded bit-for-bit guarantee survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = ["WARS_LEGS", "GrayFailure", "BurstProcess", "FaultPlan"]

#: The four one-way message legs a fault can target: coordinator→replica
#: write (``W``), replica→coordinator ack (``A``), coordinator→replica read
#: request (``R``), replica→coordinator read response (``S``).
WARS_LEGS: tuple[str, ...] = ("W", "A", "R", "S")


def _validate_legs(legs: tuple[str, ...], owner: str) -> None:
    if not legs:
        raise ConfigurationError(f"{owner} must target at least one WARS leg")
    unknown = [leg for leg in legs if leg not in WARS_LEGS]
    if unknown:
        raise ConfigurationError(
            f"{owner} legs must be drawn from {WARS_LEGS}, got {unknown}"
        )
    if len(set(legs)) != len(legs):
        raise ConfigurationError(f"{owner} legs must be unique, got {legs}")


@dataclass(frozen=True)
class GrayFailure:
    """A slow-but-alive condition: latency inflation on a schedule.

    While active, every targeted draw is multiplied by ``multiplier``; draws
    that exceed ``tail_threshold_ms`` (pre-multiplication) are additionally
    multiplied by ``tail_multiplier``, modelling the long-tail inflation gray
    failures show in practice (degraded disks, GC pauses) without changing
    the body of the distribution.

    The schedule is expressed in absolute simulated milliseconds.  With
    ``period_ms`` set, the window ``[start_ms, start_ms + duration_ms)``
    repeats every period — since the divergence harness runs every block from
    ``t = 0``, a periodic schedule makes each block (and therefore serial and
    sharded runs alike) experience the same pattern.
    """

    #: Node ids whose legs are affected; empty = every node.
    nodes: tuple[str, ...] = ()
    #: Multiplier applied to every targeted draw while active.
    multiplier: float = 1.0
    #: Window start (absolute simulated ms).
    start_ms: float = 0.0
    #: Window length; ``None`` = active forever once started.
    duration_ms: float | None = None
    #: Repeat the window every ``period_ms``; ``None`` = one-shot.
    period_ms: float | None = None
    #: WARS legs affected.
    legs: tuple[str, ...] = WARS_LEGS
    #: Draws above this (pre-multiplication) get the extra tail multiplier.
    tail_threshold_ms: float | None = None
    #: Extra multiplier for above-threshold draws.
    tail_multiplier: float = 1.0

    def __post_init__(self) -> None:
        _validate_legs(tuple(self.legs), "GrayFailure")
        if self.multiplier <= 0.0 or not math.isfinite(self.multiplier):
            raise ConfigurationError(
                f"gray-failure multiplier must be positive and finite, got {self.multiplier}"
            )
        if self.start_ms < 0.0:
            raise ConfigurationError(
                f"gray-failure start must be non-negative, got {self.start_ms}"
            )
        if self.duration_ms is not None and self.duration_ms <= 0.0:
            raise ConfigurationError(
                f"gray-failure duration must be positive, got {self.duration_ms}"
            )
        if self.period_ms is not None:
            if self.duration_ms is None:
                raise ConfigurationError(
                    "a periodic gray failure needs a finite duration_ms"
                )
            if self.period_ms < self.duration_ms:
                raise ConfigurationError(
                    f"gray-failure period {self.period_ms} must be >= duration "
                    f"{self.duration_ms}"
                )
        if self.tail_multiplier <= 0.0 or not math.isfinite(self.tail_multiplier):
            raise ConfigurationError(
                f"tail multiplier must be positive and finite, got {self.tail_multiplier}"
            )
        if self.tail_threshold_ms is not None and self.tail_threshold_ms < 0.0:
            raise ConfigurationError(
                f"tail threshold must be non-negative, got {self.tail_threshold_ms}"
            )

    def active_at(self, now_ms: float) -> bool:
        """Whether the schedule is in an active window at ``now_ms``."""
        if now_ms < self.start_ms:
            return False
        if self.period_ms is not None:
            phase = (now_ms - self.start_ms) % self.period_ms
            return phase < self.duration_ms  # type: ignore[operator]
        if self.duration_ms is None:
            return True
        return now_ms < self.start_ms + self.duration_ms


@dataclass(frozen=True)
class BurstProcess:
    """A seeded Markov-modulated ON/OFF latency burst process.

    The process alternates OFF and ON epochs with exponentially distributed
    durations (means ``mean_off_ms`` / ``mean_on_ms``), drawn from a private
    generator seeded by ``seed`` — the epochs never touch the cluster's
    shared generator, so adding a burst process leaves every other random
    stream bit-for-bit unchanged.  While ON, targeted draws are multiplied by
    ``on_multiplier``; consecutive messages therefore see *correlated* slow
    periods rather than i.i.d. noise.
    """

    #: Seed for the private epoch generator (deterministic per plan).
    seed: int = 0
    #: Latency multiplier during ON epochs.
    on_multiplier: float = 4.0
    #: Mean ON-epoch length (ms).
    mean_on_ms: float = 1_000.0
    #: Mean OFF-epoch length (ms).
    mean_off_ms: float = 4_000.0
    #: WARS legs affected.
    legs: tuple[str, ...] = WARS_LEGS
    #: Node ids affected; empty = every node.
    nodes: tuple[str, ...] = ()
    #: Start in the ON state instead of OFF.
    start_on: bool = False

    def __post_init__(self) -> None:
        _validate_legs(tuple(self.legs), "BurstProcess")
        if self.on_multiplier <= 0.0 or not math.isfinite(self.on_multiplier):
            raise ConfigurationError(
                f"burst multiplier must be positive and finite, got {self.on_multiplier}"
            )
        for label, value in (("mean_on_ms", self.mean_on_ms), ("mean_off_ms", self.mean_off_ms)):
            if value <= 0.0 or not math.isfinite(value):
                raise ConfigurationError(
                    f"burst {label} must be positive and finite, got {value}"
                )


@dataclass(frozen=True)
class FaultPlan:
    """A named bundle of gray failures and burst processes.

    The plan is pure data: per-cluster mutable state (burst epoch machines)
    lives in :class:`~repro.faults.runtime.FaultRuntime`, built fresh by each
    :class:`~repro.cluster.network.Network` so blocks and worker processes
    never share modulation state.
    """

    name: str = "fault-plan"
    gray_failures: tuple[GrayFailure, ...] = ()
    bursts: tuple[BurstProcess, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("fault plans need a non-empty name")
        if not self.gray_failures and not self.bursts:
            raise ConfigurationError(
                f"fault plan {self.name!r} is empty: add at least one "
                "GrayFailure or BurstProcess"
            )
        for item in self.gray_failures:
            if not isinstance(item, GrayFailure):
                raise ConfigurationError(
                    f"gray_failures must contain GrayFailure instances, got {item!r}"
                )
        for item in self.bursts:
            if not isinstance(item, BurstProcess):
                raise ConfigurationError(
                    f"bursts must contain BurstProcess instances, got {item!r}"
                )

    def describe(self) -> str:
        """One-line human summary (used by CLI/scenario descriptions)."""
        parts = [
            f"{len(self.gray_failures)} gray failure(s)",
            f"{len(self.bursts)} burst process(es)",
        ]
        return f"{self.name}: " + ", ".join(parts)
