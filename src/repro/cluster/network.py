"""Network delay model for the cluster simulator.

The simulator's message delays are drawn from the same
:class:`~repro.latency.production.WARSDistributions` objects used by the
analytical Monte Carlo model, which is what makes the §5.2 validation an
apples-to-apples comparison: both the simulator and the predictor consume the
identical latency model, and any disagreement is due to protocol behaviour
rather than different inputs.

Message loss and partitions are modelled here as well so failure ablations
do not need to touch the coordinator logic.

Delay sampling is batched: each distinct underlying distribution gets a
:class:`~repro.cluster.sampling.LatencyDrawBuffer` that refills
``draw_batch_size`` values at a time from the shared generator, replacing the
one-numpy-call-per-message hot path (see :mod:`repro.cluster.sampling` for
the determinism contract).  ``draw_batch_size=1`` reproduces the legacy
per-draw seed stream exactly.

An optional :class:`~repro.faults.plan.FaultPlan` modulates drawn delays on a
time-varying schedule (gray failures, correlated bursts).  Modulation is pure
arithmetic on the already-drawn value — it never consumes draws — so fault
plans compose with the batching contract without perturbing any stream.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cluster.sampling import (
    DEFAULT_DRAW_BATCH_SIZE,
    LatencyDrawBuffer,
    UniformDrawBuffer,
)
from repro.exceptions import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.faults.runtime import FaultRuntime
from repro.latency.base import LatencyDistribution
from repro.latency.composite import PerReplicaLatency
from repro.latency.production import WARSDistributions

__all__ = ["Network"]


class _DrawTable(dict):
    """Per-replica draw sources for one WARS leg, resolved on first use.

    A hit is a C-level dict lookup.  The table refers to its network through
    a weak proxy: the network holds its tables, and a strong reference back
    would make every network a reference cycle.
    """

    __slots__ = ("_network", "_leg")

    def __init__(self, network: "Network", leg: str) -> None:
        super().__init__()
        self._network = weakref.proxy(network)
        self._leg = leg

    def __missing__(self, replica: str) -> Callable[[], float]:
        source = self[replica] = self._network._draw_source(self._leg, replica)
        return source


@dataclass
class Network:
    """Samples one-way message delays and applies loss/partition policies.

    Parameters
    ----------
    distributions:
        The WARS one-way latency distributions.
    rng:
        Random generator shared with the simulator.
    replica_slots:
        Maps replica node ids to slot indices for per-replica distributions
        (the WAN scenario).  Optional for IID distributions.
    loss_probability:
        Independent probability that any one-way message is dropped.
    draw_batch_size:
        Latency draws buffered per distribution between generator refills.
        ``1`` disables batching and reproduces the legacy per-message
        ``sample(1, rng)`` stream bit-for-bit.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` whose gray failures
        and burst processes modulate drawn delays on a time-varying schedule.
        Modulation is applied *after* the buffered draw, so it never changes
        how many generator draws are consumed (see
        :mod:`repro.faults.runtime`).  Requires ``clock``.
    clock:
        The simulator's clock (any object with a ``now_ms`` attribute); only
        needed when ``fault_plan`` is set.
    """

    distributions: WARSDistributions
    rng: np.random.Generator
    replica_slots: dict[str, int] = field(default_factory=dict)
    loss_probability: float = 0.0
    draw_batch_size: int = DEFAULT_DRAW_BATCH_SIZE
    _partitioned: set[frozenset[str]] = field(default_factory=set, repr=False)
    dropped_messages: int = 0
    fault_plan: FaultPlan | None = None
    clock: object | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability < 1.0:
            raise ConfigurationError(
                f"loss probability must be in [0, 1), got {self.loss_probability}"
            )
        if self.draw_batch_size < 1:
            raise ConfigurationError(
                f"draw batch size must be a positive integer, got {self.draw_batch_size}"
            )
        # One buffer per distinct distribution object: legs sharing a
        # distribution (e.g. A=R=S in the §5.2 validation) share its buffer,
        # consuming draws in message order.  Keyed by id() — the distribution
        # objects are pinned by self.distributions for the network's lifetime.
        self._buffers: dict[int, LatencyDrawBuffer] = {}
        self._loss_buffer: UniformDrawBuffer | None = None
        #: Per-leg draw sources, ``write_draws[replica]()`` being the next
        #: W-leg delay for ``replica``.  The per-replica resolution (slot
        #: validation, buffer lookup, fault modulation) runs once per (leg,
        #: replica); hot paths index these tables and call the source, one
        #: Python frame per draw.
        self.write_draws = _DrawTable(self, "W")
        self.ack_draws = _DrawTable(self, "A")
        self.read_draws = _DrawTable(self, "R")
        self.response_draws = _DrawTable(self, "S")
        self._update_may_drop()
        if self.fault_plan is not None:
            if self.clock is None:
                raise ConfigurationError(
                    "a fault plan needs the simulator clock; pass clock= "
                    "(DynamoCluster wires this automatically)"
                )
            self._fault_runtime: FaultRuntime | None = FaultRuntime(
                self.fault_plan, self.clock
            )
        else:
            self._fault_runtime = None

    # ------------------------------------------------------------------
    # Delay sampling.
    # ------------------------------------------------------------------
    def _buffer_for(self, distribution: LatencyDistribution) -> LatencyDrawBuffer:
        buffer = self._buffers.get(id(distribution))
        if buffer is None:
            buffer = LatencyDrawBuffer(distribution, self.rng, self.draw_batch_size)
            self._buffers[id(distribution)] = buffer
        return buffer

    def _resolve(
        self, distribution: LatencyDistribution, replica: str
    ) -> LatencyDrawBuffer:
        """Resolve a leg distribution for one replica to its shared draw buffer."""
        if isinstance(distribution, PerReplicaLatency):
            slot = self.replica_slots.get(replica)
            if slot is None:
                raise ConfigurationError(
                    f"replica {replica!r} has no slot assignment for per-replica latencies"
                )
            if not 0 <= slot < distribution.replica_count:
                raise ConfigurationError(
                    f"replica {replica!r} slot {slot} outside per-replica distribution "
                    f"of size {distribution.replica_count}"
                )
            distribution = distribution.replicas[slot]
        return self._buffer_for(distribution)

    def _draw_source(self, leg: str, replica: str) -> Callable[[], float]:
        """A zero-argument callable drawing the next ``leg`` delay for ``replica``.

        Holds no reference to the network, which holds the tables that
        cache these sources.
        """
        draw = self._resolve(getattr(self.distributions, leg.lower()), replica).draw
        runtime = self._fault_runtime
        if runtime is None:
            return draw
        modulate = runtime.modulate
        return lambda: modulate(leg, replica, draw())

    @property
    def draw_refills(self) -> int:
        """Total buffer refills so far (instrumentation for tests/benchmarks)."""
        return sum(buffer.refills for buffer in self._buffers.values())

    @property
    def draws_consumed(self) -> int:
        """Latency draws served so far across every buffer.

        This is the quantity the fault-plan draw-accounting contract pins:
        modulation rescales values *after* they are drawn, so a run with a
        fault plan consumes exactly as many draws (and triggers exactly as
        many refills) as the same run without one.
        """
        return sum(
            buffer.refills * buffer.batch_size - buffer.pending
            for buffer in self._buffers.values()
        )

    @property
    def fault_runtime(self) -> FaultRuntime | None:
        """The plan's per-cluster runtime (``None`` without a fault plan)."""
        return self._fault_runtime

    def write_delay(self, replica: str) -> float:
        """One-way delay for the coordinator → replica write message (``W``)."""
        return self.write_draws[replica]()

    def ack_delay(self, replica: str) -> float:
        """One-way delay for the replica → coordinator acknowledgement (``A``)."""
        return self.ack_draws[replica]()

    def read_delay(self, replica: str) -> float:
        """One-way delay for the coordinator → replica read request (``R``)."""
        return self.read_draws[replica]()

    def response_delay(self, replica: str) -> float:
        """One-way delay for the replica → coordinator read response (``S``)."""
        return self.response_draws[replica]()

    # ------------------------------------------------------------------
    # Loss and partitions.
    # ------------------------------------------------------------------
    def partition(self, side_a: str, side_b: str) -> None:
        """Drop all messages between two endpoints until :meth:`heal` is called."""
        self._partitioned.add(frozenset((side_a, side_b)))
        self._update_may_drop()

    def heal(self, side_a: str, side_b: str) -> None:
        """Remove a previously installed partition (no-op if absent)."""
        self._partitioned.discard(frozenset((side_a, side_b)))
        self._update_may_drop()

    def heal_all(self) -> None:
        """Remove every partition."""
        self._partitioned.clear()
        self._update_may_drop()

    def _update_may_drop(self) -> None:
        #: True when delivery decisions can drop messages.  Hot paths read
        #: this attribute and call :meth:`delivers` only when it is set, so
        #: lossless partition-free runs never pay the per-message delivery
        #: check.  The loss probability is fixed at construction; every
        #: partition change refreshes it.
        self.may_drop = bool(self._partitioned) or self.loss_probability > 0.0

    def delivers(self, sender: str, receiver: str) -> bool:
        """Decide whether a message between two endpoints is delivered.

        The decision never consumes latency draws: loss coin flips come from
        a dedicated uniform buffer, so dropped messages leave the latency
        streams untouched (see :mod:`repro.cluster.sampling`).
        """
        if not self._partitioned and not self.loss_probability:
            # Fast path for the common lossless, partition-free runs: no
            # frozenset allocation, no RNG consumption.
            return True
        if self._partitioned and frozenset((sender, receiver)) in self._partitioned:
            self.dropped_messages += 1
            return False
        if self.loss_probability:
            if self._loss_buffer is None:
                self._loss_buffer = UniformDrawBuffer(self.rng, self.draw_batch_size)
            if self._loss_buffer.draw() < self.loss_probability:
                self.dropped_messages += 1
                return False
        return True
