"""Operation streams: read/write mixes over keys and time.

An :class:`Operation` is a fully specified request (kind, key, value, start
time).  :class:`MixedWorkload` combines a key chooser, an arrival process, and
a read fraction into a reproducible operation stream, which the cluster's
:class:`~repro.cluster.client.WorkloadRunner` can schedule directly.

The :func:`validation_workload` helper reproduces the §5.2 methodology: insert
increasing versions of a single key at a fixed cadence while issuing
concurrent reads at controlled offsets after each write.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import WorkloadError
from repro.latency.base import as_rng
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.keys import KeyChooser

__all__ = ["OperationKind", "Operation", "MixedWorkload", "validation_workload"]


class OperationKind(Enum):
    """The two operation types of a key-value store."""

    READ = "read"
    WRITE = "write"

    def __lt__(self, other: object) -> bool:
        # Keeps Operation's field-tuple ordering total when start times tie
        # (e.g. a read offset equal to the write interval).
        if isinstance(other, OperationKind):
            return self.value < other.value
        return NotImplemented


@dataclass(frozen=True, order=True)
class Operation:
    """A single request in a workload, ordered by start time."""

    start_ms: float
    kind: OperationKind
    key: str
    value: object = None

    def __post_init__(self) -> None:
        if self.start_ms < 0:
            raise WorkloadError(f"operation start time must be non-negative, got {self.start_ms}")


@dataclass(frozen=True)
class MixedWorkload:
    """A read/write mix over a keyspace with a configurable arrival process.

    Attributes
    ----------
    keys:
        Key chooser (uniform, Zipfian, hotspot, single-key, …).
    arrivals:
        Arrival process generating operation start times.
    read_fraction:
        Fraction of operations that are reads (0.6 reproduces the LinkedIn
        60/40 read/read-modify-write mix quoted in §5.4).
    """

    keys: KeyChooser
    arrivals: ArrivalProcess
    read_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise WorkloadError(
                f"read fraction must be in [0, 1], got {self.read_fraction}"
            )

    def generate(
        self,
        horizon_ms: float,
        rng: np.random.Generator | int | None = None,
        start_ms: float = 0.0,
    ) -> list[Operation]:
        """Generate the operation stream for a simulated time window."""
        generator = as_rng(rng)
        times = self.arrivals.times(horizon_ms, generator, start_ms=start_ms)
        operations: list[Operation] = []
        for sequence, time_ms in enumerate(times):
            is_read = generator.random() < self.read_fraction
            key = self.keys.choose(generator)
            if is_read:
                operations.append(
                    Operation(start_ms=float(time_ms), kind=OperationKind.READ, key=key)
                )
            else:
                operations.append(
                    Operation(
                        start_ms=float(time_ms),
                        kind=OperationKind.WRITE,
                        key=key,
                        value=f"value-{sequence}",
                    )
                )
        return operations

    def stream(
        self,
        horizon_ms: float,
        rng: np.random.Generator | int | None = None,
    ) -> Iterator[Operation]:
        """Iterator variant of :meth:`generate` for very long workloads."""
        yield from self.generate(horizon_ms, rng)


def validation_workload(
    key: str,
    writes: int,
    write_interval_ms: float,
    read_offsets_ms: Sequence[float],
    start_ms: float = 0.0,
) -> list[Operation]:
    """Build the §5.2 validation workload.

    Writes increasing versions of ``key`` every ``write_interval_ms``
    milliseconds.  After each write, issues one read per requested offset,
    measured from the write's *start* time (commit-relative offsets are
    recovered later from the traces).  The offsets should be smaller than the
    write interval so each read races exactly one write, matching the paper's
    methodology of overwriting a single key while concurrently reading it.

    Operations are built already in :class:`Operation` order — start time,
    with reads at a write's own start time ahead of it — so no sort is needed.
    """
    if writes < 1:
        raise WorkloadError(f"at least one write is required, got {writes}")
    if write_interval_ms <= 0:
        raise WorkloadError(f"write interval must be positive, got {write_interval_ms}")
    if not read_offsets_ms:
        raise WorkloadError("at least one read offset is required")
    if min(read_offsets_ms) < 0:
        raise WorkloadError("read offsets must be non-negative")
    if max(read_offsets_ms) >= write_interval_ms:
        raise WorkloadError(
            "read offsets must be smaller than the write interval so reads race "
            "exactly one write"
        )

    offsets = sorted(float(offset) for offset in read_offsets_ms)
    read, write = OperationKind.READ, OperationKind.WRITE
    operations: list[Operation] = []
    for index in range(writes):
        write_time = start_ms + index * write_interval_ms
        reads = [Operation(write_time + offset, read, key) for offset in offsets]
        # Reads at the write's own start time sort before it (READ < WRITE).
        concurrent = sum(1 for operation in reads if operation.start_ms == write_time)
        operations.extend(reads[:concurrent])
        operations.append(Operation(write_time, write, key, f"version-{index}"))
        operations.extend(reads[concurrent:])
    return operations
