"""Message types exchanged between coordinators and replicas.

Each message type corresponds to one leg of the WARS model (§4.1):

* :class:`WriteRequest` — the ``W`` leg (coordinator → replica),
* :class:`WriteAck` — the ``A`` leg (replica → coordinator),
* :class:`ReadRequest` — the ``R`` leg (coordinator → replica),
* :class:`ReadResponse` — the ``S`` leg (replica → coordinator),

plus the anti-entropy messages (:class:`RepairWrite`, :class:`HintedWrite`,
:class:`SyncDigest`) that are *outside* WARS and therefore disabled in the
validation experiments but available for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.versioning import VersionedValue

__all__ = [
    "WriteRequest",
    "WriteAck",
    "ReadRequest",
    "ReadResponse",
    "RepairWrite",
    "HintedWrite",
    "SyncDigest",
]

@dataclass(frozen=True)
class WriteRequest:
    """Coordinator → replica: store this version (the WARS ``W`` leg)."""

    operation_id: int
    replica: str
    payload: VersionedValue
    sent_at_ms: float


@dataclass(frozen=True)
class WriteAck:
    """Replica → coordinator: the version was durably applied (the ``A`` leg)."""

    operation_id: int
    replica: str
    applied_at_ms: float


@dataclass(frozen=True)
class ReadRequest:
    """Coordinator → replica: return your newest version of ``key`` (the ``R`` leg)."""

    operation_id: int
    replica: str
    key: str
    sent_at_ms: float


@dataclass(frozen=True)
class ReadResponse:
    """Replica → coordinator: the replica's current version, if any (the ``S`` leg)."""

    operation_id: int
    replica: str
    key: str
    payload: Optional[VersionedValue]
    replied_at_ms: float


@dataclass(frozen=True)
class RepairWrite:
    """Coordinator → replica: read-repair push of a newer version (anti-entropy)."""

    operation_id: int
    replica: str
    payload: VersionedValue
    sent_at_ms: float


@dataclass(frozen=True)
class HintedWrite:
    """Coordinator → fallback replica: write held on behalf of a failed replica."""

    operation_id: int
    intended_replica: str
    holder: str
    payload: VersionedValue
    sent_at_ms: float


@dataclass(frozen=True)
class SyncDigest:
    """Replica → replica: Merkle-tree digest exchanged during active anti-entropy."""

    sender: str
    receiver: str
    root_hash: str
    key_range: tuple[str, str] = field(default=("", "￿"))
    sent_at_ms: float = 0.0
