"""Replica/quorum configuration value objects.

Throughout the paper (and in Dynamo-style stores), a key's replication is
described by three integers: ``N`` (replication factor), ``R`` (read quorum
size: replica responses required before a read returns), and ``W`` (write
quorum size: acknowledgements required before a write commits).

:class:`ReplicaConfig` is the immutable value object used across the library.
It validates configurations, classifies them as strict (``R + W > N``) or
partial, and exposes the common textbook variants (majority quorums, the
Cassandra / Riak defaults surveyed in §2.3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from numbers import Integral
from typing import Iterator

from repro.exceptions import ConfigurationError

__all__ = ["ReplicaConfig", "iter_configs", "CASSANDRA_DEFAULT", "RIAK_DEFAULT"]


@dataclass(frozen=True, order=True)
class ReplicaConfig:
    """An (N, R, W) replication configuration for a single quorum system.

    Attributes
    ----------
    n:
        Replication factor — the number of replicas holding each key.
    r:
        Read quorum size — replica responses required before a read returns.
    w:
        Write quorum size — replica acknowledgements required before a write
        is considered committed.
    """

    n: int
    r: int
    w: int

    def __post_init__(self) -> None:
        for name, value in (("N", self.n), ("R", self.r), ("W", self.w)):
            if not isinstance(value, Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise ConfigurationError(f"replication factor N must be >= 1, got {self.n}")
        if not 1 <= self.r <= self.n:
            raise ConfigurationError(
                f"read quorum R must satisfy 1 <= R <= N ({self.n}), got {self.r}"
            )
        if not 1 <= self.w <= self.n:
            raise ConfigurationError(
                f"write quorum W must satisfy 1 <= W <= N ({self.n}), got {self.w}"
            )

    # ------------------------------------------------------------------
    # Classification helpers.
    # ------------------------------------------------------------------
    @property
    def is_strict(self) -> bool:
        """True when read and write quorums must intersect (``R + W > N``)."""
        return self.r + self.w > self.n

    @property
    def is_partial(self) -> bool:
        """True for partial (non-strict) quorums (``R + W <= N``)."""
        return not self.is_strict

    @property
    def tolerates_concurrent_writes(self) -> bool:
        """True when ``W > N/2``, so two concurrent writes cannot both commit
        to disjoint majorities (paper §2.2)."""
        return 2 * self.w > self.n

    @property
    def read_fault_tolerance(self) -> int:
        """Number of replica failures a read can tolerate and still form a quorum."""
        return self.n - self.r

    @property
    def write_fault_tolerance(self) -> int:
        """Number of replica failures a write can tolerate and still commit."""
        return self.n - self.w

    # ------------------------------------------------------------------
    # Constructors for the configurations surveyed in §2.3.
    # ------------------------------------------------------------------
    @classmethod
    def majority(cls, n: int) -> "ReplicaConfig":
        """Majority quorum: R = W = ceil((N + 1) / 2), always strict."""
        quorum = n // 2 + 1
        return cls(n=n, r=quorum, w=quorum)

    @classmethod
    def one_one(cls, n: int = 3) -> "ReplicaConfig":
        """R = W = 1 — the "maximum performance" partial quorum (Cassandra default)."""
        return cls(n=n, r=1, w=1)

    def with_r(self, r: int) -> "ReplicaConfig":
        """Return a copy with a different read quorum size."""
        return ReplicaConfig(n=self.n, r=r, w=self.w)

    def with_w(self, w: int) -> "ReplicaConfig":
        """Return a copy with a different write quorum size."""
        return ReplicaConfig(n=self.n, r=self.r, w=w)

    def with_n(self, n: int) -> "ReplicaConfig":
        """Return a copy with a different replication factor (R, W unchanged)."""
        return ReplicaConfig(n=n, r=self.r, w=self.w)

    def label(self) -> str:
        """Short label used in tables and figures, e.g. ``N=3 R=1 W=2``."""
        return f"N={self.n} R={self.r} W={self.w}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label()


def iter_configs(n: int, include_strict: bool = True) -> Iterator[ReplicaConfig]:
    """Iterate over every (R, W) configuration for replication factor ``n``.

    The paper's SLA search space (§6) is exactly this ``O(N^2)`` set.  Set
    ``include_strict=False`` to iterate only over partial quorums.
    """
    if n < 1:
        raise ConfigurationError(f"replication factor N must be >= 1, got {n}")
    for r, w in product(range(1, n + 1), repeat=2):
        config = ReplicaConfig(n=n, r=r, w=w)
        if include_strict or config.is_partial:
            yield config


#: Cassandra 1.0 default configuration (§2.3): N=3, R=W=1.
CASSANDRA_DEFAULT = ReplicaConfig(n=3, r=1, w=1)

#: Riak default configuration (§2.3): N=3, R=W=2.
RIAK_DEFAULT = ReplicaConfig(n=3, r=2, w=2)
