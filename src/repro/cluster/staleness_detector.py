"""Asynchronous staleness detection (paper §4.3).

Dynamo-style coordinators wait for ``R`` of ``N`` responses but the remaining
replicas still reply.  Comparing those late responses against the version the
coordinator already returned yields an *asynchronous* staleness signal:

* A late response with a **newer** version means either the read returned
  stale data, or there were in-flight / subsequently committed writes — i.e. a
  detector with false positives that needs no protocol changes.
* Filtering those candidates through a commit-order oracle (here, the trace
  log, playing the role of the centralised ordering service or consensus the
  paper suggests) removes the false positives and leaves only true staleness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.tracelog import ColumnarReadTrace, ColumnarTraceLog
from repro.cluster.versioning import Version

__all__ = ["StalenessSignal", "StalenessDetector"]


@dataclass(frozen=True)
class StalenessSignal:
    """A per-read staleness verdict from the asynchronous detector."""

    operation_id: int
    key: str
    returned_version: Optional[Version]
    newest_late_version: Optional[Version]
    #: Raw detector verdict (may be a false positive).
    flagged: bool
    #: Verdict after consulting the commit-order oracle (no false positives).
    confirmed_stale: bool


@dataclass
class StalenessDetector:
    """Evaluates completed reads against their late responses and the commit order."""

    trace_log: ColumnarTraceLog
    signals: list[StalenessSignal] = field(default_factory=list)

    def inspect(self, read: ColumnarReadTrace) -> StalenessSignal:
        """Evaluate one completed read and record the resulting signal."""
        newest_late: Optional[Version] = None
        for version in read.late_responses.values():
            if version is not None and (newest_late is None or version > newest_late):
                newest_late = version

        flagged = (
            newest_late is not None
            and (read.returned_version is None or newest_late > read.returned_version)
        )

        # Oracle check: the read is *actually* stale only if a version newer
        # than the returned one had already committed when the read started.
        latest_committed = self.trace_log.latest_committed_version_before(
            read.key, read.started_ms
        )
        confirmed = (
            latest_committed is not None
            and (read.returned_version is None or latest_committed > read.returned_version)
        )

        signal = StalenessSignal(
            operation_id=read.operation_id,
            key=read.key,
            returned_version=read.returned_version,
            newest_late_version=newest_late,
            flagged=flagged,
            confirmed_stale=confirmed,
        )
        self.signals.append(signal)
        return signal

    def inspect_all(self, key: str | None = None) -> list[StalenessSignal]:
        """Evaluate every completed read in the trace log (optionally one key)."""
        return [self.inspect(read) for read in self.trace_log.completed_reads(key)]

    # ------------------------------------------------------------------
    # Aggregates.
    # ------------------------------------------------------------------
    @property
    def flagged_count(self) -> int:
        """Reads the raw detector flagged as possibly stale."""
        return sum(1 for signal in self.signals if signal.flagged)

    @property
    def confirmed_count(self) -> int:
        """Reads confirmed stale by the commit-order oracle."""
        return sum(1 for signal in self.signals if signal.confirmed_stale)

    @property
    def false_positive_count(self) -> int:
        """Reads flagged by the raw detector but not actually stale."""
        return sum(
            1 for signal in self.signals if signal.flagged and not signal.confirmed_stale
        )

    @property
    def false_negative_count(self) -> int:
        """Reads the raw detector missed but that were actually stale.

        These occur when the newer committed version had not yet reached any of
        the late-responding replicas (or there were no late responses at all).
        """
        return sum(
            1 for signal in self.signals if signal.confirmed_stale and not signal.flagged
        )
