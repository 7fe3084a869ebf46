"""Per-operation trace records, stored as columns.

The validation methodology of §5.2 hinges on instrumenting the store: every
write records when each replica received it and when it committed, and every
read records which replicas answered among the first ``R`` and which version
was returned.  These traces are what the analysis package consumes to measure
empirical t-visibility, k-staleness, and the WARS latency components.

A dataclass per operation would cost a few dicts and a set per write; at
10^5+ writes per validation cell that is allocator and GC churn the analysis
layer would then have to undo (re-sorting, re-grouping) before it could
answer a single staleness query.  ``ColumnarTraceLog`` stores the traces as
columns — plain Python lists while recording, numpy arrays when analysed:

* one row per write / read with scalar columns (``started_ms``,
  ``committed_ms``, interned key/coordinator ids, version timestamp + writer
  ids), and
* flat ``(row, node, time)`` triplet columns for the per-replica events
  (write arrivals, write acks, read responses) plus ``(row, node, version)``
  triplets for quorum/late read responses and ``(row, node)`` pairs for drops.

Recording happens through a narrow scalar API (``begin_write`` /
``note_write_*`` / ``begin_read`` / ``note_read_*``), so the coordinator never
builds per-operation containers.  Per-operation attribute access goes through
lazy row views (:class:`ColumnarWriteTrace` / :class:`ColumnarReadTrace`)
materialised only when somebody asks.

Each simulated cluster owns one log, and every log's clock starts at 0.
Blocked runs (:mod:`repro.analysis.blocks`) therefore never join logs: each
block is analysed on its own and the staleness frames are joined instead.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.cluster.versioning import Version

__all__ = [
    "ColumnarTraceLog",
    "ColumnarWriteTrace",
    "ColumnarReadTrace",
]

_NO_VERSION = -1  # sentinel for "replica answered with no value" / "read returned None"

#: Every column of a :class:`ColumnarTraceLog`: attribute name → view dtype.
#: Key, writer, coordinator and node columns hold string-table ids
#: (``_NO_VERSION`` passes through); ``*_row`` columns hold write or read row
#: numbers.  Per-replica event columns come in groups sharing a prefix:
#: ``_wa_`` write arrivals (W leg), ``_wk_`` write acks (W + A legs), ``_wd_``
#: write drops, ``_rr_`` read responses (R + S legs), ``_rq_``/``_rl_`` the
#: version of each response counted among the first R / arriving late.
_COLUMNS: dict[str, str] = {
    "_w_op": "int64",
    "_w_key": "int64",
    "_w_ver_ts": "int64",
    "_w_ver_writer": "int64",
    "_w_coord": "int64",
    "_w_started": "float64",
    "_w_committed": "float64",
    "_wa_row": "int64",
    "_wa_node": "int64",
    "_wa_time": "float64",
    "_wk_row": "int64",
    "_wk_node": "int64",
    "_wk_time": "float64",
    "_wd_row": "int64",
    "_wd_node": "int64",
    "_r_op": "int64",
    "_r_key": "int64",
    "_r_coord": "int64",
    "_r_started": "float64",
    "_r_completed": "float64",
    "_r_timeout": "int64",
    "_r_ret_ts": "int64",
    "_r_ret_writer": "int64",
    "_r_repairs": "int64",
    "_rr_row": "int64",
    "_rr_node": "int64",
    "_rr_time": "float64",
    "_rq_row": "int64",
    "_rq_node": "int64",
    "_rq_ts": "int64",
    "_rq_writer": "int64",
    "_rl_row": "int64",
    "_rl_node": "int64",
    "_rl_ts": "int64",
    "_rl_writer": "int64",
}


class _StringTable(dict):
    """String → id interning map that assigns the next id on a miss.

    Subscripting is a C-level dict lookup on a hit, so recording paths intern
    with ``ids[value]`` and no Python frame; ``strings`` is the id → string
    table in first-use order.
    """

    __slots__ = ("strings",)

    def __init__(self) -> None:
        super().__init__()
        self.strings: list[str] = []

    def __missing__(self, value: str) -> int:
        found = self[value] = len(self.strings)
        self.strings.append(value)
        return found


class _RowIndex:
    """row → event positions lookup built once per (log state, event group)."""

    __slots__ = ("order", "sorted_rows")

    def __init__(self, rows: np.ndarray) -> None:
        self.order = np.argsort(rows, kind="stable")
        self.sorted_rows = rows[self.order]

    def positions(self, row: int) -> np.ndarray:
        """Positions of ``row``'s events, in recording order."""
        lo = np.searchsorted(self.sorted_rows, row, side="left")
        hi = np.searchsorted(self.sorted_rows, row, side="right")
        return self.order[lo:hi]


class ColumnarWriteTrace:
    """Lazy row view over one :class:`ColumnarTraceLog` write."""

    __slots__ = ("_log", "_row")

    def __init__(self, log: "ColumnarTraceLog", row: int) -> None:
        self._log = log
        self._row = row

    @property
    def operation_id(self) -> int:
        """The operation id assigned by the coordinator."""
        return int(self._log._w_op[self._row])

    @property
    def key(self) -> str:
        """The written key."""
        return self._log._strings[self._log._w_key[self._row]]

    @property
    def version(self) -> Version:
        """The version this write created."""
        log = self._log
        return Version(
            int(log._w_ver_ts[self._row]),
            log._strings[log._w_ver_writer[self._row]],
        )

    @property
    def coordinator(self) -> str:
        """Node id of the coordinating node."""
        return self._log._strings[self._log._w_coord[self._row]]

    @property
    def started_ms(self) -> float:
        """Simulation time the write was issued."""
        return float(self._log._w_started[self._row])

    @property
    def committed_ms(self) -> Optional[float]:
        """Commit time, or ``None`` for uncommitted writes."""
        value = self._log._w_committed[self._row]
        return None if math.isnan(value) else float(value)

    @property
    def replica_arrivals_ms(self) -> dict[str, float]:
        """Per-replica arrival time of the write message (the W leg), by node id."""
        return self._log._event_dict("_wa", self._row)

    @property
    def ack_arrivals_ms(self) -> dict[str, float]:
        """Per-replica acknowledgement arrival time at the coordinator (W + A legs)."""
        return self._log._event_dict("_wk", self._row)

    @property
    def dropped_replicas(self) -> set[str]:
        """Replicas whose write message was dropped (failure or partition)."""
        log = self._log
        strings = log._strings
        node = log._wd_node
        return {strings[node[p]] for p in log._positions("_wd_row", self._row)}

    @property
    def committed(self) -> bool:
        """True when the coordinator received its write quorum."""
        return not math.isnan(self._log._w_committed[self._row])

    @property
    def commit_latency_ms(self) -> Optional[float]:
        """Commit (write operation) latency, or ``None`` for uncommitted writes."""
        committed = self.committed_ms
        if committed is None:
            return None
        return committed - self.started_ms

    def arrival_offsets_from_commit(self) -> dict[str, float]:
        """Per-replica arrival time relative to commit (negative = before commit)."""
        committed = self.committed_ms
        if committed is None:
            return {}
        return {
            replica: arrival - committed
            for replica, arrival in self.replica_arrivals_ms.items()
        }


class ColumnarReadTrace:
    """Lazy row view over one :class:`ColumnarTraceLog` read."""

    __slots__ = ("_log", "_row")

    def __init__(self, log: "ColumnarTraceLog", row: int) -> None:
        self._log = log
        self._row = row

    @property
    def operation_id(self) -> int:
        """The operation id assigned by the coordinator."""
        return int(self._log._r_op[self._row])

    @property
    def key(self) -> str:
        """The read key."""
        return self._log._strings[self._log._r_key[self._row]]

    @property
    def coordinator(self) -> str:
        """Node id of the coordinating node."""
        return self._log._strings[self._log._r_coord[self._row]]

    @property
    def started_ms(self) -> float:
        """Simulation time the read was issued."""
        return float(self._log._r_started[self._row])

    @property
    def quorum_responses(self) -> dict[str, Optional[Version]]:
        """The first R responses (node id → version, None when replica was empty)."""
        return self._log._version_dict("_rq", self._row)

    @property
    def late_responses(self) -> dict[str, Optional[Version]]:
        """Responses that arrived after the operation already returned."""
        return self._log._version_dict("_rl", self._row)

    @property
    def response_arrivals_ms(self) -> dict[str, float]:
        """Per-replica response arrival time at the coordinator (R + S legs)."""
        return self._log._event_dict("_rr", self._row)

    @property
    def returned_version(self) -> Optional[Version]:
        """Version the coordinator returned to the client (None = key not found)."""
        log = self._log
        ts = log._r_ret_ts[self._row]
        if ts == _NO_VERSION:
            return None
        return Version(int(ts), log._strings[log._r_ret_writer[self._row]])

    @property
    def completed_ms(self) -> Optional[float]:
        """Completion time, or ``None`` when the read never assembled a quorum."""
        value = self._log._r_completed[self._row]
        return None if math.isnan(value) else float(value)

    @property
    def timed_out(self) -> bool:
        """True when the read gave up before assembling R responses."""
        return bool(self._log._r_timeout[self._row])

    @property
    def repairs_issued(self) -> int:
        """Number of read-repair pushes this read triggered (0 when disabled)."""
        return int(self._log._r_repairs[self._row])

    @property
    def completed(self) -> bool:
        """True when the coordinator assembled a read quorum before timing out."""
        return not math.isnan(self._log._r_completed[self._row]) and not self.timed_out

    @property
    def latency_ms(self) -> Optional[float]:
        """Read operation latency, or ``None`` for timed-out reads."""
        completed = self.completed_ms
        if completed is None:
            return None
        return completed - self.started_ms


class ColumnarTraceLog:
    """Struct-of-arrays trace store for one cluster run.

    The recording API is narrow and scalar-only: each call appends interned
    ids and scalars to plain Python lists (C-speed ``append``, no per-scalar
    numpy boxing).  Views and queries build ``Version`` objects and dicts lazily;
    the analysis layer sees numpy through cached column arrays.  Every
    recording call bumps one mutation counter, which invalidates the cached
    arrays and query indexes together, so a 50k-write analysis pass converts
    each column once and repeated passes touch numpy only once.
    """

    __slots__ = (
        "_strings",
        "_string_ids",
        *_COLUMNS,
        "_mutations",
        "_cache_token",
        "_cache",
    )

    def __init__(self) -> None:
        self._string_ids = _StringTable()
        self._strings = self._string_ids.strings
        for name in _COLUMNS:
            setattr(self, name, [])
        self._mutations = 0
        self._cache_token = -1
        self._cache: dict = {}

    # ------------------------------------------------------------------
    # String interning.
    # ------------------------------------------------------------------
    def intern(self, value: str) -> int:
        """Intern a string (key / node id / writer), returning its table id."""
        return self._string_ids[value]

    def string_table(self) -> list[str]:
        """The interned string table (id → string), shared by all columns."""
        return self._strings

    def interned_id(self, value: str) -> Optional[int]:
        """The table id of ``value``, or ``None`` if it was never recorded."""
        return self._string_ids.get(value)

    # ------------------------------------------------------------------
    # Narrow recording API — write lifecycle.
    # ------------------------------------------------------------------
    def begin_write(
        self,
        operation_id: int,
        key: str,
        version: Version,
        coordinator: str,
        started_ms: float,
    ) -> int:
        """Open a write row; returns the row reference used by ``note_write_*``."""
        ids = self._string_ids
        row = len(self._w_op)
        self._w_op.append(operation_id)
        self._w_key.append(ids[key])
        self._w_ver_ts.append(version.timestamp)
        self._w_ver_writer.append(ids[version.writer])
        self._w_coord.append(ids[coordinator])
        self._w_started.append(started_ms)
        self._w_committed.append(math.nan)
        self._mutations += 1
        return row

    def note_write_arrival(self, ref: int, node_id: str, time_ms: float) -> None:
        """Record the write message reaching a replica (the W leg)."""
        self._wa_row.append(ref)
        self._wa_node.append(self._string_ids[node_id])
        self._wa_time.append(time_ms)
        self._mutations += 1

    def note_write_ack(self, ref: int, node_id: str, time_ms: float) -> None:
        """Record a replica acknowledgement reaching the coordinator (W + A legs)."""
        self._wk_row.append(ref)
        self._wk_node.append(self._string_ids[node_id])
        self._wk_time.append(time_ms)
        self._mutations += 1

    def note_write_commit(self, ref: int, time_ms: float) -> None:
        """Record the coordinator assembling its write quorum."""
        self._w_committed[ref] = time_ms
        self._mutations += 1

    def note_write_drop(self, ref: int, node_id: str) -> None:
        """Record a write message dropped on the way to a replica."""
        self._wd_row.append(ref)
        self._wd_node.append(self._string_ids[node_id])
        self._mutations += 1

    def write_view(self, ref: int) -> ColumnarWriteTrace:
        """A lazy view of a write row."""
        return ColumnarWriteTrace(self, ref)

    # ------------------------------------------------------------------
    # Narrow recording API — read lifecycle.
    # ------------------------------------------------------------------
    def begin_read(
        self, operation_id: int, key: str, coordinator: str, started_ms: float
    ) -> int:
        """Open a read row; returns the row reference used by ``note_read_*``."""
        ids = self._string_ids
        row = len(self._r_op)
        self._r_op.append(operation_id)
        self._r_key.append(ids[key])
        self._r_coord.append(ids[coordinator])
        self._r_started.append(started_ms)
        self._r_completed.append(math.nan)
        self._r_timeout.append(0)
        self._r_ret_ts.append(_NO_VERSION)
        self._r_ret_writer.append(_NO_VERSION)
        self._r_repairs.append(0)
        self._mutations += 1
        return row

    def note_read_reply(
        self,
        ref: int,
        node_id: str,
        time_ms: float,
        version: Optional[Version],
        in_quorum: bool,
    ) -> None:
        """Record one replica response: its arrival and the version it carried.

        ``in_quorum`` marks a response counted among the first R; the others
        arrived after the read had already returned.
        """
        ids = self._string_ids
        node = ids[node_id]
        self._rr_row.append(ref)
        self._rr_node.append(node)
        self._rr_time.append(time_ms)
        if version is None:
            ts = writer = _NO_VERSION
        else:
            ts = version.timestamp
            writer = ids[version.writer]
        if in_quorum:
            self._rq_row.append(ref)
            self._rq_node.append(node)
            self._rq_ts.append(ts)
            self._rq_writer.append(writer)
        else:
            self._rl_row.append(ref)
            self._rl_node.append(node)
            self._rl_ts.append(ts)
            self._rl_writer.append(writer)
        self._mutations += 1

    def note_read_complete(
        self, ref: int, version: Optional[Version], time_ms: float
    ) -> None:
        """Record the read returning ``version`` to the client at ``time_ms``."""
        self._r_completed[ref] = time_ms
        if version is not None:
            self._r_ret_ts[ref] = version.timestamp
            self._r_ret_writer[ref] = self._string_ids[version.writer]
        self._mutations += 1

    def note_read_timeout(self, ref: int) -> None:
        """Record the read giving up before assembling R responses."""
        self._r_timeout[ref] = 1
        self._mutations += 1

    def note_read_repair(self, ref: int) -> None:
        """Record one read-repair push triggered by this read."""
        self._r_repairs[ref] += 1
        self._mutations += 1

    def read_view(self, ref: int) -> ColumnarReadTrace:
        """A lazy view of a read row."""
        return ColumnarReadTrace(self, ref)

    # ------------------------------------------------------------------
    # Row-view sequences.
    # ------------------------------------------------------------------
    @property
    def writes(self) -> list[ColumnarWriteTrace]:
        """Lazy views of every write row, in record order."""
        return [ColumnarWriteTrace(self, row) for row in range(len(self._w_op))]

    @property
    def reads(self) -> list[ColumnarReadTrace]:
        """Lazy views of every read row, in record order."""
        return [ColumnarReadTrace(self, row) for row in range(len(self._r_op))]

    @property
    def write_count(self) -> int:
        """Number of write rows recorded."""
        return len(self._w_op)

    @property
    def read_count(self) -> int:
        """Number of read rows recorded."""
        return len(self._r_op)

    # ------------------------------------------------------------------
    # Column accessors for the vectorized analysis layer.
    # ------------------------------------------------------------------
    def write_columns(self) -> dict[str, np.ndarray]:
        """Zero-copy views of the scalar write columns, keyed by name."""
        return {
            "operation_id": self._view("_w_op"),
            "key": self._view("_w_key"),
            "version_ts": self._view("_w_ver_ts"),
            "version_writer": self._view("_w_ver_writer"),
            "coordinator": self._view("_w_coord"),
            "started_ms": self._view("_w_started"),
            "committed_ms": self._view("_w_committed"),
        }

    def read_columns(self) -> dict[str, np.ndarray]:
        """Zero-copy views of the scalar read columns, keyed by name."""
        return {
            "operation_id": self._view("_r_op"),
            "key": self._view("_r_key"),
            "coordinator": self._view("_r_coord"),
            "started_ms": self._view("_r_started"),
            "completed_ms": self._view("_r_completed"),
            "timed_out": self._view("_r_timeout"),
            "returned_ts": self._view("_r_ret_ts"),
            "returned_writer": self._view("_r_ret_writer"),
            "repairs": self._view("_r_repairs"),
        }

    def writer_sort_ranks(self) -> np.ndarray:
        """Rank of each interned string under lexicographic string order.

        Interning order is arrival order, which is *not* lexicographic (e.g.
        ``"coordinator-10" < "coordinator-2"``), so version comparisons over
        encoded columns must rank writers by sorted string value.  Cached per
        log state.
        """
        cache = self._query_cache()
        ranks = cache.get("writer_ranks")
        if ranks is None:
            order = sorted(range(len(self._strings)), key=self._strings.__getitem__)
            ranks = np.empty(len(order), dtype=np.int64)
            ranks[np.asarray(order, dtype=np.int64)] = np.arange(len(order), dtype=np.int64)
            cache["writer_ranks"] = ranks
        return ranks

    # ------------------------------------------------------------------
    # Cached query indexes.
    # ------------------------------------------------------------------
    def _query_cache(self) -> dict:
        if self._cache_token != self._mutations:
            self._cache = {}
            self._cache_token = self._mutations
        return self._cache

    def _view(self, name: str) -> np.ndarray:
        """Column ``name`` as an ndarray, cached until the next mutation."""
        cache = self._query_cache()
        view = cache.get(name)
        if view is None:
            view = cache[name] = np.asarray(getattr(self, name), dtype=_COLUMNS[name])
        return view

    def _positions(self, rows: str, row: int) -> np.ndarray:
        """Positions of ``row``'s entries in the event column group ``rows``."""
        cache = self._query_cache()
        index = cache.get(("index", rows))
        if index is None:
            index = cache[("index", rows)] = _RowIndex(self._view(rows))
        return index.positions(row)

    def _event_dict(self, group: str, row: int) -> dict[str, float]:
        strings = self._strings
        node = getattr(self, group + "_node")
        value = getattr(self, group + "_time")
        return {
            strings[node[p]]: float(value[p]) for p in self._positions(group + "_row", row)
        }

    def _version_dict(self, group: str, row: int) -> dict[str, Optional[Version]]:
        strings = self._strings
        node = getattr(self, group + "_node")
        ts = getattr(self, group + "_ts")
        writer = getattr(self, group + "_writer")
        result: dict[str, Optional[Version]] = {}
        for p in self._positions(group + "_row", row):
            stamp = ts[p]
            result[strings[node[p]]] = (
                None if stamp == _NO_VERSION else Version(int(stamp), strings[writer[p]])
            )
        return result

    def _committed_order(self, key: str | None) -> np.ndarray:
        """Committed write rows sorted by commit time (stable), cached."""
        cache = self._query_cache()
        cached = cache.get(("committed", key))
        if cached is None:
            committed = self._view("_w_committed")
            mask = ~np.isnan(committed)
            if key is not None:
                key_id = self._string_ids.get(key)
                if key_id is None:
                    mask = np.zeros_like(mask)
                else:
                    mask = mask & (self._view("_w_key") == key_id)
            rows = np.flatnonzero(mask)
            cached = rows[np.argsort(committed[rows], kind="stable")]
            cache[("committed", key)] = cached
        return cached

    def _completed_order(self, key: str | None) -> np.ndarray:
        """Completed read rows sorted by start time (stable), cached."""
        cache = self._query_cache()
        cached = cache.get(("completed", key))
        if cached is None:
            completed = self._view("_r_completed")
            mask = ~np.isnan(completed) & (self._view("_r_timeout") == 0)
            if key is not None:
                key_id = self._string_ids.get(key)
                if key_id is None:
                    mask = np.zeros_like(mask)
                else:
                    mask = mask & (self._view("_r_key") == key_id)
            rows = np.flatnonzero(mask)
            cached = rows[np.argsort(self._view("_r_started")[rows], kind="stable")]
            cache[("completed", key)] = cached
        return cached

    def _key_commit_index(self, key: str):
        """(commit times, prefix-max Versions, version → commit time) for one key."""
        cache = self._query_cache()
        cached = cache.get(("key_index", key))
        if cached is None:
            rows = self._committed_order(key)
            times = self._view("_w_committed")[rows]
            ts = self._view("_w_ver_ts")[rows]
            writer = self._view("_w_ver_writer")[rows]
            prefix_max: list[Version] = []
            best: Optional[Version] = None
            strings = self._strings
            for position in range(rows.shape[0]):
                candidate = Version(int(ts[position]), strings[writer[position]])
                if best is None or candidate > best:
                    best = candidate
                prefix_max.append(best)
            version_times = {
                (int(ts[position]), int(writer[position])): float(times[position])
                for position in range(rows.shape[0])
            }
            cached = (times, prefix_max, version_times)
            cache[("key_index", key)] = cached
        return cached

    # ------------------------------------------------------------------
    # Queries used by the analysis package.
    # ------------------------------------------------------------------
    def committed_write_rows(self, key: str | None = None) -> np.ndarray:
        """Committed write row ids in commit-time order (the analysis column order)."""
        return self._committed_order(key)

    def completed_read_rows(self, key: str | None = None) -> np.ndarray:
        """Completed read row ids in start-time order (the analysis column order)."""
        return self._completed_order(key)

    def committed_writes(self, key: str | None = None) -> list[ColumnarWriteTrace]:
        """All committed writes, optionally restricted to one key, in commit order."""
        return [ColumnarWriteTrace(self, int(row)) for row in self._committed_order(key)]

    def completed_reads(self, key: str | None = None) -> list[ColumnarReadTrace]:
        """All completed reads, optionally restricted to one key, in start order."""
        return [ColumnarReadTrace(self, int(row)) for row in self._completed_order(key)]

    def latest_committed_version_before(self, key: str, time_ms: float) -> Optional[Version]:
        """The newest version of ``key`` whose commit time is <= ``time_ms``."""
        times, prefix_max, _ = self._key_commit_index(key)
        position = int(np.searchsorted(times, time_ms, side="right"))
        if position == 0:
            return None
        return prefix_max[position - 1]

    def commit_time_of(self, key: str, version: Version) -> Optional[float]:
        """Commit time of a specific version, or ``None`` if it never committed."""
        _, _, version_times = self._key_commit_index(key)
        writer_id = self._string_ids.get(version.writer)
        if writer_id is None:
            return None
        return version_times.get((version.timestamp, writer_id))

    def clear(self) -> None:
        """Drop all recorded traces (string table included)."""
        for name in _COLUMNS:
            getattr(self, name).clear()
        self._string_ids = _StringTable()
        self._strings = self._string_ids.strings
        self._mutations += 1
