"""Tests for ``run_blocks`` and the staleness-frame join it relies on."""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest

from repro.analysis.blocks import Block, populated_bins, run_blocks
from repro.analysis.staleness import StalenessFrame, observe_staleness
from repro.analysis.validation import _validation_block
from repro.cluster.sampling import DEFAULT_DRAW_BATCH_SIZE
from repro.cluster.tracelog import ColumnarTraceLog
from repro.cluster.versioning import Version
from repro.core.quorum import ReplicaConfig
from repro.latency.production import production_fit


class _CallerError(Exception):
    """Stands in for a caller's own error type."""


def _log(key: str, writer: str, op_base: int) -> ColumnarTraceLog:
    """One committed write to ``key`` and two reads of it, one stale."""
    log = ColumnarTraceLog()
    ref = log.begin_write(op_base, key, Version(1, writer), writer, 0.0)
    log.note_write_commit(ref, 2.0)
    for offset, (started, returned) in enumerate(((3.0, Version(1, writer)), (9.0, None))):
        ref = log.begin_read(op_base + 1 + offset, key, writer, started)
        log.note_read_complete(ref, returned, started + 1.0)
    return log


def _record_block(size: int, seed: np.random.SeedSequence) -> Block:
    """A block that measures nothing and reports its size and seed."""
    empty = observe_staleness(ColumnarTraceLog())
    return Block(empty, np.zeros(1), np.zeros(2), (size, seed.spawn_key))


class TestFrameConcat:
    def test_rows_join_in_order_and_keys_share_one_table(self):
        # The two logs intern their strings in different orders.
        first = observe_staleness(_log("alpha", "c-0", op_base=0))
        second = observe_staleness(_log("beta", "c-1", op_base=10))
        third = observe_staleness(_log("alpha", "c-1", op_base=20))
        joined = StalenessFrame.concat([first, second, third])
        # Read ids 1, 2 | 11, 12 | 21, 22, each frame offset by the last
        # operation ids of the logs before it: 0, then 2, then 2 + 12.
        assert joined.operation_ids.tolist() == [1, 2, 13, 14, 35, 36]
        assert joined.last_operation_id == 2 + 12 + 22
        expected = first.observations() + second.observations() + third.observations()
        assert [
            dataclasses.replace(observation, operation_id=0)
            for observation in joined.observations()
        ] == [dataclasses.replace(observation, operation_id=0) for observation in expected]
        assert len(set(joined.key_table)) == len(joined.key_table)
        assert [joined.key_table[key_id] for key_id in joined.key_ids] == (
            ["alpha"] * 2 + ["beta"] * 2 + ["alpha"] * 2
        )

    def test_empty_frames_join(self):
        empty = observe_staleness(ColumnarTraceLog())
        joined = StalenessFrame.concat([empty, observe_staleness(_log("k", "c", 0)), empty])
        assert len(joined) == 2
        assert joined.key_ids.dtype == np.int64
        assert joined.operation_ids.tolist() == [1, 2]

    def test_offsets_count_operations_that_left_no_observation(self):
        # Operations 1-3 as in _log, then a write that never commits and a
        # read of a key nobody wrote: neither gives an observation.
        log = _log("alpha", "c-0", op_base=1)
        log.begin_write(4, "alpha", Version(2, "c-0"), "c-0", 20.0)
        ref = log.begin_read(5, "gamma", "c-0", 21.0)
        log.note_read_complete(ref, None, 22.0)
        first = observe_staleness(log)
        assert first.operation_ids.tolist() == [2, 3]
        assert first.last_operation_id == 5
        second = observe_staleness(_log("beta", "c-1", op_base=1))
        joined = StalenessFrame.concat([first, second])
        # The second run's reads 2 and 3 come after all 5 of the first's
        # operations, whichever of those were observed.
        assert joined.operation_ids.tolist() == [2, 3, 7, 8]
        assert joined.last_operation_id == 8


class TestRunBlocks:
    def test_seed_spawn_order_and_in_order_join(self):
        run = run_blocks(_record_block, writes=25, block_writes=10, rng=4, workers=1,
                         error=_CallerError)
        assert run.sizes == (10, 15)
        assert run.predictor_seed.spawn_key == (0,)
        assert run.extras == ((10, (1, 0)), (15, (1, 1)))
        assert len(run.frame) == 0
        assert run.read_latencies.shape == (2,) and run.write_latencies.shape == (4,)
        # Further streams are the root's next children.
        assert run.root.spawn(1)[0].spawn_key == (2,)

    def test_sharded_operation_ids_are_distinct_and_match_serial(self):
        block = functools.partial(
            _validation_block,
            distributions=production_fit("LNKD-SSD"),
            config=ReplicaConfig(3, 1, 1),
            write_interval_ms=200.0,
            read_offsets_ms=(1.0, 10.0),
            draw_batch_size=DEFAULT_DRAW_BATCH_SIZE,
        )
        runs = [
            run_blocks(block, writes=300, block_writes=100, rng=7, workers=workers,
                       error=_CallerError)
            for workers in (1, 2)
        ]
        ids = [run.frame.operation_ids for run in runs]
        assert len(ids[0]) > 500
        assert len(np.unique(ids[0])) == len(ids[0])
        np.testing.assert_array_equal(ids[0], ids[1])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"writes": 9},
            {"block_writes": 9},
            {"block_writes": 0},
            {"block_writes": -5},
            {"workers": 0},
        ],
    )
    def test_bad_arguments_raise_the_callers_error(self, kwargs):
        arguments = {"writes": 100, "block_writes": 10, "workers": 1, **kwargs}
        with pytest.raises(_CallerError):
            run_blocks(_record_block, rng=0, error=_CallerError, **arguments)


class TestPopulatedBins:
    def test_empty_bins_are_skipped(self):
        frame = StalenessFrame.concat([observe_staleness(_log("k", "c", 0))])
        # t since commit is 1 ms (consistent) and 7 ms (stale): bins [0, 5), [5, 10).
        assert populated_bins(frame, 5.0, _CallerError) == ([2.5, 7.5], [1.0, 0.0])
        assert populated_bins(frame, 2.0, _CallerError) == ([1.0, 7.0], [1.0, 0.0])
