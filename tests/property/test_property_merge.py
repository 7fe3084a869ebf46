"""Property tests for the sweep engine's merge contract.

``StreamingHistogram.merge`` and ``_ConfigAccumulator.merge`` are the
foundation of the multiprocess-sharded engine: partials accumulated by worker
processes must fold together into exactly the state a single sequential
accumulation would have produced.  That requires the merge operation to be a
commutative monoid over accumulator states sharing a frozen layout:

* **associative** — ``(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)``,
* **commutative** — ``a ⊕ b == b ⊕ a``,
* **faithful** — merging per-shard states equals the single-stream state that
  saw all the data in order.

States are compared exactly (bin-for-bin, not approximately): the sharded
engine's bit-for-bit guarantee rests on it.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quorum import ReplicaConfig
from repro.core.wars import WARSModel
from repro.exceptions import AnalysisError
from repro.latency.production import ymmr
from repro.montecarlo.engine import StreamingHistogram, _ConfigAccumulator

_QUANTILES = (0.0, 0.1, 0.5, 0.9, 0.99, 1.0)


def _histogram_states_equal(one: StreamingHistogram, other: StreamingHistogram) -> bool:
    if (one.count, one._underflow, one._overflow) != (
        other.count,
        other._underflow,
        other._overflow,
    ):
        return False
    if one.count and (one.min, one.max) != (other.min, other.max):
        return False
    if (one._edges is None) != (other._edges is None):
        return False
    if one._edges is not None and not (
        np.array_equal(one._edges, other._edges)
        and np.array_equal(one._counts, other._counts)
    ):
        return False
    return all(one.quantile(q) == other.quantile(q) for q in _QUANTILES) if one.count else True


def _merged(*histograms: StreamingHistogram) -> StreamingHistogram:
    """Left-fold merge onto a deep copy (merge mutates the receiver)."""
    result = copy.deepcopy(histograms[0])
    for histogram in histograms[1:]:
        result.merge(copy.deepcopy(histogram))
    return result


def _value_batches(seed: int, sizes: tuple[int, ...], log_scale: bool) -> list[np.ndarray]:
    generator = np.random.default_rng(seed)
    if log_scale:
        return [generator.lognormal(1.0, 1.5, size) for size in sizes]
    return [generator.normal(5.0, 3.0, size) for size in sizes]


@st.composite
def _shard_triples(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    sizes = tuple(draw(st.integers(min_value=1, max_value=400)) for _ in range(3))
    log_scale = draw(st.booleans())
    return seed, sizes, log_scale


class TestStreamingHistogramMergeProperties:
    @settings(max_examples=30, deadline=None)
    @given(params=_shard_triples())
    def test_merge_is_associative(self, params):
        seed, sizes, log_scale = params
        batches = _value_batches(seed, sizes, log_scale)
        a = StreamingHistogram(bins=128, log_scale=log_scale)
        a.update(batches[0])  # freezes the shared layout
        b, c = a.spawn_empty(), a.spawn_empty()
        b.update(batches[1])
        c.update(batches[2])
        left = _merged(_merged(a, b), c)
        right = _merged(a, _merged(b, c))
        assert _histogram_states_equal(left, right)

    @settings(max_examples=30, deadline=None)
    @given(params=_shard_triples())
    def test_merge_is_commutative(self, params):
        seed, sizes, log_scale = params
        batches = _value_batches(seed, sizes, log_scale)
        a = StreamingHistogram(bins=128, log_scale=log_scale)
        a.update(batches[0])
        b = a.spawn_empty()
        b.update(batches[1])
        assert _histogram_states_equal(_merged(a, b), _merged(b, a))

    @settings(max_examples=30, deadline=None)
    @given(params=_shard_triples())
    def test_merged_shards_equal_single_stream(self, params):
        """Merged per-shard quantiles equal single-stream quantiles on the
        same data — bin-for-bin, not just approximately."""
        seed, sizes, log_scale = params
        batches = _value_batches(seed, sizes, log_scale)
        single = StreamingHistogram(bins=128, log_scale=log_scale)
        for batch in batches:
            single.update(batch)
        first = StreamingHistogram(bins=128, log_scale=log_scale)
        first.update(batches[0])
        shards = [first]
        for batch in batches[1:]:
            shard = first.spawn_empty()
            shard.update(batch)
            shards.append(shard)
        assert _histogram_states_equal(_merged(*shards), single)
        for q in _QUANTILES:
            assert _merged(*shards).quantile(q) == single.quantile(q)

    def test_empty_sides_are_identities(self):
        primed = StreamingHistogram(bins=32)
        primed.update(np.arange(50.0))
        # empty ⊕ primed adopts; primed ⊕ empty is a no-op.
        left = StreamingHistogram(bins=32)
        left.merge(primed)
        right = _merged(primed, StreamingHistogram(bins=32))
        assert _histogram_states_equal(left, primed)
        assert _histogram_states_equal(right, primed)

    def test_mismatched_layouts_are_rejected(self):
        a = StreamingHistogram(bins=32)
        a.update(np.arange(10.0))
        b = StreamingHistogram(bins=32)
        b.update(np.arange(100.0, 200.0))  # different frozen edges
        with pytest.raises(AnalysisError):
            a.merge(b)
        with pytest.raises(AnalysisError):
            a.merge(StreamingHistogram(bins=64))
        with pytest.raises(AnalysisError):
            a.merge(StreamingHistogram(bins=32, log_scale=True))


def _accumulator_shards(seed: int, pieces: int = 3) -> tuple[list[_ConfigAccumulator], _ConfigAccumulator]:
    """Per-slice shard accumulators plus the sequential reference."""
    config = ReplicaConfig(3, 2, 1)
    times = np.asarray([0.0, 1.0, 10.0])
    result = WARSModel(ymmr(), config).sample(600, seed)
    slices = np.array_split(np.arange(result.trials), pieces)

    def piece(indices):
        from repro.core.wars import WARSTrialResult

        return WARSTrialResult(
            config=config,
            commit_latencies_ms=result.commit_latencies_ms[indices],
            read_latencies_ms=result.read_latencies_ms[indices],
            staleness_thresholds_ms=result.staleness_thresholds_ms[indices],
        )

    def update(accumulator, indices):
        block = piece(indices)
        accumulator.update(
            block, np.sort(block.read_latencies_ms), np.sort(block.commit_latencies_ms)
        )

    sequential = _ConfigAccumulator(config, times, histogram_bins=64, keep_samples=False)
    for indices in slices:
        update(sequential, indices)

    first = _ConfigAccumulator(config, times, histogram_bins=64, keep_samples=False)
    update(first, slices[0])
    shards = [first]
    for indices in slices[1:]:
        shard = first.spawn_empty()
        update(shard, indices)
        shards.append(shard)
    return shards, sequential


def _accumulator_states_equal(one: _ConfigAccumulator, other: _ConfigAccumulator) -> bool:
    return (
        one.config == other.config
        and one.trials == other.trials
        and np.array_equal(one.consistent_counts, other.consistent_counts)
        and one.nonpositive_thresholds == other.nonpositive_thresholds
        and _histogram_states_equal(one.threshold_histogram, other.threshold_histogram)
        and _histogram_states_equal(one.read_histogram, other.read_histogram)
        and _histogram_states_equal(one.write_histogram, other.write_histogram)
    )


class TestConfigAccumulatorMergeProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_merge_matches_sequential_accumulation(self, seed):
        shards, sequential = _accumulator_shards(seed)
        merged = copy.deepcopy(shards[0])
        for shard in shards[1:]:
            merged.merge(copy.deepcopy(shard))
        assert _accumulator_states_equal(merged, sequential)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_merge_is_associative_and_commutative(self, seed):
        shards, _ = _accumulator_shards(seed)
        a, b, c = (copy.deepcopy(shard) for shard in shards)
        left = copy.deepcopy(a)
        left.merge(copy.deepcopy(b))
        left.merge(copy.deepcopy(c))
        bc = copy.deepcopy(b)
        bc.merge(copy.deepcopy(c))
        right = copy.deepcopy(a)
        right.merge(bc)
        assert _accumulator_states_equal(left, right)
        swapped = copy.deepcopy(b)
        swapped.merge(copy.deepcopy(a))
        ab = copy.deepcopy(a)
        ab.merge(copy.deepcopy(b))
        assert _accumulator_states_equal(swapped, ab)

    def test_merge_rejects_incompatible_accumulators(self):
        times = np.asarray([0.0, 1.0])
        a = _ConfigAccumulator(ReplicaConfig(3, 1, 1), times, 64, keep_samples=False)
        b = _ConfigAccumulator(ReplicaConfig(3, 2, 1), times, 64, keep_samples=False)
        with pytest.raises(AnalysisError):
            a.merge(b)
        c = _ConfigAccumulator(
            ReplicaConfig(3, 1, 1), np.asarray([0.0, 2.0]), 64, keep_samples=False
        )
        with pytest.raises(AnalysisError):
            a.merge(c)

    def test_merge_rejects_mixed_sample_retention_both_ways(self):
        """Neither direction may silently drop retained samples."""
        config = ReplicaConfig(3, 1, 1)
        times = np.asarray([0.0, 1.0])
        result = WARSModel(ymmr(), config).sample(100, 0)

        def accumulator(keep: bool) -> _ConfigAccumulator:
            built = _ConfigAccumulator(config, times, 64, keep_samples=keep)
            built.update(
                result, np.sort(result.read_latencies_ms), np.sort(result.commit_latencies_ms)
            )
            return built

        with pytest.raises(AnalysisError):
            accumulator(True).merge(accumulator(False))
        with pytest.raises(AnalysisError):
            accumulator(False).merge(accumulator(True))
        # Both-retaining merges concatenate in order.
        both = accumulator(True)
        both.merge(accumulator(True))
        assert both.trials == 200 and len(both.kept_results()) == 2
