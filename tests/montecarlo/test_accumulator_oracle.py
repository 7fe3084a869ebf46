"""The Monte Carlo reduction and accumulators against the algorithms they replaced.

The kernel (:data:`repro.kernels.KERNEL`) sorts each trial's replicas with a
stable insertion network over one row per replica.  The reference below is
the reduction it replaced, kept here as the oracle: ``np.sort`` of the write
round trips, a stable ``argsort`` of the read round trips, a gather of both
read round trips and ``W - R`` margins in that order, and
``np.minimum.accumulate``.  All three outputs must agree byte for byte, so a
``-0.0`` must come out where the oracle puts it.

Each block of trials is then sorted once per result column, and each
distinct read or commit column once for every configuration that reads it:
probes are counted by ``searchsorted`` of the sorted thresholds, and every
histogram bins its sorted values by one ``searchsorted`` of its frozen
edges.  The reference below is the earlier algorithm, kept here as the
oracle: ``count_nonzero`` passes for the extremes, underflow and overflow,
``np.histogram`` for the bins, and boolean ``thresholds <= t`` matrices for
the probes.  Every piece of state must agree exactly, on inputs chosen to
sit on the boundaries the golden sweeps never hit: values on the frozen
edges, values outside them, degenerate first batches, and thresholds equal
to probe times (``-0.0`` and ``0.0`` included).

NumPy picks its sort and comparison loops by the CPU features it finds, so
the module runs again in a subprocess with the AVX-512 loops switched off
wherever NumPy reports AVX-512.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.quorum import ReplicaConfig
from repro.core.wars import WARSTrialResult, sample_wars_batch
from repro.experiments.table4 import TABLE4_CONFIGS
from repro.kernels import KERNEL
from repro.latency.production import lnkd_ssd, ymmr
from repro.montecarlo.engine import StreamingHistogram, _accumulate_batch, _ConfigAccumulator

try:
    from numpy._core._multiarray_umath import __cpu_features__ as _CPU_FEATURES
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_features__ as _CPU_FEATURES

#: The switch that turns NumPy's AVX-512 loops off for one process.
_AVX512_OFF = "AVX512_SPR AVX512_ICL X86_V4"

_BINS = 64
_CONFIG = ReplicaConfig(3, 1, 1)
_BASE_TIMES = np.array([0.0, 0.5, 1.0, 2.5, 10.0])
_REFINED_TIMES = (0.25, 0.75, 1.75)


def _reference_reduce(
    write_delays: np.ndarray,
    ack_delays: np.ndarray,
    read_delays: np.ndarray,
    response_delays: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The earlier ``reduce_batch``: sort, stable argsort, gathers, prefix minima."""
    trials = write_delays.shape[0]
    commit_latency_by_w = np.sort(write_delays + ack_delays, axis=1)
    read_round_trips = read_delays + response_delays
    responder_order = np.argsort(read_round_trips, axis=1, kind="stable")
    row_index = np.arange(trials)[:, None]
    read_latency_by_r = read_round_trips[row_index, responder_order]
    margins = (write_delays - read_delays)[row_index, responder_order]
    return commit_latency_by_w, read_latency_by_r, np.minimum.accumulate(margins, axis=1)


def _legs(kind: str, trials: int, n: int, seed: int) -> list[np.ndarray]:
    """The four ``(trials, n)`` delay matrices W, A, R, S of one kind."""
    rng = np.random.default_rng(seed)
    shape = (trials, n)
    if kind == "continuous":
        return [
            rng.exponential(2.0, shape),
            rng.pareto(1.5, shape),
            rng.exponential(0.5, shape),
            rng.lognormal(0.0, 1.0, shape),
        ]
    if kind == "integer":
        # Three values per leg: most rows hold ties, and W - R hits 0.0.
        return [rng.integers(0, 3, shape).astype(float) for _ in range(4)]
    if kind == "constant":
        return [np.full(shape, value) for value in (2.0, 1.0, 0.5, 0.5)]
    if kind == "signed-zero":
        # An empirical leg can hold -0.0: sums and differences of -0.0 and
        # 0.0 give both signs, so rows mix them in all three outputs.
        return [rng.choice([-0.0, 0.0, 1.0], size=shape) for _ in range(4)]
    raise AssertionError(kind)


def _same_bytes(actual: np.ndarray, expected: np.ndarray) -> bool:
    return (
        actual.shape == expected.shape
        and actual.dtype == expected.dtype
        and np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()
    )


class TestReductionOracle:
    @pytest.mark.parametrize("trials", [1, 8_193])
    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("kind", ["continuous", "integer", "constant"])
    def test_network_matches_the_sort_reduction(self, kind, n, trials):
        legs = _legs(kind, trials, n, seed=100 * n + trials)
        before = [leg.copy() for leg in legs]
        actual = KERNEL.reduce_batch(*legs)
        expected = _reference_reduce(*legs)
        for name, got, want in zip(("commit", "read", "margin"), actual, expected):
            assert _same_bytes(got, want), name
        for leg, copy in zip(legs, before):
            assert _same_bytes(leg, copy)

    @pytest.mark.parametrize("trials", [1, 8_193])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_signed_zeros_keep_the_stable_order(self, n, trials):
        legs = _legs("signed-zero", trials, n, seed=7 * n + trials)
        commit, read, margin = KERNEL.reduce_batch(*legs)
        _, expected_read, expected_margin = _reference_reduce(*legs)
        zeros = commit == 0.0
        if trials > 1:
            assert (zeros & np.signbit(commit)).any() and (zeros & ~np.signbit(commit)).any()
        assert _same_bytes(read, expected_read)
        assert _same_bytes(margin, expected_margin)
        # ``np.sort``'s default kind is not stable: on rows of four or more
        # it can exchange -0.0 and 0.0, and NumPy's AVX2 loops can even turn
        # one into the other in rows of five or more, so which zero lands
        # where depends on the CPU.  Here the oracle is the stable sort,
        # which the default kind equals on every row without signed zeros.
        write_round_trips = legs[0] + legs[1]
        assert _same_bytes(commit, np.sort(write_round_trips, axis=1, kind="stable"))


@pytest.mark.skipif(
    not _CPU_FEATURES.get("AVX512F") or "NPY_DISABLE_CPU_FEATURES" in os.environ,
    reason="NumPy reports no AVX-512 here, or this is the rerun",
)
def test_module_passes_with_avx512_loops_off():
    root = Path(__file__).resolve().parents[2]
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(Path(__file__))],
        cwd=root,
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": _AVX512_OFF},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stdout[-4000:] + completed.stderr[-2000:]


def _reference_histogram_update(histogram: StreamingHistogram, values) -> None:
    """The earlier ``StreamingHistogram.update``: one pass per statistic."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        return
    histogram._min = min(histogram._min, float(values.min()))
    histogram._max = max(histogram._max, float(values.max()))
    if histogram._edges is None:
        lo, hi = histogram._min, histogram._max
        if not hi > lo:
            hi = lo + max(abs(lo), 1.0) * 1e-9
        if histogram._log_scale and lo > 0.0:
            histogram._edges = np.geomspace(lo / 4.0, hi * 64.0, histogram._bins + 1)
        else:
            span = hi - lo
            histogram._edges = np.linspace(
                lo - 0.5 * span, hi + 2.0 * span, histogram._bins + 1
            )
        histogram._counts = np.zeros(histogram._bins, dtype=np.int64)
    histogram._underflow += int(np.count_nonzero(values < histogram._edges[0]))
    histogram._overflow += int(np.count_nonzero(values > histogram._edges[-1]))
    histogram._counts += np.histogram(values, bins=histogram._edges)[0]
    histogram._count += int(values.size)


def _reference_accumulator_update(
    accumulator: _ConfigAccumulator, result: WARSTrialResult
) -> None:
    """The earlier ``_ConfigAccumulator.update``: boolean probe matrices."""
    thresholds = result.staleness_thresholds_ms
    accumulator.trials += thresholds.size
    if accumulator.times_ms.size:
        accumulator.consistent_counts += np.count_nonzero(
            thresholds[:, None] <= accumulator.times_ms[None, :], axis=0
        )
    if accumulator.refined_probes:
        refined_times = np.asarray(list(accumulator.refined_probes), dtype=float)
        refined_counts = np.count_nonzero(
            thresholds[:, None] <= refined_times[None, :], axis=0
        )
        for entry, count in zip(accumulator.refined_probes.values(), refined_counts):
            entry[0] += int(count)
            entry[1] += thresholds.size
    accumulator.nonpositive_thresholds += int(np.count_nonzero(thresholds <= 0.0))
    _reference_histogram_update(accumulator.threshold_histogram, thresholds)
    _reference_histogram_update(accumulator.read_histogram, result.read_latencies_ms)
    _reference_histogram_update(accumulator.write_histogram, result.commit_latencies_ms)


def _assert_histograms_equal(actual: StreamingHistogram, expected: StreamingHistogram) -> None:
    assert actual._count == expected._count
    assert actual._underflow == expected._underflow
    assert actual._overflow == expected._overflow
    assert actual._min == expected._min
    assert actual._max == expected._max
    assert np.array_equal(actual._edges, expected._edges)
    assert np.array_equal(actual._counts, expected._counts)


def _edge_batch(histogram: StreamingHistogram, rng: np.random.Generator) -> np.ndarray:
    """Values on the first, an interior and the last frozen edge, their
    float neighbours, values below and above the range, and random fill."""
    edges = histogram._edges
    assert edges is not None
    span = edges[-1] - edges[0]
    on_edges = np.array([edges[0], edges[_BINS // 2], edges[-1], edges[1], edges[-2]])
    neighbours = np.concatenate(
        [np.nextafter(on_edges, -np.inf), np.nextafter(on_edges, np.inf)]
    )
    outside = np.array([edges[0] - 0.5 * span, edges[-1] + span, edges[-1] * 4.0])
    fill = rng.uniform(edges[0], edges[-1], size=257)
    values = np.concatenate([on_edges, on_edges, neighbours, outside, fill])
    return rng.permutation(values)


class TestStreamingHistogramOracle:
    @pytest.mark.parametrize("log_scale", [False, True], ids=["linear", "log"])
    def test_edges_and_outliers_bin_as_np_histogram(self, log_scale):
        rng = np.random.default_rng(5)
        actual = StreamingHistogram(_BINS, log_scale=log_scale)
        expected = StreamingHistogram(_BINS, log_scale=log_scale)
        first = 0.5 + rng.exponential(3.0, size=301)
        actual.update(first)
        _reference_histogram_update(expected, first)
        _assert_histograms_equal(actual, expected)
        for _ in range(4):
            batch = _edge_batch(actual, rng)
            actual.update(batch)
            _reference_histogram_update(expected, batch)
            _assert_histograms_equal(actual, expected)
        assert actual._underflow > 0 and actual._overflow > 0

    @pytest.mark.parametrize("log_scale", [False, True], ids=["linear", "log"])
    @pytest.mark.parametrize("value", [3.0, 0.0, -2.0])
    def test_degenerate_first_batch(self, log_scale, value):
        rng = np.random.default_rng(7)
        actual = StreamingHistogram(_BINS, log_scale=log_scale)
        expected = StreamingHistogram(_BINS, log_scale=log_scale)
        first = np.full(9, value)
        actual.update(first)
        _reference_histogram_update(expected, first)
        _assert_histograms_equal(actual, expected)
        batch = np.concatenate([_edge_batch(actual, rng), rng.normal(value, 1.0, 64)])
        actual.update(batch)
        _reference_histogram_update(expected, batch)
        _assert_histograms_equal(actual, expected)

    def test_non_positive_first_batch_falls_back_to_linear_bins(self):
        rng = np.random.default_rng(9)
        actual = StreamingHistogram(_BINS, log_scale=True)
        expected = StreamingHistogram(_BINS, log_scale=True)
        for batch in (rng.normal(0.0, 1.0, 200), rng.normal(1.0, 3.0, 500)):
            actual.update(batch)
            _reference_histogram_update(expected, batch)
            _assert_histograms_equal(actual, expected)

    def test_update_accepts_any_shape_and_leaves_its_input_alone(self):
        values = np.random.default_rng(11).exponential(2.0, size=(6, 7))
        before = values.copy()
        actual = StreamingHistogram(_BINS)
        expected = StreamingHistogram(_BINS)
        actual.update(values)
        _reference_histogram_update(expected, values)
        _assert_histograms_equal(actual, expected)
        assert np.array_equal(values, before)
        actual.update(np.empty(0))
        _assert_histograms_equal(actual, expected)


def _probe_result(rng: np.random.Generator, size: int) -> WARSTrialResult:
    """Thresholds that hit every base and refined probe time exactly,
    ``-0.0`` and ``0.0`` among them, beside negative and large values."""
    probes = np.concatenate([_BASE_TIMES, _REFINED_TIMES, [-0.0, 0.0, -0.0]])
    spread = rng.normal(1.0, 2.0, size=size - probes.size)
    thresholds = rng.permutation(np.concatenate([probes, probes, spread]))[:size]
    return WARSTrialResult(
        config=_CONFIG,
        commit_latencies_ms=0.2 + rng.exponential(1.0, size=size),
        read_latencies_ms=0.1 + rng.pareto(3.0, size=size),
        staleness_thresholds_ms=thresholds,
    )


def _update_sorting_each_column(accumulator: _ConfigAccumulator, result: WARSTrialResult) -> None:
    """One configuration's update with its own sorted read and commit columns."""
    accumulator.update(
        result, np.sort(result.read_latencies_ms), np.sort(result.commit_latencies_ms)
    )


def _assert_accumulators_equal(actual: _ConfigAccumulator, expected: _ConfigAccumulator) -> None:
    assert actual.trials == expected.trials
    assert np.array_equal(actual.consistent_counts, expected.consistent_counts)
    assert actual.refined_probes == expected.refined_probes
    assert list(actual.refined_probes) == list(expected.refined_probes)
    assert actual.nonpositive_thresholds == expected.nonpositive_thresholds
    _assert_histograms_equal(actual.threshold_histogram, expected.threshold_histogram)
    _assert_histograms_equal(actual.read_histogram, expected.read_histogram)
    _assert_histograms_equal(actual.write_histogram, expected.write_histogram)


class TestConfigAccumulatorOracle:
    def test_probe_counts_and_sketches_match_the_reference(self):
        rng = np.random.default_rng(13)
        actual = _ConfigAccumulator(_CONFIG, _BASE_TIMES, _BINS, keep_samples=False)
        expected = _ConfigAccumulator(_CONFIG, _BASE_TIMES, _BINS, keep_samples=False)
        for block in range(5):
            if block == 2:
                # Refined probes join mid-run, as adaptive refinement adds them.
                actual.add_probes(_REFINED_TIMES)
                expected.add_probes(_REFINED_TIMES)
            result = _probe_result(rng, 97 + 40 * block)
            _update_sorting_each_column(actual, result)
            _reference_accumulator_update(expected, result)
            _assert_accumulators_equal(actual, expected)
        assert actual.nonpositive_thresholds > 0
        observed = sum(97 + 40 * block for block in (2, 3, 4))
        assert [seen for _, seen in actual.refined_probes.values()] == [observed] * 3

    def test_merged_refined_probes_are_counted_too(self):
        rng = np.random.default_rng(17)
        primed = _ConfigAccumulator(_CONFIG, _BASE_TIMES, _BINS, keep_samples=False)
        _update_sorting_each_column(primed, _probe_result(rng, 120))
        actual, expected = primed.spawn_empty(), primed.spawn_empty()
        shard = primed.spawn_empty()
        shard.add_probes(_REFINED_TIMES[1:])
        _update_sorting_each_column(shard, _probe_result(rng, 60))
        for accumulator in (actual, expected):
            accumulator.add_probes(_REFINED_TIMES[:1])
            accumulator.merge(shard)
        result = _probe_result(rng, 150)
        _update_sorting_each_column(actual, result)
        _reference_accumulator_update(expected, result)
        _assert_accumulators_equal(actual, expected)

    def test_update_leaves_the_shared_batch_untouched(self):
        """Configurations with the same R read one column of the batch, so
        sorting it in place would reorder the other configuration's trials."""
        batch = sample_wars_batch(lnkd_ssd(), 500, 3, np.random.default_rng(19))
        configs = (ReplicaConfig(3, 1, 1), ReplicaConfig(3, 1, 2))
        results = [batch.reduce(config) for config in configs]
        assert np.shares_memory(results[0].read_latencies_ms, results[1].read_latencies_ms)
        fields = (
            "write_arrivals_ms",
            "commit_latency_by_w_ms",
            "read_latency_by_r_ms",
            "freshness_margin_by_r_ms",
        )
        batch_before = {name: getattr(batch, name).copy() for name in fields}
        results_before = [
            (
                result.commit_latencies_ms.copy(),
                result.read_latencies_ms.copy(),
                result.staleness_thresholds_ms.copy(),
            )
            for result in results
        ]
        accumulators = [
            _ConfigAccumulator(config, _BASE_TIMES, _BINS, keep_samples=True)
            for config in configs
        ]
        _accumulate_batch(batch, configs, (0, 1), accumulators)
        for name in fields:
            assert np.array_equal(getattr(batch, name), batch_before[name])
        for result, (commit, read, thresholds) in zip(results, results_before):
            assert np.array_equal(result.commit_latencies_ms, commit)
            assert np.array_equal(result.read_latencies_ms, read)
            assert np.array_equal(result.staleness_thresholds_ms, thresholds)
        for accumulator, (commit, read, thresholds) in zip(accumulators, results_before):
            kept = accumulator.kept_results()[0]
            assert np.array_equal(kept.commit_latencies_ms, commit)
            assert np.array_equal(kept.read_latencies_ms, read)
            assert np.array_equal(kept.staleness_thresholds_ms, thresholds)


class TestSharedSortedColumns:
    """One sorted read or commit column per block, shared by every
    configuration with that R or W, bins as sorting per configuration does."""

    @pytest.mark.parametrize("n", [3, 5])
    def test_shared_columns_match_per_configuration_sorting(self, n):
        configs = tuple(
            ReplicaConfig(n, r, w)
            for r, w in ((1, 1), (1, 2), (2, 1), (2, 2), (n, 1), (1, n), (2, 2))
        )
        indices = tuple(range(len(configs)))
        shared = [_ConfigAccumulator(c, _BASE_TIMES, _BINS, keep_samples=False) for c in configs]
        reference = [
            _ConfigAccumulator(c, _BASE_TIMES, _BINS, keep_samples=False) for c in configs
        ]
        rng = np.random.default_rng(23)
        # The first block freezes every layout; later blocks land on and
        # beyond its edges, and one block is a single trial.
        for trials in (700, 1, 2_000, 333):
            batch = sample_wars_batch(ymmr(), trials, n, rng)
            _accumulate_batch(batch, configs, indices, shared)
            for accumulator, config in zip(reference, configs):
                _reference_accumulator_update(accumulator, batch.reduce(config))
            for actual, expected in zip(shared, reference):
                _assert_accumulators_equal(actual, expected)

    def test_each_distinct_column_is_sorted_once(self, monkeypatch):
        batch = sample_wars_batch(lnkd_ssd(), 256, 3, np.random.default_rng(29))
        accumulators = [
            _ConfigAccumulator(c, _BASE_TIMES, _BINS, keep_samples=False)
            for c in TABLE4_CONFIGS
        ]
        sorted_sizes = []
        real_sort = np.sort

        def counting_sort(values, *args, **kwargs):
            sorted_sizes.append(np.shape(values))
            return real_sort(values, *args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        _accumulate_batch(batch, TABLE4_CONFIGS, tuple(range(len(TABLE4_CONFIGS))), accumulators)
        # Table 4 reads R in {1, 2, 3} and W in {1, 2, 3}: three read and
        # three commit columns, plus one threshold column per configuration.
        assert len(sorted_sizes) == 3 + 3 + len(TABLE4_CONFIGS)
