"""The parallel/serial equivalence harness for the sharded sweep engine.

The engine's sharding contract (see ``repro/montecarlo/engine.py``, section
"Multiprocess sharding and the merge contract"): for any ``workers`` count, a
seed-mode ``SweepEngine.run`` is **bit-for-bit identical** to the serial run —
every consistency count, every histogram bin (hence every quantile), every
extreme, ``trials_run``, and the ``stopped_early``/``converged`` flags.  These
tests pin that contract, the early-stopping interaction, and the documented
serial fallbacks (sequential generators, ``keep_samples``).

The streaming single-configuration paths (``visibility_curve`` /
``operation_latency_cdf`` with ``streaming=True``) ride on the same engine and
are covered at the bottom.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool

import numpy as np
import pytest

from repro.core.quorum import ReplicaConfig
from repro.exceptions import ConfigurationError
from repro.latency.production import lnkd_disk, lnkd_ssd, ymmr
from repro.montecarlo.engine import (
    SAMPLE_BLOCK,
    SweepEngine,
    SweepResult,
    min_trials_for_quantile,
)
from repro.montecarlo.latency import StreamingOperationLatency, operation_latency_cdf
from repro.montecarlo.tvisibility import visibility_curve

#: Mixed replication factors: sharding must respect the per-N seed streams.
_CONFIGS = (
    ReplicaConfig(3, 1, 1),
    ReplicaConfig(3, 2, 1),
    ReplicaConfig(3, 2, 2),
    ReplicaConfig(2, 1, 1),
)
_TIMES = (0.0, 0.5, 2.0, 10.0, 50.0)
_QUANTILE_PROBES = (0.0, 0.5, 0.9, 0.99, 1.0)


def _engine(workers: int = 1, **kwargs) -> SweepEngine:
    kwargs.setdefault("times_ms", _TIMES)
    kwargs.setdefault("chunk_size", SAMPLE_BLOCK)
    return SweepEngine(ymmr(), _CONFIGS, workers=workers, **kwargs)


def assert_sweeps_identical(one: SweepResult, other: SweepResult) -> None:
    """Assert two sweeps are bit-for-bit identical (ignoring the workers knob)."""
    assert one.trials_run == other.trials_run
    assert one.trials_requested == other.trials_requested
    assert one.stopped_early == other.stopped_early
    assert one.converged == other.converged
    assert len(one) == len(other)
    for a, b in zip(one, other):
        assert a.config == b.config
        assert a.trials == b.trials
        assert a.times_ms == b.times_ms
        assert a.consistent_counts == b.consistent_counts
        assert a.nonpositive_thresholds == b.nonpositive_thresholds
        for q in _QUANTILE_PROBES:
            assert a.t_visibility(max(q, 1e-6)) == b.t_visibility(max(q, 1e-6))
            assert a.read_latency_percentile(q * 100.0) == b.read_latency_percentile(q * 100.0)
            assert a.write_latency_percentile(q * 100.0) == b.write_latency_percentile(q * 100.0)


class TestParallelSerialEquivalence:
    """workers > 1 reproduces the serial seed-mode run bit-for-bit."""

    def test_sharded_run_is_bitwise_identical_to_serial(self, workers):
        trials = 5 * SAMPLE_BLOCK + 777  # multiple chunks, ragged final block
        serial = _engine().run(trials, 42)
        sharded = _engine(workers=workers).run(trials, 42)
        assert_sweeps_identical(serial, sharded)
        assert sharded.workers == workers

    def test_histogram_state_matches_bin_for_bin(self, workers):
        """Beyond quantile queries: the merged sketch state itself is equal."""
        trials = 3 * SAMPLE_BLOCK
        serial = _engine().run(trials, 9).results[0]
        sharded = _engine(workers=workers).run(trials, 9).results[0]
        for attribute in ("_threshold_histogram", "_read_histogram", "_write_histogram"):
            ours, theirs = getattr(serial, attribute), getattr(sharded, attribute)
            assert ours.count == theirs.count
            assert ours.min == theirs.min
            assert ours.max == theirs.max
            assert np.array_equal(ours._edges, theirs._edges)
            assert np.array_equal(ours._counts, theirs._counts)
            assert ours._underflow == theirs._underflow
            assert ours._overflow == theirs._overflow

    def test_single_chunk_sweep_skips_the_pool(self, workers):
        """Sweeps no larger than one chunk run inline and stay identical."""
        serial = _engine(chunk_size=4 * SAMPLE_BLOCK).run(2 * SAMPLE_BLOCK, 3)
        sharded = _engine(workers=workers, chunk_size=4 * SAMPLE_BLOCK).run(2 * SAMPLE_BLOCK, 3)
        assert_sweeps_identical(serial, sharded)

    def test_sequential_generator_falls_back_to_serial(self, workers):
        """Generator mode cannot shard; results must match the serial stream."""
        trials = 2 * SAMPLE_BLOCK
        serial = _engine().run(trials, np.random.default_rng(5))
        sharded = _engine(workers=workers).run(trials, np.random.default_rng(5))
        assert_sweeps_identical(serial, sharded)

    def test_keep_samples_falls_back_to_serial(self, workers):
        """Sample retention forces serial execution but keeps full fidelity."""
        trials = 2 * SAMPLE_BLOCK + 100
        serial = _engine(keep_samples=True).run(trials, 8)
        sharded = _engine(workers=workers, keep_samples=True).run(trials, 8)
        assert_sweeps_identical(serial, sharded)
        for a, b in zip(serial, sharded):
            assert np.array_equal(
                a.as_trial_result().staleness_thresholds_ms,
                b.as_trial_result().staleness_thresholds_ms,
            )

    def test_worker_count_validation(self):
        with pytest.raises(ConfigurationError):
            _engine(workers=0)
        with pytest.raises(ConfigurationError):
            _engine(workers=-2)


class TestEarlyStoppingWithWorkers:
    """Coordinator-side stopping on merged partials matches serial exactly."""

    def test_flags_and_trials_match_serial_run(self, workers):
        kwargs = dict(tolerance=0.02, min_trials=2 * SAMPLE_BLOCK)
        serial = _engine(**kwargs).run(1_000_000, 13)
        sharded = _engine(workers=workers, **kwargs).run(1_000_000, 13)
        assert serial.stopped_early and serial.converged
        assert_sweeps_identical(serial, sharded)

    def test_never_stops_below_min_trials_floor(self, workers):
        """A loose tolerance converges immediately, yet the tail-support floor
        (min_trials_for_quantile-style) holds for every worker count."""
        floor = 4 * SAMPLE_BLOCK
        sharded = _engine(workers=workers, tolerance=0.05, min_trials=floor).run(
            1_000_000, 13
        )
        assert sharded.stopped_early
        assert sharded.trials_run >= floor
        # The floor callers actually use: ~100 samples above the quantile.
        assert floor >= min_trials_for_quantile(0.995)

    def test_unconverged_budget_exhaustion_matches_serial(self, workers):
        kwargs = dict(tolerance=1e-6)
        serial = _engine(**kwargs).run(3 * SAMPLE_BLOCK, 21)
        sharded = _engine(workers=workers, **kwargs).run(3 * SAMPLE_BLOCK, 21)
        assert not sharded.stopped_early and not sharded.converged
        assert_sweeps_identical(serial, sharded)



def _unfinished(pool: multiprocessing.pool.Pool) -> int:
    """Chunks the pool has accepted but not yet sent back in full."""
    return sum(not result.ready() for result in list(pool._cache.values()))


@pytest.fixture
def pool_spy(monkeypatch) -> dict[str, list[int]]:
    """Record the pool's unfinished chunks at each submission and at terminate()."""
    seen: dict[str, list[int]] = {"submit": [], "terminate": []}
    apply_async = multiprocessing.pool.Pool.apply_async
    terminate = multiprocessing.pool.Pool.terminate

    def spy_apply_async(self, *args, **kwargs):
        seen["submit"].append(_unfinished(self))
        return apply_async(self, *args, **kwargs)

    def spy_terminate(self):
        seen["terminate"].append(_unfinished(self))
        terminate(self)

    monkeypatch.setattr(multiprocessing.pool.Pool, "apply_async", spy_apply_async)
    monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", spy_terminate)
    return seen


class TestPoolShutdown:
    """An early stop never terminates the pool while a chunk is in flight.

    ``Pool.terminate()`` kills its workers; one killed part-way through
    sending a partial larger than the pipe buffer (these sweeps' partials are
    about 0.8 MB) leaves the pool's result handler waiting for ever on the
    rest of the message, and the sweep hangs.
    """

    def test_early_stop_terminates_an_idle_pool(self, workers, pool_spy):
        sharded = _engine(workers=workers, tolerance=0.05, min_trials=4 * SAMPLE_BLOCK).run(
            1_000_000, 13
        )
        assert sharded.stopped_early
        assert pool_spy["terminate"] == [0]

    def test_adaptive_early_stop_terminates_an_idle_pool(self, workers, pool_spy):
        sharded = SweepEngine(
            lnkd_disk(),
            (ReplicaConfig(3, 1, 1),),
            times_ms=(0.0, 1000.0),
            target_probability=0.999,
            probe_resolution_ms=2.0,
            chunk_size=SAMPLE_BLOCK,
            workers=workers,
            tolerance=0.01,
            min_trials=2 * SAMPLE_BLOCK,
        ).run(2_000_000, 13)
        assert sharded.stopped_early
        assert pool_spy["terminate"] == [0]

    def test_fixed_grid_speculates_two_chunks_per_worker(self, workers, pool_spy):
        """The window bounds what an early stop must wait for."""
        sharded = _engine(workers=workers, tolerance=0.05, min_trials=4 * SAMPLE_BLOCK).run(
            1_000_000, 13
        )
        assert sharded.stopped_early
        assert pool_spy["submit"] and max(pool_spy["submit"]) < 2 * workers

    def test_no_worker_outlives_an_early_stopped_sweep(self, workers):
        _engine(workers=workers, tolerance=0.05, min_trials=4 * SAMPLE_BLOCK).run(1_000_000, 13)
        assert multiprocessing.active_children() == []


class TestStreamingSingleConfigPaths:
    """visibility_curve / operation_latency_cdf streaming through the engine."""

    def test_streaming_visibility_curve_matches_exact_probabilities(self, workers):
        distributions = ymmr()
        config = ReplicaConfig(3, 1, 1)
        times = (0.0, 1.0, 10.0, 100.0)
        trials = 2 * SAMPLE_BLOCK
        streamed = visibility_curve(
            distributions,
            config,
            times,
            trials=trials,
            rng=0,
            streaming=True,
            chunk_size=SAMPLE_BLOCK,
            workers=workers,
        )
        serial = visibility_curve(
            distributions, config, times, trials=trials, rng=0, streaming=True,
            chunk_size=SAMPLE_BLOCK,
        )
        # Probe-time probabilities are exact counts: identical across modes.
        assert streamed.probabilities == serial.probabilities
        assert streamed.times_ms == times
        assert streamed.trials == trials
        # And statistically consistent with the materialised path.
        exact = visibility_curve(distributions, config, times, trials=trials, rng=0)
        for p_streamed, p_exact in zip(streamed.probabilities, exact.probabilities):
            assert p_streamed == pytest.approx(p_exact, abs=0.02)

    def test_streaming_latency_cdf_tracks_exact_arrays(self, workers):
        distributions = lnkd_ssd()
        config = ReplicaConfig(3, 2, 2)
        trials = 4 * SAMPLE_BLOCK
        streamed = operation_latency_cdf(
            distributions,
            config,
            trials=trials,
            rng=0,
            streaming=True,
            chunk_size=SAMPLE_BLOCK,
            workers=workers,
        )
        assert isinstance(streamed, StreamingOperationLatency)
        assert streamed.trials == trials
        exact = operation_latency_cdf(distributions, config, trials=trials, rng=1)
        for percentile in (50.0, 95.0, 99.0):
            assert streamed.read_percentile(percentile) == pytest.approx(
                exact.read_percentile(percentile), rel=0.05
            )
            assert streamed.write_percentile(percentile) == pytest.approx(
                exact.write_percentile(percentile), rel=0.05
            )
        grid = [exact.read_percentile(p) for p in (25.0, 50.0, 90.0, 99.0)]
        for (x_s, f_s), (x_e, f_e) in zip(streamed.read_cdf(grid), exact.read_cdf(grid)):
            assert x_s == x_e
            assert f_s == pytest.approx(f_e, abs=0.02)
        # CDF is monotone and bounded.
        fractions = [f for _, f in streamed.write_cdf(sorted(grid))]
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert fractions == sorted(fractions)

    def test_workers_alone_selects_streaming_path(self):
        result = operation_latency_cdf(
            lnkd_ssd(), ReplicaConfig(3, 1, 1), trials=1_000, rng=0, workers=2
        )
        assert isinstance(result, StreamingOperationLatency)
