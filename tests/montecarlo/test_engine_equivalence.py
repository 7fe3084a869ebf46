"""Equivalence properties of the shared-sample sweep engine.

The engine's correctness contract against the single-configuration kernel
(:meth:`repro.core.wars.WARSModel.sample`) has three layers:

1. *Exact*: a single-chunk engine run fed a generator in the same state as
   the kernel reproduces the kernel's per-trial arrays bit-for-bit, for every
   configuration evaluated against the shared batch.
2. *Chunk-invariant*: with an integer seed, the accumulated consistency
   counts do not depend on the chosen chunk size.
3. *Statistical*: seeded engine summaries agree with independent kernel runs
   within Wilson-interval tolerance (consistency) and 2% (latency
   percentiles).

Plus the early-stopping contract: a sweep that stops before its trial budget
never reports an estimate whose Wilson half-width exceeds the requested
tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quorum import ReplicaConfig, iter_configs
from repro.core.wars import WARSModel, sample_wars_batch
from repro.exceptions import AnalysisError, ConfigurationError
from repro.kernels import KERNEL, resolve_backend
from repro.latency.distributions import ConstantLatency, ExponentialLatency
from repro.latency.production import WARSDistributions, lnkd_ssd, ymmr
from repro.montecarlo.convergence import wilson_interval
from repro.montecarlo.engine import (
    SAMPLE_BLOCK,
    StreamingHistogram,
    SweepEngine,
)

_CONFIGS = tuple(iter_configs(3))
_TIMES = (0.0, 0.5, 2.0, 10.0, 50.0)


def _assert_trial_results_equal(actual, expected) -> None:
    assert actual.config == expected.config
    assert np.array_equal(actual.commit_latencies_ms, expected.commit_latencies_ms)
    assert np.array_equal(actual.read_latencies_ms, expected.read_latencies_ms)
    assert np.array_equal(
        actual.staleness_thresholds_ms, expected.staleness_thresholds_ms
    )
    assert np.array_equal(actual.write_arrivals_ms, expected.write_arrivals_ms)


class TestExactEquivalence:
    """Single-chunk engine runs reproduce the kernel bit-for-bit."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        trials=st.integers(min_value=1, max_value=3_000),
        config=st.sampled_from(_CONFIGS),
    )
    def test_single_chunk_same_generator_matches_kernel(self, seed, trials, config):
        distributions = ymmr()
        engine = SweepEngine(
            distributions,
            (config,),
            times_ms=_TIMES,
            chunk_size=max(trials, 1),
            keep_samples=True,
        )
        sweep = engine.run(trials, np.random.default_rng(seed))
        kernel = WARSModel(distributions, config).sample(
            trials, np.random.default_rng(seed)
        )
        _assert_trial_results_equal(sweep.results[0].as_trial_result(), kernel)
        # The streaming counts agree with the kernel's exact curve.
        for t_ms, probability in sweep.results[0].consistency_curve(_TIMES):
            assert probability == kernel.consistency_probability(t_ms)
        # With samples kept, derived statistics are the kernel's exactly.
        assert sweep.results[0].t_visibility(0.999) == kernel.t_visibility(0.999)
        assert sweep.results[0].read_latency_percentile(99.0) == kernel.read_latency_percentile(99.0)
        assert sweep.results[0].write_latency_percentile(99.0) == kernel.write_latency_percentile(99.0)

    def test_every_config_matches_shared_batch_reduction(self):
        """A multi-config sweep equals reducing one explicitly drawn batch."""
        distributions = ymmr()
        trials = 4_096
        engine = SweepEngine(
            distributions,
            _CONFIGS,
            times_ms=_TIMES,
            chunk_size=trials,
            keep_samples=True,
        )
        sweep = engine.run(trials, np.random.default_rng(11))
        batch = sample_wars_batch(distributions, trials, 3, np.random.default_rng(11))
        for summary in sweep:
            _assert_trial_results_equal(
                summary.as_trial_result(), batch.reduce(summary.config)
            )

    def test_reduce_matches_inline_reference(self):
        """The reduction reproduces a hand-computed reduction of known inputs."""
        rng = np.random.default_rng(0)
        trials, n = 64, 5
        w, a, r, s = (rng.exponential(2.0, size=(trials, n)) for _ in range(4))
        commit, read, margin = KERNEL.reduce_batch(w, a, r, s)
        assert np.array_equal(commit, np.sort(w + a, axis=1))
        order = np.argsort(r + s, axis=1, kind="stable")
        rows = np.arange(trials)[:, None]
        assert np.array_equal(read, (r + s)[rows, order])
        assert np.array_equal(
            margin, np.minimum.accumulate((w - r)[rows, order], axis=1)
        )

    def test_resolve_backend_returns_the_one_reduction(self):
        """The accessor the benchmark's layer tracing wraps (perfbench/layers.py)."""
        assert resolve_backend(None) is KERNEL
        with pytest.raises(ConfigurationError, match="only Monte Carlo kernel"):
            resolve_backend("numpy")

    def test_strict_quorums_report_zero_window_and_full_consistency(self):
        sweep = SweepEngine(ymmr(), _CONFIGS, times_ms=_TIMES).run(20_000, 3)
        for summary in sweep:
            if summary.config.is_strict:
                assert summary.t_visibility(0.999) == 0.0
                assert summary.probability_never_stale() == 1.0

    def test_shared_samples_preserve_per_trial_coupling(self):
        """Monotonicity in R holds trial-for-trial, not just in expectation."""
        engine = SweepEngine(
            lnkd_ssd(),
            (ReplicaConfig(3, 1, 1), ReplicaConfig(3, 2, 1), ReplicaConfig(3, 3, 1)),
            keep_samples=True,
        )
        sweep = engine.run(8_192, 5)
        thresholds = [s.as_trial_result().staleness_thresholds_ms for s in sweep]
        assert np.all(thresholds[1] <= thresholds[0])
        assert np.all(thresholds[2] <= thresholds[1])


class TestChunkInvariance:
    """Seeded runs accumulate identical counts regardless of chunk size."""

    @pytest.mark.parametrize("chunk_size", [1, SAMPLE_BLOCK, 2 * SAMPLE_BLOCK])
    def test_chunked_matches_unchunked_counts_exactly(self, chunk_size):
        distributions = ymmr()
        trials = 2 * SAMPLE_BLOCK + 1_234  # deliberately not a block multiple
        unchunked = SweepEngine(
            distributions, _CONFIGS, times_ms=_TIMES, chunk_size=10 * SAMPLE_BLOCK
        ).run(trials, 42)
        chunked = SweepEngine(
            distributions, _CONFIGS, times_ms=_TIMES, chunk_size=chunk_size
        ).run(trials, 42)
        for one, other in zip(unchunked, chunked):
            assert one.config == other.config
            assert one.trials == other.trials == trials
            assert one.consistent_counts == other.consistent_counts
            assert one.nonpositive_thresholds == other.nonpositive_thresholds

    def test_seeded_experiment_results_are_chunk_size_invariant(self):
        """The shipped experiment paths forward integer seeds to the engine,
        so published numbers must not depend on --chunk-size."""
        from repro.experiments.registry import run_experiment

        small = run_experiment("table4", trials=20_000, rng=0, chunk_size=SAMPLE_BLOCK)
        large = run_experiment("table4", trials=20_000, rng=0, chunk_size=50 * SAMPLE_BLOCK)
        assert small.rows == large.rows

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        trials=st.integers(min_value=1, max_value=3 * SAMPLE_BLOCK),
    )
    def test_counts_are_a_pure_function_of_seed_and_trials(self, seed, trials):
        distributions = lnkd_ssd()
        configs = (ReplicaConfig(3, 1, 1), ReplicaConfig(3, 2, 2))
        first = SweepEngine(
            distributions, configs, times_ms=_TIMES, chunk_size=SAMPLE_BLOCK
        ).run(trials, seed)
        second = SweepEngine(
            distributions, configs, times_ms=_TIMES, chunk_size=3 * SAMPLE_BLOCK
        ).run(trials, seed)
        assert [s.consistent_counts for s in first] == [
            s.consistent_counts for s in second
        ]


class TestWorkerChunkDeterminismMatrix:
    """workers x chunk_size matrix: one seed, one answer.

    Seed-mode sampling blocks are keyed by block index, chunk boundaries are
    block-aligned, and worker partials merge exactly — so every cell of the
    {workers} x {chunk_size} matrix must produce identical ``SweepResult``
    counts and quantiles.  The reference cell is the plain serial run.
    """

    _TRIALS = 5 * SAMPLE_BLOCK + 321
    _SEED = 2024
    _MATRIX_CONFIGS = (ReplicaConfig(3, 1, 1), ReplicaConfig(3, 2, 2))

    @classmethod
    def _run(cls, workers: int, chunk_size: int):
        return SweepEngine(
            lnkd_ssd(),
            cls._MATRIX_CONFIGS,
            times_ms=_TIMES,
            chunk_size=chunk_size,
            workers=workers,
        ).run(cls._TRIALS, cls._SEED)

    @classmethod
    def _reference(cls):
        if not hasattr(cls, "_cached_reference"):
            cls._cached_reference = cls._run(workers=1, chunk_size=SAMPLE_BLOCK)
        return cls._cached_reference

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize(
        "chunk_size",
        [SAMPLE_BLOCK, 3 * SAMPLE_BLOCK],
        ids=["small-chunk", "large-chunk"],
    )
    def test_counts_and_quantiles_identical_across_matrix(self, workers, chunk_size):
        reference = self._reference()
        candidate = self._run(workers=workers, chunk_size=chunk_size)
        assert candidate.trials_run == reference.trials_run == self._TRIALS
        for ours, theirs in zip(candidate, reference):
            assert ours.config == theirs.config
            assert ours.trials == theirs.trials
            assert ours.consistent_counts == theirs.consistent_counts
            assert ours.nonpositive_thresholds == theirs.nonpositive_thresholds
            for q in (0.5, 0.99, 0.999):
                assert ours.t_visibility(q) == theirs.t_visibility(q)
                assert ours.read_latency_percentile(q * 100.0) == theirs.read_latency_percentile(q * 100.0)
                assert ours.write_latency_percentile(q * 100.0) == theirs.write_latency_percentile(q * 100.0)


class TestStatisticalEquivalence:
    """Engine summaries match independent kernel runs within tolerance."""

    def test_consistency_curves_within_wilson_tolerance(self):
        distributions = ymmr()
        trials = 60_000
        sweep = SweepEngine(distributions, _CONFIGS, times_ms=_TIMES).run(trials, 101)
        for summary in sweep:
            independent = WARSModel(distributions, summary.config).sample(trials, 202)
            for t_ms in _TIMES:
                engine_estimate = summary.estimate_at(t_ms, confidence=0.999)
                kernel_p = independent.consistency_probability(t_ms)
                kernel_margin = wilson_interval(
                    int(round(kernel_p * trials)), trials, 0.999
                ).margin
                assert abs(engine_estimate.probability - kernel_p) <= (
                    engine_estimate.margin + kernel_margin
                )

    def test_latency_percentiles_within_two_percent(self):
        # Light-tailed exponential legs keep the seed-to-seed Monte Carlo
        # noise of the reference percentiles well inside the 2% budget, so
        # the comparison isolates the engine's own error.
        distributions = WARSDistributions.write_specialised(
            write=ExponentialLatency.from_mean(10.0),
            other=ExponentialLatency.from_mean(2.0),
            name="exp-equivalence",
        )
        trials = 60_000
        sweep = SweepEngine(distributions, _CONFIGS).run(trials, 7)
        for summary in sweep:
            independent = WARSModel(distributions, summary.config).sample(trials, 8)
            for percentile in (50.0, 95.0, 99.0):
                assert summary.read_latency_percentile(percentile) == pytest.approx(
                    independent.read_latency_percentile(percentile), rel=0.02
                )
                assert summary.write_latency_percentile(percentile) == pytest.approx(
                    independent.write_latency_percentile(percentile), rel=0.02
                )

    def test_sketch_tracks_exact_percentiles_on_heavy_tails(self):
        """On YMMR's heavy tails the streaming sketch stays within 2% of the
        exact per-trial percentiles, p50 through p99.9.

        Two seeded runs see identical trials (seed mode is chunk- and
        flag-invariant), so comparing the no-keep run's sketches against the
        keep-samples run's exact arrays isolates the sketch error.
        """
        sketched = SweepEngine(ymmr(), _CONFIGS).run(100_000, 1)
        exact = SweepEngine(ymmr(), _CONFIGS, keep_samples=True).run(100_000, 1)
        for sketch_summary, exact_summary in zip(sketched, exact):
            for percentile in (50.0, 99.0, 99.9):
                assert sketch_summary.read_latency_percentile(percentile) == pytest.approx(
                    exact_summary.read_latency_percentile(percentile), rel=0.02
                )
                assert sketch_summary.write_latency_percentile(percentile) == pytest.approx(
                    exact_summary.write_latency_percentile(percentile), rel=0.02
                )

    def test_t_visibility_matches_kernel_within_two_percent(self):
        distributions = ymmr()
        trials = 60_000
        config = ReplicaConfig(3, 1, 1)
        summary = SweepEngine(distributions, (config,)).run(trials, 31).results[0]
        independent = WARSModel(distributions, config).sample(trials, 32)
        assert summary.t_visibility(0.99) == pytest.approx(
            independent.t_visibility(0.99), rel=0.05
        )


class TestEarlyStopping:
    """Early stopping honours the requested Wilson half-width tolerance."""

    def test_stopping_never_violates_tolerance(self):
        tolerance = 0.02
        sweep = SweepEngine(
            ymmr(),
            _CONFIGS,
            times_ms=_TIMES,
            chunk_size=SAMPLE_BLOCK,
            tolerance=tolerance,
        ).run(1_000_000, 13)
        assert sweep.stopped_early
        assert sweep.converged
        assert sweep.trials_run < sweep.trials_requested
        for summary in sweep:
            assert summary.max_margin() <= tolerance

    def test_budget_exhaustion_reports_unconverged(self):
        sweep = SweepEngine(
            ymmr(),
            (ReplicaConfig(3, 1, 1),),
            times_ms=_TIMES,
            chunk_size=SAMPLE_BLOCK,
            tolerance=1e-6,
        ).run(2 * SAMPLE_BLOCK, 13)
        assert not sweep.stopped_early
        assert not sweep.converged
        assert sweep.trials_run == sweep.trials_requested

    def test_min_trials_floor_delays_early_stopping(self):
        """Call sites reporting tail quantiles set a floor so a loose
        tolerance cannot starve the tail of samples."""
        from repro.montecarlo.engine import min_trials_for_quantile

        floored = SweepEngine(
            ymmr(),
            (ReplicaConfig(3, 1, 1),),
            times_ms=_TIMES,
            chunk_size=SAMPLE_BLOCK,
            tolerance=0.05,
            min_trials=3 * SAMPLE_BLOCK,
        ).run(1_000_000, 13)
        assert floored.stopped_early
        assert floored.trials_run >= 3 * SAMPLE_BLOCK
        # The standard ~100-tail-samples rule.
        assert min_trials_for_quantile(0.999) == 100_000
        assert min_trials_for_quantile(0.5) == 200
        with pytest.raises(ConfigurationError):
            min_trials_for_quantile(0.0)

    def test_tighter_tolerance_needs_more_trials(self):
        loose = SweepEngine(
            ymmr(), _CONFIGS, times_ms=_TIMES, chunk_size=SAMPLE_BLOCK, tolerance=0.02
        ).run(10_000_000, 1)
        tight = SweepEngine(
            ymmr(), _CONFIGS, times_ms=_TIMES, chunk_size=SAMPLE_BLOCK, tolerance=0.005
        ).run(10_000_000, 1)
        assert loose.stopped_early and tight.stopped_early
        assert loose.trials_run < tight.trials_run


class TestEngineValidationAndSketch:
    def test_rejects_bad_parameters(self):
        distributions = lnkd_ssd()
        with pytest.raises(ConfigurationError):
            SweepEngine(distributions, ())
        with pytest.raises(ConfigurationError):
            SweepEngine(distributions, (ReplicaConfig(3, 1, 1),), chunk_size=0)
        with pytest.raises(ConfigurationError):
            SweepEngine(distributions, (ReplicaConfig(3, 1, 1),), tolerance=1.5)
        with pytest.raises(ConfigurationError):
            SweepEngine(distributions, (ReplicaConfig(3, 1, 1),), times_ms=(-1.0,))
        with pytest.raises(ConfigurationError):
            SweepEngine(distributions, (ReplicaConfig(3, 1, 1),)).run(0)

    def test_probability_beyond_probe_grid_raises(self):
        """A streaming summary has no data past its probe grid; silently
        clamping would understate the curve, so it must raise instead."""
        summary = (
            SweepEngine(lnkd_ssd(), (ReplicaConfig(3, 1, 1),), times_ms=(0.0, 5.0))
            .run(2_000, 0)
            .results[0]
        )
        assert 0.0 <= summary.consistency_probability(2.5) <= 1.0  # interpolated
        with pytest.raises(ConfigurationError):
            summary.consistency_probability(50.0)
        with pytest.raises(ConfigurationError):
            summary.consistency_probability(-1.0)

    def test_samples_not_kept_by_default(self):
        sweep = SweepEngine(lnkd_ssd(), (ReplicaConfig(3, 1, 1),)).run(1_000, 0)
        with pytest.raises(AnalysisError):
            sweep.results[0].as_trial_result()

    def test_for_config_lookup(self):
        configs = (ReplicaConfig(3, 1, 1), ReplicaConfig(3, 2, 2))
        sweep = SweepEngine(lnkd_ssd(), configs).run(1_000, 0)
        assert sweep.for_config(configs[1]).config == configs[1]
        with pytest.raises(ConfigurationError):
            sweep.for_config(ReplicaConfig(5, 1, 1))

    def test_mixed_replication_factors_share_nothing_across_n(self):
        """Mixed-N sweeps evaluate each group against its own N-column draw."""
        configs = (ReplicaConfig(2, 1, 1), ReplicaConfig(3, 1, 1), ReplicaConfig(5, 1, 1))
        sweep = SweepEngine(lnkd_ssd(), configs, keep_samples=True).run(4_096, 0)
        for summary, config in zip(sweep, configs):
            assert summary.config == config
            assert summary.as_trial_result().write_arrivals_ms.shape == (4_096, config.n)
        # Figure 7's shape: consistency at commit decreases as N grows.
        at_commit = [s.probability_never_stale() for s in sweep]
        assert at_commit[0] > at_commit[-1]

    def test_configs_sharing_n_share_one_arrivals_matrix(self):
        """The (trials x N) propagation matrix is materialised once per
        replication factor, not once per configuration."""
        configs = (ReplicaConfig(3, 1, 1), ReplicaConfig(3, 2, 1), ReplicaConfig(3, 2, 2))
        sweep = SweepEngine(lnkd_ssd(), configs, keep_samples=True).run(4_096, 0)
        arrivals = [s.as_trial_result().write_arrivals_ms for s in sweep]
        assert arrivals[0] is arrivals[1] is arrivals[2]

    def test_seeded_streams_are_keyed_by_replication_factor(self):
        """A config's seeded samples are identical whether swept alone or
        alongside other replication factors (streams keyed by N)."""
        config = ReplicaConfig(3, 2, 1)
        alone = SweepEngine(lnkd_ssd(), (config,), keep_samples=True).run(4_096, 9)
        mixed = SweepEngine(
            lnkd_ssd(),
            (ReplicaConfig(2, 1, 1), config, ReplicaConfig(5, 1, 1)),
            keep_samples=True,
        ).run(4_096, 9)
        _assert_trial_results_equal(
            alone.results[0].as_trial_result(),
            mixed.for_config(config).as_trial_result(),
        )

    def test_constant_latencies_reproduce_degenerate_percentiles_exactly(self):
        distributions = WARSDistributions.symmetric(ConstantLatency(1.0))
        summary = SweepEngine(distributions, (ReplicaConfig(3, 2, 2),)).run(2_000, 0).results[0]
        assert summary.read_latency_percentile(50.0) == pytest.approx(2.0)
        assert summary.write_latency_percentile(99.9) == pytest.approx(2.0)
        assert summary.t_visibility(0.999) == 0.0

    def test_streaming_histogram_tracks_extremes_and_quantiles(self):
        histogram = StreamingHistogram(bins=64)
        rng = np.random.default_rng(0)
        first = rng.normal(10.0, 2.0, 10_000)
        later = rng.normal(10.0, 6.0, 10_000)  # spills past the frozen edges
        histogram.update(first)
        histogram.update(later)
        merged = np.concatenate([first, later])
        assert histogram.count == merged.size
        assert histogram.min == merged.min()
        assert histogram.max == merged.max()
        assert histogram.quantile(0.0) == merged.min()
        assert histogram.quantile(1.0) == merged.max()
        assert histogram.quantile(0.5) == pytest.approx(np.quantile(merged, 0.5), rel=0.02)

    def test_streaming_histogram_validation(self):
        histogram = StreamingHistogram()
        with pytest.raises(AnalysisError):
            histogram.quantile(0.5)
        histogram.update(np.asarray([1.0, 2.0]))
        with pytest.raises(AnalysisError):
            histogram.quantile(1.5)
        with pytest.raises(AnalysisError):
            StreamingHistogram(bins=0)

    def test_exponential_reference_distribution_quantiles(self):
        """Sketch percentiles track an analytic quantile function closely."""
        distributions = WARSDistributions.symmetric(ExponentialLatency.from_mean(5.0))
        config = ReplicaConfig(3, 3, 3)
        summary = SweepEngine(distributions, (config,)).run(60_000, 17).results[0]
        independent = WARSModel(distributions, config).sample(60_000, 18)
        assert summary.read_latency_percentile(99.0) == pytest.approx(
            independent.read_latency_percentile(99.0), rel=0.02
        )
