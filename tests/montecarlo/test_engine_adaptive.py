"""Adaptive probe-grid refinement: equivalence, determinism, and the stop gate.

The adaptive contract (see the "Adaptive probe-grid refinement" section of
``repro/montecarlo/engine.py``) has four testable layers:

1. *Sampling is untouched*: enabling refinement changes which probes are
   counted, never which trials are drawn — base-grid counts are bit-for-bit
   identical to a non-adaptive run with the same seed and chunk size.
2. *Refined probes estimate the same curve*: a refined probe's count covers
   only the trials after its activation, so against a fixed-grid engine
   probing the same times over all trials it agrees statistically, and the
   interpolated t-visibility agrees with exact order statistics to within
   the probe resolution (plus Monte Carlo noise).
3. *Coordinator-side determinism*: for a fixed (seed, chunk size), adaptive
   results — refined probe schedule included — are identical for any worker
   count, early stopping included.
4. *The adaptive stop gate*: a converged adaptive sweep has bracketed every
   (configuration, target) crossing to the requested resolution with
   tolerance-tight endpoints.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.quorum import ReplicaConfig
from repro.exceptions import ConfigurationError
from repro.latency.production import lnkd_disk, lnkd_ssd
from repro.montecarlo.engine import (
    SAMPLE_BLOCK,
    SweepEngine,
    SweepResult,
)

_CONFIG = ReplicaConfig(3, 1, 1)
_BASE_TIMES = (0.0, 1000.0)
_TARGET = 0.999
_RESOLUTION = 2.0


def _adaptive_engine(workers: int = 1, chunk_size: int = SAMPLE_BLOCK, **kwargs) -> SweepEngine:
    kwargs.setdefault("times_ms", _BASE_TIMES)
    kwargs.setdefault("target_probability", _TARGET)
    kwargs.setdefault("probe_resolution_ms", _RESOLUTION)
    return SweepEngine(
        lnkd_disk(), (_CONFIG,), chunk_size=chunk_size, workers=workers, **kwargs
    )


def _assert_adaptive_sweeps_identical(one: SweepResult, other: SweepResult) -> None:
    """Bit-for-bit equality including the grid-versioned refined probes."""
    assert one.trials_run == other.trials_run
    assert one.stopped_early == other.stopped_early
    assert one.converged == other.converged
    for a, b in zip(one, other):
        assert a.config == b.config
        assert a.trials == b.trials
        assert a.times_ms == b.times_ms
        assert a.consistent_counts == b.consistent_counts
        assert a.refined_times_ms == b.refined_times_ms
        assert a.refined_counts == b.refined_counts
        assert a.refined_trials == b.refined_trials
        assert a.t_visibility(_TARGET) == b.t_visibility(_TARGET)


class TestAdaptiveEquivalence:
    """Refinement changes the probe grid, never the sampled trials."""

    def test_base_counts_match_non_adaptive_run_exactly(self):
        trials = 6 * SAMPLE_BLOCK
        adaptive = _adaptive_engine().run(trials, 7).results[0]
        fixed = SweepEngine(
            lnkd_disk(), (_CONFIG,), times_ms=_BASE_TIMES, chunk_size=SAMPLE_BLOCK
        ).run(trials, 7).results[0]
        assert adaptive.times_ms == fixed.times_ms
        assert adaptive.consistent_counts == fixed.consistent_counts
        assert adaptive.nonpositive_thresholds == fixed.nonpositive_thresholds
        assert adaptive.refined_times_ms and not fixed.refined_times_ms

    def test_refined_probes_track_fixed_grid_estimates(self):
        """A refined probe's windowed estimate agrees with a fixed-grid
        engine probing the same time over all trials (same seed, so the
        trials are shared and only the observation window differs)."""
        trials = 12 * SAMPLE_BLOCK
        adaptive = _adaptive_engine().run(trials, 3).results[0]
        assert adaptive.refined_times_ms
        fixed = SweepEngine(
            lnkd_disk(),
            (_CONFIG,),
            times_ms=_BASE_TIMES + adaptive.refined_times_ms,
            chunk_size=SAMPLE_BLOCK,
        ).run(trials, 3).results[0]
        for time, count, observed in zip(
            adaptive.refined_times_ms, adaptive.refined_counts, adaptive.refined_trials
        ):
            windowed = count / observed
            assert 0 < observed <= trials
            assert windowed == pytest.approx(
                fixed.consistency_probability(time), abs=0.02
            )

    def test_adaptive_t_visibility_matches_exact_within_resolution(self):
        trials = 12 * SAMPLE_BLOCK
        adaptive = _adaptive_engine().run(trials, 5).results[0]
        exact = SweepEngine(lnkd_disk(), (_CONFIG,), keep_samples=True).run(
            trials, 5
        ).results[0]
        # Same seed, same trials: the only differences are the bracketing
        # interpolation (bounded by the achieved bracket width) and the
        # windowed refined estimates.  The achieved bracket after ~4 rounds
        # from a 1000 ms span is well under 16 ms.
        assert adaptive.t_visibility(_TARGET) == pytest.approx(
            exact.t_visibility(_TARGET), abs=16.0
        )

    def test_refined_grid_concentrates_around_the_crossing(self):
        trials = 12 * SAMPLE_BLOCK
        summary = _adaptive_engine().run(trials, 11).results[0]
        crossing = summary.t_visibility(_TARGET)
        assert summary.refined_times_ms
        # Bisection discards half-spans away from the crossing, so the
        # nearest refined probe must sit within one subdivision span.
        nearest = min(abs(t - crossing) for t in summary.refined_times_ms)
        span = _BASE_TIMES[-1] - _BASE_TIMES[0]
        assert nearest < span / 4

    def test_union_grid_interpolation_uses_refined_probes(self):
        trials = 12 * SAMPLE_BLOCK
        summary = _adaptive_engine().run(trials, 7).results[0]
        grid = summary.probe_grid()
        times = [t for t, _ in grid]
        assert times == sorted(times)
        assert set(summary.refined_times_ms) <= set(times)
        # Queries at refined probes return the windowed estimates exactly.
        for time, count, observed in zip(
            summary.refined_times_ms, summary.refined_counts, summary.refined_trials
        ):
            assert summary.consistency_probability(time) == count / observed
            estimate = summary.estimate_at(time)
            assert estimate.trials == observed

    def test_base_grid_meeting_resolution_still_inverts_exact_counts(self):
        """When the base grid already brackets the crossing within the
        resolution, no refined probes are grown — but the adaptive sweep must
        still invert the exact probe counts, not the histogram sketch, so
        t_visibility stays inside the reported bracket."""
        summary = SweepEngine(
            lnkd_disk(),
            (_CONFIG,),
            chunk_size=SAMPLE_BLOCK,
            target_probability=_TARGET,
            probe_resolution_ms=500.0,  # the default base grid is finer
        ).run(6 * SAMPLE_BLOCK, 0).results[0]
        assert not summary.refined_times_ms
        assert summary.probe_resolution_ms == 500.0
        low, high = summary.t_visibility_bracket(_TARGET)
        assert low <= summary.t_visibility(_TARGET) <= high

    def test_generator_mode_supports_refinement_serially(self):
        trials = 8 * SAMPLE_BLOCK
        summary = _adaptive_engine().run(
            trials, np.random.default_rng(9)
        ).results[0]
        assert summary.refined_times_ms
        assert summary.trials == trials


class TestAdaptiveWorkerChunkDeterminism:
    """workers x chunk_size: refinement decisions ride on merged partials."""

    _TRIALS = 9 * SAMPLE_BLOCK + 123

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize(
        "chunk_size", [SAMPLE_BLOCK, 2 * SAMPLE_BLOCK], ids=["small-chunk", "large-chunk"]
    )
    def test_sharded_adaptive_run_is_bitwise_identical_to_serial(self, workers, chunk_size):
        serial = _adaptive_engine(chunk_size=chunk_size).run(self._TRIALS, 42)
        sharded = _adaptive_engine(workers=workers, chunk_size=chunk_size).run(
            self._TRIALS, 42
        )
        _assert_adaptive_sweeps_identical(serial, sharded)

    def test_base_counts_stay_chunk_size_invariant(self):
        """The refined schedule legitimately depends on the chunk size (it is
        decided at chunk boundaries); the sampled trials — and therefore the
        base-grid counts — must not."""
        small = _adaptive_engine(chunk_size=SAMPLE_BLOCK).run(self._TRIALS, 4).results[0]
        large = _adaptive_engine(chunk_size=3 * SAMPLE_BLOCK).run(self._TRIALS, 4).results[0]
        assert small.consistent_counts == large.consistent_counts
        assert small.nonpositive_thresholds == large.nonpositive_thresholds

    @pytest.mark.parametrize("workers", [2, 4])
    def test_early_stopping_identical_across_workers(self, workers):
        kwargs = dict(tolerance=0.01, min_trials=2 * SAMPLE_BLOCK)
        serial = _adaptive_engine(**kwargs).run(2_000_000, 13)
        sharded = _adaptive_engine(workers=workers, **kwargs).run(2_000_000, 13)
        assert serial.stopped_early
        _assert_adaptive_sweeps_identical(serial, sharded)

    def test_multi_config_adaptive_sharding_is_deterministic(self):
        configs = (ReplicaConfig(3, 1, 1), ReplicaConfig(3, 2, 1))
        def run(workers):
            return SweepEngine(
                lnkd_disk(),
                configs,
                times_ms=_BASE_TIMES,
                chunk_size=SAMPLE_BLOCK,
                workers=workers,
                target_probability=(0.99, 0.999),
                probe_resolution_ms=_RESOLUTION,
            ).run(8 * SAMPLE_BLOCK, 21)
        _assert_adaptive_sweeps_identical(run(1), run(3))


class TestAdaptiveEarlyStopGate:
    """Converged adaptive sweeps deliver the advertised resolution."""

    def test_stop_implies_bracket_at_resolution_with_tight_endpoints(self):
        tolerance = 0.01
        sweep = _adaptive_engine(tolerance=tolerance, min_trials=SAMPLE_BLOCK).run(
            2_000_000, 13
        )
        assert sweep.stopped_early and sweep.converged
        summary = sweep.results[0]
        # Locate the bracket on the union grid.
        grid = summary.probe_grid()
        above = [i for i, (_, p) in enumerate(grid) if p >= _TARGET]
        assert above and above[0] > 0
        t_low, p_low = grid[above[0] - 1]
        t_high, p_high = grid[above[0]]
        assert p_low < _TARGET <= p_high
        assert t_high - t_low <= _RESOLUTION
        assert summary.t_visibility_bracket(_TARGET) == (t_low, t_high)
        # Endpoint intervals meet the tolerance with their own trial counts.
        assert summary.estimate_at(t_low).margin <= tolerance
        assert summary.estimate_at(t_high).margin <= tolerance
        # And the reported crossing sits inside the bracket.
        assert t_low <= summary.t_visibility(_TARGET) <= t_high

    def test_incomplete_refinement_blocks_early_stopping(self):
        """A tolerance loose enough to converge the two-probe base grid in
        one chunk must not stop the sweep before the bracket reaches the
        probe resolution."""
        sweep = _adaptive_engine(tolerance=0.05, min_trials=1).run(2_000_000, 17)
        assert sweep.stopped_early
        non_adaptive = SweepEngine(
            lnkd_disk(),
            (_CONFIG,),
            times_ms=_BASE_TIMES,
            chunk_size=SAMPLE_BLOCK,
            tolerance=0.05,
            min_trials=1,
        ).run(2_000_000, 17)
        assert non_adaptive.stopped_early
        # Refinement needs several rounds of probes; the fixed grid stops at
        # the first boundary.
        assert sweep.trials_run > non_adaptive.trials_run
        assert sweep.results[0].refined_times_ms

    def test_t_visibility_bracket_reports_achieved_resolution_honestly(self):
        """A fixed trial budget can end the run before refinement reaches the
        requested resolution; the bracket method exposes what was achieved."""
        # Two chunks: refinement decides at boundary 0 but its probes would
        # only activate at chunk 1 + lag, past the end of the run.
        capped = _adaptive_engine().run(2 * SAMPLE_BLOCK, 5).results[0]
        bracket = capped.t_visibility_bracket(_TARGET)
        assert bracket is not None
        assert bracket[1] - bracket[0] > _RESOLUTION  # budget-capped: not met
        assert bracket[0] <= capped.t_visibility(_TARGET) <= bracket[1]
        # A longer run narrows it.
        longer = _adaptive_engine().run(12 * SAMPLE_BLOCK, 5).results[0]
        longer_bracket = longer.t_visibility_bracket(_TARGET)
        assert longer_bracket[1] - longer_bracket[0] < bracket[1] - bracket[0]
        # Strict quorums cross exactly at commit.
        strict = SweepEngine(
            lnkd_ssd(), (ReplicaConfig(3, 2, 2),), times_ms=_BASE_TIMES
        ).run(2_000, 0).results[0]
        assert strict.t_visibility_bracket(_TARGET) == (0.0, 0.0)
        # A crossing beyond the grid span is never bracketed.
        beyond = SweepEngine(
            lnkd_disk(), (_CONFIG,), times_ms=(0.0, 5.0), chunk_size=SAMPLE_BLOCK
        ).run(2 * SAMPLE_BLOCK, 0).results[0]
        assert beyond.t_visibility_bracket(_TARGET) is None
        with pytest.raises(ConfigurationError):
            capped.t_visibility_bracket(1.5)

    def test_default_consistency_curve_covers_refined_probes(self):
        summary = _adaptive_engine().run(8 * SAMPLE_BLOCK, 7).results[0]
        assert summary.refined_times_ms
        assert summary.consistency_curve() == summary.probe_grid()
        # Explicit times still sample anywhere on the union grid.
        explicit = summary.consistency_curve((0.0, summary.refined_times_ms[0]))
        assert explicit[1][1] == summary.consistency_probability(summary.refined_times_ms[0])

    def test_crossing_beyond_grid_leaves_refinement_complete(self):
        """When the curve never reaches the target inside the base span there
        is no bracket to refine: the sweep behaves like a fixed-grid run and
        t-visibility falls back to the histogram sketch."""
        sweep = SweepEngine(
            lnkd_disk(),
            (_CONFIG,),
            times_ms=(0.0, 5.0),  # crossing (~50 ms) is far beyond this span
            chunk_size=SAMPLE_BLOCK,
            target_probability=_TARGET,
            probe_resolution_ms=_RESOLUTION,
            tolerance=0.01,
            min_trials=SAMPLE_BLOCK,
        ).run(2_000_000, 19)
        assert sweep.stopped_early
        summary = sweep.results[0]
        assert not summary.refined_times_ms
        assert summary.t_visibility(_TARGET) > 5.0


class TestAdaptiveValidationAndErrors:
    def test_rejects_bad_adaptive_parameters(self):
        distributions = lnkd_ssd()
        with pytest.raises(ConfigurationError):
            SweepEngine(distributions, (_CONFIG,), probe_resolution_ms=0.0,
                        target_probability=0.999)
        with pytest.raises(ConfigurationError):
            SweepEngine(distributions, (_CONFIG,), probe_resolution_ms=-1.0,
                        target_probability=0.999)
        with pytest.raises(ConfigurationError):
            SweepEngine(distributions, (_CONFIG,), probe_resolution_ms=1.0)
        with pytest.raises(ConfigurationError):
            SweepEngine(distributions, (_CONFIG,), probe_resolution_ms=1.0,
                        target_probability=1.5)
        with pytest.raises(ConfigurationError):
            SweepEngine(distributions, (_CONFIG,), probe_resolution_ms=1.0,
                        target_probability=(0.9, 0.0))

    def test_targets_without_resolution_do_not_refine(self):
        summary = SweepEngine(
            lnkd_ssd(), (_CONFIG,), times_ms=(0.0, 10.0),
            chunk_size=SAMPLE_BLOCK, target_probability=0.999,
        ).run(2 * SAMPLE_BLOCK, 0).results[0]
        assert not summary.refined_times_ms

    def test_beyond_grid_error_names_config_and_suggests_remedies(self):
        summary = (
            SweepEngine(lnkd_ssd(), (_CONFIG,), times_ms=(0.0, 5.0))
            .run(2_000, 0)
            .results[0]
        )
        with pytest.raises(ConfigurationError) as excinfo:
            summary.consistency_probability(50.0)
        message = str(excinfo.value)
        assert _CONFIG.label() in message
        assert "probe_resolution_ms" in message
        assert "times_ms" in message

    def test_converged_accounts_for_loose_bracket_endpoints(self):
        """A budget-exhausted adaptive sweep whose bracket endpoint is still
        statistically loose must not claim convergence, even though every
        base probe meets the tolerance."""
        from repro.montecarlo.engine import ConfigSweepResult, StreamingHistogram

        histogram = StreamingHistogram(bins=8)
        histogram.update(np.asarray([0.0, 1.0]))

        def sweep_with_endpoint_support(refined_trials: int) -> SweepResult:
            count = int(0.9985 * refined_trials)
            summary = ConfigSweepResult(
                config=_CONFIG,
                trials=1_000_000,
                times_ms=(0.0, 100.0),
                consistent_counts=(200_000, 999_990),
                nonpositive_thresholds=200_000,
                confidence=0.95,
                _threshold_histogram=histogram,
                _read_histogram=histogram,
                _write_histogram=histogram,
                refined_times_ms=(50.0,),
                refined_counts=(count,),
                refined_trials=(refined_trials,),
            )
            return SweepResult(
                results=(summary,),
                trials_requested=1_000_000,
                trials_run=1_000_000,
                chunk_size=SAMPLE_BLOCK,
                tolerance=0.002,
                confidence=0.95,
                probe_resolution_ms=100.0,
                target_probabilities=(_TARGET,),
            )

        # The bracket is (50.0, 100.0): with only 200 observations the lower
        # endpoint's Wilson half-width (~0.005) exceeds the 0.002 tolerance.
        loose = sweep_with_endpoint_support(200)
        assert loose.max_margin() <= 0.002  # base probes alone would pass
        assert not loose.converged
        # With ample endpoint support the same sweep converges.
        assert sweep_with_endpoint_support(1_000_000).converged

    def test_sweep_result_records_adaptive_knobs(self):
        sweep = _adaptive_engine().run(2 * SAMPLE_BLOCK, 0)
        assert sweep.probe_resolution_ms == _RESOLUTION
        assert sweep.target_probabilities == (_TARGET,)
        plain = SweepEngine(lnkd_ssd(), (_CONFIG,)).run(1_000, 0)
        assert plain.probe_resolution_ms is None
        assert plain.target_probabilities == ()


class TestAdaptiveFrontEnds:
    """The knob threads through every visibility front-end."""

    def test_visibility_curve_returns_union_grid(self):
        from repro.montecarlo.tvisibility import visibility_curve

        curve = visibility_curve(
            lnkd_disk(),
            _CONFIG,
            times_ms=_BASE_TIMES,
            trials=8 * SAMPLE_BLOCK,
            rng=0,
            chunk_size=SAMPLE_BLOCK,
            target_probability=_TARGET,
            probe_resolution_ms=_RESOLUTION,
        )
        assert len(curve.times_ms) > len(_BASE_TIMES)
        assert list(curve.times_ms) == sorted(curve.times_ms)
        # The refined grid lets the curve invert the target far more finely
        # than the two base probes could.
        t_at_target = curve.t_for_probability(_TARGET)
        assert 0.0 < t_at_target < _BASE_TIMES[-1]

    def test_visibility_curves_refine_every_config(self):
        from repro.montecarlo.tvisibility import visibility_curves

        curves = visibility_curves(
            lnkd_disk(),
            (ReplicaConfig(3, 1, 1), ReplicaConfig(3, 1, 2)),
            times_ms=_BASE_TIMES,
            trials=8 * SAMPLE_BLOCK,
            rng=0,
            chunk_size=SAMPLE_BLOCK,
            target_probability=_TARGET,
            probe_resolution_ms=_RESOLUTION,
        )
        assert all(len(curve.times_ms) > len(_BASE_TIMES) for curve in curves)

    def test_t_visibility_table_with_resolution(self):
        from repro.montecarlo.tvisibility import t_visibility_table

        rows = t_visibility_table(
            {"LNKD-DISK": lnkd_disk()},
            (ReplicaConfig(3, 1, 1),),
            trials=8 * SAMPLE_BLOCK,
            rng=0,
            chunk_size=SAMPLE_BLOCK,
            probe_resolution_ms=1.0,
        )
        assert rows[0]["t_visibility_ms"] > 0.0

    def test_predictor_report_with_resolution(self):
        from repro.core.predictor import PBSPredictor

        predictor = PBSPredictor(lnkd_disk(), _CONFIG)
        report = predictor.report(
            trials=8 * SAMPLE_BLOCK,
            rng=0,
            chunk_size=SAMPLE_BLOCK,
            probe_resolution_ms=1.0,
        )
        assert 0.0 < report.t_visibility_99 <= report.t_visibility_999
        # Refinement actually engaged: the same budget without the knob
        # inverts the histogram sketch and lands on different figures.
        sketch = predictor.report(trials=8 * SAMPLE_BLOCK, rng=0, chunk_size=SAMPLE_BLOCK)
        assert (report.t_visibility_99, report.t_visibility_999) != (
            sketch.t_visibility_99,
            sketch.t_visibility_999,
        )
        # Adaptive reports carry the achieved brackets; sketch reports don't.
        assert sketch.t_visibility_brackets is None
        assert set(report.t_visibility_brackets) == {0.99, 0.999}
        for target, bracket in report.t_visibility_brackets.items():
            assert bracket is not None
            t_visibility = (
                report.t_visibility_99 if target == 0.99 else report.t_visibility_999
            )
            assert bracket[0] <= t_visibility <= bracket[1]

    def test_adaptive_without_base_grid_falls_back_to_default_grid(self):
        from repro.montecarlo.engine import DEFAULT_ADAPTIVE_GRID_MS

        summary = SweepEngine(
            lnkd_disk(),
            (_CONFIG,),
            chunk_size=SAMPLE_BLOCK,
            target_probability=_TARGET,
            probe_resolution_ms=1.0,
        ).run(8 * SAMPLE_BLOCK, 0).results[0]
        assert summary.times_ms == tuple(sorted(set(DEFAULT_ADAPTIVE_GRID_MS)))
        assert summary.refined_times_ms

    def test_ablation_reference_with_resolution_refines(self):
        """The ablations' adaptive reference path raises its own trial floor
        so refinement actually engages, and the streamed estimate tracks the
        exact keep-samples reference."""
        from repro.experiments.ablations import (
            _slow_write_distributions,
            _wars_predicted_t_visibility,
        )

        distributions = _slow_write_distributions()
        exact = _wars_predicted_t_visibility(_CONFIG, distributions)
        adaptive = _wars_predicted_t_visibility(
            _CONFIG, distributions, probe_resolution_ms=1.0
        )
        assert adaptive == pytest.approx(exact, rel=0.1)

    def test_adaptive_curve_confidence_uses_probe_support(self):
        from repro.montecarlo.tvisibility import visibility_curve

        curve = visibility_curve(
            lnkd_disk(),
            _CONFIG,
            times_ms=_BASE_TIMES,
            trials=12 * SAMPLE_BLOCK,
            rng=0,
            chunk_size=SAMPLE_BLOCK,
            target_probability=_TARGET,
            probe_resolution_ms=_RESOLUTION,
        )
        assert curve.probe_trials is not None
        assert len(curve.probe_trials) == len(curve.times_ms)
        refined = [
            (t, n) for t, n in zip(curve.times_ms, curve.probe_trials)
            if n < curve.trials
        ]
        assert refined, "adaptive curve must carry windowed probes"
        time, support = refined[0]
        estimate = curve.confidence_at(time)
        assert estimate.trials == support < curve.trials
        # A refined probe's interval is wider than pretending it saw the
        # full budget — the overconfidence per-probe support prevents.
        from repro.montecarlo.convergence import wilson_interval

        probability = curve.probability_at(time)
        overconfident = wilson_interval(
            int(round(probability * curve.trials)), curve.trials
        )
        assert estimate.margin > overconfident.margin

    def test_sla_optimizer_with_resolution(self):
        from repro.core.sla import SLAOptimizer, SLATarget

        optimizer = SLAOptimizer(
            lnkd_disk(),
            replication_factors=(3,),
            trials=2 * SAMPLE_BLOCK,
            rng=0,
            chunk_size=SAMPLE_BLOCK,
            probe_resolution_ms=1.0,
        )
        evaluation = optimizer.evaluate(_CONFIG, SLATarget(t_visibility_ms=1_000.0))
        assert evaluation.t_visibility_ms > 0.0
