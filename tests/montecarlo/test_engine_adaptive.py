"""The adaptive probe grid: a fixed grid that the first block of trials places.

The contract (the "Adaptive probe grid" section of
``repro/montecarlo/engine.py``) has four testable layers:

1. *A fixed grid, frozen early*: each configuration's grid is its base times
   plus a probe at every multiple of ``probe_resolution_ms`` across a pilot
   window placed on its first block, and every probe counts every trial —
   so every count equals a fixed-grid run's over the same times and seed.
2. *Determinism*: the grid comes from seed-mode block 0, so seeded adaptive
   results are identical for any chunk size and any worker count, early
   stopping included, and early stopping has the fixed grid's one rule.
3. *Resolution*: a crossing inside its window is bracketed to the
   resolution, and its t-visibility is within the resolution of the exact
   order statistic of the same trials.  On the Table 4 fits the windows
   contain the crossings.
4. *Honesty*: a crossing outside its window is answered from the threshold
   sketch, and ``t_visibility_bracket`` reports the wide bracket.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.montecarlo.engine as engine_module
from repro.core.quorum import ReplicaConfig, iter_configs
from repro.exceptions import ConfigurationError
from repro.experiments.table4 import TABLE4_CONFIGS
from repro.latency.production import lnkd_disk, lnkd_ssd, production_fit, ymmr
from repro.montecarlo.convergence import wilson_interval
from repro.montecarlo.engine import SAMPLE_BLOCK, SweepEngine, SweepResult

_CONFIG = ReplicaConfig(3, 1, 1)
_CONFIGS = (ReplicaConfig(3, 1, 1), ReplicaConfig(3, 2, 1), ReplicaConfig(3, 1, 2))
_BASE_TIMES = (0.0, 1000.0)
_TARGETS = (0.99, 0.999)
_TARGET = 0.999
_RESOLUTION = 2.0
_TRIALS = 9 * SAMPLE_BLOCK + 123


def _adaptive_engine(
    workers: int = 1, chunk_size: int = SAMPLE_BLOCK, configs=(_CONFIG,), **kwargs
) -> SweepEngine:
    kwargs.setdefault("times_ms", _BASE_TIMES)
    kwargs.setdefault("target_probability", _TARGETS)
    kwargs.setdefault("probe_resolution_ms", _RESOLUTION)
    return SweepEngine(
        lnkd_disk(), configs, chunk_size=chunk_size, workers=workers, **kwargs
    )


def _assert_sweeps_identical(one: SweepResult, other: SweepResult) -> None:
    """Bit-for-bit equality of everything a sweep reports."""
    assert one.trials_run == other.trials_run
    assert one.stopped_early == other.stopped_early
    assert one.converged == other.converged
    assert len(one) == len(other)
    for a, b in zip(one, other):
        assert a.config == b.config
        assert a.trials == b.trials
        assert a.times_ms == b.times_ms
        assert a.consistent_counts == b.consistent_counts
        assert a.nonpositive_thresholds == b.nonpositive_thresholds
        for target in _TARGETS:
            assert a.t_visibility(target) == b.t_visibility(target)
            assert a.t_visibility_bracket(target) == b.t_visibility_bracket(target)
        assert a.read_latency_percentile(99.9) == b.read_latency_percentile(99.9)
        assert a.write_latency_percentile(99.9) == b.write_latency_percentile(99.9)


class TestFrozenGrid:
    """Every probe is a fixed-grid probe that counts every trial."""

    def test_grid_is_the_base_plus_multiples_of_the_resolution(self):
        summary = _adaptive_engine().run(_TRIALS, 7).results[0]
        times = summary.times_ms
        assert list(times) == sorted(set(times))
        assert set(_BASE_TIMES) <= set(times)
        fine = [t for t in times if t not in _BASE_TIMES]
        assert fine, "the pilot window must add probes"
        assert all(t / _RESOLUTION == round(t / _RESOLUTION) for t in fine)
        assert all(0.0 <= t <= _BASE_TIMES[-1] for t in fine)

    def test_every_probe_count_equals_a_fixed_grid_run(self):
        adaptive = _adaptive_engine(configs=_CONFIGS).run(_TRIALS, 7)
        for summary in adaptive:
            fixed = SweepEngine(
                lnkd_disk(),
                (summary.config,),
                times_ms=summary.times_ms,
                chunk_size=SAMPLE_BLOCK,
            ).run(_TRIALS, 7).results[0]
            assert fixed.times_ms == summary.times_ms
            assert fixed.consistent_counts == summary.consistent_counts
            assert fixed.nonpositive_thresholds == summary.nonpositive_thresholds
            assert fixed.trials == summary.trials == _TRIALS

    def test_grid_is_frozen_from_the_first_block(self):
        """Later blocks count the grid but never move it."""
        first_block = _adaptive_engine(configs=_CONFIGS).run(SAMPLE_BLOCK, 3)
        longer = _adaptive_engine(configs=_CONFIGS).run(_TRIALS, 3)
        for short, long in zip(first_block, longer):
            assert short.times_ms == long.times_ms

    def test_probes_answer_from_their_exact_counts(self):
        summary = _adaptive_engine().run(_TRIALS, 7).results[0]
        assert summary.consistency_curve() == summary.probe_grid()
        for (time, probability), count in zip(summary.probe_grid(), summary.consistent_counts):
            assert probability == count / summary.trials
            if time > 0.0:
                assert summary.consistency_probability(time) == probability
            estimate = summary.estimate_at(time)
            assert estimate.trials == summary.trials
            assert estimate == wilson_interval(count, summary.trials, summary.confidence)

    def test_generator_mode_freezes_the_grid_from_the_first_chunk(self):
        chunk = 2 * SAMPLE_BLOCK
        one_chunk = _adaptive_engine(chunk_size=chunk).run(chunk, np.random.default_rng(9))
        summary = _adaptive_engine(chunk_size=chunk).run(
            4 * SAMPLE_BLOCK, np.random.default_rng(9)
        ).results[0]
        assert summary.trials == 4 * SAMPLE_BLOCK
        assert summary.times_ms == one_chunk.results[0].times_ms
        assert len(summary.times_ms) > len(_BASE_TIMES)

    def test_strict_quorum_and_unreachable_windows_add_no_probes(self):
        """A window that ends at or below 0 (strict quorums) or starts past
        the last base probe adds nothing."""
        strict = _adaptive_engine(configs=(ReplicaConfig(3, 2, 2),)).run(
            2 * SAMPLE_BLOCK, 0
        ).results[0]
        assert strict.times_ms == _BASE_TIMES
        assert strict.t_visibility_bracket(_TARGET) == (0.0, 0.0)
        assert strict.t_visibility(_TARGET) == 0.0
        # The LNKD-DISK crossing (~50 ms) lies beyond a 5 ms grid.
        beyond = _adaptive_engine(times_ms=(0.0, 5.0)).run(2 * SAMPLE_BLOCK, 0).results[0]
        assert beyond.times_ms == (0.0, 5.0)
        assert beyond.t_visibility_bracket(_TARGET) is None
        assert beyond.t_visibility(_TARGET) > 5.0


class TestDeterminism:
    """One grid per (seed, configuration): chunk size and workers change nothing."""

    def test_seeded_results_are_chunk_size_invariant(self):
        runs = [
            _adaptive_engine(chunk_size=chunk_size, configs=_CONFIGS).run(_TRIALS, 4)
            for chunk_size in (SAMPLE_BLOCK, 2 * SAMPLE_BLOCK, 8 * SAMPLE_BLOCK)
        ]
        assert [run.chunk_size for run in runs] == [8_192, 16_384, 65_536]
        for run in runs[1:]:
            _assert_sweeps_identical(runs[0], run)

    @pytest.mark.parametrize("chunk_size", [SAMPLE_BLOCK, 2 * SAMPLE_BLOCK, 3 * SAMPLE_BLOCK])
    def test_sharded_run_is_bitwise_identical_to_serial(self, chunk_size):
        serial = _adaptive_engine(chunk_size=chunk_size, configs=_CONFIGS).run(_TRIALS, 42)
        sharded = _adaptive_engine(workers=2, chunk_size=chunk_size, configs=_CONFIGS).run(
            _TRIALS, 42
        )
        _assert_sweeps_identical(serial, sharded)

    def test_early_stopping_identical_across_workers(self):
        kwargs = dict(tolerance=0.01, min_trials=2 * SAMPLE_BLOCK)
        serial = _adaptive_engine(**kwargs).run(2_000_000, 13)
        sharded = _adaptive_engine(workers=2, **kwargs).run(2_000_000, 13)
        assert serial.stopped_early and serial.converged
        _assert_sweeps_identical(serial, sharded)

    def test_one_stop_rule_for_adaptive_and_fixed_grids(self):
        """An adaptive sweep stops exactly where a fixed-grid sweep over the
        same frozen grid does: once every probe meets the tolerance."""
        kwargs = dict(chunk_size=SAMPLE_BLOCK, tolerance=0.004, min_trials=1)
        adaptive = _adaptive_engine(**kwargs).run(2_000_000, 17)
        summary = adaptive.results[0]
        fixed = SweepEngine(
            lnkd_disk(), (_CONFIG,), times_ms=summary.times_ms, **kwargs
        ).run(2_000_000, 17)
        assert adaptive.stopped_early and adaptive.converged
        assert adaptive.trials_run == fixed.trials_run
        assert summary.consistent_counts == fixed.results[0].consistent_counts
        assert adaptive.max_margin() <= 0.004
        # One chunk earlier, some probe was still too loose.
        earlier = _adaptive_engine().run(adaptive.trials_run - SAMPLE_BLOCK, 17)
        assert earlier.max_margin() > 0.004

    def test_converged_is_every_probe_within_tolerance(self):
        sweep = _adaptive_engine(tolerance=0.01, min_trials=1).run(2 * SAMPLE_BLOCK, 5)
        assert sweep.converged == (sweep.max_margin() <= 0.01)
        untolerant = _adaptive_engine().run(2 * SAMPLE_BLOCK, 5)
        assert not untolerant.converged


class TestResolution:
    """Crossings inside their windows are resolved by exact counts."""

    def test_t_visibility_within_resolution_of_the_exact_order_statistic(self):
        configs = tuple(iter_configs(3))
        trials = 12 * SAMPLE_BLOCK
        adaptive = _adaptive_engine(configs=configs).run(trials, 5)
        exact = SweepEngine(lnkd_disk(), configs, keep_samples=True).run(trials, 5)
        for summary, reference in zip(adaptive, exact):
            for target in _TARGETS:
                bracket = summary.t_visibility_bracket(target)
                assert bracket[1] - bracket[0] <= _RESOLUTION
                assert bracket[0] <= summary.t_visibility(target) <= bracket[1]
                assert abs(
                    summary.t_visibility(target) - reference.t_visibility(target)
                ) <= _RESOLUTION

    @pytest.mark.parametrize("resolution", [0.1, 0.3, 0.7, 500.0])
    def test_brackets_within_the_resolution_interpolate_their_counts(self, resolution):
        """Consecutive multiples of 0.1 ms can lie a rounding error more
        than 0.1 ms apart, and at 500 ms two base probes bracket each
        crossing; either bracket is resolved by its exact counts."""
        summary = SweepEngine(
            lnkd_ssd(), (_CONFIG,), target_probability=_TARGETS,
            probe_resolution_ms=resolution,
        ).run(50_000, 1).results[0]
        times, counts = summary.times_ms, summary.consistent_counts
        for target in _TARGETS:
            low, high = summary.t_visibility_bracket(target)
            assert 0.0 < high - low <= resolution * (1.0 + engine_module.RESOLUTION_RTOL)
            p_low = counts[times.index(low)] / summary.trials
            p_high = counts[times.index(high)] / summary.trials
            fraction = (target - p_low) / (p_high - p_low)
            assert summary.t_visibility(target) == low + fraction * (high - low)

    def test_windows_contain_the_table4_crossings(self):
        """Every non-zero Table 4 crossing at 0.99 and 0.999, over 20 seeds
        (2000-2019) of 100,000 trials on the four production fits, is
        bracketed to a 1 ms resolution."""
        environments = {
            "LNKD-SSD": lnkd_ssd(),
            "LNKD-DISK": lnkd_disk(),
            "YMMR": ymmr(),
            "WAN": production_fit("WAN", replica_count=3),
        }
        misses, crossings = [], 0
        for seed in range(2000, 2020):
            for name, distributions in environments.items():
                sweep = SweepEngine(
                    distributions,
                    TABLE4_CONFIGS,
                    target_probability=_TARGETS,
                    probe_resolution_ms=1.0,
                ).run(100_000, seed)
                for summary in sweep:
                    for target in _TARGETS:
                        if summary.t_visibility(target) == 0.0:
                            continue
                        crossings += 1
                        bracket = summary.t_visibility_bracket(target)
                        if bracket is None or bracket[1] - bracket[0] > 1.0:
                            misses.append((seed, name, summary.config.label(), target, bracket))
        assert crossings > 300
        assert misses == []


class TestWindowMiss:
    """A crossing that leaves its pilot window is not resolved, and says so."""

    def test_forced_window_miss_answers_from_the_sketch(self, monkeypatch):
        # At z = 0 the window shrinks to the first block's own crossing, so
        # the crossing of the full run leaves it.
        monkeypatch.setattr(engine_module, "PILOT_WINDOW_Z", 0.0)
        adaptive = _adaptive_engine(probe_resolution_ms=0.5).run(_TRIALS, 8).results[0]
        plain = SweepEngine(
            lnkd_disk(), (_CONFIG,), times_ms=_BASE_TIMES, chunk_size=SAMPLE_BLOCK
        ).run(_TRIALS, 8).results[0]
        low, high = adaptive.t_visibility_bracket(_TARGET)
        assert high - low > 0.5
        assert adaptive.t_visibility(_TARGET) == plain.t_visibility(_TARGET)

    def test_cli_reports_the_miss(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setattr(engine_module, "PILOT_WINDOW_Z", 0.0)
        argv = ["predict", "--fit", "LNKD-DISK", "--trials", "60000"]
        assert main(argv + ["--probe-resolution-ms", "0.5"]) == 0
        output = capsys.readouterr().out
        assert "crossing left the pilot window" in output
        assert "histogram estimate" in output

    def test_cli_reports_no_miss_at_a_non_dyadic_resolution(self, capsys):
        from repro.cli import main

        argv = ["predict", "--fit", "LNKD-SSD", "--trials", "50000", "--seed", "1"]
        assert main(argv + ["--probe-resolution-ms", "0.1"]) == 0
        assert "note:" not in capsys.readouterr().out


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
        # A pilot window may span the whole base grid, so a resolution that
        # could need more than MAX_FINE_PROBES probes there is refused
        # before anything is allocated; one at the limit is accepted.
        limit = engine_module.MAX_FINE_PROBES
        with pytest.raises(ConfigurationError, match="coarser resolution"):
            SweepEngine(distributions, (_CONFIG,), times_ms=(0.0, 1.0),
                        probe_resolution_ms=1.0 / (2 * limit), target_probability=0.999)
        SweepEngine(distributions, (_CONFIG,), times_ms=(0.0, 1.0),
                    probe_resolution_ms=1.0 / limit, target_probability=0.999)
        summary = _adaptive_engine().run(2 * SAMPLE_BLOCK, 5).results[0]
        with pytest.raises(ConfigurationError):
            summary.t_visibility_bracket(1.5)
        with pytest.raises(ConfigurationError):
            summary.estimate_at(0.25)

    def test_targets_without_resolution_keep_the_base_grid(self):
        summary = SweepEngine(
            lnkd_ssd(), (_CONFIG,), times_ms=(0.0, 10.0),
            chunk_size=SAMPLE_BLOCK, target_probability=0.999,
        ).run(2 * SAMPLE_BLOCK, 0).results[0]
        assert summary.times_ms == (0.0, 10.0)
        assert summary.probe_resolution_ms is None

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

    def test_sweep_result_records_adaptive_knobs(self):
        sweep = _adaptive_engine().run(2 * SAMPLE_BLOCK, 0)
        assert sweep.probe_resolution_ms == _RESOLUTION
        assert sweep.target_probabilities == _TARGETS
        plain = SweepEngine(lnkd_ssd(), (_CONFIG,)).run(1_000, 0)
        assert plain.probe_resolution_ms is None
        assert plain.target_probabilities == ()


class TestAdaptiveFrontEnds:
    """The knob threads through every visibility front-end."""

    def test_visibility_curve_returns_the_frozen_grid(self):
        from repro.montecarlo.tvisibility import visibility_curve

        curve = visibility_curve(
            lnkd_disk(),
            _CONFIG,
            times_ms=_BASE_TIMES,
            trials=8 * SAMPLE_BLOCK,
            rng=0,
            target_probability=_TARGET,
            probe_resolution_ms=_RESOLUTION,
        )
        assert len(curve.times_ms) > len(_BASE_TIMES)
        assert list(curve.times_ms) == sorted(curve.times_ms)
        # The fine probes let the curve invert the target far more finely
        # than the two base probes could.
        t_at_target = curve.t_for_probability(_TARGET)
        assert 0.0 < t_at_target < _BASE_TIMES[-1]
        # Every probe's interval rests on its exact count over all trials.
        for time, successes in zip(curve.times_ms, curve.probe_successes):
            estimate = curve.confidence_at(time)
            assert estimate.trials == curve.trials
            assert estimate == wilson_interval(successes, curve.trials)

    def test_visibility_curves_add_fine_probes_for_every_config(self):
        from repro.montecarlo.tvisibility import visibility_curves

        curves = visibility_curves(
            lnkd_disk(),
            (ReplicaConfig(3, 1, 1), ReplicaConfig(3, 1, 2)),
            times_ms=_BASE_TIMES,
            trials=8 * SAMPLE_BLOCK,
            rng=0,
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
            probe_resolution_ms=1.0,
        )
        assert rows[0]["t_visibility_ms"] > 0.0

    def test_predictor_report_with_resolution(self):
        from repro.core.predictor import PBSPredictor

        predictor = PBSPredictor(lnkd_disk(), _CONFIG)
        report = predictor.report(trials=8 * SAMPLE_BLOCK, rng=0, probe_resolution_ms=1.0)
        assert 0.0 < report.t_visibility_99 <= report.t_visibility_999
        # The same budget without the knob inverts the histogram sketch and
        # lands on different figures.
        sketch = predictor.report(trials=8 * SAMPLE_BLOCK, rng=0)
        assert (report.t_visibility_99, report.t_visibility_999) != (
            sketch.t_visibility_99,
            sketch.t_visibility_999,
        )
        # Adaptive reports carry the achieved brackets; sketch reports don't.
        assert sketch.t_visibility_brackets is None
        assert set(report.t_visibility_brackets) == {0.99, 0.999}
        for target, bracket in report.t_visibility_brackets.items():
            assert bracket[1] - bracket[0] <= 1.0
            t_visibility = (
                report.t_visibility_99 if target == 0.99 else report.t_visibility_999
            )
            assert bracket[0] <= t_visibility <= bracket[1]

    def test_adaptive_without_base_grid_falls_back_to_default_grid(self):
        from repro.montecarlo.engine import DEFAULT_ADAPTIVE_GRID_MS

        summary = SweepEngine(
            lnkd_disk(),
            (_CONFIG,),
            target_probability=_TARGET,
            probe_resolution_ms=1.0,
        ).run(8 * SAMPLE_BLOCK, 0).results[0]
        assert set(DEFAULT_ADAPTIVE_GRID_MS) < set(summary.times_ms)
        low, high = summary.t_visibility_bracket(_TARGET)
        assert high - low <= 1.0

    def test_ablation_reference_with_resolution(self):
        """The ablations' adaptive reference streams the same trials as the
        exact keep-samples reference, so it lands within the resolution."""
        from repro.experiments.ablations import (
            _slow_write_distributions,
            _wars_predicted_t_visibility,
        )

        distributions = _slow_write_distributions()
        exact = _wars_predicted_t_visibility(_CONFIG, distributions)
        adaptive = _wars_predicted_t_visibility(
            _CONFIG, distributions, probe_resolution_ms=1.0
        )
        assert abs(adaptive - exact) <= 1.0

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
