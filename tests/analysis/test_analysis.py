"""Unit tests for the analysis package: statistics, staleness measurement, tables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.staleness import (
    StalenessObservation,
    consistency_by_time,
    k_staleness_fraction,
    measured_t_visibility,
    observe_staleness,
    operation_latencies,
    version_lags,
)
from repro.analysis.statistics import (
    binned_fraction,
    bootstrap_mean_interval,
    empirical_cdf,
)
from repro.analysis.tables import format_curve, format_kv, format_table
from repro.cluster.tracelog import ColumnarTraceLog
from repro.cluster.versioning import Version
from repro.exceptions import AnalysisError


def _write(
    log: ColumnarTraceLog, op_id: int, timestamp: int, started: float, committed: float
) -> None:
    ref = log.begin_write(op_id, "k", Version(timestamp, "c"), "c", started)
    log.note_write_commit(ref, committed)


def _read(
    log: ColumnarTraceLog,
    op_id: int,
    started: float,
    returned: Version | None,
    completed: float,
) -> None:
    ref = log.begin_read(op_id, "k", "c", started)
    log.note_read_complete(ref, returned, completed)


class TestStatisticsHelpers:
    def test_empirical_cdf(self):
        curve = empirical_cdf([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 10.0])
        assert curve == [(0.5, 0.0), (2.0, 0.5), (10.0, 1.0)]
        with pytest.raises(AnalysisError):
            empirical_cdf([], [1.0])

    def test_binned_fraction(self):
        series = binned_fraction(
            x_values=[0.5, 1.5, 1.6, 2.5],
            successes=[True, True, False, True],
            bin_edges=[0.0, 1.0, 2.0, 3.0],
        )
        assert series.fractions[0] == 1.0
        assert series.fractions[1] == pytest.approx(0.5)
        assert series.counts == (1, 2, 1)
        assert series.as_rows()[0]["bin_center"] == pytest.approx(0.5)

    def test_binned_fraction_empty_bin_is_nan(self):
        series = binned_fraction([0.5], [True], [0.0, 1.0, 2.0])
        assert np.isnan(series.fractions[1])

    def test_binned_fraction_validation(self):
        with pytest.raises(AnalysisError):
            binned_fraction([1.0], [True, False], [0.0, 1.0])
        with pytest.raises(AnalysisError):
            binned_fraction([1.0], [True], [1.0])

    def test_bootstrap_interval_contains_mean(self):
        mean, lower, upper = bootstrap_mean_interval([1.0, 2.0, 3.0, 4.0, 5.0], rng=0)
        assert lower <= mean <= upper
        with pytest.raises(AnalysisError):
            bootstrap_mean_interval([])


class TestObserveStaleness:
    def _trace_log(self) -> ColumnarTraceLog:
        log = ColumnarTraceLog()
        _write(log, 1, 1, started=0.0, committed=5.0)
        _write(log, 2, 2, started=100.0, committed=105.0)
        # Read at t=50: latest committed is v1; returns v1 -> consistent, lag 0.
        _read(log, 10, 50.0, Version(1, "c"), 52.0)
        # Read at t=110: latest committed is v2; returns v1 -> stale, lag 1.
        _read(log, 11, 110.0, Version(1, "c"), 112.0)
        # Read at t=120: returns v2 -> consistent.
        _read(log, 12, 120.0, Version(2, "c"), 122.0)
        # Read at t=130: returns nothing -> stale by all committed versions.
        _read(log, 13, 130.0, None, 132.0)
        return log

    def test_observations_and_lags(self):
        observations = observe_staleness(self._trace_log(), key="k").observations()
        assert len(observations) == 4
        by_id = {obs.operation_id: obs for obs in observations}
        assert by_id[10].consistent and by_id[10].version_lag == 0
        assert not by_id[11].consistent and by_id[11].version_lag == 1
        assert by_id[12].consistent
        assert not by_id[13].consistent and by_id[13].version_lag == 2
        assert by_id[11].t_since_commit_ms == pytest.approx(5.0)

    def test_reads_before_any_commit_are_skipped(self):
        log = ColumnarTraceLog()
        _write(log, 1, 1, started=100.0, committed=105.0)
        _read(log, 10, 50.0, None, 52.0)
        assert len(observe_staleness(log)) == 0

    def test_newer_than_committed_counts_as_consistent(self):
        log = ColumnarTraceLog()
        _write(log, 1, 1, started=0.0, committed=5.0)
        _write(log, 2, 2, started=6.0, committed=50.0)
        # Read at t=10 returns the in-flight v2 (commits later at t=50).
        _read(log, 10, 10.0, Version(2, "c"), 12.0)
        observations = observe_staleness(log).observations()
        assert len(observations) == 1 and observations[0].consistent

    def test_aggregates(self):
        observations = observe_staleness(self._trace_log(), key="k")
        lags = version_lags(observations)
        assert sorted(lags.tolist()) == [0, 0, 1, 2]
        assert k_staleness_fraction(observations, 1) == pytest.approx(0.5)
        assert k_staleness_fraction(observations, 2) == pytest.approx(0.75)
        assert k_staleness_fraction(observations, 3) == pytest.approx(1.0)
        with pytest.raises(AnalysisError):
            k_staleness_fraction(observations, 0)

    def test_consistency_by_time_bins(self):
        observations = observe_staleness(self._trace_log(), key="k")
        series = consistency_by_time(observations, bin_edges=[0.0, 10.0, 30.0, 60.0])
        # Observed t values are 5 ms (read 11), 15 and 25 ms (reads 12-13), and
        # 45 ms (read 10), so the bins hold 1, 2, and 1 observations.
        assert series.counts == (1, 2, 1)
        with pytest.raises(AnalysisError):
            consistency_by_time([], bin_edges=[0.0, 1.0])

    def test_measured_t_visibility(self):
        observations = [
            StalenessObservation(1, "k", 1.0, False, 1),
            StalenessObservation(2, "k", 5.0, True, 0),
            StalenessObservation(3, "k", 10.0, True, 0),
            StalenessObservation(4, "k", 20.0, True, 0),
        ]
        assert measured_t_visibility(observations, 1.0) == pytest.approx(5.0)
        assert measured_t_visibility(observations, 0.5) == pytest.approx(1.0)
        assert measured_t_visibility(
            [StalenessObservation(1, "k", 3.0, False, 1)], 0.9
        ) == float("inf")
        with pytest.raises(AnalysisError):
            measured_t_visibility([], 0.9)
        with pytest.raises(AnalysisError):
            measured_t_visibility(observations, 1.5)

    def test_operation_latencies(self):
        log = self._trace_log()
        reads, writes = operation_latencies(log)
        assert len(reads) == 4 and len(writes) == 2
        assert np.all(reads == 2.0)
        assert np.all(writes == 5.0)
        with pytest.raises(AnalysisError):
            operation_latencies(ColumnarTraceLog())


class TestTableRendering:
    def test_format_table_alignment_and_missing(self):
        text = format_table(
            [{"a": 1.23456, "b": "x"}, {"a": 2.0}], columns=["a", "b"], precision=2
        )
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "1.23" in lines[2]
        assert "-" in lines[3]  # missing value placeholder

    def test_format_table_handles_bool_nan_inf(self):
        text = format_table([{"ok": True, "x": float("nan"), "y": float("inf")}])
        assert "yes" in text and "inf" in text

    def test_format_table_empty_rejected(self):
        with pytest.raises(AnalysisError):
            format_table([])

    def test_format_curve_and_kv(self):
        curve_text = format_curve([(0.0, 0.5), (1.0, 0.9)], title="curve")
        assert "curve" in curve_text and "t_ms" in curve_text
        kv_text = format_kv({"mean": 1.5, "label": "abc"}, title="stats")
        assert "stats" in kv_text and "mean" in kv_text
        with pytest.raises(AnalysisError):
            format_kv({})
