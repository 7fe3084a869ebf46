"""Measurement and validation: staleness from traces, statistics, table rendering."""

from repro.analysis.export import (
    export_result,
    load_rows_json,
    rows_to_csv,
    rows_to_json,
)
from repro.analysis.staleness import (
    StalenessFrame,
    StalenessObservation,
    consistency_by_time,
    k_staleness_fraction,
    measured_t_visibility,
    observe_staleness,
    operation_latencies,
    version_lags,
)
from repro.analysis.statistics import (
    BinnedSeries,
    binned_fraction,
    bootstrap_mean_interval,
    empirical_cdf,
    normalized_rmse,
    percentile_table,
    rmse,
)
from repro.analysis.tables import format_curve, format_kv, format_table
from repro.analysis.validation import ValidationResult, run_validation
from repro.analysis.windows import prefix_dominance_counts

__all__ = [
    "export_result",
    "load_rows_json",
    "rows_to_csv",
    "rows_to_json",
    "StalenessFrame",
    "StalenessObservation",
    "consistency_by_time",
    "k_staleness_fraction",
    "measured_t_visibility",
    "observe_staleness",
    "operation_latencies",
    "version_lags",
    "BinnedSeries",
    "binned_fraction",
    "bootstrap_mean_interval",
    "empirical_cdf",
    "normalized_rmse",
    "percentile_table",
    "rmse",
    "format_curve",
    "format_kv",
    "format_table",
    "ValidationResult",
    "run_validation",
    "prefix_dominance_counts",
]
