"""Monte Carlo harness: t-visibility sweeps, latency CDFs, and convergence tools."""

from repro.montecarlo.convergence import (
    ProbabilityEstimate,
    trials_for_margin,
    wilson_interval,
)
from repro.montecarlo.engine import (
    DEFAULT_ADAPTIVE_GRID_MS,
    DEFAULT_CHUNK_SIZE,
    SAMPLE_BLOCK,
    ConfigSweepResult,
    StreamingHistogram,
    SweepEngine,
    SweepResult,
    min_trials_for_quantile,
)
from repro.montecarlo.latency import (
    OperationLatencyCDF,
    StreamingOperationLatency,
    latency_percentile_table,
    operation_latency_cdf,
)
from repro.montecarlo.tvisibility import (
    TVisibilityCurve,
    t_visibility_table,
    visibility_curve,
    visibility_curves,
)

__all__ = [
    "ProbabilityEstimate",
    "trials_for_margin",
    "wilson_interval",
    "DEFAULT_ADAPTIVE_GRID_MS",
    "DEFAULT_CHUNK_SIZE",
    "SAMPLE_BLOCK",
    "ConfigSweepResult",
    "StreamingHistogram",
    "SweepEngine",
    "SweepResult",
    "min_trials_for_quantile",
    "OperationLatencyCDF",
    "StreamingOperationLatency",
    "latency_percentile_table",
    "operation_latency_cdf",
    "TVisibilityCurve",
    "t_visibility_table",
    "visibility_curve",
    "visibility_curves",
]
