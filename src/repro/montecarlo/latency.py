"""Operation-latency analysis under the WARS model (paper Figure 5, Table 4).

Read latency under Dynamo-style replication is the ``R``-th fastest replica
round trip; write latency is the ``W``-th fastest.  These helpers compute the
resulting latency distributions (CDFs and percentile tables) for any latency
environment and set of quorum sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from repro.core.quorum import ReplicaConfig
from repro.core.wars import WARSModel
from repro.exceptions import ConfigurationError
from repro.latency.base import as_rng
from repro.latency.production import WARSDistributions
from repro.montecarlo.engine import DEFAULT_CHUNK_SIZE, ConfigSweepResult, SweepEngine

__all__ = [
    "OperationLatencyCDF",
    "StreamingOperationLatency",
    "operation_latency_cdf",
    "latency_percentile_table",
]


@dataclass(frozen=True)
class OperationLatencyCDF:
    """Empirical CDF of read and write operation latencies for one configuration."""

    config: ReplicaConfig
    label: str
    read_latencies_ms: np.ndarray
    write_latencies_ms: np.ndarray

    @cached_property
    def _sorted_read_latencies_ms(self) -> np.ndarray:
        """Read latencies sorted once; every CDF query is a searchsorted over
        this array, so repeated grids cost O(grid log trials), not a fresh
        O(trials log trials) sort per call."""
        return np.sort(self.read_latencies_ms)

    @cached_property
    def _sorted_write_latencies_ms(self) -> np.ndarray:
        """Write latencies sorted once (see ``_sorted_read_latencies_ms``)."""
        return np.sort(self.write_latencies_ms)

    def read_cdf(self, grid_ms: Sequence[float]) -> list[tuple[float, float]]:
        """``(latency, P(read latency <= latency))`` over a latency grid."""
        sorted_latencies = self._sorted_read_latencies_ms
        grid = np.asarray(list(grid_ms), dtype=float)
        fractions = np.searchsorted(sorted_latencies, grid, side="right") / sorted_latencies.size
        return [(float(x), float(f)) for x, f in zip(grid, fractions)]

    def write_cdf(self, grid_ms: Sequence[float]) -> list[tuple[float, float]]:
        """``(latency, P(write latency <= latency))`` over a latency grid."""
        sorted_latencies = self._sorted_write_latencies_ms
        grid = np.asarray(list(grid_ms), dtype=float)
        fractions = np.searchsorted(sorted_latencies, grid, side="right") / sorted_latencies.size
        return [(float(x), float(f)) for x, f in zip(grid, fractions)]

    def read_percentile(self, percentile: float) -> float:
        """Read latency (ms) at a percentile."""
        return float(np.percentile(self.read_latencies_ms, percentile))

    def write_percentile(self, percentile: float) -> float:
        """Write latency (ms) at a percentile."""
        return float(np.percentile(self.write_latencies_ms, percentile))


@dataclass(frozen=True)
class StreamingOperationLatency:
    """Sketch-backed operation-latency summary for one configuration.

    The streaming counterpart of :class:`OperationLatencyCDF`: the same query
    surface (``read_cdf``/``write_cdf`` over a grid, percentile lookups)
    answered from :class:`~repro.montecarlo.engine.StreamingHistogram`
    sketches instead of retained per-trial arrays, so memory stays bounded
    regardless of the trial count.  CDF and percentile values carry the
    sketches' sub-bin interpolation error (well under 1% at the engine's
    default resolution).
    """

    config: ReplicaConfig
    label: str
    trials: int
    _summary: ConfigSweepResult

    def read_cdf(self, grid_ms: Sequence[float]) -> list[tuple[float, float]]:
        """``(latency, P(read latency <= latency))`` over a latency grid."""
        return [(float(x), self._summary.read_latency_cdf(float(x))) for x in grid_ms]

    def write_cdf(self, grid_ms: Sequence[float]) -> list[tuple[float, float]]:
        """``(latency, P(write latency <= latency))`` over a latency grid."""
        return [(float(x), self._summary.write_latency_cdf(float(x))) for x in grid_ms]

    def read_percentile(self, percentile: float) -> float:
        """Read latency (ms) at a percentile."""
        return self._summary.read_latency_percentile(percentile)

    def write_percentile(self, percentile: float) -> float:
        """Write latency (ms) at a percentile."""
        return self._summary.write_latency_percentile(percentile)


def operation_latency_cdf(
    distributions: WARSDistributions,
    config: ReplicaConfig,
    trials: int = 100_000,
    rng: np.random.Generator | int | None = None,
    label: str | None = None,
    streaming: bool = False,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
) -> OperationLatencyCDF | StreamingOperationLatency:
    """Simulate operation latencies for one configuration.

    By default the raw latency arrays are materialised (exact empirical CDF,
    memory O(trials)).  With ``streaming=True`` (or ``workers > 1``) trials
    stream through :class:`~repro.montecarlo.engine.SweepEngine` in
    ``chunk_size`` pieces — bounded memory for arbitrarily large trial
    counts, optionally sharded across ``workers`` processes — and the result
    is a :class:`StreamingOperationLatency` answering the same queries from
    histogram sketches.
    """
    if trials < 1:
        raise ConfigurationError(f"trial count must be >= 1, got {trials}")
    if streaming or workers > 1:
        engine = SweepEngine(
            distributions,
            (config,),
            chunk_size=chunk_size,
            workers=workers,
        )
        summary = engine.run(trials, rng).results[0]
        return StreamingOperationLatency(
            config=config,
            label=label or f"{distributions.name} {config.label()}",
            trials=summary.trials,
            _summary=summary,
        )
    model = WARSModel(distributions=distributions, config=config)
    result = model.sample(trials, rng)
    return OperationLatencyCDF(
        config=config,
        label=label or f"{distributions.name} {config.label()}",
        read_latencies_ms=result.read_latencies_ms,
        write_latencies_ms=result.commit_latencies_ms,
    )


def latency_percentile_table(
    distributions_by_name: Mapping[str, WARSDistributions],
    configs: Sequence[ReplicaConfig],
    percentiles: Sequence[float] = (50.0, 95.0, 99.0, 99.9),
    trials: int = 100_000,
    rng: np.random.Generator | int | None = None,
) -> list[dict[str, object]]:
    """Per (environment, configuration) rows of read/write latency percentiles."""
    generator = as_rng(rng)
    rows: list[dict[str, object]] = []
    for name, distributions in distributions_by_name.items():
        for config in configs:
            cdf = operation_latency_cdf(distributions, config, trials, generator)
            row: dict[str, object] = {"environment": name, "config": config}
            for percentile in percentiles:
                row[f"read_p{percentile:g}_ms"] = cdf.read_percentile(percentile)
                row[f"write_p{percentile:g}_ms"] = cdf.write_percentile(percentile)
            rows.append(row)
    return rows
