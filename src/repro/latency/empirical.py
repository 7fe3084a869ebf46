"""Empirical latency distributions built from observed samples.

The paper validates WARS by instrumenting a live store, collecting per-message
latencies, and replaying the *empirical* distributions through the Monte Carlo
predictor (§5.2).  :class:`EmpiricalDistribution` supports exactly that flow:
collect samples from the cluster simulator (or from a real system's logs),
wrap them, and feed them to :class:`repro.core.wars.WARSModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import DistributionError
from repro.latency.base import (
    LatencyDistribution,
    check_points,
    check_quantiles,
    float_or_array,
)

__all__ = ["EmpiricalDistribution", "QuantileTableDistribution"]


@dataclass(frozen=True, repr=False)
class EmpiricalDistribution(LatencyDistribution):
    """Resample-with-replacement distribution over observed latencies (ms)."""

    observations: np.ndarray
    name: str = "empirical"

    def __post_init__(self) -> None:
        observations = np.asarray(self.observations, dtype=float)
        if observations.ndim != 1 or observations.size == 0:
            raise DistributionError("empirical distribution requires a non-empty 1-D sample")
        if np.any(~np.isfinite(observations)) or np.any(observations < 0):
            raise DistributionError("empirical observations must be finite and non-negative")
        object.__setattr__(self, "observations", observations)

    @classmethod
    def from_samples(
        cls, samples: Iterable[float], name: str = "empirical"
    ) -> "EmpiricalDistribution":
        """Build from any iterable of latency observations."""
        return cls(observations=np.fromiter(samples, dtype=float), name=name)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        # rng.integers + fancy indexing is the fast path for uniform
        # resampling; rng.choice routes through a generic weighted-draw
        # machinery that is several times slower for this common case.
        return self.observations[rng.integers(0, self.observations.size, size=size)]

    def mean(self) -> float:
        return float(np.mean(self.observations))

    def variance(self) -> float:
        return float(np.var(self.observations))

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """The fraction of observations ``<= x``, counted by binary search."""
        counts = np.searchsorted(np.sort(self.observations), check_points(x), side="right")
        return float_or_array(counts / self.observations.size)

    def ppf(self, q: float | np.ndarray) -> float | np.ndarray:
        """Linearly interpolated sample quantiles: one ``np.quantile`` call."""
        return float_or_array(np.quantile(self.observations, check_quantiles(q)))

    def __len__(self) -> int:
        return int(self.observations.size)


@dataclass(frozen=True, repr=False)
class QuantileTableDistribution(LatencyDistribution):
    """A distribution defined by a table of (quantile, latency) knots.

    Sampling draws a uniform quantile and linearly interpolates between knots,
    which is the standard way to turn a published percentile table (such as
    the paper's Tables 1 and 2) directly into a sampleable distribution
    without committing to a parametric form.  The table must start at
    quantile 0 and end at quantile 1.
    """

    quantiles: np.ndarray
    latencies: np.ndarray
    name: str = "quantile-table"
    _mean_cache: float = field(default=float("nan"), compare=False)
    _variance_cache: float = field(default=float("nan"), compare=False)

    def __post_init__(self) -> None:
        quantiles = np.asarray(self.quantiles, dtype=float)
        latencies = np.asarray(self.latencies, dtype=float)
        if quantiles.shape != latencies.shape or quantiles.ndim != 1:
            raise DistributionError("quantile table requires matching 1-D arrays")
        if quantiles.size < 2:
            raise DistributionError("quantile table requires at least two knots")
        # NaN passes every ordering check below (each comparison is False).
        if not (np.all(np.isfinite(quantiles)) and np.all(np.isfinite(latencies))):
            raise DistributionError("quantile table knots must be finite")
        if quantiles[0] != 0.0 or quantiles[-1] != 1.0:
            raise DistributionError("quantile table must span quantiles 0.0 through 1.0")
        if np.any(np.diff(quantiles) <= 0):
            raise DistributionError("quantile knots must be strictly increasing")
        if np.any(np.diff(latencies) < 0):
            raise DistributionError("latency knots must be non-decreasing")
        if np.any(latencies < 0):
            raise DistributionError("latency knots must be non-negative")
        object.__setattr__(self, "quantiles", quantiles)
        object.__setattr__(self, "latencies", latencies)
        # Mean of a piecewise-linear quantile function is the average of
        # trapezoid areas over the quantile axis.
        masses = np.diff(quantiles)
        segment_means = (latencies[:-1] + latencies[1:]) / 2.0
        mean = float(np.sum(segment_means * masses))
        object.__setattr__(self, "_mean_cache", mean)
        # E[X^2] of a linear segment a->b is (a^2 + ab + b^2) / 3, so the
        # second moment is one more weighted segment sum and the variance
        # needs no sampling fallback.
        a, b = latencies[:-1], latencies[1:]
        second_moment = float(np.sum(masses * (a * a + a * b + b * b) / 3.0))
        object.__setattr__(self, "_variance_cache", second_moment - mean * mean)

    @classmethod
    def from_percentiles(
        cls,
        percentile_latencies: Sequence[tuple[float, float]],
        minimum: float,
        maximum: float,
        name: str = "quantile-table",
    ) -> "QuantileTableDistribution":
        """Construct from (percentile, latency) pairs plus explicit min and max."""
        pairs = sorted(percentile_latencies)
        quantiles = [0.0] + [p / 100.0 for p, _ in pairs] + [1.0]
        latencies = [minimum] + [latency for _, latency in pairs] + [maximum]
        return cls(
            quantiles=np.asarray(quantiles), latencies=np.asarray(latencies), name=name
        )

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        uniforms = rng.random(size)
        return self.validate_samples(np.interp(uniforms, self.quantiles, self.latencies))

    def mean(self) -> float:
        return self._mean_cache

    def variance(self) -> float:
        """Exact variance of the piecewise-linear quantile function (ms²)."""
        return self._variance_cache

    def ppf(self, q: float | np.ndarray) -> float | np.ndarray:
        return float_or_array(np.interp(check_quantiles(q), self.quantiles, self.latencies))

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """``P(X <= x)`` as the generalised inverse of the quantile table.

        Flat latency segments are atoms: the CDF there is the *maximal*
        quantile mapping to that latency (``searchsorted`` with
        ``side="right"``), which keeps the CDF right-continuous and the
        ``cdf(ppf(0.0))`` round trip truthful at the lower boundary.  Feeding
        the raw knots to ``np.interp`` would be wrong twice over: its result
        at duplicate x-knots is underspecified, and linearly bridging a flat
        segment smears the atom's mass across the neighbouring latencies.
        """
        x = check_points(x)
        quantiles, latencies = self.quantiles, self.latencies
        # Rightmost knot with latency <= x; at a flat segment this lands on
        # the segment's last knot, i.e. the maximal quantile of the atom.
        # Points outside the table are clamped onto an end segment here and
        # answered 0 or 1 below.
        index = np.clip(np.searchsorted(latencies, x, side="right") - 1, 0, latencies.size - 2)
        low, high = latencies[index], latencies[index + 1]
        # Strictly inside (low, high): because ``index`` is the last
        # occurrence of its latency, this span is strictly increasing and
        # ordinary interpolation is well defined.  A clamped point can land
        # on a flat end segment, whose zero span is never used.
        with np.errstate(divide="ignore", invalid="ignore"):
            fraction = (x - low) / (high - low)
        inside = np.where(
            low == x,
            quantiles[index],
            quantiles[index] + fraction * (quantiles[index + 1] - quantiles[index]),
        )
        return float_or_array(
            np.where(x < latencies[0], 0.0, np.where(x >= latencies[-1], 1.0, inside))
        )
