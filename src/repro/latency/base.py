"""Latency distribution interface.

The WARS model (paper §4.1) is parameterised by four one-way message latency
distributions: ``W`` (coordinator→replica write), ``A`` (replica→coordinator
acknowledgement), ``R`` (coordinator→replica read request), and ``S``
(replica→coordinator read response).  Everything in :mod:`repro.core.wars`
and :mod:`repro.montecarlo` consumes objects implementing the
:class:`LatencyDistribution` interface defined here, so synthetic
distributions, production fits, empirical traces, and composites are all
interchangeable.

All latencies are in **milliseconds**, matching the paper's reporting units.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import DistributionError

__all__ = [
    "LatencyDistribution",
    "DistributionSummary",
    "as_rng",
    "check_points",
    "check_quantiles",
    "float_or_array",
    "DEFAULT_PERCENTILES",
]

#: Percentiles reported by :meth:`LatencyDistribution.describe`, chosen to
#: mirror the production summary tables in the paper (Tables 1 and 2).
DEFAULT_PERCENTILES: tuple[float, ...] = (50.0, 75.0, 95.0, 98.0, 99.0, 99.9)

#: Size and seed of the one-off Monte Carlo draw backing the sampling-based
#: ``variance``/``cdf``/``ppf`` fallbacks.  The draw is made at most once per
#: distribution instance and cached (instances are immutable), so repeated
#: queries — e.g. tabulating a CDF for the analytic fast path — pay for the
#: 200k samples exactly once instead of on every call.
_FALLBACK_SAMPLE_COUNT: int = 200_000
_FALLBACK_SAMPLE_SEED: int = 0


def check_quantiles(q: float | np.ndarray) -> np.ndarray:
    """Return ``q`` as a float array, raising unless every entry is in [0, 1].

    NaN fails the check too, so a ``ppf`` never answers a NaN quantile.
    """
    quantiles = np.asarray(q, dtype=float)
    if not np.all((quantiles >= 0.0) & (quantiles <= 1.0)):
        raise DistributionError(f"quantiles must lie in [0, 1], got {q}")
    return quantiles


def check_points(x: float | np.ndarray) -> np.ndarray:
    """Return ``x`` as a float array, raising if any entry is NaN.

    The ``cdf`` counterpart of :func:`check_quantiles`: no latency is
    ``<= NaN``, so a ``cdf`` never answers one.  ``±inf`` stays valid, and a
    ``cdf`` answers 0 or 1 there.
    """
    points = np.asarray(x, dtype=float)
    if np.isnan(points).any():
        raise DistributionError(f"cdf points must not be NaN, got {x}")
    return points


def float_or_array(values: np.ndarray) -> float | np.ndarray:
    """A ``cdf``/``ppf`` result: a float when ``values`` is 0-d, else the array."""
    return float(values) if np.ndim(values) == 0 else values


def as_rng(seed_or_rng: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed, generator, or ``None``.

    Passing an existing generator returns it unchanged so callers can share a
    single stream across several distributions; passing an integer (or
    ``None``) constructs a fresh PCG64 generator.
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


@dataclass(frozen=True)
class DistributionSummary:
    """Summary statistics for a latency distribution in milliseconds.

    Mirrors the shape of the production latency tables in the paper: a mean
    plus a small set of percentiles.
    """

    mean: float
    percentiles: Mapping[float, float]

    def percentile(self, q: float) -> float:
        """Return the latency at percentile ``q`` (e.g. ``99.9``)."""
        try:
            return self.percentiles[q]
        except KeyError as exc:
            raise DistributionError(f"percentile {q} not present in summary") from exc

    def as_rows(self) -> list[tuple[str, float]]:
        """Return ``(label, value)`` rows suitable for table rendering."""
        rows: list[tuple[str, float]] = [("mean", self.mean)]
        rows.extend((f"p{q:g}", value) for q, value in sorted(self.percentiles.items()))
        return rows


class LatencyDistribution(abc.ABC):
    """A one-way message latency distribution, in milliseconds.

    Concrete subclasses must implement :meth:`sample` and :meth:`mean`; the
    remaining methods have sensible sampling-based defaults that subclasses
    with analytic forms are encouraged to override.  An override of
    :meth:`cdf` or :meth:`ppf` keeps their array contract;
    :func:`check_quantiles` and :func:`float_or_array` do the bookkeeping.
    """

    #: Short human-readable name used by ``repr`` and table rendering.
    name: str = "latency"

    @abc.abstractmethod
    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` IID latency samples (a 1-D float array, ms)."""

    @abc.abstractmethod
    def mean(self) -> float:
        """Return the distribution mean in milliseconds."""

    # ------------------------------------------------------------------
    # Optional analytic hooks with sampling-based fallbacks.
    # ------------------------------------------------------------------
    def _fallback_samples(self) -> np.ndarray:
        """Return the cached, sorted fallback draw, sampling it on first use.

        ``variance``/``cdf``/``ppf`` fall back to a fixed-seed 200,000-sample
        estimate when a subclass has no closed form.  Distributions are
        immutable, so the draw is a pure function of the instance and is
        cached on first use (``object.__setattr__`` is the sanctioned escape
        hatch for frozen dataclasses); every subsequent fallback query reuses
        it instead of redrawing.
        """
        try:
            return self._fallback_sample_cache  # type: ignore[attr-defined]
        except AttributeError:
            samples = np.sort(
                self.sample(_FALLBACK_SAMPLE_COUNT, as_rng(_FALLBACK_SAMPLE_SEED))
            )
            object.__setattr__(self, "_fallback_sample_cache", samples)
            return samples

    def variance(self) -> float:
        """Return the distribution variance (ms²), estimated by sampling if needed."""
        return float(np.var(self._fallback_samples()))

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Return ``P(latency <= x)``, estimated by sampling if not overridden.

        Every ``cdf`` and ``ppf`` in this package takes a float or an array:
        a float (or a 0-d array) gives a float, and an array gives an array
        of the same shape, so a whole ladder of points costs one call.
        Raises :class:`DistributionError` if any point is NaN.
        """
        points = check_points(x)
        samples = self._fallback_samples()
        return float_or_array(np.searchsorted(samples, points, side="right") / samples.size)

    def ppf(self, q: float | np.ndarray) -> float | np.ndarray:
        """Return the ``q``-quantile (``q`` in [0, 1]), estimated by sampling if needed.

        Array-valued like :meth:`cdf`; raises :class:`DistributionError` if
        any quantile is outside [0, 1] or NaN.
        """
        return float_or_array(np.quantile(self._fallback_samples(), check_quantiles(q)))

    # ------------------------------------------------------------------
    # Convenience helpers shared by all distributions.
    # ------------------------------------------------------------------
    def percentile(self, q: float) -> float:
        """Return the latency at percentile ``q`` (``q`` in [0, 100])."""
        return self.ppf(q / 100.0)

    def describe(
        self,
        percentiles: Sequence[float] = DEFAULT_PERCENTILES,
        samples: int = 200_000,
        rng: np.random.Generator | int | None = 0,
    ) -> DistributionSummary:
        """Summarise the distribution with a mean and the requested percentiles.

        The summary is computed from a single Monte Carlo draw so that it is
        consistent across the mean and every percentile even for distributions
        without analytic quantile functions.
        """
        draws = self.sample(samples, as_rng(rng))
        values = np.percentile(draws, list(percentiles))
        return DistributionSummary(
            mean=float(np.mean(draws)),
            percentiles={float(q): float(v) for q, v in zip(percentiles, values)},
        )

    def validate_samples(self, samples: np.ndarray) -> np.ndarray:
        """Raise :class:`DistributionError` if any sample is negative or non-finite."""
        if samples.ndim != 1:
            raise DistributionError("latency samples must form a 1-D array")
        if not np.all(np.isfinite(samples)):
            raise DistributionError(f"{self.name} produced non-finite latency samples")
        if np.any(samples < 0):
            raise DistributionError(f"{self.name} produced negative latency samples")
        return samples

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mean = self.mean()
        mean_text = f"{mean:.3f}" if math.isfinite(mean) else "inf"
        return f"<{type(self).__name__} {self.name} mean={mean_text}ms>"
