"""Mixture latency distributions.

Every production fit in Table 3 of the paper is a two-component mixture: a
Pareto body capturing the common case and an exponential tail capturing
garbage-collection pauses, fsync stalls, and other rare slow events.  The
:class:`MixtureDistribution` here supports an arbitrary number of weighted
components so the same machinery also serves ablations (e.g. three-component
fits) and synthetic long-tail studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import DistributionError
from repro.latency.base import (
    LatencyDistribution,
    check_points,
    check_quantiles,
    float_or_array,
)
from repro.latency.distributions import ExponentialLatency, ParetoLatency

__all__ = ["MixtureComponent", "MixtureDistribution", "pareto_exponential_mixture"]


@dataclass(frozen=True)
class MixtureComponent:
    """One weighted component of a mixture distribution."""

    weight: float
    distribution: LatencyDistribution

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise DistributionError(f"mixture weight must be in [0, 1], got {self.weight}")


@dataclass(frozen=True, repr=False)
class MixtureDistribution(LatencyDistribution):
    """A finite mixture of latency distributions with weights summing to one."""

    components: tuple[MixtureComponent, ...]
    name: str = "mixture"

    def __post_init__(self) -> None:
        if not self.components:
            raise DistributionError("mixture requires at least one component")
        total = sum(component.weight for component in self.components)
        if abs(total - 1.0) > 1e-9:
            raise DistributionError(f"mixture weights must sum to 1, got {total}")

    @classmethod
    def from_pairs(
        cls,
        pairs: Sequence[tuple[float, LatencyDistribution]],
        name: str = "mixture",
    ) -> "MixtureDistribution":
        """Construct from ``(weight, distribution)`` pairs."""
        components = tuple(MixtureComponent(weight, dist) for weight, dist in pairs)
        return cls(components=components, name=name)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """One uniform per sample picks its component, as ``Generator.choice`` does.

        Component ``k`` takes the uniforms in ``[bounds[k-1], bounds[k])`` of
        the normalised cumulative weights: ``choice(p=weights)``'s own rule
        (``cdf.searchsorted(u, side="right")``) over the same uniforms, so the
        stream and the samples are those of ``choice`` without its overhead.
        """
        bounds = np.cumsum([component.weight for component in self.components])
        bounds /= bounds[-1]
        uniforms = rng.random(size)
        samples = np.empty(size, dtype=float)
        lower = 0.0
        for upper, component in zip(bounds, self.components):
            mask = (uniforms >= lower) & (uniforms < upper)
            lower = upper
            count = int(np.count_nonzero(mask))
            if count:
                samples[mask] = component.distribution.sample(count, rng)
        return self.validate_samples(samples)

    def mean(self) -> float:
        return sum(
            component.weight * component.distribution.mean() for component in self.components
        )

    def variance(self) -> float:
        # Law of total variance: Var = E[Var | component] + Var(E | component).
        mean = self.mean()
        within = sum(
            component.weight * component.distribution.variance()
            for component in self.components
        )
        between = sum(
            component.weight * (component.distribution.mean() - mean) ** 2
            for component in self.components
        )
        return within + between

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """The weighted sum of the component CDFs, one call per component."""
        x = check_points(x)
        return float_or_array(
            sum(
                component.weight * component.distribution.cdf(x)
                for component in self.components
            )
        )

    def ppf(self, q: float | np.ndarray) -> float | np.ndarray:
        """Quantiles by bisection of the analytic CDF, all ``q`` at once.

        The mixture CDF has no closed-form inverse, but each component's ppf
        brackets the mixture quantile (the mixture CDF is a weighted average
        of the component CDFs), so every quantile bisects between its
        smallest and largest component quantile.  Each bisection round makes
        one array :meth:`cdf` call over the quantiles still open.
        """
        quantiles = check_quantiles(q)
        component_quantiles = np.stack(
            [
                component.distribution.ppf(quantiles)
                for component in self.components
                if component.weight > 0.0
            ]
        )
        low = component_quantiles.min(axis=0)
        high = component_quantiles.max(axis=0)
        # A bracket already narrower than 1e-12 answers its lower end; an
        # infinite upper end (q = 1 for an unbounded component) answers inf.
        with np.errstate(invalid="ignore"):  # inf - inf
            narrow = high - low <= 1e-12
        result = np.where(narrow, low, high)
        bracketed = np.isfinite(high) & ~narrow
        low, high, target = low[bracketed], high[bracketed], quantiles[bracketed]
        pending = np.arange(low.size)
        for _ in range(200):
            if pending.size == 0:
                break
            mid = 0.5 * (low[pending] + high[pending])
            below = self.cdf(mid) < target[pending]
            low[pending[below]] = mid[below]
            high[pending[~below]] = mid[~below]
            converged = high[pending] - low[pending] <= 1e-12 * np.maximum(
                1.0, np.abs(high[pending])
            )
            pending = pending[~converged]
        result[bracketed] = high
        return float_or_array(result)


def pareto_exponential_mixture(
    pareto_weight: float,
    xm: float,
    alpha: float,
    exponential_rate: float,
    name: str = "pareto+exp",
) -> MixtureDistribution:
    """Build the Table 3 style mixture: a Pareto body with an exponential tail.

    Parameters mirror the paper's notation: ``xm`` and ``alpha`` describe the
    Pareto body, ``exponential_rate`` is the tail's ``λ`` (per millisecond),
    and ``pareto_weight`` is the fraction of operations drawn from the body.
    """
    if not 0.0 <= pareto_weight <= 1.0:
        raise DistributionError(f"pareto weight must be in [0, 1], got {pareto_weight}")
    return MixtureDistribution.from_pairs(
        [
            (pareto_weight, ParetoLatency(xm=xm, alpha=alpha)),
            (1.0 - pareto_weight, ExponentialLatency(rate=exponential_rate)),
        ],
        name=name,
    )
