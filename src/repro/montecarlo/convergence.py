"""Monte Carlo convergence utilities.

The paper's headline numbers are tail probabilities (99.9% consistency) and
tail latencies (99.9th percentile), so knowing how many trials are needed for
a stable estimate matters.  This module provides Wilson score intervals for
probability estimates and simple sample-size planning helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, sqrt

from scipy.special import ndtri

from repro.exceptions import AnalysisError

__all__ = ["ProbabilityEstimate", "wilson_interval", "wilson_bounds", "trials_for_margin"]


@dataclass(frozen=True)
class ProbabilityEstimate:
    """A Monte Carlo probability estimate with a confidence interval."""

    probability: float
    lower: float
    upper: float
    trials: int
    confidence: float

    @property
    def margin(self) -> float:
        """Half-width of the confidence interval."""
        return (self.upper - self.lower) / 2.0

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the confidence interval."""
        return self.lower <= value <= self.upper


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> ProbabilityEstimate:
    """Wilson score interval for a binomial proportion.

    More accurate than the normal approximation for the extreme probabilities
    (very close to 0 or 1) that dominate PBS analyses.
    """
    if trials <= 0:
        raise AnalysisError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise AnalysisError(f"successes must be in [0, {trials}], got {successes}")
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")

    z = float(ndtri(1.0 - (1.0 - confidence) / 2.0))
    p_hat = successes / trials
    lower, upper = wilson_bounds(p_hat, trials, z)
    return ProbabilityEstimate(
        probability=p_hat,
        lower=lower,
        upper=upper,
        trials=trials,
        confidence=confidence,
    )


def wilson_bounds(p_hat: float, trials: int, z: float) -> tuple[float, float]:
    """``(lower, upper)`` of the Wilson score interval around ``p_hat`` at ``z``.

    The arithmetic behind :func:`wilson_interval`, for callers that hold a
    proportion rather than a count, or a z-score rather than a confidence.
    """
    denominator = 1.0 + z**2 / trials
    centre = (p_hat + z**2 / (2 * trials)) / denominator
    half_width = (
        z * sqrt(p_hat * (1.0 - p_hat) / trials + z**2 / (4 * trials**2)) / denominator
    )
    return max(0.0, centre - half_width), min(1.0, centre + half_width)


def trials_for_margin(
    probability: float, margin: float, confidence: float = 0.95
) -> int:
    """Trials needed so the normal-approximation CI half-width is at most ``margin``.

    Example: estimating a 99.9% consistency probability to ±0.05% at 95%
    confidence requires roughly 15k trials; to ±0.01%, roughly 384k.
    """
    if not 0.0 <= probability <= 1.0:
        raise AnalysisError(f"probability must be in [0, 1], got {probability}")
    if margin <= 0:
        raise AnalysisError(f"margin must be positive, got {margin}")
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
    z = float(ndtri(1.0 - (1.0 - confidence) / 2.0))
    variance = probability * (1.0 - probability)
    if variance == 0.0:
        return 1
    return int(ceil(z**2 * variance / margin**2))
