"""Parametric latency distributions.

These are the building blocks used throughout the paper's evaluation:

* :class:`ExponentialLatency` — the synthetic sweeps of §5.3 / Figure 4 use
  exponential one-way latencies parameterised by rate ``λ`` (mean ``1/λ`` ms).
* :class:`ParetoLatency` — the body of every production fit in Table 3.
* :class:`UniformLatency`, :class:`NormalLatency` — used by the paper to study
  fixed-mean / variable-variance behaviour (§5.3).
* :class:`ConstantLatency`, :class:`LogNormalLatency`, :class:`ShiftedLatency`,
  :class:`ScaledLatency` — utility distributions for composing scenarios such
  as the WAN model (a constant inter-datacenter delay added to a local
  distribution).

All distributions return latencies in milliseconds and are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import DistributionError
from repro.latency.base import LatencyDistribution

__all__ = [
    "ExponentialLatency",
    "ParetoLatency",
    "UniformLatency",
    "NormalLatency",
    "LogNormalLatency",
    "ConstantLatency",
    "ShiftedLatency",
    "ScaledLatency",
    "standard_normal_ppf",
]


# Coefficients of Acklam's rational approximation to the inverse standard
# normal CDF (relative error < 1.15e-9 everywhere), refined below with one
# Halley step against ``math.erfc`` to reach machine precision.
_ACKLAM_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)
_ACKLAM_P_LOW = 0.02425


def _require_finite(family: str, **parameters: float) -> None:
    """Raise :class:`DistributionError` if any parameter is NaN or infinite."""
    for name, value in parameters.items():
        if not math.isfinite(value):
            raise DistributionError(f"{family} {name} must be finite, got {value}")


def standard_normal_ppf(q: float) -> float:
    """Inverse CDF of the standard normal distribution (the probit function).

    Closed-form building block for :meth:`NormalLatency.ppf` and
    :meth:`LogNormalLatency.ppf`: neither :mod:`math` nor :mod:`numpy`
    exposes an inverse error function, so this implements Acklam's rational
    approximation plus one Halley refinement step against ``math.erfc``,
    which lands within a few ulp of the exact quantile across (0, 1).
    Returns ``-inf``/``inf`` at ``q = 0``/``q = 1``.
    """
    if not 0.0 <= q <= 1.0:
        raise DistributionError(f"quantile must be in [0, 1], got {q}")
    if q == 0.0:
        return -math.inf
    if q == 1.0:
        return math.inf
    if q < _ACKLAM_P_LOW:
        z = math.sqrt(-2.0 * math.log(q))
        a, b, c, d, e, f = _ACKLAM_C
        numerator = ((((a * z + b) * z + c) * z + d) * z + e) * z + f
        g, h, i, j = _ACKLAM_D
        denominator = (((g * z + h) * z + i) * z + j) * z + 1.0
        x = numerator / denominator
    elif q > 1.0 - _ACKLAM_P_LOW:
        z = math.sqrt(-2.0 * math.log(1.0 - q))
        a, b, c, d, e, f = _ACKLAM_C
        numerator = ((((a * z + b) * z + c) * z + d) * z + e) * z + f
        g, h, i, j = _ACKLAM_D
        denominator = (((g * z + h) * z + i) * z + j) * z + 1.0
        x = -numerator / denominator
    else:
        z = q - 0.5
        r = z * z
        a, b, c, d, e, f = _ACKLAM_A
        numerator = (((((a * r + b) * r + c) * r + d) * r + e) * r + f) * z
        g, h, i, j, k = _ACKLAM_B
        denominator = ((((g * r + h) * r + i) * r + j) * r + k) * r + 1.0
        x = numerator / denominator
    # One Halley step: error = Phi(x) - q, with Phi via erfc for tail accuracy.
    error = 0.5 * math.erfc(-x / math.sqrt(2.0)) - q
    u = error * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


@dataclass(frozen=True, repr=False)
class ExponentialLatency(LatencyDistribution):
    """Exponential latency with rate ``rate`` per millisecond (mean ``1/rate`` ms).

    The paper writes these as ``W = λ ∈ {0.05, 0.1, 0.2}`` for means of 20, 10
    and 5 ms respectively.
    """

    rate: float
    name: str = "exponential"

    def __post_init__(self) -> None:
        _require_finite("exponential", rate=self.rate)
        if self.rate <= 0:
            raise DistributionError(f"exponential rate must be positive, got {self.rate}")

    @classmethod
    def from_mean(cls, mean_ms: float, name: str = "exponential") -> "ExponentialLatency":
        """Construct from a mean latency in milliseconds."""
        if mean_ms <= 0:
            raise DistributionError(f"mean must be positive, got {mean_ms}")
        return cls(rate=1.0 / mean_ms, name=name)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return self.validate_samples(rng.exponential(scale=1.0 / self.rate, size=size))

    def mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        return 1.0 / (self.rate**2)

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return 1.0 - math.exp(-self.rate * x)

    def ppf(self, q: float) -> float:
        if not 0.0 <= q < 1.0:
            if q == 1.0:
                return math.inf
            raise DistributionError(f"quantile must be in [0, 1], got {q}")
        return -math.log(1.0 - q) / self.rate


@dataclass(frozen=True, repr=False)
class ParetoLatency(LatencyDistribution):
    """Pareto (type I) latency with scale ``xm`` (ms) and shape ``alpha``.

    ``P(X > x) = (xm / x) ** alpha`` for ``x >= xm``.  This is the body
    distribution of every production fit in Table 3 of the paper.
    """

    xm: float
    alpha: float
    name: str = "pareto"

    def __post_init__(self) -> None:
        _require_finite("pareto", xm=self.xm, alpha=self.alpha)
        if self.xm <= 0:
            raise DistributionError(f"pareto scale xm must be positive, got {self.xm}")
        if self.alpha <= 0:
            raise DistributionError(f"pareto shape alpha must be positive, got {self.alpha}")

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        # Inverse-transform sampling: X = xm / U^(1/alpha) for U ~ Uniform(0, 1].
        uniforms = rng.random(size)
        # Guard against exactly-zero uniforms which would produce infinities.
        uniforms = np.clip(uniforms, 1e-15, 1.0)
        return self.validate_samples(self.xm / np.power(uniforms, 1.0 / self.alpha))

    def mean(self) -> float:
        if self.alpha <= 1.0:
            return math.inf
        return self.alpha * self.xm / (self.alpha - 1.0)

    def variance(self) -> float:
        if self.alpha <= 2.0:
            return math.inf
        return (self.xm**2 * self.alpha) / ((self.alpha - 1.0) ** 2 * (self.alpha - 2.0))

    def cdf(self, x: float) -> float:
        if x < self.xm:
            return 0.0
        return 1.0 - (self.xm / x) ** self.alpha

    def ppf(self, q: float) -> float:
        if not 0.0 <= q < 1.0:
            if q == 1.0:
                return math.inf
            raise DistributionError(f"quantile must be in [0, 1], got {q}")
        return self.xm / (1.0 - q) ** (1.0 / self.alpha)


@dataclass(frozen=True, repr=False)
class UniformLatency(LatencyDistribution):
    """Uniform latency on ``[low, high]`` milliseconds."""

    low: float
    high: float
    name: str = "uniform"

    def __post_init__(self) -> None:
        _require_finite("uniform", low=self.low, high=self.high)
        if self.low < 0:
            raise DistributionError(f"uniform low bound must be non-negative, got {self.low}")
        if self.high <= self.low:
            raise DistributionError(
                f"uniform high bound must exceed low bound, got [{self.low}, {self.high}]"
            )

    @classmethod
    def from_mean_and_halfwidth(
        cls, mean_ms: float, halfwidth_ms: float, name: str = "uniform"
    ) -> "UniformLatency":
        """Construct a uniform distribution centred on ``mean_ms``."""
        return cls(low=mean_ms - halfwidth_ms, high=mean_ms + halfwidth_ms, name=name)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return self.validate_samples(rng.uniform(self.low, self.high, size=size))

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def variance(self) -> float:
        return (self.high - self.low) ** 2 / 12.0

    def cdf(self, x: float) -> float:
        if x <= self.low:
            return 0.0
        if x >= self.high:
            return 1.0
        return (x - self.low) / (self.high - self.low)

    def ppf(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise DistributionError(f"quantile must be in [0, 1], got {q}")
        return self.low + q * (self.high - self.low)


@dataclass(frozen=True, repr=False)
class NormalLatency(LatencyDistribution):
    """Normal latency truncated at zero (negative draws are clipped to zero).

    The paper uses fixed-mean normal distributions with varying variance to
    show that the variance of ``W`` matters more than its mean (§5.3).
    """

    mu: float
    sigma: float
    name: str = "normal"

    def __post_init__(self) -> None:
        _require_finite("normal", mu=self.mu, sigma=self.sigma)
        if self.sigma < 0:
            raise DistributionError(f"normal sigma must be non-negative, got {self.sigma}")

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        draws = rng.normal(loc=self.mu, scale=self.sigma, size=size)
        return self.validate_samples(np.clip(draws, 0.0, None))

    def mean(self) -> float:
        # The clipped mean differs slightly from mu when mass falls below zero;
        # report the analytic mean of the clipped variable.
        if self.sigma == 0:
            return max(self.mu, 0.0)
        z = self.mu / self.sigma
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        big_phi = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        return self.mu * big_phi + self.sigma * phi

    def variance(self) -> float:
        # Second moment of the clipped variable max(X, 0) for X ~ N(mu, sigma):
        # E[max(X,0)^2] = (mu^2 + sigma^2) Phi(z) + mu sigma phi(z) with
        # z = mu/sigma, minus the (already clipped-consistent) mean squared.
        if self.sigma == 0:
            return 0.0
        z = self.mu / self.sigma
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        big_phi = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        second_moment = (self.mu**2 + self.sigma**2) * big_phi + self.mu * self.sigma * phi
        return max(second_moment - self.mean() ** 2, 0.0)

    def cdf(self, x: float) -> float:
        if x < 0:
            return 0.0
        if self.sigma == 0:
            return 1.0 if x >= self.mu else 0.0
        return 0.5 * (1.0 + math.erf((x - self.mu) / (self.sigma * math.sqrt(2.0))))

    def ppf(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise DistributionError(f"quantile must be in [0, 1], got {q}")
        if q == 1.0:
            return math.inf if self.sigma > 0 else max(self.mu, 0.0)
        if self.sigma == 0:
            return max(self.mu, 0.0)
        if q == 0.0:
            return 0.0
        return max(0.0, self.mu + self.sigma * standard_normal_ppf(q))


@dataclass(frozen=True, repr=False)
class LogNormalLatency(LatencyDistribution):
    """Log-normal latency with underlying normal parameters ``mu`` and ``sigma``."""

    mu: float
    sigma: float
    name: str = "lognormal"

    def __post_init__(self) -> None:
        _require_finite("lognormal", mu=self.mu, sigma=self.sigma)
        if self.sigma < 0:
            raise DistributionError(f"lognormal sigma must be non-negative, got {self.sigma}")

    @classmethod
    def from_mean_and_cv(
        cls, mean_ms: float, cv: float, name: str = "lognormal"
    ) -> "LogNormalLatency":
        """Construct from a target mean and coefficient of variation."""
        if mean_ms <= 0:
            raise DistributionError(f"mean must be positive, got {mean_ms}")
        if cv < 0:
            raise DistributionError(f"coefficient of variation must be non-negative, got {cv}")
        sigma_sq = math.log(1.0 + cv**2)
        mu = math.log(mean_ms) - sigma_sq / 2.0
        return cls(mu=mu, sigma=math.sqrt(sigma_sq), name=name)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return self.validate_samples(rng.lognormal(mean=self.mu, sigma=self.sigma, size=size))

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def variance(self) -> float:
        return (math.exp(self.sigma**2) - 1.0) * math.exp(2.0 * self.mu + self.sigma**2)

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        if self.sigma == 0:
            return 1.0 if math.log(x) >= self.mu else 0.0
        return 0.5 * (1.0 + math.erf((math.log(x) - self.mu) / (self.sigma * math.sqrt(2.0))))

    def ppf(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise DistributionError(f"quantile must be in [0, 1], got {q}")
        if q == 0.0:
            return 0.0
        if q == 1.0:
            return math.inf if self.sigma > 0 else math.exp(self.mu)
        if self.sigma == 0:
            return math.exp(self.mu)
        return math.exp(self.mu + self.sigma * standard_normal_ppf(q))


@dataclass(frozen=True, repr=False)
class ConstantLatency(LatencyDistribution):
    """A degenerate distribution returning a fixed latency.

    Useful for modelling deterministic components such as the paper's 75 ms
    inter-datacenter delay in the WAN scenario, and for making unit tests
    exact.
    """

    value: float
    name: str = "constant"

    def __post_init__(self) -> None:
        _require_finite("constant", value=self.value)
        if self.value < 0:
            raise DistributionError(f"constant latency must be non-negative, got {self.value}")

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(size, self.value, dtype=float)

    def mean(self) -> float:
        return self.value

    def variance(self) -> float:
        return 0.0

    def cdf(self, x: float) -> float:
        return 1.0 if x >= self.value else 0.0

    def ppf(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise DistributionError(f"quantile must be in [0, 1], got {q}")
        return self.value


@dataclass(frozen=True, repr=False)
class ShiftedLatency(LatencyDistribution):
    """A base distribution shifted right by a constant offset (ms)."""

    base: LatencyDistribution
    offset: float
    name: str = "shifted"

    def __post_init__(self) -> None:
        _require_finite("shift", offset=self.offset)
        if self.offset < 0:
            raise DistributionError(f"shift offset must be non-negative, got {self.offset}")

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return self.validate_samples(self.base.sample(size, rng) + self.offset)

    def mean(self) -> float:
        return self.base.mean() + self.offset

    def variance(self) -> float:
        return self.base.variance()

    def cdf(self, x: float) -> float:
        return self.base.cdf(x - self.offset)

    def ppf(self, q: float) -> float:
        return self.base.ppf(q) + self.offset


@dataclass(frozen=True, repr=False)
class ScaledLatency(LatencyDistribution):
    """A base distribution scaled by a positive constant factor."""

    base: LatencyDistribution
    factor: float
    name: str = "scaled"

    def __post_init__(self) -> None:
        _require_finite("scale", factor=self.factor)
        if self.factor <= 0:
            raise DistributionError(f"scale factor must be positive, got {self.factor}")

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return self.validate_samples(self.base.sample(size, rng) * self.factor)

    def mean(self) -> float:
        return self.base.mean() * self.factor

    def variance(self) -> float:
        return self.base.variance() * self.factor**2

    def cdf(self, x: float) -> float:
        return self.base.cdf(x / self.factor)

    def ppf(self, q: float) -> float:
        return self.base.ppf(q) * self.factor
