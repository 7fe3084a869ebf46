"""Fitting mixture latency models to percentile summaries (paper §5.5).

The production data available to the paper's authors (and to us) is a set of
summary statistics — a handful of percentiles and a mean — rather than raw
traces.  The paper fits each one-way latency distribution with a
two-component mixture (Pareto body + exponential tail) chosen to minimise the
normalised RMSE between the fit's percentiles and the published ones.

:func:`fit_pareto_exponential` reproduces that procedure with a coarse grid
search refined by ``scipy.optimize.minimize`` (Nelder–Mead), which is robust
for this low-dimensional, noisy objective and requires no gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import DistributionError
from repro.latency.base import LatencyDistribution
from repro.latency.mixture import MixtureDistribution, pareto_exponential_mixture
from repro.latency.percentiles import normalized_rmse, rmse

__all__ = [
    "DEFAULT_FIT_PERCENTILES",
    "FitResult",
    "evaluate_fit",
    "fit_from_observations",
    "fit_pareto_exponential",
]

#: Percentiles summarised from raw observations by :func:`fit_from_observations`,
#: mirroring the shape of the paper's production tables (Tables 1 and 2).
DEFAULT_FIT_PERCENTILES: tuple[float, ...] = (50.0, 75.0, 95.0, 98.0, 99.0, 99.9)


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting a mixture to a percentile summary."""

    distribution: MixtureDistribution
    pareto_weight: float
    xm: float
    alpha: float
    exponential_rate: float
    n_rmse: float

    def describe(self) -> str:
        """One-line, Table 3 style description of the fit."""
        return (
            f"{self.pareto_weight * 100:.1f}%: Pareto(xm={self.xm:.3g}, alpha={self.alpha:.3g}); "
            f"{(1 - self.pareto_weight) * 100:.1f}%: Exp(lambda={self.exponential_rate:.3g}); "
            f"N-RMSE={self.n_rmse * 100:.2f}%"
        )


def _percentile_targets(
    percentiles: Mapping[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Split a ``{percentile: latency}`` mapping into sorted arrays."""
    if not percentiles:
        raise DistributionError("at least one percentile is required to fit a distribution")
    points = np.array(sorted(percentiles), dtype=float)
    values = np.array([percentiles[p] for p in points], dtype=float)
    if np.any(points <= 0) or np.any(points >= 100):
        raise DistributionError("fit percentiles must lie strictly between 0 and 100")
    if np.any(values < 0):
        raise DistributionError("fit latencies must be non-negative")
    return points, values


def _target_spread(values: np.ndarray) -> float:
    """Normalisation scale for the fit objective and N-RMSE metric.

    Degenerate summaries — a single percentile, or a flat table where every
    percentile quotes the same latency — have zero range, which would make
    the paper's N-RMSE undefined mid-fit.  Fall back to the flat level
    itself (relative error), or 1.0 when even that is zero.
    """
    spread = float(np.max(values) - np.min(values))
    if spread > 0.0:
        return spread
    return float(np.max(np.abs(values))) or 1.0


def evaluate_fit(
    distribution: LatencyDistribution,
    percentiles: Mapping[float, float],
    samples: int = 200_000,
    seed: int = 0,
) -> float:
    """Return the N-RMSE between a distribution's percentiles and target percentiles.

    Zero-range targets (single-percentile or flat summaries) are normalised
    by the flat latency level instead of the (zero) range, so the fit path
    never raises mid-optimisation.
    """
    points, values = _percentile_targets(percentiles)
    draws = distribution.sample(samples, np.random.default_rng(seed))
    predicted = np.percentile(draws, points)
    spread = float(np.max(values) - np.min(values))
    if spread == 0.0:
        return rmse(predicted, values) / _target_spread(values)
    return normalized_rmse(predicted, values)


def _candidate_objective(
    params: Sequence[float],
    points: np.ndarray,
    values: np.ndarray,
    probe: np.ndarray,
) -> float:
    """Analytic (quantile-free) objective used during optimisation.

    The mixture CDF is analytic, so rather than sampling we evaluate the
    mixture CDF on a latency grid and interpolate the quantiles from it.
    ``params`` is ``(logit_weight, log_xm, log_alpha, log_rate)``.
    """
    logit_weight, log_xm, log_alpha, log_rate = params
    weight = 1.0 / (1.0 + np.exp(-logit_weight))
    xm = float(np.exp(log_xm))
    alpha = float(np.exp(log_alpha))
    rate = float(np.exp(log_rate))
    # Guard rails against degenerate fits: the exponential tail must stay in
    # the same order of magnitude as the observed latencies (otherwise the
    # optimiser can "hide" an absurd tail behind a vanishing weight), and the
    # body must retain a non-trivial share of the mass.
    max_target = float(np.max(values))
    if max_target <= 0.0:
        return 1e6
    if rate < 1.0 / (20.0 * max_target) or not 0.2 <= weight <= 0.995:
        return 1e6
    try:
        mixture = pareto_exponential_mixture(weight, xm, alpha, rate)
    except DistributionError:
        return 1e6
    cdf_values = mixture.cdf(probe)
    # Quantile via inverse interpolation of the CDF over the probe grid.
    predicted = np.interp(points / 100.0, cdf_values, probe)
    if np.any(~np.isfinite(predicted)):
        return 1e6
    return float(np.sqrt(np.mean((predicted - values) ** 2)) / _target_spread(values))


def fit_from_observations(
    observations: Sequence[float] | np.ndarray,
    percentiles: Sequence[float] = DEFAULT_FIT_PERCENTILES,
    grid_refinements: int = 3,
    seed: int = 0,
) -> FitResult:
    """Summarise raw latency observations and fit the §5.5 mixture to them.

    This is the streaming-refit path used by :mod:`repro.serving`: a tenant's
    bounded observation reservoir is reduced to the same percentile-summary
    shape as the paper's production tables and handed to
    :func:`fit_pareto_exponential`, so periodic online refits and one-shot
    table fits share a single code path — and a single determinism contract
    (identical observations produce an identical :class:`FitResult`).

    Args
    ----
    observations:
        Raw latency samples in milliseconds (1-D, finite, non-negative).
    percentiles:
        Percentiles (strictly between 0 and 100) summarised before fitting.
    grid_refinements / seed:
        Forwarded to :func:`fit_pareto_exponential`.
    """
    values = np.asarray(observations, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise DistributionError("fitting requires a non-empty 1-D observation array")
    if np.any(~np.isfinite(values)) or np.any(values < 0):
        raise DistributionError("observations must be finite and non-negative")
    points = np.asarray(sorted(set(float(p) for p in percentiles)), dtype=float)
    if points.size == 0:
        raise DistributionError("at least one percentile is required to fit a distribution")
    summary = {
        float(p): float(v) for p, v in zip(points, np.percentile(values, points))
    }
    return fit_pareto_exponential(
        summary,
        mean_hint=float(values.mean()),
        grid_refinements=grid_refinements,
        seed=seed,
    )


def fit_pareto_exponential(
    percentiles: Mapping[float, float],
    mean_hint: float | None = None,
    grid_refinements: int = 3,
    seed: int = 0,
) -> FitResult:
    """Fit a Pareto-body + exponential-tail mixture to a percentile summary.

    Parameters
    ----------
    percentiles:
        ``{percentile: latency_ms}`` targets, e.g. ``{50: 3.75, 95: 5.2, 99.9: 32.89}``.
    mean_hint:
        Optional published mean; used only to seed the search, not as a
        constraint (heavy tails make summary means unreliable targets).
    grid_refinements:
        Number of Nelder–Mead restarts from the best grid candidates.
    seed:
        Seed for the final Monte Carlo N-RMSE evaluation.
    """
    # Imported here, not at module level: this is its only caller, and
    # ``import repro`` would otherwise pay for scipy.optimize on every start.
    from scipy import optimize

    points, values = _percentile_targets(percentiles)
    median = float(np.interp(50.0, points, values)) if points.size > 1 else float(values[0])
    scale_guess = mean_hint if mean_hint and mean_hint > 0 else max(median, 1e-3)

    # Latency probe grid for CDF inversion: log-spaced past the largest target.
    upper = max(float(np.max(values)) * 50.0, scale_guess * 100.0)
    probe = np.concatenate(
        [[0.0], np.logspace(np.log10(max(min(values) / 100.0, 1e-4)), np.log10(upper), 4000)]
    )

    # Coarse grid over plausible parameter ranges.
    weight_grid = [0.5, 0.8, 0.9, 0.95, 0.98]
    xm_grid = [scale_guess * f for f in (0.1, 0.3, 0.6, 1.0)]
    alpha_grid = [1.5, 2.5, 4.0, 8.0]
    rate_grid = [1.0 / (scale_guess * f) for f in (2.0, 5.0, 20.0, 100.0)]

    candidates: list[tuple[float, tuple[float, float, float, float]]] = []
    for weight in weight_grid:
        for xm in xm_grid:
            for alpha in alpha_grid:
                for rate in rate_grid:
                    params = (
                        float(np.log(weight / (1.0 - weight))),
                        float(np.log(xm)),
                        float(np.log(alpha)),
                        float(np.log(rate)),
                    )
                    score = _candidate_objective(params, points, values, probe)
                    candidates.append((score, params))
    candidates.sort(key=lambda item: item[0])

    best_params = candidates[0][1]
    best_score = candidates[0][0]
    for _, start in candidates[:grid_refinements]:
        result = optimize.minimize(
            _candidate_objective,
            x0=np.array(start),
            args=(points, values, probe),
            method="Nelder-Mead",
            options={"maxiter": 2000, "xatol": 1e-4, "fatol": 1e-6},
        )
        if result.fun < best_score:
            best_score = float(result.fun)
            best_params = tuple(result.x)  # type: ignore[assignment]

    logit_weight, log_xm, log_alpha, log_rate = best_params
    weight = float(1.0 / (1.0 + np.exp(-logit_weight)))
    xm = float(np.exp(log_xm))
    alpha = float(np.exp(log_alpha))
    rate = float(np.exp(log_rate))
    mixture = pareto_exponential_mixture(weight, xm, alpha, rate, name="fitted")
    n_rmse = evaluate_fit(mixture, percentiles, seed=seed)
    return FitResult(
        distribution=mixture,
        pareto_weight=weight,
        xm=xm,
        alpha=alpha,
        exponential_rate=rate,
        n_rmse=n_rmse,
    )
