"""Quantile-ladder tabulation of latency distributions.

The analytic predictor needs every leg distribution as a pair of fast
vectorised maps ``x -> F(x)`` and ``q -> F^{-1}(q)``.  A uniform value grid
cannot serve the paper's production fits — the YMMR write tail is an
exponential with a ~357 ms mean riding on a Pareto body below 10 ms — so
:class:`LatencyGrid` tabulates each distribution at a *quantile ladder*: a
dense set of probabilities in ``(0, 1)`` with geometric refinement toward
both tails (down to ``1e-7`` of mass).  Node placement then automatically
follows the distribution's own shape, and linear interpolation between nodes
is accurate wherever the distribution has mass.

Sums of independent legs (``W + A`` commit round trips, ``R + S`` read round
trips) are tabulated by :func:`convolve_grids`: node placement from a coarse
weighted outer sum, probabilities from a quadrature of one grid's CDF against
the other grid's probability cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import DistributionError
from repro.latency.base import LatencyDistribution
from repro.latency.mixture import MixtureDistribution

__all__ = [
    "DEFAULT_GRID_POINTS",
    "DEFAULT_TAIL_MASS",
    "LatencyGrid",
    "quantile_ladder",
    "convolve_grids",
]

#: Default number of body points in a quantile ladder.
DEFAULT_GRID_POINTS: int = 513

#: Probability mass left untabulated in each tail.
DEFAULT_TAIL_MASS: float = 1e-7

#: Geometric refinement points inserted per tail beyond the uniform body.
_TAIL_POINTS: int = 33


def quantile_ladder(
    points: int = DEFAULT_GRID_POINTS, tail: float = DEFAULT_TAIL_MASS
) -> np.ndarray:
    """Strictly increasing probabilities in ``(tail, 1 - tail)``.

    ``points`` uniform body points are augmented with geometrically spaced
    probabilities toward each tail so heavy-tailed distributions keep nodes
    out to their ``1 - tail`` quantile.
    """
    if points < 8:
        raise DistributionError(f"quantile ladder needs >= 8 points, got {points}")
    if not 0.0 < tail < 0.25:
        raise DistributionError(f"tail mass must be in (0, 0.25), got {tail}")
    body = np.linspace(0.0, 1.0, points)[1:-1]
    low = np.geomspace(tail, body[0], _TAIL_POINTS)[:-1]
    high_eps = np.geomspace(tail, 1.0 - body[-1], _TAIL_POINTS)[:-1]
    high = (1.0 - high_eps)[::-1]
    return np.unique(np.concatenate([low, body, high]))


@dataclass(frozen=True)
class LatencyGrid:
    """A latency distribution tabulated as ``(value, cumulative probability)`` pairs.

    ``values`` must be non-decreasing and ``probs`` non-decreasing in
    ``[0, 1]``; both are sanitised on construction.  Queries are vectorised
    linear interpolations:

    * :meth:`cdf` / :meth:`sf` interpolate probability over unique values
      (right-continuous at atoms);
    * :meth:`ppf` interpolates values over the strictly increasing part of
      the probability ladder;
    * :meth:`cells` returns midpoint/mass quadrature cells whose masses sum
      to exactly one (tail mass beyond the ladder collapses onto the end
      nodes).
    """

    values: np.ndarray
    probs: np.ndarray
    _ppf_p: np.ndarray = field(init=False, repr=False, compare=False)
    _ppf_v: np.ndarray = field(init=False, repr=False, compare=False)
    _cdf_v: np.ndarray = field(init=False, repr=False, compare=False)
    _cdf_p: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if values.ndim != 1 or values.shape != probs.shape or values.size < 2:
            raise DistributionError("grid requires matching 1-D arrays of >= 2 nodes")
        if not np.all(np.isfinite(values)):
            raise DistributionError("grid values must be finite")
        values = np.maximum.accumulate(values)
        probs = np.maximum.accumulate(np.clip(probs, 0.0, 1.0))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        # Strictly increasing ladder for quantile queries.
        keep = np.concatenate([[True], np.diff(probs) > 0.0])
        object.__setattr__(self, "_ppf_p", probs[keep])
        object.__setattr__(self, "_ppf_v", values[keep])
        # Unique values with the largest attained probability for CDF queries.
        unique_values = np.unique(values)
        last = np.searchsorted(values, unique_values, side="right") - 1
        object.__setattr__(self, "_cdf_v", unique_values)
        object.__setattr__(self, "_cdf_p", probs[last])

    @classmethod
    def from_distribution(
        cls,
        distribution: LatencyDistribution,
        points: int = DEFAULT_GRID_POINTS,
        tail: float = DEFAULT_TAIL_MASS,
    ) -> "LatencyGrid":
        """Tabulate a distribution over a quantile ladder.

        A leg costs one array ``ppf`` call over the whole ladder.  Mixtures
        are tabulated on the union of their components' ladders (one ``ppf``
        call per component) with probabilities from one array call of the
        mixture's analytic CDF — inverting the mixture CDF would cost a
        bisection per node.
        """
        ladder = quantile_ladder(points, tail)
        if isinstance(distribution, MixtureDistribution):
            component_values = [
                component.distribution.ppf(ladder)
                for component in distribution.components
                if component.weight > 0.0
            ]
            values = np.unique(np.concatenate(component_values))
            return cls(values=values, probs=distribution.cdf(values))
        return cls(values=distribution.ppf(ladder), probs=ladder)

    def cdf(self, x: np.ndarray | float) -> np.ndarray:
        """``P(X <= x)`` by interpolation (0 below the grid, 1 above it)."""
        return np.interp(x, self._cdf_v, self._cdf_p, left=0.0, right=1.0)

    def sf(self, x: np.ndarray | float) -> np.ndarray:
        """Survival function ``P(X > x)``."""
        return 1.0 - self.cdf(x)

    def ppf(self, q: np.ndarray | float) -> np.ndarray:
        """Quantile function by interpolation, clamped to the tabulated range."""
        return np.interp(q, self._ppf_p, self._ppf_v)

    def cells(self, max_cells: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature cells ``(midpoints, masses)`` with masses summing to one.

        With ``max_cells`` the grid is first resampled onto a coarser
        tail-aware ladder, bounding the cost of quadratures that loop over
        the cells.
        """
        if max_cells is not None and max_cells + 1 < self._ppf_p.size:
            probs = quantile_ladder(max_cells + 1, max(float(self._ppf_p[0]), 1e-12))
            values = self.ppf(probs)
        else:
            probs, values = self._ppf_p, self._ppf_v
        mids = 0.5 * (values[:-1] + values[1:])
        masses = np.diff(probs)
        mids = np.concatenate([[values[0]], mids, [values[-1]]])
        masses = np.concatenate([[probs[0]], masses, [1.0 - probs[-1]]])
        nonzero = masses > 0.0
        return mids[nonzero], masses[nonzero]

    @property
    def support(self) -> tuple[float, float]:
        """Smallest and largest tabulated values."""
        return float(self.values[0]), float(self.values[-1])


def convolve_grids(
    x: "LatencyGrid",
    y: "LatencyGrid",
    points: int = DEFAULT_GRID_POINTS,
    tail: float = DEFAULT_TAIL_MASS,
    quad_cells: int = 512,
    placement_cells: int = 128,
) -> "LatencyGrid":
    """Tabulate the distribution of ``X + Y`` for independent tabulated legs.

    Node placement comes from the weighted outer sum of coarse cells of both
    grids (so nodes track the sum's own quantiles, tails included); the CDF at
    each node is the exact quadrature ``F_{X+Y}(u) = sum_j m_j F_X(u - y_j)``
    over ``quad_cells`` probability cells of ``Y``.
    """
    px_m, px_w = x.cells(placement_cells)
    py_m, py_w = y.cells(placement_cells)
    sums = (px_m[:, None] + py_m[None, :]).ravel()
    weights = (px_w[:, None] * py_w[None, :]).ravel()
    order = np.argsort(sums)
    sums = sums[order]
    cumulative = np.cumsum(weights[order])
    ladder = quantile_ladder(points, tail)
    nodes = np.unique(np.interp(ladder, cumulative, sums))
    if nodes.size < 2:
        # Two constant legs: the sum is a point mass; tabulate it as a step.
        value = float(nodes[0])
        nodes = np.array([value - max(abs(value), 1.0) * 1e-9, value])
    y_mids, y_masses = y.cells(quad_cells)
    probs = x.cdf(nodes[:, None] - y_mids[None, :]) @ y_masses
    return LatencyGrid(values=nodes, probs=probs)
