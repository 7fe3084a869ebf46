"""Unit tests for the quantile-ladder tabulation layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytic.grid import LatencyGrid, convolve_grids, quantile_ladder
from repro.exceptions import DistributionError
from repro.latency.distributions import (
    ConstantLatency,
    ExponentialLatency,
    ParetoLatency,
    UniformLatency,
)
from repro.latency.empirical import EmpiricalDistribution
from repro.latency.mixture import MixtureDistribution
from repro.latency.production import lnkd_disk


def _record_calls(monkeypatch, owner, name) -> list[int]:
    """Wrap ``owner.name`` so each call appends the size of its argument."""
    calls: list[int] = []
    original = getattr(owner, name)

    def recording(self, values):
        calls.append(int(np.size(values)))
        return original(self, values)

    monkeypatch.setattr(owner, name, recording)
    return calls


class TestQuantileLadder:
    def test_strictly_increasing_within_open_interval(self):
        ladder = quantile_ladder()
        assert np.all(np.diff(ladder) > 0)
        assert 0.0 < ladder[0] < ladder[-1] < 1.0

    def test_reaches_requested_tail_mass(self):
        ladder = quantile_ladder(tail=1e-7)
        assert ladder[0] == pytest.approx(1e-7)
        assert 1.0 - ladder[-1] == pytest.approx(1e-7)

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(DistributionError):
            quantile_ladder(points=4)
        with pytest.raises(DistributionError):
            quantile_ladder(tail=0.5)


class TestLatencyGrid:
    def test_cdf_matches_analytic_cdf(self):
        dist = ExponentialLatency(rate=0.25)
        grid = LatencyGrid.from_distribution(dist)
        xs = np.array([0.1, 1.0, 4.0, 10.0, 40.0])
        assert np.allclose(grid.cdf(xs), [dist.cdf(x) for x in xs], atol=1e-4)

    def test_ppf_round_trips_through_cdf(self):
        grid = LatencyGrid.from_distribution(ParetoLatency(xm=1.5, alpha=3.8))
        qs = np.array([0.01, 0.5, 0.99, 0.9999])
        assert np.allclose(grid.cdf(grid.ppf(qs)), qs, atol=1e-4)

    def test_tail_nodes_reach_extreme_quantiles(self):
        dist = ParetoLatency(xm=3.0, alpha=3.35)
        grid = LatencyGrid.from_distribution(dist, tail=1e-7)
        # The heavy tail must be tabulated out to its 1 - 1e-7 quantile.
        assert grid.support[1] >= dist.ppf(1.0 - 2e-7)

    def test_cells_masses_sum_to_one(self):
        grid = LatencyGrid.from_distribution(ExponentialLatency(rate=1.0))
        for max_cells in (None, 64):
            _, masses = grid.cells(max_cells)
            assert masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_cells_reproduce_mean(self):
        dist = ExponentialLatency(rate=0.5)
        grid = LatencyGrid.from_distribution(dist)
        mids, masses = grid.cells()
        assert float(mids @ masses) == pytest.approx(dist.mean(), rel=1e-3)

    def test_mixture_uses_component_ladders(self):
        mixture = lnkd_disk().w  # Pareto body + exponential tail
        grid = LatencyGrid.from_distribution(mixture)
        xs = np.array([1.1, 2.0, 10.0, 50.0])
        assert np.allclose(grid.cdf(xs), [mixture.cdf(x) for x in xs], atol=1e-3)

    @pytest.mark.parametrize(
        "dist",
        [
            ExponentialLatency(rate=0.25),
            EmpiricalDistribution(np.random.default_rng(5).exponential(5.0, size=4_096)),
        ],
        ids=["exponential", "empirical"],
    )
    def test_leg_is_tabulated_with_one_ppf_call(self, monkeypatch, dist):
        calls = _record_calls(monkeypatch, type(dist), "ppf")
        LatencyGrid.from_distribution(dist)
        assert calls == [quantile_ladder().size]

    def test_mixture_is_tabulated_with_one_cdf_call(self, monkeypatch):
        pareto_calls = _record_calls(monkeypatch, ParetoLatency, "ppf")
        exponential_calls = _record_calls(monkeypatch, ExponentialLatency, "ppf")
        cdf_calls = _record_calls(monkeypatch, MixtureDistribution, "cdf")
        grid = LatencyGrid.from_distribution(lnkd_disk().w)
        assert pareto_calls == exponential_calls == [quantile_ladder().size]
        assert cdf_calls == [grid.values.size]

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(DistributionError):
            LatencyGrid(values=np.array([1.0, 2.0]), probs=np.array([0.5]))


class TestConvolveGrids:
    def test_sum_of_uniforms_is_triangular(self):
        grid = LatencyGrid.from_distribution(UniformLatency(low=0.0, high=1.0))
        total = convolve_grids(grid, grid)
        # CDF of U(0,1)+U(0,1) at 1.0 is exactly 0.5; at 0.5 it is 0.125.
        assert float(total.cdf(1.0)) == pytest.approx(0.5, abs=2e-3)
        assert float(total.cdf(0.5)) == pytest.approx(0.125, abs=2e-3)

    def test_sum_of_exponentials_is_gamma(self):
        dist = ExponentialLatency(rate=1.0)
        grid = LatencyGrid.from_distribution(dist)
        total = convolve_grids(grid, grid)
        # Erlang(2, 1): F(x) = 1 - e^-x (1 + x).
        for x in (0.5, 1.0, 2.0, 5.0):
            expected = 1.0 - np.exp(-x) * (1.0 + x)
            assert float(total.cdf(x)) == pytest.approx(expected, abs=2e-3)

    def test_constant_plus_constant_degenerates_to_step(self):
        grid = LatencyGrid.from_distribution(ConstantLatency(2.0))
        total = convolve_grids(grid, grid)
        assert float(total.cdf(3.9)) == pytest.approx(0.0, abs=1e-6)
        assert float(total.cdf(4.1)) == pytest.approx(1.0, abs=1e-6)
