"""The WARS model of Dynamo-style operation latency and staleness (paper §4, §5.1).

WARS names the four one-way message delays between a coordinator and a
replica:

* ``W`` — coordinator → replica, carrying the write,
* ``A`` — replica → coordinator, acknowledging the write,
* ``R`` — coordinator → replica, carrying the read request,
* ``S`` — replica → coordinator, carrying the read response.

A write *commits* when the coordinator has ``W`` (the quorum size)
acknowledgements; its commit latency is therefore the ``W``-th smallest of the
per-replica ``W[i] + A[i]`` sums.  A read returns once ``R`` responses arrive,
i.e. after the ``R``-th smallest ``R[i] + S[i]``.  The read is **stale** when
every one of the first ``R`` responding replicas received the read request
before it received the latest write: for responder ``i``,
``wt + t + R[i] < W[i]`` where ``wt`` is the commit latency and ``t`` the time
between commit and the start of the read.

The analytic formulation involves coupled order statistics, so the paper (and
this module) evaluates it by Monte Carlo.  The key observation used here is
that each simulated operation pair yields a *staleness threshold*::

    threshold = min over first-R responders of (W[i] − R[i]) − wt

and the read is consistent exactly when ``t >= threshold``.  One set of trials
therefore produces the entire t-visibility curve (the empirical CDF of the
thresholds) as well as read- and write-latency distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.core.quorum import ReplicaConfig
from repro.exceptions import ConfigurationError, DistributionError
from repro.kernels import KERNEL
from repro.latency.base import LatencyDistribution, as_rng
from repro.latency.composite import PerReplicaLatency
from repro.latency.production import WARSDistributions

__all__ = ["WARSTrialResult", "WARSSampleBatch", "WARSModel", "sample_wars_batch"]


def _sample_pair_matrices(
    outbound: LatencyDistribution,
    inbound: LatencyDistribution,
    trials: int,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the (outbound, inbound) delay matrices for one coordinator's messages.

    Both matrices have shape ``(trials, n)``.  When either distribution is
    per-replica, the same per-trial column permutation is applied to both so
    that "which replica is local" is consistent for a given coordinator, while
    remaining random across trials (the paper's WAN scenario).
    """

    def draw(distribution: LatencyDistribution) -> np.ndarray:
        if isinstance(distribution, PerReplicaLatency):
            if distribution.replica_count != n:
                raise DistributionError(
                    f"per-replica distribution has {distribution.replica_count} replicas "
                    f"but the configuration requires N={n}"
                )
            return distribution.sample_matrix(trials, rng)
        return distribution.sample(trials * n, rng).reshape(trials, n)

    outbound_matrix = draw(outbound)
    inbound_matrix = draw(inbound)

    per_replica = isinstance(outbound, PerReplicaLatency) or isinstance(
        inbound, PerReplicaLatency
    )
    if per_replica:
        # One permutation per trial, shared by the outbound and inbound legs.
        permutations = np.argsort(rng.random((trials, n)), axis=1)
        row_index = np.arange(trials)[:, None]
        outbound_matrix = outbound_matrix[row_index, permutations]
        inbound_matrix = inbound_matrix[row_index, permutations]
    return outbound_matrix, inbound_matrix


@dataclass(frozen=True)
class WARSSampleBatch:
    """One shared draw of the WARS delay matrices, pre-reduced for any (R, W).

    The four sampled delay matrices depend only on the latency distributions
    and the replication factor ``N`` — never on the quorum sizes ``R`` and
    ``W``.  This object therefore stores one draw in a form that makes the
    per-configuration reduction a set of column reads:

    * ``commit_latency_by_w_ms[:, w - 1]`` is the commit latency for write
      quorum size ``w`` (the ``w``-th smallest per-replica ``W[i] + A[i]``);
    * ``read_latency_by_r_ms[:, r - 1]`` is the read latency for read quorum
      size ``r`` (the ``r``-th smallest per-replica ``R[i] + S[i]``);
    * ``freshness_margin_by_r_ms[:, r - 1]`` is the running minimum of
      ``W[i] - R[i]`` over the first ``r`` responders in read-response order,
      so the staleness threshold for configuration ``(r, w)`` is simply
      ``freshness_margin_by_r_ms[:, r - 1] - commit_latency_by_w_ms[:, w - 1]``.

    Evaluating many configurations against one batch preserves the per-trial
    coupling between read and write order statistics exactly as if each
    configuration had been reduced from the same four matrices individually —
    :meth:`reduce` is bit-for-bit identical to what
    :meth:`WARSModel.sample` computes for a single configuration.

    The three reduced matrices are transposed views of ``(N, trials)``
    arrays (:data:`repro.kernels.KERNEL` works on one row per replica), so
    each column is contiguous in memory.  Equal round trips keep replica
    order, ``-0.0`` and ``0.0`` included.
    """

    n: int
    #: Raw per-trial, per-replica write-propagation delays (the W matrix).
    write_arrivals_ms: np.ndarray = field(repr=False)
    #: Sorted per-trial write round trips (W + A), ascending along axis 1.
    commit_latency_by_w_ms: np.ndarray = field(repr=False)
    #: Sorted per-trial read round trips (R + S), ascending along axis 1.
    read_latency_by_r_ms: np.ndarray = field(repr=False)
    #: Prefix minima of (W - R) in read-responder order along axis 1.
    freshness_margin_by_r_ms: np.ndarray = field(repr=False)

    @property
    def trials(self) -> int:
        """Number of simulated operations in this batch."""
        return int(self.commit_latency_by_w_ms.shape[0])

    def reduce(self, config: ReplicaConfig) -> "WARSTrialResult":
        """Reduce the shared samples for one (N, R, W) configuration.

        O(trials) column reads; no re-sampling and no re-sorting.
        """
        if config.n != self.n:
            raise ConfigurationError(
                f"batch was sampled for N={self.n} but the configuration requires "
                f"N={config.n}"
            )
        commit_latencies = self.commit_latency_by_w_ms[:, config.w - 1]
        read_latencies = self.read_latency_by_r_ms[:, config.r - 1]
        staleness_thresholds = (
            self.freshness_margin_by_r_ms[:, config.r - 1] - commit_latencies
        )
        return WARSTrialResult(
            config=config,
            commit_latencies_ms=commit_latencies,
            read_latencies_ms=read_latencies,
            staleness_thresholds_ms=staleness_thresholds,
            write_arrivals_ms=self.write_arrivals_ms,
        )


def sample_wars_batch(
    distributions: WARSDistributions,
    trials: int,
    n: int,
    rng: np.random.Generator,
) -> WARSSampleBatch:
    """Draw the four WARS delay matrices once and pre-reduce the order statistics.

    The sampling order (W/A pair first, then R/S pair) matches
    :meth:`WARSModel.sample` exactly, so a batch drawn from a generator in a
    given state yields the same trials the single-configuration kernel would
    have produced from that state.  The reduction (sorted write round
    trips, read round trips in stable responder order, prefix minima of
    ``W - R`` in that order) is :data:`repro.kernels.KERNEL`.
    """
    if trials < 1:
        raise ConfigurationError(f"trial count must be >= 1, got {trials}")
    if n < 1:
        raise ConfigurationError(f"replication factor must be >= 1, got {n}")

    write_delays, ack_delays = _sample_pair_matrices(
        distributions.w, distributions.a, trials, n, rng
    )
    read_delays, response_delays = _sample_pair_matrices(
        distributions.r, distributions.s, trials, n, rng
    )

    commit_latency_by_w, read_latency_by_r, freshness_margin_by_r = (
        KERNEL.reduce_batch(write_delays, ack_delays, read_delays, response_delays)
    )

    return WARSSampleBatch(
        n=n,
        write_arrivals_ms=write_delays,
        commit_latency_by_w_ms=commit_latency_by_w,
        read_latency_by_r_ms=read_latency_by_r,
        freshness_margin_by_r_ms=freshness_margin_by_r,
    )


@dataclass(frozen=True)
class WARSTrialResult:
    """Vectorised outcome of a batch of WARS Monte Carlo trials.

    Each of the arrays has one entry per simulated write/read pair.
    """

    config: ReplicaConfig
    commit_latencies_ms: np.ndarray
    read_latencies_ms: np.ndarray
    staleness_thresholds_ms: np.ndarray
    #: Per-trial, per-replica write arrival times (W delays); useful for
    #: building empirical propagation models.  ``None`` when the producer did
    #: not retain the raw propagation matrix.
    write_arrivals_ms: np.ndarray | None = field(repr=False, default=None)

    @property
    def trials(self) -> int:
        """Number of simulated operations in this batch."""
        return int(self.commit_latencies_ms.size)

    @cached_property
    def _sorted_thresholds_ms(self) -> np.ndarray:
        """The staleness thresholds sorted ascending, computed once.

        Every consistency query is an order-statistic lookup over the
        thresholds; caching the sorted array turns repeated curve /
        t-visibility / point queries from O(trials log trials) each into one
        sort amortised over the result's lifetime.  (``cached_property``
        writes straight into ``__dict__``, which a frozen dataclass permits.)
        """
        return np.sort(self.staleness_thresholds_ms)

    def consistency_counts(self, times_ms: Sequence[float]) -> np.ndarray:
        """Exact count of trials consistent at each requested time since commit."""
        times = np.asarray(list(times_ms), dtype=float)
        if np.any(times < 0):
            raise ConfigurationError("times since commit must be non-negative")
        return np.searchsorted(self._sorted_thresholds_ms, times, side="right")

    def consistency_probability(self, t_ms: float) -> float:
        """Fraction of trials whose read, started ``t_ms`` after commit, is consistent."""
        if t_ms < 0:
            raise ConfigurationError(f"time since commit must be non-negative, got {t_ms}")
        count = np.searchsorted(self._sorted_thresholds_ms, t_ms, side="right")
        return float(count / self.trials)

    def consistency_curve(self, times_ms: Sequence[float]) -> list[tuple[float, float]]:
        """Return ``(t, P(consistent at t))`` for each requested time since commit."""
        times = np.asarray(list(times_ms), dtype=float)
        probabilities = self.consistency_counts(times) / self.trials
        return [(float(t), float(p)) for t, p in zip(times, probabilities)]

    def t_visibility(self, target_probability: float) -> float:
        """Smallest ``t`` (ms) at which the probability of consistency reaches the target.

        This is the paper's "t-visibility for p_st = 1 - target" quantity, e.g.
        ``target_probability=0.999`` reproduces the Table 4 columns.  Returns
        0.0 when even immediately-after-commit reads already meet the target.
        """
        if not 0.0 < target_probability <= 1.0:
            raise ConfigurationError(
                f"target probability must be in (0, 1], got {target_probability}"
            )
        thresholds = self._sorted_thresholds_ms
        index = int(np.ceil(target_probability * thresholds.size)) - 1
        index = min(max(index, 0), thresholds.size - 1)
        return float(max(thresholds[index], 0.0))

    def read_latency_percentile(self, percentile: float) -> float:
        """Read operation latency (ms) at the given percentile."""
        return float(np.percentile(self.read_latencies_ms, percentile))

    def write_latency_percentile(self, percentile: float) -> float:
        """Write (commit) latency (ms) at the given percentile."""
        return float(np.percentile(self.commit_latencies_ms, percentile))

    def read_latency_percentiles(self, percentiles: Sequence[float]) -> list[float]:
        """Read latency (ms) at each of ``percentiles``, from one partition.

        Bit-identical to calling :meth:`read_latency_percentile` once per
        entry, at the cost of a single ``np.percentile`` call.
        """
        return np.percentile(self.read_latencies_ms, list(percentiles)).tolist()

    def write_latency_percentiles(self, percentiles: Sequence[float]) -> list[float]:
        """Write (commit) latency (ms) at each of ``percentiles``, from one partition."""
        return np.percentile(self.commit_latencies_ms, list(percentiles)).tolist()

    def probability_never_stale(self) -> float:
        """Fraction of trials that are consistent even at ``t = 0``."""
        return self.consistency_probability(0.0)


@dataclass(frozen=True)
class WARSModel:
    """Monte Carlo evaluator for Dynamo-style t-visibility under the WARS model.

    Parameters
    ----------
    distributions:
        The four one-way latency distributions (``W``, ``A``, ``R``, ``S``).
    config:
        The (N, R, W) replication configuration being evaluated.
    """

    distributions: WARSDistributions
    config: ReplicaConfig

    def sample(
        self,
        trials: int,
        rng: np.random.Generator | int | None = None,
    ) -> WARSTrialResult:
        """Run ``trials`` simulated write/read pairs and return the batched result.

        This is the single-configuration kernel: one shared draw of the four
        delay matrices (:func:`sample_wars_batch`) reduced for this model's
        configuration.  Multi-configuration sweeps should share the batch via
        :class:`repro.montecarlo.engine.SweepEngine` instead of calling this
        once per configuration.
        """
        batch = sample_wars_batch(self.distributions, trials, self.config.n, as_rng(rng))
        return batch.reduce(self.config)

    def consistency_probability(
        self,
        t_ms: float,
        trials: int = 100_000,
        rng: np.random.Generator | int | None = None,
    ) -> float:
        """Convenience wrapper: sample and report P(consistent read) at one ``t``."""
        return self.sample(trials, rng).consistency_probability(t_ms)

    def with_config(self, config: ReplicaConfig) -> "WARSModel":
        """Return a model sharing this model's distributions with a new configuration."""
        return WARSModel(distributions=self.distributions, config=config)
