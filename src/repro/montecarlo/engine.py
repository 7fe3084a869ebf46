"""Shared-sample batched Monte Carlo engine for multi-configuration sweeps.

The paper's evaluation (Figures 4-7, Table 4, the §6 SLA search) repeatedly
evaluates one latency environment under many (R, W) quorum configurations.
The four WARS delay matrices depend only on the latency distributions and the
replication factor ``N`` — not on the quorum sizes — so drawing them once per
batch and reducing every configuration against the shared samples turns an
O(configs x trials) sampling cost into O(trials).

Why one draw is valid across configurations
-------------------------------------------
For a fixed latency environment, a WARS trial is a joint draw of the four
delay matrices ``(W, A, R, S)`` of shape ``(trials, N)``.  The quorum sizes
``R`` and ``W`` enter only through *reductions* of that draw: the commit
latency is the ``W``-th order statistic of ``W[i] + A[i]``, the read latency
the ``R``-th order statistic of ``R[i] + S[i]``, and the staleness threshold
couples the two through the responder order.  Evaluating several
configurations against one draw therefore samples each configuration from
exactly the same distribution as independent draws would — the estimators are
unbiased per configuration — while additionally making the *differences*
between configurations lower-variance, because every configuration sees the
same trials (common random numbers).  What the sharing deliberately preserves
is the per-trial coupling: for one trial, the commit latency, responder order,
and freshness margins come from the same four matrices, so quantities like
"threshold(R=2) <= threshold(R=1)" hold trial-for-trial, not just in
expectation.  What it removes is only the *independence between
configurations*, which none of the paper's per-configuration statistics
require.

Chunking and reproducibility
----------------------------
Trials are processed in fixed-size chunks with streaming accumulation:
consistency counts at the probe times are exact, while staleness thresholds
and operation latencies accumulate into :class:`StreamingHistogram` sketches
whose bin edges are frozen after the first chunk.  Two RNG regimes are
supported:

* Passing a ``numpy.random.Generator`` consumes it sequentially, exactly the
  way :meth:`repro.core.wars.WARSModel.sample` would: a single-chunk run with
  a generator in the same state reproduces the kernel's trials bit-for-bit.
* Passing an integer seed (or ``None``) derives one child stream per internal
  sampling block of ``SAMPLE_BLOCK`` trials from a ``SeedSequence``.  Because
  block boundaries are fixed (chunk sizes are rounded up to a multiple of
  ``SAMPLE_BLOCK``), the sampled trials — and therefore every accumulated
  count — are invariant to the chosen chunk size.

Optional early stopping halts the sweep once the Wilson score interval
(:func:`repro.montecarlo.convergence.wilson_interval`) of every configuration
at every probe time is tighter than a requested half-width tolerance.

Accuracy: consistency probabilities at probe times are exact counts.
Quantities inverted from the sketches (t-visibility, latency percentiles)
carry a sub-bin interpolation error — well under 1% at the default
resolution, and in practice dominated by the seed-to-seed Monte Carlo noise
of the quantile itself at the trial counts the experiments use.  When exact
order statistics are required, run with ``keep_samples=True``: percentile and
t-visibility queries then use the retained per-trial arrays and match
:class:`~repro.core.wars.WARSTrialResult` exactly.

Multiprocess sharding and the merge contract
--------------------------------------------
With ``workers > 1`` a seed-mode sweep shards its chunks across a process
pool.  Correctness rests on two properties:

* *Independent streams.*  Seed mode derives one ``SeedSequence`` child per
  ``SAMPLE_BLOCK`` of trials, keyed by block index, so any process can sample
  any block and obtain exactly the trials the serial loop would have produced
  at that offset.  Chunk boundaries are block-aligned, so a chunk is a
  self-contained span of blocks.
* *Mergeable accumulators.*  All per-configuration state is a commutative
  monoid: exact integer counts (trials, per-probe consistency counts,
  non-positive thresholds) merge by addition, exact extremes by min/max, and
  :class:`StreamingHistogram` sketches merge by bin-wise count addition —
  *provided the bin layouts match*.  Layouts are frozen from the first batch
  of values, which is order-dependent, so the coordinator processes the first
  chunk inline (freezing every layout exactly as a serial run would), then
  hands workers empty accumulators spawned from the frozen layouts
  (:meth:`StreamingHistogram.spawn_empty`).  ``merge(other)`` refuses
  mismatched layouts rather than approximating.

The coordinator merges worker partials strictly in block order and applies
the early-stopping convergence check after each merged chunk — the same
cadence as the serial loop — so ``trials_run``, ``stopped_early``,
``converged``, every count, and every histogram bin are bit-for-bit identical
to the serial seed-mode run, for any worker count.  Early stopping waits for
the speculative chunks still in flight (at most two per worker) and discards
them, so the pool is never terminated while a worker is sending a partial.
Two regimes cannot shard and silently fall back to serial execution: passing
a ``numpy.random.Generator`` (the stream is inherently sequential) and
``keep_samples=True`` (shipping the raw per-trial arrays between processes
would cost more than the sampling).

Adaptive probe-grid refinement
------------------------------
The fixed probe grid buys precision near the t-visibility target by paying
for dense probes *everywhere*: every probe's Wilson interval must meet the
early-stopping tolerance, so probes far from the crossing — especially probes
whose consistency probability sits near 0.5, where the interval is widest —
dominate the trial budget.  With ``probe_resolution_ms`` (and one or more
``target_probability`` levels) set, the engine instead starts from the coarse
``times_ms`` grid and refines it around each configuration's
``t_visibility(target)`` crossing:

* At every chunk boundary — the same place the early-stopping check already
  inspects merged partials — the coordinator brackets each (configuration,
  target) crossing on the probes observed so far and, while the bracket is
  wider than ``probe_resolution_ms``, subdivides it into
  :data:`REFINE_SUBDIVISIONS` equal spans (a two-level bisection per round).
* Refined probes apply to *subsequent* chunks only, after a fixed activation
  lag of :data:`REFINE_ACTIVATION_LAG` chunks.  A probe added at trial offset
  ``T`` therefore carries an exact consistency count over the trials in
  ``[T, end)`` — a *grid-versioned* count with its own ``trials_observed``
  denominator — which is an unbiased estimate of the same probability the
  base probes estimate over ``[0, end)``.
* The final :class:`ConfigSweepResult` answers curve and t-visibility queries
  by interpolating over the *union* grid (base probes plus refined probes,
  each normalised by its own observation count), so the crossing is resolved
  to ``probe_resolution_ms`` without densifying the whole grid.

Refinement decisions are made exclusively on merged partials at chunk
boundaries, so they are a pure function of (seed, chunk size) and compose
with multiprocess sharding unchanged: the sharded coordinator keeps at most
``REFINE_ACTIVATION_LAG + 1`` speculative chunks in flight (each worker task
carries the probe set active for its chunk), merges in block order, and makes
the same decisions at the same boundaries as the serial loop — adaptive runs
are bit-for-bit identical for any ``workers`` count.  The merge contract
extends to the grid-versioned counts: worker partials accumulate refined
probes from their task's probe set, and ``merge`` adds counts and observation
totals key-wise, exactly.

Early stopping in adaptive mode keeps the fixed-grid Wilson guarantee where
it matters and drops it where it does not: the sweep stops once (a) every
*base* probe meets the tolerance, (b) every bracket has narrowed to
``probe_resolution_ms``, and (c) the bracket endpoints — the probes the
reported crossing actually rests on — meet the tolerance with their own
observation counts.  Refined probes that fell out of the bracket during
bisection have served their purpose and do not gate stopping; this is what
lets an adaptive sweep converge in fewer trials than a fixed grid of equal
resolution, whose worst probe (the one nearest p = 0.5) sets the budget.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from math import ceil
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.core.quorum import ReplicaConfig
from repro.core.wars import WARSSampleBatch, WARSTrialResult, sample_wars_batch
from repro.exceptions import AnalysisError, ConfigurationError
from repro.latency.production import WARSDistributions
from repro.montecarlo.convergence import ProbabilityEstimate, wilson_interval

__all__ = [
    "SAMPLE_BLOCK",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_ADAPTIVE_CHUNK_SIZE",
    "DEFAULT_ADAPTIVE_GRID_MS",
    "REFINE_ACTIVATION_LAG",
    "REFINE_SUBDIVISIONS",
    "StreamingHistogram",
    "ConfigSweepResult",
    "SweepResult",
    "SweepEngine",
    "min_trials_for_quantile",
]

#: Fixed internal sampling granularity (trials per RNG block in seed mode).
#: Chunk sizes are rounded up to a multiple of this so that block boundaries —
#: and therefore seeded sample streams — do not depend on the chunk size.
SAMPLE_BLOCK: int = 8_192

#: Default chunk size (trials accumulated between convergence checks).
DEFAULT_CHUNK_SIZE: int = 65_536

#: Default chunk size for adaptive (``probe_resolution_ms``) sweeps.  Smaller
#: than :data:`DEFAULT_CHUNK_SIZE` because refinement only advances at chunk
#: boundaries: a refinement round needs ``REFINE_ACTIVATION_LAG + 1`` chunks
#: to propose probes, observe them, and re-bracket, so the chunk size bounds
#: how many bisection levels a trial budget can complete.
DEFAULT_ADAPTIVE_CHUNK_SIZE: int = 2 * SAMPLE_BLOCK

#: Chunks between a refinement decision and the first chunk that counts the
#: new probes.  The lag is what lets refinement compose with multiprocess
#: sharding: the grid for chunk ``j`` depends only on merged state through
#: chunk ``j - 1 - lag``, so a sharded coordinator can keep ``lag + 1``
#: speculative chunks in flight and still make — and apply — exactly the
#: decisions the serial loop would.  Fixed (never derived from ``workers``)
#: so that results are bit-for-bit identical for any worker count.
REFINE_ACTIVATION_LAG: int = 2

#: Spans a refinement round splits each too-wide bracket into (3 new probes
#: per round — a two-level bisection, so each round narrows the bracket 4x
#: instead of 2x at negligible counting cost).
REFINE_SUBDIVISIONS: int = 4

#: A generic coarse base grid (ms) for adaptive sweeps whose callers have no
#: natural probe grid of their own (Table 4 style t-visibility tables, the
#: SLA search, prediction reports).  Geometric spacing covers the paper's
#: production environments — LNKD-SSD resolves within single-digit
#: milliseconds while YMMR needs beyond a second — and adaptive refinement
#: supplies the precision near the crossing that this grid deliberately
#: does not.
DEFAULT_ADAPTIVE_GRID_MS: tuple[float, ...] = (
    0.0, 0.5, 2.0, 8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0,
)


def _first_crossing_index(probabilities: np.ndarray, target: float) -> int | None:
    """Index of the first probe estimate at or above ``target``, or ``None``.

    The one definition of "the crossing" shared by refinement decisions
    (:meth:`_RefinementPlan._bracket`), the reported t-visibility
    (:meth:`ConfigSweepResult._grid_t_visibility`), and the honesty check
    (:meth:`ConfigSweepResult.t_visibility_bracket`) — they must agree on
    which probes bracket the target or the stop gate and the reported
    numbers desynchronise.
    """
    reached = np.nonzero(probabilities >= target)[0]
    if reached.size == 0:
        return None
    return int(reached[0])


def min_trials_for_quantile(quantile: float, tail_samples: int = 100) -> int:
    """Early-stopping floor for a sweep that reports the ``quantile``-quantile.

    The Wilson tolerance only constrains probe-time consistency estimates, so
    a caller that reports tail quantiles (t-visibility at 99.9%, p99.9
    latency) should not let a loose tolerance stop the sweep before the tail
    has ~``tail_samples`` observations: ``ceil(tail_samples / (1 - q))``.
    """
    if not 0.0 < quantile <= 1.0:
        raise ConfigurationError(f"quantile must be in (0, 1], got {quantile}")
    if quantile == 1.0:
        # The exact maximum never converges by tail-count; disable early
        # stopping in practice by requiring an unattainably large floor.
        return np.iinfo(np.int64).max
    return int(ceil(tail_samples / (1.0 - quantile)))


class StreamingHistogram:
    """A fixed-bin streaming histogram with exact extremes.

    Bin edges are frozen from the range of the first batch of values; later
    values outside that range fall into exact underflow/overflow buckets whose
    spans are bounded by the tracked global minimum and maximum.  Quantile
    queries interpolate within a bucket, so ``quantile(0.0)`` and
    ``quantile(1.0)`` return the exact extremes and degenerate (constant)
    data is reproduced exactly.

    With ``log_scale=True`` (and a strictly positive first batch) the bins are
    geometrically spaced, giving constant *relative* resolution — the right
    shape for heavy-tailed latency data whose p50 and p99.9 differ by orders
    of magnitude.  Data that turns out non-positive falls back to linear bins.
    """

    __slots__ = (
        "_bins",
        "_log_scale",
        "_edges",
        "_counts",
        "_underflow",
        "_overflow",
        "_count",
        "_min",
        "_max",
    )

    def __init__(self, bins: int = 2_048, log_scale: bool = False) -> None:
        if bins < 1:
            raise AnalysisError(f"histogram bin count must be >= 1, got {bins}")
        self._bins = bins
        self._log_scale = log_scale
        self._edges: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self._underflow = 0
        self._overflow = 0
        self._count = 0
        self._min = float("inf")
        self._max = float("-inf")

    @property
    def count(self) -> int:
        """Total number of accumulated values."""
        return self._count

    @property
    def min(self) -> float:
        """Exact minimum of the accumulated values."""
        if self._count == 0:
            raise AnalysisError("histogram is empty")
        return self._min

    @property
    def max(self) -> float:
        """Exact maximum of the accumulated values."""
        if self._count == 0:
            raise AnalysisError("histogram is empty")
        return self._max

    def spawn_empty(self) -> "StreamingHistogram":
        """An empty histogram sharing this histogram's frozen bin layout.

        The clone counts nothing yet but bins incoming values exactly as this
        histogram would, so the two can later :meth:`merge` without error.
        Spawning from an unfrozen histogram returns a plain empty histogram
        with the same configuration.
        """
        clone = StreamingHistogram(self._bins, log_scale=self._log_scale)
        if self._edges is not None:
            # Frozen layouts are immutable, so sharing the edges is safe (and
            # pickling for worker processes copies them anyway).
            clone._edges = self._edges
            clone._counts = np.zeros(self._bins, dtype=np.int64)
        return clone

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold another histogram's state into this one, exactly.

        Merging is pure state addition — bin-wise counts, underflow/overflow,
        totals — plus min/max reconciliation, so it is associative and
        commutative: any merge order over a set of histograms yields identical
        state, and merging per-shard histograms reproduces the single-stream
        histogram that saw all the data (given a shared layout).  Both sides
        must have the same bin count, scale, and — when both are frozen — the
        same bin edges; use :meth:`spawn_empty` to give shards a shared
        layout.  An unfrozen (empty) side adopts the other's layout.
        """
        if other._bins != self._bins or other._log_scale != self._log_scale:
            raise AnalysisError(
                "cannot merge histograms with different configurations: "
                f"bins {self._bins} vs {other._bins}, "
                f"log_scale {self._log_scale} vs {other._log_scale}"
            )
        if other._edges is not None:
            if self._edges is None:
                self._edges = other._edges
                self._counts = np.zeros(self._bins, dtype=np.int64)
            elif not np.array_equal(self._edges, other._edges):
                raise AnalysisError(
                    "cannot merge histograms with mismatched bin layouts; "
                    "spawn shard histograms from one frozen layout "
                    "(StreamingHistogram.spawn_empty)"
                )
            assert self._counts is not None and other._counts is not None
            self._counts += other._counts
        self._underflow += other._underflow
        self._overflow += other._overflow
        self._count += other._count
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    def update(self, values: np.ndarray) -> None:
        """Accumulate a batch of values."""
        self._update_sorted(np.sort(np.asarray(values, dtype=float), axis=None))

    def _update_sorted(self, values: np.ndarray) -> None:
        """Accumulate an ascending 1-D batch without re-sorting it.

        The extremes are the batch's ends, and one ``searchsorted`` of the
        frozen edges gives underflow, overflow and every bin count under
        ``np.histogram``'s rule for an edges array: each bin is
        ``[e_i, e_{i+1})`` except the last, which is closed.
        """
        if values.size == 0:
            return
        self._min = min(self._min, float(values[0]))
        self._max = max(self._max, float(values[-1]))
        if self._edges is None:
            lo, hi = self._min, self._max
            if not hi > lo:
                # Degenerate first batch: give the bins a tiny span; quantile
                # queries short-circuit on min == max anyway.
                hi = lo + max(abs(lo), 1.0) * 1e-9
            # Pad the frozen range well beyond the first batch's extremes so
            # that the (heavier) tail of later batches still lands in binned
            # territory instead of the single coarse overflow bucket.
            if self._log_scale and lo > 0.0:
                self._edges = np.geomspace(lo / 4.0, hi * 64.0, self._bins + 1)
            else:
                span = hi - lo
                self._edges = np.linspace(lo - 0.5 * span, hi + 2.0 * span, self._bins + 1)
            self._counts = np.zeros(self._bins, dtype=np.int64)
        cuts = values.searchsorted(self._edges, side="left")
        cuts[-1] = values.searchsorted(self._edges[-1], side="right")
        self._underflow += int(cuts[0])
        self._overflow += int(values.size - cuts[-1])
        self._counts += np.diff(cuts)
        self._count += int(values.size)

    def _extended_buckets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(lows, highs, counts, cumulative)`` over underflow + bins + overflow.

        The single bucket layout both :meth:`quantile` and :meth:`cdf` walk:
        the exact-extreme underflow/overflow buckets book-end the frozen bins.
        """
        assert self._edges is not None and self._counts is not None
        lows = np.concatenate(([self._min], self._edges[:-1], [self._edges[-1]]))
        highs = np.concatenate(([self._edges[0]], self._edges[1:], [self._max]))
        counts = np.concatenate(([self._underflow], self._counts, [self._overflow]))
        return lows, highs, counts, np.cumsum(counts)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]) of the accumulated values."""
        if self._count == 0:
            raise AnalysisError("cannot query quantiles of an empty histogram")
        if not 0.0 <= q <= 1.0:
            raise AnalysisError(f"quantile must be in [0, 1], got {q}")
        if self._min == self._max:
            return self._min
        lows, highs, counts, cumulative = self._extended_buckets()
        target = q * self._count
        index = int(np.searchsorted(cumulative, target, side="left"))
        index = min(index, counts.size - 1)
        below = float(cumulative[index - 1]) if index > 0 else 0.0
        in_bucket = float(counts[index])
        fraction = (target - below) / in_bucket if in_bucket > 0 else 0.0
        low = float(lows[index])
        high = max(float(highs[index]), low)
        if self._log_scale and low > 0.0:
            value = low * (high / low) ** fraction
        else:
            value = low + (high - low) * fraction
        # The padded edges can spill past the observed extremes; the data
        # cannot.
        return min(max(value, self._min), self._max)

    def percentile(self, p: float) -> float:
        """Estimate the latency at percentile ``p`` (``p`` in [0, 100])."""
        if not 0.0 <= p <= 100.0:
            raise AnalysisError(f"percentile must be in [0, 100], got {p}")
        return self.quantile(p / 100.0)

    def cdf(self, value: float) -> float:
        """Estimate P(X <= value) for the accumulated values.

        The inverse of :meth:`quantile`: exact 0/1 outside the observed
        extremes, interpolated within a bucket otherwise.
        """
        if self._count == 0:
            raise AnalysisError("cannot query the CDF of an empty histogram")
        if value < self._min:
            return 0.0
        if value >= self._max:
            return 1.0
        lows, highs, counts, cumulative = self._extended_buckets()
        index = int(np.searchsorted(highs, value, side="right"))
        index = min(index, counts.size - 1)
        below = float(cumulative[index - 1]) if index > 0 else 0.0
        low = max(float(lows[index]), self._min)
        high = min(float(highs[index]), self._max)
        if high > low:
            if self._log_scale and low > 0.0:
                fraction = np.log(value / low) / np.log(high / low)
            else:
                fraction = (value - low) / (high - low)
        else:
            fraction = 1.0
        fraction = min(max(float(fraction), 0.0), 1.0)
        return (below + fraction * float(counts[index])) / self._count


@dataclass(frozen=True)
class ConfigSweepResult:
    """Streaming summary of one configuration's share of a sweep.

    Consistency counts at the probe times are exact; threshold and latency
    distributions are histogram sketches.  When the engine was constructed
    with ``keep_samples=True``, :meth:`as_trial_result` exposes the raw
    per-trial arrays as a :class:`~repro.core.wars.WARSTrialResult`.

    Adaptive sweeps additionally carry *refined* probes: times added at chunk
    boundaries to localise the t-visibility crossing.  A refined probe's
    count covers only the trials accumulated after its activation, so its
    probability estimate is ``refined_counts[i] / refined_trials[i]`` — an
    unbiased estimate over its own observation window.  Curve and
    t-visibility queries interpolate over the union of base and refined
    probes (:meth:`probe_grid`).
    """

    config: ReplicaConfig
    trials: int
    times_ms: tuple[float, ...]
    #: Exact count of trials whose staleness threshold is <= the probe time.
    consistent_counts: tuple[int, ...]
    #: Exact count of trials consistent immediately after commit (t = 0).
    nonpositive_thresholds: int
    confidence: float
    _threshold_histogram: StreamingHistogram = field(repr=False)
    _read_histogram: StreamingHistogram = field(repr=False)
    _write_histogram: StreamingHistogram = field(repr=False)
    _samples: WARSTrialResult | None = field(repr=False, default=None)
    #: Adaptive refinement probes (sorted by time), their exact consistency
    #: counts, and the number of trials each probe observed.
    refined_times_ms: tuple[float, ...] = ()
    refined_counts: tuple[int, ...] = ()
    refined_trials: tuple[int, ...] = ()
    #: The engine's ``probe_resolution_ms`` knob (``None`` when adaptive
    #: refinement was off).  Adaptive t-visibility queries invert the probe
    #: grid even when no refined probes were grown — a base grid that
    #: already meets the resolution is still an exact-count bracket.
    probe_resolution_ms: float | None = None

    @cached_property
    def _union_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """``(times, probabilities)`` over base + refined probes, time-sorted.

        Base probes are normalised by the full trial count, refined probes by
        their own observation counts.  Cached: the result is frozen, and the
        experiment runners query the curve once per probe time per config.
        """
        times = np.asarray(self.times_ms, dtype=float)
        probabilities = np.asarray(self.consistent_counts, dtype=float) / self.trials
        if self.refined_times_ms:
            refined_p = np.asarray(self.refined_counts, dtype=float) / np.asarray(
                self.refined_trials, dtype=float
            )
            times = np.concatenate([times, np.asarray(self.refined_times_ms)])
            probabilities = np.concatenate([probabilities, refined_p])
            order = np.argsort(times, kind="stable")
            times, probabilities = times[order], probabilities[order]
        return times, probabilities

    def probe_grid(self) -> list[tuple[float, float]]:
        """``(t, P(consistent at t))`` at every probe, base and refined.

        The union grid adaptive queries interpolate over; without adaptive
        refinement this is simply the base probe grid.

        Returns
        -------
        list of ``(t_ms, probability)`` pairs sorted by time.
        """
        times, probabilities = self._union_grid
        return [(float(t), float(p)) for t, p in zip(times, probabilities)]

    def consistency_probability(self, t_ms: float) -> float:
        """P(consistent read at ``t_ms`` after commit): exact at probe times.

        Probe times use the exact streaming counts (refined probes are
        normalised by their own observation counts); times between probes are
        linearly interpolated over the union grid.  Times beyond the last
        probe raise — unlike the exact-for-any-t
        :meth:`WARSTrialResult.consistency_probability`, a streaming summary
        has no information past its probe grid, and silently clamping to the
        last probe's value would understate the curve.
        """
        if t_ms < 0:
            raise ConfigurationError(f"time since commit must be non-negative, got {t_ms}")
        if t_ms == 0.0:
            return self.probability_never_stale()
        times, probabilities = self._union_grid
        if t_ms > times[-1]:
            raise ConfigurationError(
                f"t={t_ms} lies beyond configuration {self.config.label()}'s "
                f"probe grid (max probe {times[-1]} ms); widen the engine's "
                "times_ms to cover it (adaptive probe_resolution_ms "
                "refinement only subdivides within the grid span, so it "
                "cannot reach past the last base probe)"
            )
        index = np.searchsorted(times, t_ms)
        if index < times.size and times[index] == t_ms:
            return float(probabilities[index])
        return float(np.interp(t_ms, times, probabilities))

    def consistency_curve(self, times_ms: Sequence[float] | None = None) -> list[tuple[float, float]]:
        """``(t, P(consistent at t))`` pairs (defaults to the full probe grid).

        With no argument the curve covers every probe, refined ones included
        (:meth:`probe_grid`) — on an adaptive sweep that is where the detail
        near the crossing lives.  Pass explicit times to sample elsewhere.
        """
        if times_ms is None:
            return self.probe_grid()
        return [(float(t), self.consistency_probability(float(t))) for t in times_ms]

    def probability_never_stale(self) -> float:
        """Exact fraction of trials consistent even at ``t = 0``."""
        return self.nonpositive_thresholds / self.trials

    def estimate_at(self, t_ms: float, confidence: float | None = None) -> ProbabilityEstimate:
        """Wilson interval for the consistency probability at a probe time.

        Works for base and refined probes alike; a refined probe's interval
        uses its own observation count as the denominator.
        """
        times = np.asarray(self.times_ms)
        index = np.searchsorted(times, t_ms)
        if index < times.size and times[index] == t_ms:
            return wilson_interval(
                self.consistent_counts[index],
                self.trials,
                confidence if confidence is not None else self.confidence,
            )
        if t_ms in self.refined_times_ms:
            refined_index = self.refined_times_ms.index(t_ms)
            return wilson_interval(
                self.refined_counts[refined_index],
                self.refined_trials[refined_index],
                confidence if confidence is not None else self.confidence,
            )
        raise ConfigurationError(
            f"t={t_ms} is not one of this sweep's probe times {self.times_ms}"
            + (f" or refined probes {self.refined_times_ms}" if self.refined_times_ms else "")
        )

    def max_margin(self, confidence: float | None = None) -> float:
        """Largest Wilson half-width across the *base* probe times.

        Refined probes are deliberately excluded: they exist to localise the
        crossing, carry their own (smaller) observation counts, and — once
        bisection moves past them — no longer inform any reported number.
        The engine's adaptive early-stopping gate separately bounds the
        margins of the probes that *do* matter, the bracket endpoints.
        """
        return max(
            self.estimate_at(t, confidence).margin for t in self.times_ms
        )

    def t_visibility(self, target_probability: float) -> float:
        """Smallest ``t`` (ms) reaching the target probability of consistency.

        Strict quorums (whose thresholds are all non-positive) report exactly
        0.0 via the exact non-positive count.  Adaptive sweeps invert the
        union probe grid — interpolating between the exact counts bracketing
        the crossing, so the answer is resolved to ``probe_resolution_ms`` —
        and fall back to the threshold-histogram sketch only when the
        crossing lies beyond the grid.  Non-adaptive streaming sweeps invert
        the sketch; ``keep_samples=True`` sweeps use the exact per-trial
        order statistics.
        """
        if not 0.0 < target_probability <= 1.0:
            raise ConfigurationError(
                f"target probability must be in (0, 1], got {target_probability}"
            )
        needed = ceil(target_probability * self.trials)
        if needed <= self.nonpositive_thresholds:
            return 0.0
        if self._samples is not None:
            return self._samples.t_visibility(target_probability)
        if self.probe_resolution_ms is not None or self.refined_times_ms:
            crossing = self._grid_t_visibility(target_probability)
            if crossing is not None:
                return crossing
        return float(max(self._threshold_histogram.quantile(target_probability), 0.0))

    def t_visibility_bracket(self, target_probability: float) -> tuple[float, float] | None:
        """The union-grid probe times bracketing the target crossing.

        The honesty check for adaptive sweeps: a fixed trial budget can end
        the run before refinement narrows every bracket to
        ``probe_resolution_ms``, and a crossing beyond the base grid span is
        never bracketed at all — in both cases :meth:`t_visibility` still
        answers (interpolating the wide bracket, or falling back to the
        threshold-histogram sketch) without any indication.  Compare this
        bracket's width against the resolution you asked for.

        Returns
        -------
        ``(t_low, t_high)`` — the last probe below the target and the first
        at or above it; ``(0.0, 0.0)`` when the target is met exactly at
        commit; ``None`` when the curve never reaches the target on the
        grid (the crossing lies beyond the grid span).

        Example
        -------
        >>> # summary = SweepEngine(..., probe_resolution_ms=1.0, ...).run(...)
        >>> # bracket = summary.t_visibility_bracket(0.999)
        >>> # resolved = bracket is not None and bracket[1] - bracket[0] <= 1.0
        """
        if not 0.0 < target_probability <= 1.0:
            raise ConfigurationError(
                f"target probability must be in (0, 1], got {target_probability}"
            )
        if ceil(target_probability * self.trials) <= self.nonpositive_thresholds:
            return (0.0, 0.0)
        times, probabilities = self._union_grid
        index = _first_crossing_index(probabilities, target_probability)
        if index is None:
            return None
        if index == 0:
            return (float(times[0]), float(times[0]))
        return (float(times[index - 1]), float(times[index]))

    def _grid_t_visibility(self, target_probability: float) -> float | None:
        """Invert the union probe grid, or ``None`` if it never reaches the target."""
        times, probabilities = self._union_grid
        index = _first_crossing_index(probabilities, target_probability)
        if index is None:
            return None
        if index == 0:
            return float(times[0])
        t_low, t_high = float(times[index - 1]), float(times[index])
        p_low, p_high = float(probabilities[index - 1]), float(probabilities[index])
        if p_high <= p_low:
            return t_high
        fraction = (target_probability - p_low) / (p_high - p_low)
        return t_low + fraction * (t_high - t_low)

    def read_latency_percentile(self, percentile: float) -> float:
        """Read operation latency (ms) at the given percentile.

        Sketch-based when streaming; exact (``numpy.percentile`` over the
        retained trials) when the engine ran with ``keep_samples=True``.
        """
        if self._samples is not None:
            return float(np.percentile(self._samples.read_latencies_ms, percentile))
        return self._read_histogram.percentile(percentile)

    def write_latency_percentile(self, percentile: float) -> float:
        """Write (commit) latency (ms) at the given percentile.

        Sketch-based when streaming; exact when the engine ran with
        ``keep_samples=True``.
        """
        if self._samples is not None:
            return float(np.percentile(self._samples.commit_latencies_ms, percentile))
        return self._write_histogram.percentile(percentile)

    def read_latency_cdf(self, latency_ms: float) -> float:
        """P(read latency <= ``latency_ms``): sketch-based when streaming."""
        if self._samples is not None:
            latencies = self._samples.read_latencies_ms
            return float(np.count_nonzero(latencies <= latency_ms) / latencies.size)
        return self._read_histogram.cdf(latency_ms)

    def write_latency_cdf(self, latency_ms: float) -> float:
        """P(write latency <= ``latency_ms``): sketch-based when streaming."""
        if self._samples is not None:
            latencies = self._samples.commit_latencies_ms
            return float(np.count_nonzero(latencies <= latency_ms) / latencies.size)
        return self._write_histogram.cdf(latency_ms)

    def as_trial_result(self) -> WARSTrialResult:
        """Raw per-trial arrays (requires ``keep_samples=True`` on the engine)."""
        if self._samples is None:
            raise AnalysisError(
                "raw samples were not retained; construct the SweepEngine with "
                "keep_samples=True"
            )
        return self._samples


@dataclass(frozen=True)
class SweepResult:
    """The outcome of one :meth:`SweepEngine.run` call."""

    results: tuple[ConfigSweepResult, ...]
    trials_requested: int
    trials_run: int
    chunk_size: int
    tolerance: float | None
    confidence: float
    #: The engine's ``workers`` knob (informational; results never depend on it).
    workers: int = 1
    #: Adaptive refinement knobs the sweep ran with (``None``/empty when off).
    probe_resolution_ms: float | None = None
    target_probabilities: tuple[float, ...] = ()

    @property
    def stopped_early(self) -> bool:
        """True when early stopping ended the sweep before the trial budget."""
        return self.trials_run < self.trials_requested

    @property
    def converged(self) -> bool:
        """True when every configuration meets the tolerance at every probe
        that informs a reported number.

        Base probes always count.  On adaptive sweeps the bracket endpoints
        around each target crossing count too, with their own observation
        totals — a budget-exhausted run whose freshly activated endpoint is
        still statistically loose must not claim convergence, mirroring the
        engine's early-stop gate.
        """
        if self.tolerance is None:
            return False
        if self.max_margin() > self.tolerance:
            return False
        if self.probe_resolution_ms is not None:
            for result in self.results:
                for target in self.target_probabilities:
                    bracket = result.t_visibility_bracket(target)
                    if bracket is None or bracket[0] == bracket[1]:
                        continue
                    for endpoint in bracket:
                        if result.estimate_at(endpoint).margin > self.tolerance:
                            return False
        return True

    def max_margin(self) -> float:
        """Largest Wilson half-width across all configurations and probe times."""
        return max(result.max_margin() for result in self.results)

    def for_config(self, config: ReplicaConfig) -> ConfigSweepResult:
        """Look up the summary for one configuration."""
        for result in self.results:
            if result.config == config:
                return result
        raise ConfigurationError(f"configuration {config.label()} was not part of this sweep")

    def __iter__(self) -> Iterator[ConfigSweepResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


class _ConfigAccumulator:
    """Streaming per-configuration accumulation across chunks.

    All state is mergeable: :meth:`merge` folds another accumulator's counts
    and sketches into this one exactly (integer addition plus histogram
    merges), so shard-parallel accumulation followed by in-order merging is
    bit-for-bit identical to a single sequential accumulation over the same
    trials.  Shards must share frozen histogram layouts — spawn them from a
    primed accumulator via :meth:`spawn_empty`.

    Adaptive refinement adds *grid-versioned* probes via :meth:`add_probes`:
    each refined probe tracks ``[consistent_count, trials_observed]`` from
    the moment it was added, and merging adds both components key-wise, so a
    probe's estimate is always an exact count over the trials that actually
    observed it — regardless of which process accumulated them.
    """

    def __init__(
        self,
        config: ReplicaConfig,
        times_ms: np.ndarray,
        histogram_bins: int,
        keep_samples: bool,
    ) -> None:
        self.config = config
        self.times_ms = times_ms
        self.histogram_bins = histogram_bins
        self.trials = 0
        self.consistent_counts = np.zeros(times_ms.size, dtype=np.int64)
        self.nonpositive_thresholds = 0
        # Thresholds can be negative (strict quorums), so they bin linearly;
        # operation latencies are positive and heavy-tailed, so they get
        # constant relative resolution from log-spaced bins.
        self.threshold_histogram = StreamingHistogram(histogram_bins)
        self.read_histogram = StreamingHistogram(histogram_bins, log_scale=True)
        self.write_histogram = StreamingHistogram(histogram_bins, log_scale=True)
        #: time -> [consistent_count, trials_observed], insertion-ordered.
        self.refined_probes: dict[float, list[int]] = {}
        #: Base probe times, then refined ones: what one update counts.
        self._probe_times = times_ms
        self._kept: list[WARSTrialResult] | None = [] if keep_samples else None

    def spawn_empty(self) -> "_ConfigAccumulator":
        """An empty accumulator sharing this one's frozen histogram layouts.

        Worker shards accumulate into spawned clones so their sketches bin
        values identically to the coordinator's and merge without error.
        Spawned accumulators never retain raw samples (sharded runs are
        streaming-only).
        """
        clone = _ConfigAccumulator(
            self.config, self.times_ms, self.histogram_bins, keep_samples=False
        )
        clone.threshold_histogram = self.threshold_histogram.spawn_empty()
        clone.read_histogram = self.read_histogram.spawn_empty()
        clone.write_histogram = self.write_histogram.spawn_empty()
        # Refined probes are deliberately not copied: worker tasks carry the
        # probe set active for their chunk and add it via add_probes.
        return clone

    def add_probes(self, times: Sequence[float]) -> None:
        """Activate refined probes: exact counting starts with the next update.

        Times already probed (base grid or previously added) are ignored, so
        activation is idempotent.
        """
        base = set(float(t) for t in self.times_ms)
        added = False
        for time in times:
            time = float(time)
            if time in base or time in self.refined_probes:
                continue
            self.refined_probes[time] = [0, 0]
            added = True
        if added:
            self._probe_times = np.concatenate((self.times_ms, list(self.refined_probes)))

    def probe_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(times, counts, observed)`` over base + refined probes, time-sorted.

        The coordinator's view for refinement decisions: base probes carry
        the full trial count, refined probes their own observation counts.
        Refined probes that have not yet observed a chunk are excluded (their
        estimates would be 0/0).
        """
        times = [float(t) for t in self.times_ms]
        counts = [int(c) for c in self.consistent_counts]
        observed = [self.trials] * len(times)
        for time, (count, seen) in self.refined_probes.items():
            if seen > 0:
                times.append(time)
                counts.append(count)
                observed.append(seen)
        order = np.argsort(times, kind="stable")
        return (
            np.asarray(times, dtype=float)[order],
            np.asarray(counts, dtype=np.int64)[order],
            np.asarray(observed, dtype=np.int64)[order],
        )

    def merge(self, other: "_ConfigAccumulator") -> None:
        """Fold another accumulator's state into this one, exactly.

        Associative and commutative (integer additions and exact histogram
        merges), so shard merge order cannot change any count; the engine
        still merges in block order so that retained-sample concatenation —
        when a caller merges keep-samples accumulators — preserves trial
        order.
        """
        if other.config != self.config:
            raise AnalysisError(
                f"cannot merge accumulators for different configurations: "
                f"{self.config.label()} vs {other.config.label()}"
            )
        if not np.array_equal(other.times_ms, self.times_ms):
            raise AnalysisError(
                "cannot merge accumulators with different probe-time grids"
            )
        self.trials += other.trials
        self.consistent_counts += other.consistent_counts
        self.nonpositive_thresholds += other.nonpositive_thresholds
        self.threshold_histogram.merge(other.threshold_histogram)
        self.read_histogram.merge(other.read_histogram)
        self.write_histogram.merge(other.write_histogram)
        # Grid-versioned refined probes merge key-wise: counts and observation
        # totals add, and a probe unknown to one side is adopted with the other
        # side's state — addition over (count, observed) pairs is associative
        # and commutative, keeping the merge a monoid.
        if other.refined_probes:
            for time, (count, seen) in other.refined_probes.items():
                entry = self.refined_probes.setdefault(time, [0, 0])
                entry[0] += count
                entry[1] += seen
            self._probe_times = np.concatenate((self.times_ms, list(self.refined_probes)))
        if self._kept is not None and other._kept is not None:
            self._kept.extend(other._kept)
        elif (self._kept is None) != (other._kept is None) and other.trials:
            # Mixed retention would silently drop one side's raw samples.
            raise AnalysisError(
                "cannot merge accumulators with mismatched sample retention"
            )

    def update(
        self, result: WARSTrialResult, reads_sorted: np.ndarray, commits_sorted: np.ndarray
    ) -> None:
        """Fold one block of trials in, given its read and commit latencies sorted.

        The caller sorts each read and commit column once and passes the same
        sorted copy to every configuration with that R or W
        (:func:`_accumulate_batch`).  The thresholds are this
        configuration's own, so they are sorted here, into a copy: a result's
        arrays are views of the batch or kept as samples.  On the sorted
        thresholds, ``searchsorted(..., side="right")`` counts
        ``thresholds <= t`` for every probe at once, and the threshold
        histogram bins the same sorted array.
        """
        thresholds = np.sort(result.staleness_thresholds_ms)
        size = thresholds.size
        self.trials += size
        counts = thresholds.searchsorted(self._probe_times, side="right")
        base = self.times_ms.size
        self.consistent_counts += counts[:base]
        for entry, count in zip(self.refined_probes.values(), counts[base:]):
            entry[0] += int(count)
            entry[1] += size
        self.nonpositive_thresholds += int(thresholds.searchsorted(0.0, side="right"))
        self.threshold_histogram._update_sorted(thresholds)
        self.read_histogram._update_sorted(reads_sorted)
        self.write_histogram._update_sorted(commits_sorted)
        if self._kept is not None:
            self._kept.append(result)

    def max_margin(self, confidence: float) -> float:
        # The probe grid always contains t=0 (SweepEngine injects it), so the
        # counts array is never empty.
        return max(
            wilson_interval(int(count), self.trials, confidence).margin
            for count in self.consistent_counts
        )

    def kept_results(self) -> list[WARSTrialResult]:
        return self._kept or []

    def finalize(
        self,
        confidence: float,
        shared_arrivals: np.ndarray | None = None,
        probe_resolution_ms: float | None = None,
    ) -> ConfigSweepResult:
        samples: WARSTrialResult | None = None
        if self._kept is not None:
            samples = WARSTrialResult(
                config=self.config,
                commit_latencies_ms=np.concatenate(
                    [kept.commit_latencies_ms for kept in self._kept]
                ),
                read_latencies_ms=np.concatenate(
                    [kept.read_latencies_ms for kept in self._kept]
                ),
                staleness_thresholds_ms=np.concatenate(
                    [kept.staleness_thresholds_ms for kept in self._kept]
                ),
                write_arrivals_ms=shared_arrivals,
            )
        observed_refined = sorted(
            (time, entry[0], entry[1])
            for time, entry in self.refined_probes.items()
            if entry[1] > 0
        )
        return ConfigSweepResult(
            config=self.config,
            trials=self.trials,
            times_ms=tuple(float(t) for t in self.times_ms),
            consistent_counts=tuple(int(c) for c in self.consistent_counts),
            nonpositive_thresholds=self.nonpositive_thresholds,
            confidence=confidence,
            _threshold_histogram=self.threshold_histogram,
            _read_histogram=self.read_histogram,
            _write_histogram=self.write_histogram,
            _samples=samples,
            refined_times_ms=tuple(time for time, _, _ in observed_refined),
            refined_counts=tuple(count for _, count, _ in observed_refined),
            refined_trials=tuple(seen for _, _, seen in observed_refined),
            probe_resolution_ms=probe_resolution_ms,
        )


class _RefinementPlan:
    """Coordinator-side adaptive probe-grid state (module docstring, "Adaptive
    probe-grid refinement").

    The plan owns everything about refinement that is *not* a per-trial
    count: which probe times have been decided, and at which chunk each
    batch of probes activates.  Decisions are made exclusively from merged
    accumulator state at chunk boundaries, so for a given (seed, chunk size)
    the whole probe schedule is deterministic and identical for any worker
    count.
    """

    __slots__ = ("targets", "resolution_ms", "_decided", "_pending")

    def __init__(
        self,
        targets: tuple[float, ...],
        resolution_ms: float,
        base_times: np.ndarray,
    ) -> None:
        self.targets = targets
        self.resolution_ms = resolution_ms
        self._decided: set[float] = {float(t) for t in base_times}
        #: ``(activation_chunk, times)`` batches, in decision order.
        self._pending: list[tuple[int, tuple[float, ...]]] = []

    def probes_for_chunk(self, chunk_index: int) -> tuple[float, ...]:
        """All refined times active for ``chunk_index`` (worker task payload)."""
        return tuple(
            time
            for activation, times in self._pending
            if activation <= chunk_index
            for time in times
        )

    def activate_due(self, chunk_index: int, accumulators: Sequence[_ConfigAccumulator]) -> None:
        """Add every probe due by ``chunk_index`` to the coordinator state.

        Idempotent (``add_probes`` skips known times), so it is safe to call
        at every chunk boundary.
        """
        due = self.probes_for_chunk(chunk_index)
        if due:
            for accumulator in accumulators:
                accumulator.add_probes(due)

    @staticmethod
    def probe_tables(
        accumulators: Sequence[_ConfigAccumulator],
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """One :meth:`_ConfigAccumulator.probe_table` per accumulator.

        Built once per chunk boundary and shared by the stop gate
        (:meth:`complete`, :meth:`bracket_margin`) and :meth:`decide` — the
        tables do not depend on the target, so rebuilding them per bracket
        query would be pure repeated sorting.
        """
        return [accumulator.probe_table() for accumulator in accumulators]

    def _bracket(
        self, table: tuple[np.ndarray, np.ndarray, np.ndarray], target: float
    ) -> tuple[float, float, int, int, int, int] | None:
        """``(t_lo, t_hi, count_lo, n_lo, count_hi, n_hi)`` around the crossing.

        ``None`` when there is nothing to refine: the curve reaches the
        target at t = 0 (the crossing is exactly 0) or never reaches it on
        the observed grid (the crossing lies beyond the grid span — no
        bracket to bisect).
        """
        times, counts, observed = table
        probabilities = counts / observed
        index = _first_crossing_index(probabilities, target)
        if index is None or index == 0:
            return None
        return (
            float(times[index - 1]),
            float(times[index]),
            int(counts[index - 1]),
            int(observed[index - 1]),
            int(counts[index]),
            int(observed[index]),
        )

    def decide(
        self,
        tables: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
        boundary_chunk: int,
    ) -> None:
        """Propose subdivision probes for every too-wide bracket.

        Called after the early-stopping check at chunk boundary
        ``boundary_chunk``; new probes activate at chunk
        ``boundary_chunk + 1 + REFINE_ACTIVATION_LAG``.
        """
        proposals: list[float] = []
        for table in tables:
            for target in self.targets:
                bracket = self._bracket(table, target)
                if bracket is None:
                    continue
                t_low, t_high = bracket[0], bracket[1]
                if t_high - t_low <= self.resolution_ms:
                    continue
                step = (t_high - t_low) / REFINE_SUBDIVISIONS
                for k in range(1, REFINE_SUBDIVISIONS):
                    time = t_low + k * step
                    if time not in self._decided:
                        self._decided.add(time)
                        proposals.append(time)
        if proposals:
            self._pending.append(
                (boundary_chunk + 1 + REFINE_ACTIVATION_LAG, tuple(proposals))
            )

    def complete(
        self, tables: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> bool:
        """True once every (configuration, target) bracket is at resolution."""
        for table in tables:
            for target in self.targets:
                bracket = self._bracket(table, target)
                if bracket is not None and bracket[1] - bracket[0] > self.resolution_ms:
                    return False
        return True

    def bracket_margin(
        self,
        tables: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
        confidence: float,
    ) -> float:
        """Worst Wilson half-width over all bracket endpoints.

        The probes the reported crossings rest on; the adaptive early-stop
        gate requires this to meet the tolerance alongside the base grid.
        """
        worst = 0.0
        for table in tables:
            for target in self.targets:
                bracket = self._bracket(table, target)
                if bracket is None:
                    continue
                _, _, count_low, n_low, count_high, n_high = bracket
                worst = max(
                    worst,
                    wilson_interval(count_low, n_low, confidence).margin,
                    wilson_interval(count_high, n_high, confidence).margin,
                )
        return worst


@dataclass(frozen=True)
class _WorkerSpec:
    """Everything a worker process needs to sample and accumulate any chunk.

    Shipped once per worker via the pool initializer.  ``templates`` are
    empty accumulators spawned from the coordinator's frozen histogram
    layouts, so every shard bins values identically and partials merge
    exactly.  The seed streams are re-derived in the worker from the root
    entropy, keeping the task payload down to a ``(start, count)`` pair.
    """

    distributions: WARSDistributions
    configs: tuple[ReplicaConfig, ...]
    #: ``(replication factor, indices into configs)`` pairs in group order.
    groups: tuple[tuple[int, tuple[int, ...]], ...]
    templates: tuple[_ConfigAccumulator, ...]
    entropy: object
    total_blocks: int


#: Per-process worker state: (spec, per-replication-factor block seeds).
_WORKER_STATE: tuple[_WorkerSpec, dict] | None = None


def _init_worker(spec: _WorkerSpec) -> None:
    """Pool initializer: cache the spec and re-derive the block seeds."""
    global _WORKER_STATE
    block_seeds = {
        n: np.random.SeedSequence(
            entropy=spec.entropy, spawn_key=(n,)
        ).spawn(spec.total_blocks)
        for n, _ in spec.groups
    }
    _WORKER_STATE = (spec, block_seeds)


def _worker_run_chunk(task: tuple[int, int, tuple[float, ...]]) -> list[_ConfigAccumulator]:
    """Sample one chunk's blocks and return per-configuration partials.

    ``task`` is ``(start, count, extra_probes)``: the adaptive refined probes
    active for this chunk ride along in the payload, so the partial's
    grid-versioned counts cover exactly the probes the serial loop would have
    counted over the same trials.
    """
    assert _WORKER_STATE is not None, "worker task ran before the pool initializer"
    spec, block_seeds = _WORKER_STATE
    start, count, extra_probes = task
    accumulators = [template.spawn_empty() for template in spec.templates]
    if extra_probes:
        for accumulator in accumulators:
            accumulator.add_probes(extra_probes)
    _accumulate_seeded_span(
        spec.distributions,
        spec.configs,
        spec.groups,
        block_seeds,
        accumulators,
        start,
        count,
    )
    return accumulators


def _accumulate_seeded_span(
    distributions: WARSDistributions,
    configs: tuple[ReplicaConfig, ...],
    groups: tuple[tuple[int, tuple[int, ...]], ...],
    block_seeds: Mapping[int, list],
    accumulators: Sequence[_ConfigAccumulator],
    start: int,
    count: int,
) -> None:
    """Accumulate the seed-mode sampling blocks covering ``[start, start + count)``.

    ``start`` must be block-aligned (chunk sizes are rounded to multiples of
    :data:`SAMPLE_BLOCK`).  Shared by the serial loop, the coordinator's
    first chunk, and the worker processes, so every execution mode samples
    bit-for-bit identical trials for a given span.
    """
    for n, config_indices in groups:
        offset = 0
        while offset < count:
            begin = start + offset
            rows = min(SAMPLE_BLOCK, count - offset)
            generator = np.random.default_rng(block_seeds[n][begin // SAMPLE_BLOCK])
            batch = sample_wars_batch(distributions, rows, n, generator)
            _accumulate_batch(batch, configs, config_indices, accumulators)
            offset += rows


def _accumulate_batch(
    batch: WARSSampleBatch,
    configs: tuple[ReplicaConfig, ...],
    config_indices: tuple[int, ...],
    accumulators: Sequence[_ConfigAccumulator],
) -> None:
    """Fold one sampled batch into the accumulators of ``config_indices``.

    Configurations with the same R read the same read-latency column of the
    batch, and those with the same W the same commit column, so each
    distinct column is sorted once here and the sorted copy is binned by
    every configuration that reads it.  Shared by the seeded span, the
    sequential-generator loop and (through the span) the workers.
    """
    chosen = [configs[index] for index in config_indices]
    reads_sorted = {
        r: np.sort(batch.read_latency_by_r_ms[:, r - 1]) for r in {c.r for c in chosen}
    }
    commits_sorted = {
        w: np.sort(batch.commit_latency_by_w_ms[:, w - 1]) for w in {c.w for c in chosen}
    }
    for index, config in zip(config_indices, chosen):
        accumulators[index].update(
            batch.reduce(config), reads_sorted[config.r], commits_sorted[config.w]
        )


class SweepEngine:
    """Evaluate many (N, R, W) configurations against shared WARS samples.

    Parameters
    ----------
    distributions:
        The latency environment shared by every configuration in the sweep.
    configs:
        The configurations to evaluate.  Configurations may mix replication
        factors; each distinct ``N`` gets its own shared draw per chunk (the
        delay matrices have ``N`` columns, so they cannot be shared across
        replication factors).
    times_ms:
        Probe times (ms since commit) at which exact consistency counts — and
        the early-stopping Wilson intervals — are maintained.  ``0.0`` is
        always included.  With adaptive refinement this is the *base* grid:
        deliberately coarse, refined around the t-visibility crossings.  An
        adaptive sweep given no base grid beyond ``0.0`` falls back to
        :data:`DEFAULT_ADAPTIVE_GRID_MS` (a crossing outside the grid span
        cannot be bracketed).
    chunk_size:
        Trials sampled per accumulation step; rounded up to a multiple of
        :data:`SAMPLE_BLOCK`.  Bounds peak memory at
        ``O(chunk_size * max(N))``, sets the early-stopping (and adaptive
        refinement) cadence, and is the unit of work farmed to worker
        processes.  ``None`` selects :data:`DEFAULT_CHUNK_SIZE`, or the
        smaller :data:`DEFAULT_ADAPTIVE_CHUNK_SIZE` when adaptive refinement
        is on (refinement needs several chunk boundaries to converge).
    tolerance:
        Optional Wilson half-width target; when every configuration's interval
        at every probe time is at least this tight, the sweep stops early.
        The tolerance governs the probe-time consistency estimates only —
        callers that report tail quantiles (t-visibility, p99.9 latency)
        should combine it with a ``min_trials`` floor sized for the tail.
    min_trials:
        Early stopping never triggers before this many trials, regardless of
        the tolerance.  Callers reporting a ``q``-quantile should set it to
        roughly ``100 / (1 - q)`` so the quantile rests on at least ~100 tail
        samples.
    confidence:
        Confidence level for the Wilson intervals (default 95%).
    histogram_bins:
        Resolution of the streaming threshold/latency histograms.
    keep_samples:
        Retain the raw per-trial arrays (memory O(trials * N)); required for
        :meth:`ConfigSweepResult.as_trial_result`.  Forces serial execution.
    workers:
        Shard seed-mode chunks across this many worker processes (see the
        module docstring's merge contract).  Results are bit-for-bit
        identical to ``workers=1`` for the same seed.  Runs that cannot
        shard — sequential-generator mode, ``keep_samples=True``, or sweeps
        no larger than one chunk — silently execute serially.
    target_probability:
        The consistency level(s) whose t-visibility crossing adaptive
        refinement localises (a single probability or a sequence, e.g.
        ``(0.99, 0.999)``).  Required when ``probe_resolution_ms`` is set;
        ignored otherwise.
    probe_resolution_ms:
        Enables adaptive probe-grid refinement (module docstring): at chunk
        boundaries the coordinator subdivides the bracket around each
        (configuration, target) crossing until it is at most this wide.
        Refinement decisions are made on merged partials only, so adaptive
        results remain bit-for-bit identical for any ``workers`` count (for
        a fixed seed and chunk size).  The resolution is a *goal*, not a
        guarantee: a fixed trial budget can end the run mid-refinement (the
        early-stopping gate, when a ``tolerance`` is set, does wait for it),
        and a crossing beyond the base grid span is never bracketed — check
        :meth:`ConfigSweepResult.t_visibility_bracket` for what was achieved.
    """

    def __init__(
        self,
        distributions: WARSDistributions,
        configs: Sequence[ReplicaConfig],
        *,
        times_ms: Sequence[float] = (),
        chunk_size: int | None = None,
        tolerance: float | None = None,
        min_trials: int = 1,
        confidence: float = 0.95,
        histogram_bins: int = 4_096,
        keep_samples: bool = False,
        workers: int = 1,
        target_probability: float | Sequence[float] | None = None,
        probe_resolution_ms: float | None = None,
    ) -> None:
        self._configs = tuple(configs)
        if not self._configs:
            raise ConfigurationError("a sweep requires at least one configuration")
        if target_probability is None:
            targets: tuple[float, ...] = ()
        elif isinstance(target_probability, (int, float)):
            targets = (float(target_probability),)
        else:
            targets = tuple(sorted({float(t) for t in target_probability}))
        for target in targets:
            if not 0.0 < target <= 1.0:
                raise ConfigurationError(
                    f"target probability must be in (0, 1], got {target}"
                )
        if probe_resolution_ms is not None:
            if not probe_resolution_ms > 0.0:
                raise ConfigurationError(
                    f"probe_resolution_ms must be positive, got {probe_resolution_ms}"
                )
            if not targets:
                raise ConfigurationError(
                    "adaptive refinement (probe_resolution_ms) requires at least "
                    "one target_probability to localise"
                )
        if chunk_size is None:
            chunk_size = (
                DEFAULT_ADAPTIVE_CHUNK_SIZE
                if probe_resolution_ms is not None
                else DEFAULT_CHUNK_SIZE
            )
        if chunk_size < 1:
            raise ConfigurationError(f"chunk size must be >= 1, got {chunk_size}")
        if min_trials < 1:
            raise ConfigurationError(f"min_trials must be >= 1, got {min_trials}")
        if tolerance is not None and not 0.0 < tolerance < 1.0:
            raise ConfigurationError(
                f"tolerance must be a probability half-width in (0, 1), got {tolerance}"
            )
        if not 0.0 < confidence < 1.0:
            raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
        if workers < 1:
            raise ConfigurationError(f"worker count must be >= 1, got {workers}")
        times = np.unique(np.asarray([0.0, *times_ms], dtype=float))
        if times.size and times[0] < 0.0:
            raise ConfigurationError("probe times since commit must be non-negative")
        if probe_resolution_ms is not None and times.size <= 1:
            # An adaptive sweep with no base grid beyond t=0 could never
            # bracket a crossing; fall back to the generic coarse grid so
            # callers without a natural grid of their own just work.
            times = np.unique(np.asarray(DEFAULT_ADAPTIVE_GRID_MS, dtype=float))
        self._distributions = distributions
        self._times_ms = times
        self._chunk_size = ceil(chunk_size / SAMPLE_BLOCK) * SAMPLE_BLOCK
        self._targets = targets
        self._probe_resolution_ms = probe_resolution_ms
        self._tolerance = tolerance
        self._min_trials = min_trials
        self._confidence = confidence
        self._histogram_bins = histogram_bins
        self._keep_samples = keep_samples
        self._workers = workers
        # Group configuration indices by replication factor, preserving the
        # first-seen group order (which fixes the RNG consumption order).
        groups: dict[int, list[int]] = {}
        for index, config in enumerate(self._configs):
            groups.setdefault(config.n, []).append(index)
        self._groups: tuple[tuple[int, tuple[int, ...]], ...] = tuple(
            (n, tuple(indices)) for n, indices in groups.items()
        )

    @property
    def configs(self) -> tuple[ReplicaConfig, ...]:
        """The configurations this engine sweeps, in input order."""
        return self._configs

    def run(
        self, trials: int, rng: np.random.Generator | int | None = None
    ) -> SweepResult:
        """Run up to ``trials`` shared-sample trials and summarise every config."""
        if trials < 1:
            raise ConfigurationError(f"trial count must be >= 1, got {trials}")

        accumulators = [
            _ConfigAccumulator(
                config, self._times_ms, self._histogram_bins, self._keep_samples
            )
            for config in self._configs
        ]

        sequential = rng if isinstance(rng, np.random.Generator) else None
        block_seeds: Mapping[int, list] = {}
        root_entropy: object = None
        total_blocks = 0
        if sequential is None:
            root = np.random.SeedSequence(rng)
            root_entropy = root.entropy
            total_blocks = ceil(trials / SAMPLE_BLOCK)
            # Group streams are keyed by the replication factor itself (via
            # spawn_key), not by group order, so a configuration's samples for
            # a given seed are identical whether it is swept alone or
            # alongside configurations with other replication factors.
            block_seeds = {
                n: np.random.SeedSequence(
                    entropy=root.entropy, spawn_key=(n,)
                ).spawn(total_blocks)
                for n, _ in self._groups
            }

        plan = (
            _RefinementPlan(self._targets, self._probe_resolution_ms, self._times_ms)
            if self._probe_resolution_ms is not None
            else None
        )
        shardable = (
            self._workers > 1
            and sequential is None
            and not self._keep_samples
            and trials > self._chunk_size
        )
        if shardable:
            processed = self._run_sharded(
                trials, accumulators, block_seeds, root_entropy, total_blocks, plan
            )
        else:
            processed = self._run_serial(trials, accumulators, sequential, block_seeds, plan)

        # One shared write-arrivals matrix per replication factor: every
        # configuration in a group references the same per-batch arrays, so
        # concatenating once avoids duplicating the (trials x N) matrix.
        shared_arrivals: dict[int, np.ndarray | None] = {}
        if self._keep_samples:
            for n, config_indices in self._groups:
                kept = accumulators[config_indices[0]].kept_results()
                arrays = [result.write_arrivals_ms for result in kept]
                shared_arrivals[n] = (
                    np.concatenate(arrays, axis=0)
                    if arrays and all(a is not None for a in arrays)
                    else None
                )

        return SweepResult(
            results=tuple(
                accumulator.finalize(
                    self._confidence,
                    shared_arrivals.get(accumulator.config.n),
                    probe_resolution_ms=self._probe_resolution_ms,
                )
                for accumulator in accumulators
            ),
            trials_requested=trials,
            trials_run=processed,
            chunk_size=self._chunk_size,
            tolerance=self._tolerance,
            confidence=self._confidence,
            workers=self._workers,
            probe_resolution_ms=self._probe_resolution_ms,
            target_probabilities=self._targets,
        )

    def _should_stop(
        self,
        accumulators: Sequence[_ConfigAccumulator],
        processed: int,
        trials: int,
        plan: _RefinementPlan | None,
        tables: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None,
    ) -> bool:
        """The early-stopping decision, shared by serial and sharded runs.

        Evaluated after every accumulated chunk (never after the final one),
        so a sharded coordinator checking merged partials at each chunk
        boundary stops at exactly the trial count the serial loop would.
        With adaptive refinement the gate additionally requires every bracket
        to have narrowed to the probe resolution and its endpoints — the
        probes the reported crossing rests on — to meet the tolerance with
        their own observation counts.
        """
        if self._tolerance is None or processed >= trials or processed < self._min_trials:
            return False
        if not all(
            accumulator.max_margin(self._confidence) <= self._tolerance
            for accumulator in accumulators
        ):
            return False
        if plan is not None:
            if tables is None:
                tables = plan.probe_tables(accumulators)
            if not plan.complete(tables):
                return False
            if plan.bracket_margin(tables, self._confidence) > self._tolerance:
                return False
        return True

    def _run_serial(
        self,
        trials: int,
        accumulators: list[_ConfigAccumulator],
        sequential: np.random.Generator | None,
        block_seeds: Mapping[int, list],
        plan: _RefinementPlan | None,
    ) -> int:
        processed = 0
        chunk_index = 0
        while processed < trials:
            if plan is not None:
                plan.activate_due(chunk_index, accumulators)
            count = min(self._chunk_size, trials - processed)
            if sequential is not None:
                for n, config_indices in self._groups:
                    batch = sample_wars_batch(self._distributions, count, n, sequential)
                    _accumulate_batch(batch, self._configs, config_indices, accumulators)
            else:
                _accumulate_seeded_span(
                    self._distributions,
                    self._configs,
                    self._groups,
                    block_seeds,
                    accumulators,
                    processed,
                    count,
                )
            processed += count
            tables = plan.probe_tables(accumulators) if plan is not None else None
            if self._should_stop(accumulators, processed, trials, plan, tables):
                break
            if plan is not None and processed < trials:
                plan.decide(tables, chunk_index)
            chunk_index += 1
        return processed

    def _run_sharded(
        self,
        trials: int,
        accumulators: list[_ConfigAccumulator],
        block_seeds: Mapping[int, list],
        root_entropy: object,
        total_blocks: int,
        plan: _RefinementPlan | None,
    ) -> int:
        """Farm seed-mode chunks to a process pool and merge in block order."""
        # First chunk inline: freezes every histogram's bin layout exactly as
        # the serial loop would, providing the workers' template accumulators.
        count = min(self._chunk_size, trials)
        _accumulate_seeded_span(
            self._distributions,
            self._configs,
            self._groups,
            block_seeds,
            accumulators,
            0,
            count,
        )
        processed = count
        tables = plan.probe_tables(accumulators) if plan is not None else None
        if processed >= trials or self._should_stop(accumulators, processed, trials, plan, tables):
            return processed
        if plan is not None:
            plan.decide(tables, 0)

        tasks = [
            (start, min(self._chunk_size, trials - start))
            for start in range(processed, trials, self._chunk_size)
        ]
        spec = _WorkerSpec(
            distributions=self._distributions,
            configs=self._configs,
            groups=self._groups,
            templates=tuple(accumulator.spawn_empty() for accumulator in accumulators),
            entropy=root_entropy,
            total_blocks=total_blocks,
        )
        # An adaptive run may only speculate REFINE_ACTIVATION_LAG + 1 chunks
        # past the merge frontier: chunk j's probe set depends on decisions
        # through boundary j - 1 - lag, which require chunks through that
        # index to be merged.  Without refinement every chunk's grid is known
        # upfront, and two chunks per worker keep the pool busy while the
        # coordinator merges.  Either way the window is small, because every
        # speculative chunk is finished (and discarded) on an early stop.
        window = 2 * self._workers if plan is None else REFINE_ACTIVATION_LAG + 1
        # Fork keeps pool start-up negligible where the platform offers it;
        # the worker entry points are module-level and the spec picklable, so
        # spawn works identically elsewhere.
        start_method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        with multiprocessing.get_context(start_method).Pool(
            processes=min(self._workers, len(tasks)),
            initializer=_init_worker,
            initargs=(spec,),
        ) as pool:
            # Tasks are submitted in block order and merged in block order
            # (a sliding window of async results), so the stopping and
            # refinement decisions see exactly the serial loop's state at
            # every chunk boundary.
            in_flight: deque = deque()
            next_task = 0
            merged_chunks = 0  # merged worker chunks; inline chunk 0 excluded
            try:
                while in_flight or next_task < len(tasks):
                    while next_task < len(tasks) and len(in_flight) < window:
                        chunk_index = next_task + 1
                        extra = () if plan is None else plan.probes_for_chunk(chunk_index)
                        task = (*tasks[next_task], extra)
                        in_flight.append(
                            (tasks[next_task], pool.apply_async(_worker_run_chunk, (task,)))
                        )
                        next_task += 1
                    (_, count), handle = in_flight.popleft()
                    partials = handle.get()
                    chunk_index = merged_chunks + 1
                    if plan is not None:
                        plan.activate_due(chunk_index, accumulators)
                    for accumulator, partial in zip(accumulators, partials):
                        accumulator.merge(partial)
                    merged_chunks += 1
                    processed += count
                    tables = plan.probe_tables(accumulators) if plan is not None else None
                    if self._should_stop(accumulators, processed, trials, plan, tables):
                        break
                    if plan is not None and processed < trials:
                        plan.decide(tables, chunk_index)
            finally:
                # Let the speculative chunks finish before the context terminates
                # the pool.  Pool.terminate() kills workers, and a worker killed
                # part-way through sending its partial (about 0.8 MB for a few
                # configurations, far above a pipe's buffer) leaves the pool's
                # result handler blocked on the rest of the message for ever.
                for _, handle in in_flight:
                    handle.wait()
        return processed
