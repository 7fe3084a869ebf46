"""The order-statistic reduction of the WARS Monte Carlo kernel.

:func:`repro.core.wars.sample_wars_batch` draws the four WARS delay matrices
(``(trials, N)``, one column per replica) and hands them to :data:`KERNEL`
once per batch.  The reduction sorts the write round trips, orders replicas
by read round trip and takes running minima of the freshness margins
``W - R`` in that order.

Every trial's rows are short (``N`` is at most 10 in the paper's figures),
so the reduction works on one contiguous row per replica, an ``(N, trials)``
layout, and sorts with a stable insertion network of adjacent
compare-exchanges: each step is a few whole-row NumPy calls over every trial
at once, with no per-trial sort and no fancy-index gather.  It returns the ``(trials, N)`` values that
``np.sort``, a stable ``argsort``, a gather and ``np.minimum.accumulate``
return, bit for bit (``tests/montecarlo/test_accumulator_oracle.py`` keeps
that reduction as the oracle); where ``-0.0`` and ``0.0`` meet it keeps
their order, as a stable sort does.  The network does ``N (N - 1) / 2``
exchanges, so its cost grows quadratically; on 8,192 trials it stays ahead
of the sort up to ``N = 10``, the largest replication factor measured
(``reduction_vs_sort`` in ``BENCH_sweep.json``).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["NumpyKernelBackend", "KERNEL", "resolve_backend"]


def _exchange(rows: list[np.ndarray], earlier: int, later: int, spare: np.ndarray) -> np.ndarray:
    """Put the smaller of ``rows[earlier]`` and ``rows[later]`` first, trial by trial.

    The smaller values go into ``spare``, which becomes ``rows[earlier]``; the
    old earlier row is returned as the next spare, so no step allocates.
    NumPy's ``minimum`` and ``maximum`` return their second argument when the
    two compare equal (its x86 loops do, with AVX-512 or without; the oracle
    tests check it), which keeps a tie in place, ``-0.0`` before ``0.0`` or
    after it just as it came: the exchange is stable.
    """
    np.minimum(rows[later], rows[earlier], out=spare)
    np.maximum(rows[earlier], rows[later], out=rows[later])
    rows[earlier], spare = spare, rows[earlier]
    return spare


class NumpyKernelBackend:
    """A stable insertion network over one contiguous row per replica."""

    def reduce_batch(
        self,
        write_delays: np.ndarray,
        ack_delays: np.ndarray,
        read_delays: np.ndarray,
        response_delays: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        trials, n = write_delays.shape

        # Row i holds replica i's round trips for every trial; one extra row
        # is the spare each exchange writes into.
        commit = np.empty((n + 1, trials))
        np.add(write_delays.T, ack_delays.T, out=commit[:n])
        read = np.empty((n + 1, trials))
        np.add(read_delays.T, response_delays.T, out=read[:n])
        margins = np.subtract(write_delays.T, read_delays.T, order="C")
        commit_rows, read_rows = list(commit), list(read)
        commit_spare, read_spare = commit_rows.pop(), read_rows.pop()

        # The margins follow the read round trips.  Where the later read row
        # is strictly smaller, the two margin rows swap by XOR of their bit
        # patterns: ``flip`` is their XOR on swapped trials and 0 elsewhere.
        margin_bits = margins.view(np.int64)
        swap = np.empty(trials, dtype=np.int64)
        flip = np.empty(trials, dtype=np.int64)
        for end in range(1, n):
            for later in range(end, 0, -1):
                earlier = later - 1
                commit_spare = _exchange(commit_rows, earlier, later, commit_spare)
                np.less(read_rows[later], read_rows[earlier], out=swap)
                read_spare = _exchange(read_rows, earlier, later, read_spare)
                np.bitwise_xor(margin_bits[earlier], margin_bits[later], out=flip)
                np.multiply(flip, swap, out=flip)
                np.bitwise_xor(margin_bits[earlier], flip, out=margin_bits[earlier])
                np.bitwise_xor(margin_bits[later], flip, out=margin_bits[later])

        # Replica i (among the first r responders) returns fresh data iff
        # commit_latency + t + R[i] >= W[i]; a running minimum of (W - R) in
        # responder order yields the minimum over the first r responders as
        # row r-1.
        for later in range(1, n):
            np.minimum(margins[later - 1], margins[later], out=margins[later])

        # Transposed views: column w-1 (or r-1) of each result is one
        # contiguous row.
        return np.stack(commit_rows).T, np.stack(read_rows).T, margins.T


#: The reduction :func:`repro.core.wars.sample_wars_batch` calls.
KERNEL = NumpyKernelBackend()


def resolve_backend(spec: object = None) -> NumpyKernelBackend:
    """Return :data:`KERNEL`; any ``spec`` other than ``None`` is an error.

    Its only caller is the layer tracing in ``perfbench/layers.py``, which
    wraps ``type(resolve_backend(None)).reduce_batch`` as the
    ``kernels.reduce`` span.
    """
    if spec is not None:
        raise ConfigurationError(
            f"the NumPy reduction is the only Monte Carlo kernel; got {spec!r}"
        )
    return KERNEL
