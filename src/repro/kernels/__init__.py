"""The order-statistic reduction of the WARS Monte Carlo kernel.

:func:`repro.core.wars.sample_wars_batch` draws the four WARS delay matrices
and hands them to :data:`KERNEL` once per batch.  The reduction sorts the
write round trips, orders replicas by read round trip and takes prefix
minima of the freshness margins ``W - R`` in that order.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["NumpyKernelBackend", "KERNEL", "resolve_backend"]


class NumpyKernelBackend:
    """NumPy sort + stable argsort + prefix minima."""

    def reduce_batch(
        self,
        write_delays: np.ndarray,
        ack_delays: np.ndarray,
        read_delays: np.ndarray,
        response_delays: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        trials = write_delays.shape[0]

        # Sorting the write round trips once exposes the commit latency for
        # every write quorum size w as column w-1.
        write_round_trips = write_delays + ack_delays
        commit_latency_by_w = np.sort(write_round_trips, axis=1)

        # The responder order (ascending R + S) is shared by every read
        # quorum size; the r-th smallest round trip is column r-1 of the
        # sorted matrix.
        read_round_trips = read_delays + response_delays
        responder_order = np.argsort(read_round_trips, axis=1, kind="stable")
        row_index = np.arange(trials)[:, None]
        read_latency_by_r = read_round_trips[row_index, responder_order]

        # Replica i (among the first r responders) returns fresh data iff
        # commit_latency + t + R[i] >= W[i]; a prefix minimum over (W - R) in
        # responder order yields min over the first r responders as column
        # r-1.
        margins = (write_delays - read_delays)[row_index, responder_order]
        freshness_margin_by_r = np.minimum.accumulate(margins, axis=1)

        return commit_latency_by_w, read_latency_by_r, freshness_margin_by_r


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
