"""Batched random-draw buffers for the cluster simulator's hot path.

The pre-batching simulator paid one ``distribution.sample(1, rng)`` numpy
call per message leg — several microseconds of per-call overhead (array
allocation, validation) to produce a single float.  A
:class:`LatencyDrawBuffer` instead draws latencies in refillable batches and
serves them one at a time as plain Python floats, amortising the numpy call
over :data:`DEFAULT_DRAW_BATCH_SIZE` messages.

Determinism contract
--------------------
* For a fixed seed **and** a fixed batch size, runs are bit-for-bit
  reproducible: buffers refill at deterministic points (exactly when their
  ``batch_size``-th draw is requested), so the shared generator's stream is
  consumed identically across runs.
* Draws are consumed strictly in request order by the messages that actually
  need them.  Delivery decisions (loss, partitions) never touch a latency
  buffer — loss coin flips come from their own :class:`UniformDrawBuffer` —
  so a dropped message consumes *zero* latency draws and the next delivered
  message gets the value the dropped one would otherwise have taken.
* ``batch_size=1`` reproduces the pre-batching per-draw path exactly: each
  ``draw()`` issues one ``sample(1, rng)`` call at the same point in the
  stream the old scalar code did, which is what anchors the statistical
  equivalence tests against the legacy seed discipline.

Changing the batch size (or turning batching on) reorders which message
receives which value — the streams are *statistically* equivalent, not
identical.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.latency.base import LatencyDistribution

__all__ = ["DEFAULT_DRAW_BATCH_SIZE", "LatencyDrawBuffer", "UniformDrawBuffer"]

#: Default number of latencies drawn per refill.  Large enough to amortise
#: numpy's per-call overhead to noise, small enough that even short runs
#: waste at most a few thousand draws per distribution.
DEFAULT_DRAW_BATCH_SIZE = 4096


class LatencyDrawBuffer:
    """Serves scalar draws from a latency distribution in refillable batches.

    Parameters
    ----------
    distribution:
        The :class:`~repro.latency.base.LatencyDistribution` to draw from.
    rng:
        Shared generator; refills consume ``batch_size`` values from it at
        deterministic points.
    batch_size:
        Draws per refill; ``1`` reproduces the legacy per-draw stream.
    """

    __slots__ = ("distribution", "rng", "batch_size", "refills", "_values")

    def __init__(
        self,
        distribution: LatencyDistribution,
        rng: np.random.Generator,
        batch_size: int = DEFAULT_DRAW_BATCH_SIZE,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError(
                f"draw batch size must be a positive integer, got {batch_size}"
            )
        self.distribution = distribution
        self.rng = rng
        self.batch_size = int(batch_size)
        #: Number of refills so far (instrumentation for tests/benchmarks).
        self.refills = 0
        self._values: list[float] = []

    def draw(self) -> float:
        """Return the next latency draw (a plain Python float)."""
        try:
            return self._values.pop()
        except IndexError:
            # The buffer stores the batch *reversed* so list.pop() — an O(1)
            # C operation with no index bookkeeping — serves draws in the
            # original sample order; tolist() converts once to Python floats.
            samples = self.distribution.sample(self.batch_size, self.rng)
            self._values = np.asarray(samples, dtype=float)[::-1].tolist()
            self.refills += 1
            return self._values.pop()

    @property
    def pending(self) -> int:
        """Buffered draws not yet served (0 before the first refill)."""
        return len(self._values)


class UniformDrawBuffer:
    """Batched uniform(0, 1) draws for message-loss coin flips.

    Kept separate from the latency buffers so delivery decisions and latency
    draws never compete for the same buffered values: a dropped message
    consumes exactly one loss draw and zero latency draws.
    """

    __slots__ = ("rng", "batch_size", "refills", "_values")

    def __init__(
        self, rng: np.random.Generator, batch_size: int = DEFAULT_DRAW_BATCH_SIZE
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError(
                f"draw batch size must be a positive integer, got {batch_size}"
            )
        self.rng = rng
        self.batch_size = int(batch_size)
        self.refills = 0
        self._values: list[float] = []

    def draw(self) -> float:
        """Return the next uniform(0, 1) draw."""
        try:
            return self._values.pop()
        except IndexError:
            self._values = self.rng.random(self.batch_size)[::-1].tolist()
            self.refills += 1
            return self._values.pop()
