"""The one micro-batcher behind both serving tiers.

:class:`MicroBatcher` implements the max-batch / max-wait policy: block for a
first request, gather stragglers until ``max_batch`` requests are in or
``max_wait_ms`` has passed since the first, copy them into one preallocated
buffer and forward exactly that many rows.  :class:`~repro.serve.Engine`
worker threads drive it from their request queue, every fleet replica
(:func:`repro.serve.supervisor._replica_main`) from its work pipe, both
through a ``poll(timeout)`` callable returning the next item, ``None`` when
nothing arrived in time (``timeout=None`` may block), :data:`SKIP` for a
consumed control message (it neither joins the batch nor closes the window)
or :data:`STOP` (serve the batch so far, then stop).
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["MicroBatcher", "SKIP", "STOP"]

SKIP = object()
STOP = object()


class MicroBatcher:
    """Max-batch / max-wait gather plus exact-count batch assembly.

    :attr:`max_wait_s` may change between batches (the fleet's degradation
    ladder shortens it live).
    """

    def __init__(self, forward, input_shape, max_batch: int, max_wait_ms: float):
        self.forward = forward
        self.max_batch = int(max_batch)
        self.max_wait_s = max_wait_ms / 1e3
        self.buffer = np.empty((self.max_batch,) + tuple(input_shape), dtype=np.float32)
        self.stopped = False

    def gather(self, poll, idle_timeout: float | None = None, on_idle=None) -> list | None:
        """The next micro-batch from ``poll``, or ``None`` once the source stopped.

        While no request is waiting, ``on_idle()`` runs before every
        ``poll(idle_timeout)`` (the fleet replica heartbeats there).
        """
        if self.stopped:
            return None
        first = None
        while first is None or first is SKIP:
            if on_idle is not None:
                on_idle()
            first = poll(idle_timeout)
        if first is STOP:
            self.stopped = True
            return None
        batch = [first]
        deadline = time.monotonic() + self.max_wait_s
        while len(batch) < self.max_batch:
            item = poll(max(deadline - time.monotonic(), 0.0))
            if item is None:
                break
            if item is STOP:
                self.stopped = True
                break
            if item is not SKIP:
                batch.append(item)
        return batch

    def run(self, samples: list) -> np.ndarray:
        """Copy ``samples`` into the input buffer and forward exactly that many rows."""
        for i, sample in enumerate(samples):
            self.buffer[i] = sample
        return self.forward(self.buffer[: len(samples)])
