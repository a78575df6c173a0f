"""Serving phase: the deployed artifact behind a 1-replica fleet, driven by traffic.

The fleet runs in its own process (:func:`fleet_main`), configured as
``python -m repro.serve --replicas 1 --artifact net.rpa`` configures it (max
batch 16, 2 ms window, 256 pending), so the traffic generator never shares an
interpreter with the front door.  The benchmark process drives it over one
:class:`~repro.serve.FleetClient` connection from one submitting thread.

Every request is timed from the moment it was *due*, not from when it was
sent, so a stall in the generator or the fleet is charged to every request it
delays; how late the generator ran is reported as ``serve.gen_lag_ms``.
Every reply is compared bit for bit with the in-process int8 executor
(:func:`repro.serve.fleet.resolve_net` on the same artifact), which is batch
invariant, so batch composition cannot change the expected bytes.

Traffic shapes, all open loop:

* ``trickle`` and ``steady``: one request every ``1 / RATES[shape]`` seconds;
* ``burst``: ``BURST`` requests due together every ``BURST_PERIOD_S``.
"""

from __future__ import annotations

import mmap
import multiprocessing
import time
from concurrent.futures import wait
from dataclasses import dataclass

import numpy as np

from repro.serve import Fleet, FleetClient, FleetConfig
from repro.serve.fleet import ServingBackend, model_backend, resolve_net

FLEET_POLICY = {"replicas": 1, "max_batch": 16, "max_wait_ms": 2.0, "max_pending": 256}
FLEET_SETUPS = 3  # fleet start-to-READY is repeated and reported as a median
LIMIT_MS = 25.0  # goodput latency limit, about 5x the steady p50
RATES = {"trickle": 20.0, "steady": 100.0}  # requests per second
BURST = 16
BURST_PERIOD_S = 0.080
WARMUP_REQUESTS = 64
REPLY_TIMEOUT_S = 10.0
_LOG_CAPACITY = 1 << 16


# --------------------------------------------------------------------------- #
# replica-side spans (traced run only)
# --------------------------------------------------------------------------- #
class BatchLog:
    """Per-micro-batch (size, start, end) rows in memory shared across fork.

    Created in the fleet process before the fleet starts; the forked replica
    writes rows, the fleet process reads them after the drain.
    """

    def __init__(self, capacity: int = _LOG_CAPACITY):
        self._buf = mmap.mmap(-1, 8 + capacity * 24)
        self._count = np.ndarray((1,), dtype=np.int64, buffer=self._buf)
        self._rows = np.ndarray((capacity, 3), dtype=np.float64, buffer=self._buf, offset=8)

    def append(self, size: int, start: float, end: float) -> None:
        n = int(self._count[0])
        if n < len(self._rows):
            self._rows[n] = (size, start, end)
            self._count[0] = n + 1

    def rows(self) -> np.ndarray:
        return self._rows[: int(self._count[0])].copy()


def traced_backend(log: BatchLog, **kwargs) -> ServingBackend:
    """:func:`~repro.serve.fleet.model_backend` whose forward logs each micro-batch."""
    backend = model_backend(**kwargs)
    forward = backend.forward

    def logged(batch):
        start = time.perf_counter()
        out = forward(batch)
        log.append(len(batch), start, time.perf_counter())
        return out

    backend.forward = logged
    return backend


def log_cost_ms(samples: int = 10000) -> float:
    """What :func:`traced_backend` adds to one micro-batch: two clock reads and a log row."""
    log = BatchLog(capacity=samples)
    start = time.perf_counter()
    for _ in range(samples):
        t = time.perf_counter()
        log.append(1, t, time.perf_counter())
    return (time.perf_counter() - start) * 1e3 / samples


# --------------------------------------------------------------------------- #
# the fleet process
# --------------------------------------------------------------------------- #
def fleet_main(conn, artifact: str, traced: bool, window_s: float) -> None:
    """Start the fleet ``FLEET_SETUPS`` times, serve on the last, drain on request."""
    log = BatchLog() if traced else None
    config = FleetConfig(
        **FLEET_POLICY,
        builder="fleetload:traced_backend" if traced else "repro.serve.fleet:model_backend",
        builder_kwargs={"artifact": artifact, **({"log": log} if traced else {})},
        stats_window_s=window_s,
    )
    fleet = None
    try:
        setup_s = []
        for _ in range(FLEET_SETUPS):
            if fleet is not None:
                fleet.close()
            start = time.perf_counter()
            fleet = Fleet(config).start()  # returns once the replica is READY
            setup_s.append(time.perf_counter() - start)
        conn.send(("ready", tuple(fleet.address), setup_s))
        conn.recv()  # the benchmark asks for the drain
        fleet.close()
        conn.send(("drained", fleet.stats().to_dict(), log.rows() if traced else None))
    finally:
        if fleet is not None:
            fleet.close()
        conn.close()


class FleetProcess:
    """The fleet's own process, started with ``spawn``; :meth:`stop` always joins it."""

    def __init__(self, artifact: str, traced: bool, window_s: float):
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=fleet_main, args=(child, artifact, traced, window_s))
        self._proc.start()
        child.close()
        self._drain_sent = False

    def _recv(self, timeout: float):
        if not self._conn.poll(timeout):
            raise TimeoutError("fleet process did not answer")
        return self._conn.recv()

    def wait_ready(self) -> tuple[tuple[str, int], list[float]]:
        """The front door's address and each start-to-READY time in seconds."""
        _, address, setup_s = self._recv(120.0)
        return address, setup_s

    def drain(self) -> tuple[dict, np.ndarray | None]:
        """Close the fleet; returns its final stats and the replica batch log."""
        self._drain_sent = True
        self._conn.send("drain")
        _, stats, rows = self._recv(60.0)
        return stats, rows

    def stop(self) -> None:
        if not self._drain_sent and self._proc.is_alive():
            try:
                self._conn.send("drain")
            except OSError:
                pass
        self._proc.join(timeout=30.0)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()


# --------------------------------------------------------------------------- #
# traffic
# --------------------------------------------------------------------------- #
@dataclass
class Traffic:
    """Per-request timestamps (perf_counter seconds) and outcomes."""

    due: np.ndarray
    sent: np.ndarray
    submitted: np.ndarray
    done: np.ndarray
    ok: np.ndarray  # reply arrived and is bit-equal to the reference
    elapsed: float  # seconds from the first request's due time to the last reply

    def latency_ms(self) -> np.ndarray:
        return (self.done[self.ok] - self.due[self.ok]) * 1e3


def reference_outputs(artifact: str, pool: np.ndarray) -> np.ndarray:
    """Expected replies: the in-process int8 executor on the same artifact."""
    net, _ = resolve_net(artifact=artifact)
    return net.numpy_forward(pool)


def _schedule(shape: str, duration: float) -> np.ndarray:
    """Due times of a traffic shape, in seconds from its start."""
    if shape == "burst":
        return np.repeat(np.arange(int(duration / BURST_PERIOD_S)) * BURST_PERIOD_S, BURST)
    rate = RATES[shape]
    return np.arange(int(duration * rate)) / rate


def warm_up(client: FleetClient, pool: np.ndarray) -> None:
    for i in range(WARMUP_REQUESTS):
        client.predict(pool[i % len(pool)], timeout=REPLY_TIMEOUT_S)


def drive(client: FleetClient, shape: str, pool: np.ndarray, expected: np.ndarray,
          duration: float, rng: np.random.Generator) -> Traffic:
    """Send ``shape`` traffic for ``duration`` seconds and check every reply."""
    clock = time.perf_counter
    samples, due, sent, submitted, futures = [], [], [], [], []
    done: dict[int, float] = {}
    start = clock() + 0.005  # the first request is due just ahead, not already late
    offsets = _schedule(shape, duration)
    for i, (offset, k) in enumerate(zip(offsets, rng.integers(len(pool), size=len(offsets)))):
        target = start + offset
        delay = target - clock()
        if delay > 0:
            time.sleep(delay)
        samples.append(int(k))
        due.append(target)
        sent.append(clock())
        future = client.submit(pool[k])
        submitted.append(clock())
        future.add_done_callback(lambda _f, i=i: done.__setitem__(i, clock()))
        futures.append(future)
    wait(futures, timeout=REPLY_TIMEOUT_S)
    ok = np.array([
        f.done() and not f.cancelled() and f.exception() is None
        and np.array_equal(f.result(), expected[k])
        for f, k in zip(futures, samples)
    ], dtype=bool)
    ok &= np.array([i in done for i in range(len(futures))], dtype=bool)
    done_at = np.array([done.get(i, np.nan) for i in range(len(futures))])
    return Traffic(
        due=np.asarray(due),
        sent=np.asarray(sent),
        submitted=np.asarray(submitted),
        done=done_at,
        ok=ok,
        elapsed=float(np.nanmax(done_at, initial=start) - due[0]),
    )
