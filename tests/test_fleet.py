"""Fault-matrix tests for the multi-process serving fleet.

Every scenario asserts the fleet's core invariant — zero lost requests: each
admitted request resolves to a result or a typed error, across replica
SIGKILLs, hangs, corrupt replies, overload shedding and drain-on-shutdown —
and that crashed replicas come back within the restart backoff budget.
"""

from __future__ import annotations

import multiprocessing
import socket
import struct
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.serve import (
    BadRequest,
    DeadlineExceeded,
    Fleet,
    FleetConfig,
    FleetStats,
    Overloaded,
    echo_backend,
    parse_chaos,
)
from repro.serve.chaos import ChaosConfig, ChaosMonkey, Fault
from repro.serve.supervisor import ReplicaSpec, _replica_main
from repro.serve.transport import (
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    error_for,
    pack_frame,
    read_frame,
    split_frame,
)

RES = 4
CLASSES = 4
SHAPE = (3, RES, RES)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def fleet_config(**overrides) -> FleetConfig:
    """Fast-heartbeat echo fleet sized for tests."""
    defaults = dict(
        replicas=2,
        builder="repro.serve.fleet:echo_backend",
        builder_kwargs={"resolution": RES, "classes": CLASSES},
        heartbeat_interval=0.04,
        miss_threshold=4,
        max_wait_ms=0.5,
        start_timeout=30.0,
        restart_backoff_base=0.02,
        restart_backoff_cap=0.5,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def oracle(xs: np.ndarray) -> np.ndarray:
    return echo_backend(resolution=RES, classes=CLASSES).forward(xs)


def samples(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n,) + SHAPE).astype(np.float32)


def assert_zero_lost(fleet: Fleet) -> None:
    stats = fleet.stats()
    assert stats.lost == 0, f"lost requests: {stats.to_dict()}"


def wait_until(predicate, timeout: float, message: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(message)


# --------------------------------------------------------------------------- #
# transport units
# --------------------------------------------------------------------------- #
class TestTransport:
    def test_frame_roundtrip(self):
        frame = pack_frame(KIND_REQUEST, 42, {"deadline_ms": 5.0}, b"\x01\x02\x03")
        kind, request_id, meta, payload = split_frame(frame[4:])
        assert (kind, request_id, meta, payload) == (
            KIND_REQUEST,
            42,
            {"deadline_ms": 5.0},
            b"\x01\x02\x03",
        )

    def test_empty_meta_and_payload(self):
        kind, request_id, meta, payload = split_frame(pack_frame(KIND_RESPONSE, 7)[4:])
        assert (kind, request_id, meta, payload) == (KIND_RESPONSE, 7, {}, b"")

    def test_error_for_maps_codes(self):
        assert isinstance(error_for("overloaded"), Overloaded)
        assert isinstance(error_for("deadline"), DeadlineExceeded)
        assert isinstance(error_for("bad_request"), BadRequest)
        assert error_for("overloaded").retryable
        assert not error_for("deadline").retryable
        assert error_for("no-such-code", "boom").args == ("boom",)


# --------------------------------------------------------------------------- #
# chaos units
# --------------------------------------------------------------------------- #
class TestChaos:
    def test_parse_spec(self):
        config = parse_chaos("kill:prob=1,warmup=3,max=1;slow:prob=0.1,ms=20")
        assert [f.kind for f in config.faults] == ["kill", "slow"]
        kill, slow = config.faults
        assert (kill.prob, kill.warmup, kill.max_events) == (1.0, 3, 1)
        assert (slow.prob, slow.ms) == (0.1, 20.0)
        assert "kill" in config.describe()

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_chaos("explode:prob=1")
        with pytest.raises(ValueError):
            parse_chaos("kill:frequency=1")

    def test_empty_spec_disables(self):
        assert parse_chaos("").faults == ()
        assert parse_chaos(None).faults == ()

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "corrupt:prob=0.5,max=2")
        config = ChaosConfig.from_env()
        assert config.faults[0].kind == "corrupt"
        monkeypatch.delenv("REPRO_CHAOS")
        assert ChaosConfig.from_env().faults == ()

    def test_warmup_and_cap(self):
        config = ChaosConfig(faults=(Fault(kind="slow", prob=1.0, warmup=3, max_events=2, ms=1),))
        monkey = ChaosMonkey(config, scope=0)
        fires = [monkey.draw("slow") is not None for _ in range(10)]
        assert fires == [False] * 3 + [True, True] + [False] * 5

    def test_corrupt_reply_flips_bytes(self):
        config = ChaosConfig(faults=(Fault(kind="corrupt", prob=1.0),))
        monkey = ChaosMonkey(config, scope=1)
        buf = np.ones(4, dtype=np.float32)
        before = buf.tobytes()
        assert monkey.corrupt_reply(buf)
        assert buf.tobytes() != before

    def test_negative_scope_is_valid(self):
        ChaosMonkey(ChaosConfig(faults=(Fault(kind="drop", prob=1.0),)), scope=-2).draw("drop")


# --------------------------------------------------------------------------- #
# fleet behavior
# --------------------------------------------------------------------------- #
class TestFleetServing:
    def test_roundtrip_matches_backend(self):
        xs = samples(24)
        with Fleet(fleet_config()) as fleet:
            with fleet.client() as client:
                assert client.input_shape == SHAPE
                assert client.output_shape == (CLASSES,)
                futures = [client.submit(x) for x in xs]
                outs = np.stack([f.result(timeout=30) for f in futures])
            assert np.allclose(outs, oracle(xs))
            stats = fleet.stats()
            assert stats.completed == 24
            assert_zero_lost(fleet)
        assert fleet.stats().lost == 0  # final post-drain snapshot

    def test_wait_ready_counts_replicas_and_times_out(self):
        fleet = Fleet(fleet_config(replicas=1, max_replicas=2)).start(wait_ready=False)
        try:
            fleet.wait_ready(replicas=1, timeout=30)
            assert fleet.stats().ready == 1
            start = time.monotonic()
            with pytest.raises(TimeoutError, match="no 2 ready replicas"):
                fleet.wait_ready(replicas=2, timeout=0.2)
            assert time.monotonic() - start >= 0.2
            # a scale-up's ready message wakes the waiter itself
            fleet.resize(2)
            fleet.wait_ready(replicas=2, timeout=30)
            woke = time.monotonic()
            assert fleet.stats().ready == 2
            assert woke - fleet._supervisor.handles[1].ready_since < 0.5
        finally:
            fleet.close()

    def test_io_plan_sizes_slots(self):
        with Fleet(fleet_config()) as fleet:
            io = fleet.io
            assert io.input_elements == int(np.prod(SHAPE))
            assert io.output_elements == CLASSES
            assert io.slot_elements == io.input_elements + io.output_elements
            assert io.slot_bytes == io.slot_elements * 4

    def test_replica_sigkill_mid_batch_zero_lost_and_restart(self):
        config = fleet_config(chaos="kill:prob=1,warmup=1,max=1", max_attempts=6)
        xs = samples(40)
        with Fleet(config) as fleet:
            fleet.wait_ready(replicas=2, timeout=30)
            with fleet.client(timeout=30.0, retries=4) as client:
                futures = [client.submit(x) for x in xs]
                resolved = 0
                for future, x in zip(futures, xs):
                    try:
                        out = future.result(timeout=30)
                        assert np.allclose(out, oracle(x[None])[0])
                    except Exception:
                        pass  # a typed error is an answer, not a loss
                    resolved += 1
                assert resolved == len(xs)
                assert_zero_lost(fleet)
                stats = fleet.stats()
                assert stats.crashes_detected >= 1
                # restart within the backoff budget: the watchdog must bring
                # the fleet back to full strength while we watch
                wait_until(
                    lambda: fleet.stats().ready == config.replicas,
                    timeout=10.0,
                    message="killed replica was not restarted within budget",
                )
                assert fleet.stats().restarts >= 1
                # the recovered fleet still serves correct answers
                out = client.predict(xs[0], timeout=30)
                assert np.allclose(out, oracle(xs[0][None])[0])
            assert_zero_lost(fleet)

    def test_replica_hang_detected_and_restarted(self):
        config = fleet_config(chaos="hang:prob=1,warmup=1,max=1", max_attempts=6)
        xs = samples(40)
        with Fleet(config) as fleet:
            fleet.wait_ready(replicas=2, timeout=30)
            with fleet.client(timeout=30.0, retries=4) as client:
                futures = [client.submit(x) for x in xs]
                for future in futures:
                    try:
                        future.result(timeout=30)
                    except Exception:
                        pass
                wait_until(
                    lambda: fleet.stats().hangs_detected >= 1,
                    timeout=10.0,
                    message="hung replica was not detected by the heartbeat watchdog",
                )
                wait_until(
                    lambda: fleet.stats().ready == config.replicas,
                    timeout=10.0,
                    message="hung replica was not restarted within budget",
                )
                assert fleet.stats().restarts >= 1
                out = client.predict(xs[0], timeout=30)
                assert np.allclose(out, oracle(xs[0][None])[0])
            assert_zero_lost(fleet)

    def test_corrupt_reply_detected_and_redispatched(self):
        config = fleet_config(chaos="corrupt:prob=1,warmup=0,max=2", max_attempts=6)
        xs = samples(24)
        with Fleet(config) as fleet:
            with fleet.client(timeout=30.0) as client:
                futures = [client.submit(x) for x in xs]
                outs = np.stack([f.result(timeout=30) for f in futures])
            # every answer is correct: corrupted replies were caught by the
            # CRC check and redispatched, never surfaced to the client
            assert np.allclose(outs, oracle(xs))
            stats = fleet.stats()
            assert stats.corrupt_detected >= 1
            assert stats.requeued >= 1
            assert_zero_lost(fleet)

    def test_overload_sheds_with_typed_error(self):
        config = fleet_config(
            replicas=1,
            builder_kwargs={"resolution": RES, "classes": CLASSES, "delay_ms": 30},
            max_pending=4,
            max_batch=2,
        )
        xs = samples(24)
        with Fleet(config) as fleet:
            with fleet.client(timeout=30.0, retries=0) as client:
                futures = [client.submit(x) for x in xs]
                ok = shed = 0
                for future in futures:
                    try:
                        future.result(timeout=30)
                        ok += 1
                    except Overloaded:
                        shed += 1
            stats = fleet.stats()
            assert ok >= 1, "admitted requests must still complete"
            assert shed >= 1, "past max_pending the fleet must shed explicitly"
            assert stats.shed == shed
            assert ok + shed == len(xs)
            assert_zero_lost(fleet)

    def test_overloaded_retries_eventually_succeed(self):
        config = fleet_config(
            replicas=1,
            builder_kwargs={"resolution": RES, "classes": CLASSES, "delay_ms": 5},
            max_pending=4,
            max_batch=4,
        )
        xs = samples(24)
        with Fleet(config) as fleet:
            with fleet.client(timeout=60.0, retries=10, backoff_base=0.02) as client:
                futures = [client.submit(x) for x in xs]
                outs = np.stack([f.result(timeout=60) for f in futures])
            assert np.allclose(outs, oracle(xs))
            assert_zero_lost(fleet)

    def test_deadline_exceeded_is_typed(self):
        config = fleet_config(
            replicas=1,
            builder_kwargs={"resolution": RES, "classes": CLASSES, "delay_ms": 200},
            default_deadline_ms=40.0,
        )
        with Fleet(config) as fleet:
            with fleet.client(timeout=10.0, retries=0) as client:
                with pytest.raises(DeadlineExceeded):
                    client.predict(samples(1)[0], timeout=10)
            stats = fleet.stats()
            assert stats.deadline_expired >= 1
            assert_zero_lost(fleet)

    def test_drain_on_shutdown_answers_everything(self):
        config = fleet_config(
            builder_kwargs={"resolution": RES, "classes": CLASSES, "delay_ms": 5},
        )
        xs = samples(32)
        fleet = Fleet(config).start()
        client = fleet.client(timeout=30.0, retries=0)
        futures = [client.submit(x) for x in xs]
        fleet.close(drain=True)  # while requests are still in flight
        answered = 0
        for future in futures:
            try:
                future.result(timeout=10)
            except Exception:
                pass  # typed shutdown/connection errors still count as answers
            answered += 1
        client.close()
        assert answered == len(xs)
        stats = fleet.stats()
        assert stats.lost == 0, stats.to_dict()
        assert stats.inflight == 0
        assert all(r["state"] in ("stopped", "failed") for r in stats.per_replica)

    def test_bad_payload_size_rejected(self):
        with Fleet(fleet_config()) as fleet:
            with socket.create_connection(fleet.address, timeout=10) as sock:
                sock.sendall(pack_frame(KIND_REQUEST, 1, {}, b"\x00" * 12))
                kind, request_id, meta, _ = read_frame(sock)
            assert kind == KIND_ERROR
            assert request_id == 1
            assert meta["code"] == "bad_request"
            assert_zero_lost(fleet)

    def test_bad_meta_is_typed_and_leaks_no_slot(self):
        """Bad ``deadline_ms`` values and undecodable meta get a typed
        ``bad_request`` before a slot is taken: after ``max_pending`` such
        frames every slot is still free and a good request is served."""
        config = fleet_config(replicas=1, max_pending=4)
        payload = samples(1)[0].tobytes()
        bad_metas = [{"deadline_ms": v} for v in ("soon", -5, 0, [1])]
        with Fleet(config) as fleet:
            with socket.create_connection(fleet.address, timeout=10) as sock:
                for request_id, meta in enumerate(bad_metas):
                    sock.sendall(pack_frame(KIND_REQUEST, request_id, meta, payload))
                    kind, rid, reply, _ = read_frame(sock)
                    assert (kind, rid, reply["code"]) == (KIND_ERROR, request_id, "bad_request")
                # meta that is not JSON at all: still a typed reply on a live connection
                meta = b"{not json"
                body = struct.pack("<BII", KIND_REQUEST, 99, len(meta)) + meta + payload
                sock.sendall(struct.pack("<I", len(body)) + body)
                kind, rid, reply, _ = read_frame(sock)
                assert (kind, rid, reply["code"]) == (KIND_ERROR, 99, "bad_request")
                sock.sendall(pack_frame(KIND_REQUEST, 100, {"deadline_ms": 5000.0}, payload))
                kind, rid, _, out = read_frame(sock)
            assert (kind, rid) == (KIND_RESPONSE, 100)
            np.testing.assert_allclose(
                np.frombuffer(out, dtype=np.float32), oracle(samples(1))[0], rtol=1e-6
            )
            free = fleet._call_on_loop(lambda: len(fleet._free_slots), timeout=5.0)
            assert free == config.max_pending
            assert_zero_lost(fleet)

    def test_client_submit_after_close_raises(self):
        with Fleet(fleet_config(replicas=1)) as fleet:
            client = fleet.client()
            client.close()
            with pytest.raises(RuntimeError):
                client.submit(samples(1)[0])

    def test_loadgen_drives_fleet(self):
        with Fleet(fleet_config()) as fleet:
            with fleet.client(timeout=30.0) as client:
                from repro.serve import run_load

                report = run_load(client, n_requests=32, concurrency=4, warmup=2, timeout=30.0)
            assert report.requests == 32
            assert report.errors == 0
            assert report.timeouts == 0
            assert_zero_lost(fleet)

    def test_stats_over_the_wire(self):
        with Fleet(fleet_config()) as fleet:
            with fleet.client() as client:
                client.predict(samples(1)[0], timeout=30)
                stats = client.server_stats()
            assert stats["submitted"] >= 1
            assert stats["lost"] == 0
            assert len(stats["per_replica"]) == fleet.config.replicas
            assert set(stats) == STATS_KEYS
            assert set(stats["per_replica"][0]) == PER_REPLICA_KEYS


STATS_KEYS = {
    "replicas", "target", "max_replicas", "ready", "draining", "submitted", "completed",
    "shed", "errors", "requeued", "corrupt_detected", "deadline_expired", "restarts",
    "hangs_detected", "crashes_detected", "inflight", "queue_depth", "latency_ms_p50",
    "latency_ms_p95", "latency_ms_p99", "degradation_level", "effective_deadline_ms",
    "effective_max_pending", "scale_ups", "scale_downs", "scale_events",
    "cold_start_ms_mean", "cold_start_ms_max", "fidelity", "lost", "per_replica",
}
PER_REPLICA_KEYS = {
    "index", "state", "served", "restarts", "pid", "inflight", "latency_ms_p99", "cold_start_ms",
}


class TestFleetStatsDict:
    def test_to_dict_keys_and_values(self):
        replica = {"index": 0, "state": "ready", "served": 3, "restarts": 1, "pid": 7,
                   "inflight": 1, "latency_ms_p99": 2.5, "cold_start_ms": 40.0}
        stats = FleetStats(
            replicas=2, target=2, max_replicas=3, ready=2, submitted=10, completed=6,
            errors={"deadline": 2}, inflight=1, latency_ms_p50=1.0, latency_ms_p95=2.0,
            latency_ms_p99=3.0, scale_events=[{"t": 0.5, "from": 1, "to": 2, "reason": "slo"}],
            fidelity={"active_rung": 0, "switches": 0, "rungs": []}, per_replica=[replica],
        )
        d = stats.to_dict()
        assert set(d) == STATS_KEYS
        assert d["lost"] == 10 - 6 - 2 - 1
        assert d["errors"] == {"deadline": 2}
        assert d["per_replica"] == [replica]
        assert d["scale_events"] == [{"t": 0.5, "from": 1, "to": 2, "reason": "slo"}]
        assert d["fidelity"] == {"active_rung": 0, "switches": 0, "rungs": []}
        assert (d["latency_ms_p50"], d["latency_ms_p95"], d["latency_ms_p99"]) == (1.0, 2.0, 3.0)
        assert d["cold_start_ms_mean"] is None and d["draining"] == 0
        # a snapshot, not a view: editing it leaves the stats untouched
        d["errors"]["deadline"] = 99
        d["per_replica"][0]["served"] = 99
        assert stats.errors == {"deadline": 2}
        assert replica["served"] == 3


class RecordingBackend:
    """In-process replica backend recording each forward's batch size and rung."""

    def __init__(self):
        self.echo = echo_backend(resolution=RES, classes=CLASSES)
        self.rung = 0
        self.calls = []  # (batch size, rung at forward time)

    def forward(self, batch):
        self.calls.append((len(batch), self.rung))
        return self.echo.forward(batch)

    def set_rung(self, rung):
        self.rung = rung


class TestReplicaLoop:
    """``_replica_main`` driven in-process over real pipes and shared memory."""

    def run_replica(self, messages, max_batch=4, max_wait_ms=500.0):
        n_slots = 4
        in_elems = int(np.prod(SHAPE))
        slot_elems = in_elems + CLASSES
        slots_shm = shared_memory.SharedMemory(create=True, size=n_slots * slot_elems * 4)
        hb_shm = shared_memory.SharedMemory(create=True, size=8)
        backend = RecordingBackend()
        try:
            slots = np.ndarray((n_slots, slot_elems), dtype=np.float32, buffer=slots_shm.buf)
            xs = samples(n_slots)
            slots[:, :in_elems] = xs.reshape(n_slots, -1)
            spec = ReplicaSpec(
                index=0, replicas=1, builder="unused", builder_kwargs={},
                input_shape=SHAPE, input_elements=in_elems, output_elements=CLASSES,
                slot_elements=slot_elems, n_slots=n_slots, slots_name=slots_shm.name,
                hb_name=hb_shm.name, max_batch=max_batch, max_wait_ms=max_wait_ms,
                heartbeat_interval=0.05, prebuilt=backend,
            )
            work_recv, work_send = multiprocessing.Pipe(duplex=False)
            resp_recv, resp_send = multiprocessing.Pipe(duplex=False)
            for msg in messages:
                work_send.send(msg)
            start = time.monotonic()
            replica = threading.Thread(target=_replica_main, args=(spec, work_recv, resp_send))
            replica.start()
            replica.join(timeout=10.0)  # returns on "stop"
            elapsed = time.monotonic() - start
            assert not replica.is_alive(), "replica loop did not stop"
            replies = []
            while resp_recv.poll(0):
                replies.append(resp_recv.recv())
            outputs = slots[:, in_elems:].copy()
            del slots
            return backend, replies, outputs, oracle(xs), elapsed
        finally:
            slots_shm.close()
            slots_shm.unlink()
            hb_shm.close()
            hb_shm.unlink()

    def test_cfg_mid_window_is_applied_and_stop_ends_after_the_batch(self):
        messages = [
            ("run", 1, 0),
            ("cfg", {"fidelity": 1, "max_wait_ms": 0.0}),
            ("run", 2, 1),
            ("stop",),
            ("run", 3, 2),  # after stop: never served
        ]
        backend, replies, outputs, expected, elapsed = self.run_replica(messages)
        # one batch of both requests: the cfg neither joined nor split it, its
        # rung switch was applied before the forward, and "stop" closed the
        # window at once instead of waiting out the 500 ms
        assert backend.calls == [(2, 1)]
        assert elapsed < 0.4
        assert [r[0] for r in replies] == ["ready", "done", "done"]
        assert [r[1] for r in replies[1:]] == [1, 2]
        np.testing.assert_allclose(outputs[:2], expected[:2], rtol=1e-6)

    def test_batches_cut_at_max_batch(self):
        messages = [("run", gid, gid) for gid in range(4)] + [("stop",)]
        backend, replies, outputs, expected, _ = self.run_replica(messages, max_batch=3)
        assert [size for size, _ in backend.calls] == [3, 1]
        assert sorted(r[1] for r in replies[1:]) == [0, 1, 2, 3]
        np.testing.assert_allclose(outputs, expected, rtol=1e-6)


class TestFleetConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FleetConfig(replicas=0)
        with pytest.raises(ValueError):
            FleetConfig(max_pending=0)
        with pytest.raises(ValueError):
            FleetConfig(start_method="threads")
        with pytest.raises(ValueError, match="max_wait_ms must be non-negative"):
            FleetConfig(max_wait_ms=-1.0)

    def test_cli_rejects_unknown_engine(self, capsys):
        from repro.serve.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--engine", "tpu"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown engine" in err
        assert "int8" in err and "float" in err and "eager" in err
