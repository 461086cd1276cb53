"""The async pipelined coordinator and the wire/retry correctness sweep.

Covers the async half of the distributed subsystem:

* async framing over asyncio streams -- byte-identical interop with the
  sync wire, ``mid`` multiplexing, and the mid-frame-timeout desync
  contract on both the sync socket path (teardown + reconnect) and the
  async reader path (poisoned stream);
* capped + jittered retry backoff (the unbounded ``2**attempt`` sweep);
* group commit: one fsync amortized over the pending batch, rid markers
  embedded in the journal, torn-trailing-line tolerance, and recovery
  of a group-commit journal by a fresh (synchronous) community;
* snapshot durability: the directory fsync after the atomic rename;
* the pipelined community against the single-process oracle, including
  cross-shard two-phase units and the acceptance fault injection --
  concurrent clients with a worker hard-killed mid-batch must still
  land exactly-once on the oracle's final state.

``pytest-timeout`` is not available in the image, so an autouse SIGALRM
fixture bounds every test (a wedged worker must fail the test, not hang
the suite).
"""

import asyncio
import json
import signal
import socket
import struct
import threading
import time

import pytest

from repro.diagnostics import PermissionDenied
from repro.distributed import (
    BACKOFF_CAP,
    AsyncShardedCommunity,
    ShardUnavailable,
    ShardedCommunity,
    Spool,
    WireDesync,
    WireTimeout,
    async_recv_frame,
    async_send_frame,
    backoff_delay,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.distributed.workload import (
    COUNTER_SPEC,
    run_async_sharded,
    run_oracle,
    run_sharded,
)
from repro.library import LENDING_LIBRARY_SPEC
from repro.runtime import ObjectBase
from repro.runtime.persistence import dump_state
from repro.distributed.coordinator import normalize_state

TEST_DEADLINE_SECONDS = 120


@pytest.fixture(autouse=True)
def _deadline():
    """pytest-timeout is not installed; SIGALRM bounds each test so a
    wedged worker process fails the test instead of hanging the run."""

    def expired(signum, frame):
        raise TimeoutError(
            f"async distributed test exceeded {TEST_DEADLINE_SECONDS}s"
        )

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(TEST_DEADLINE_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _counter_oracle(counters, ops):
    oracle = ObjectBase(COUNTER_SPEC)
    for index in range(counters):
        oracle.create("COUNTER", {"IdNo": index})
    for op in range(ops):
        oracle.occur(("COUNTER", op % counters), "bump")
    return normalize_state(dump_state(oracle))


# ----------------------------------------------------------------------
# Async wire framing
# ----------------------------------------------------------------------

class TestAsyncWire:
    def test_async_round_trip_and_sync_interop(self):
        async def main():
            a, b = socket.socketpair()
            a.setblocking(False)
            reader, writer = await asyncio.open_connection(sock=a)
            try:
                # async -> sync: the sync peer parses the async frame.
                message = {"op": "occur", "mid": 7, "args": [1, 2]}
                await async_send_frame(writer, message)
                b.settimeout(5.0)
                assert recv_frame(b) == message
                # sync -> async: byte-identical framing the other way.
                send_frame(b, {"ok": True, "mid": 7})
                assert await async_recv_frame(reader, timeout=5.0) == {
                    "ok": True,
                    "mid": 7,
                }
            finally:
                writer.close()
                b.close()

        asyncio.run(main())

    def test_many_frames_multiplex_by_mid(self):
        async def main():
            a, b = socket.socketpair()
            a.setblocking(False)
            reader, writer = await asyncio.open_connection(sock=a)
            try:
                # One coalesced burst of frames, as the coordinator's
                # outbox would write them; they arrive in order with
                # their mids intact.
                burst = b"".join(
                    encode_frame({"mid": mid, "payload": mid * 2})
                    for mid in range(8)
                )
                b.sendall(burst)
                seen = {}
                for _ in range(8):
                    frame = await async_recv_frame(reader, timeout=5.0)
                    seen[frame["mid"]] = frame["payload"]
                assert seen == {mid: mid * 2 for mid in range(8)}
            finally:
                writer.close()
                b.close()

        asyncio.run(main())

    def test_async_header_timeout_is_resumable(self):
        async def main():
            a, b = socket.socketpair()
            a.setblocking(False)
            reader, writer = await asyncio.open_connection(sock=a)
            try:
                with pytest.raises(WireTimeout) as excinfo:
                    await async_recv_frame(reader, timeout=0.05)
                assert not isinstance(excinfo.value, WireDesync)
                # Nothing was consumed: the stream is still aligned.
                b.sendall(encode_frame({"ok": True}))
                assert await async_recv_frame(reader, timeout=5.0) == {
                    "ok": True
                }
            finally:
                writer.close()
                b.close()

        asyncio.run(main())

    def test_async_mid_frame_timeout_poisons_reader(self):
        async def main():
            a, b = socket.socketpair()
            a.setblocking(False)
            reader, writer = await asyncio.open_connection(sock=a)
            try:
                # Header plus a partial body, then silence: the reader
                # consumed the prefix, so the stream is desynchronized.
                b.sendall(struct.pack(">I", 64) + b'{"partial')
                with pytest.raises(WireDesync):
                    await async_recv_frame(reader, timeout=0.1)
                # Every later read on the poisoned reader refuses too,
                # even after the missing bytes eventually arrive.
                b.sendall(b"x" * 55 + encode_frame({"late": True}))
                with pytest.raises(WireDesync):
                    await async_recv_frame(reader, timeout=5.0)
            finally:
                writer.close()
                b.close()

        asyncio.run(main())

    def test_sync_slow_partial_write_tears_down_socket(self):
        """The injected slow-writer regression: a peer that stalls
        mid-frame must desynchronize the receiver, which tears the
        socket down (reconnect, never resume)."""
        a, b = socket.socketpair()
        release = threading.Event()

        def slow_writer():
            frame = encode_frame({"pad": "x" * 64})
            a.sendall(frame[:10])  # header + 6 body bytes, then stall
            release.wait(5.0)
            try:
                a.sendall(frame[10:])
            except OSError:
                pass  # receiver already tore the connection down

        writer = threading.Thread(target=slow_writer, daemon=True)
        writer.start()
        try:
            with pytest.raises(WireDesync):
                recv_frame(b, timeout=0.2)
            # The receiving socket was hard-closed: no later read can
            # misparse the stale remainder as a fresh length prefix.
            assert b.fileno() == -1
        finally:
            release.set()
            writer.join(timeout=5.0)
            a.close()


# ----------------------------------------------------------------------
# Retry backoff: capped + jittered
# ----------------------------------------------------------------------

class TestBackoff:
    def test_exponential_growth_is_capped(self):
        delays = [backoff_delay(n, 0.05, jitter=1.0) for n in range(12)]
        assert delays[:4] == [0.05, 0.1, 0.2, 0.4]
        assert max(delays) == BACKOFF_CAP
        assert delays[-1] == BACKOFF_CAP  # no unbounded 2**attempt sweep
        assert backoff_delay(200, 0.05, jitter=1.0) == BACKOFF_CAP

    def test_jitter_spans_half_to_full_delay(self):
        assert backoff_delay(2, 0.05, jitter=0.0) == pytest.approx(0.1)
        assert backoff_delay(2, 0.05, jitter=1.0) == pytest.approx(0.2)
        for _ in range(64):
            drawn = backoff_delay(2, 0.05)
            assert 0.1 <= drawn <= 0.2

    def test_custom_cap_and_zero_base(self):
        assert backoff_delay(10, 0.05, cap=0.25, jitter=1.0) == 0.25
        assert backoff_delay(3, 0.0) == 0.0
        assert backoff_delay(3, -1.0) == 0.0


# ----------------------------------------------------------------------
# Group commit: amortized fsyncs, journal rid markers, recovery
# ----------------------------------------------------------------------

class TestGroupCommit:
    def test_one_fsync_covers_many_requests(self, tmp_path):
        result = run_async_sharded(
            2, 8, 192, clients=32, spool_dir=str(tmp_path), export=True
        )
        assert result["state"] == _counter_oracle(8, 192)
        group = result["group_commit"]
        # 192 bumps + 8 creates all reached disk in far fewer fsyncs.
        assert group["records"] >= 200
        assert 0 < group["flushes"] < group["records"]

    def test_rid_markers_recoverable_by_sync_community(self, tmp_path):
        run_async_sharded(2, 6, 36, clients=8, spool_dir=str(tmp_path))
        spool = Spool(str(tmp_path), 0)
        applied = spool.read_applied()
        assert applied, "group commit left no request ids in the journal"
        with open(spool.journal_path, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        # a request's id rides on the last record line its unit earned
        assert any("rid" in line and "seq" in line for line in lines)
        # A synchronous community over the same spool replays the
        # group-commit journal (records + markers) to the oracle state.
        with ShardedCommunity(
            COUNTER_SPEC, shards=2, spool_dir=str(tmp_path)
        ) as community:
            assert all(p["recovered"] for p in community.ping_all())
            assert community.merged_state() == _counter_oracle(6, 36)

    def test_torn_trailing_journal_line_is_dropped(self, tmp_path):
        run_async_sharded(1, 4, 24, clients=4, spool_dir=str(tmp_path))
        spool = Spool(str(tmp_path), 0)
        before = spool.read_journal()
        with open(spool.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 99999, "torn mid-wri')  # no newline
        # The torn tail is by construction unacknowledged: recovery
        # drops it instead of failing the whole journal.
        after = Spool(str(tmp_path), 0)
        assert [r.seq for r in after.read_journal().records] == [
            r.seq for r in before.records
        ]
        with ShardedCommunity(
            COUNTER_SPEC, shards=1, spool_dir=str(tmp_path)
        ) as community:
            assert community.merged_state() == _counter_oracle(4, 24)

    def test_torn_middle_line_is_corruption(self, tmp_path):
        spool = Spool(str(tmp_path), 0)
        with open(spool.journal_path, "w", encoding="utf-8") as handle:
            handle.write('{"torn mid-wri\n{"rid": "r1"}\n')
        with pytest.raises(json.JSONDecodeError):
            Spool(str(tmp_path), 0).read_applied()

    def test_append_group_is_one_marker_per_rid(self, tmp_path):
        spool = Spool(str(tmp_path), 0)
        spool.append_group((), ("r1", "r2"))
        spool.append_group((), ())  # no-op, no empty fsync
        spool.close()
        assert Spool(str(tmp_path), 0).read_applied() == {"r1", "r2"}


# ----------------------------------------------------------------------
# Snapshot durability
# ----------------------------------------------------------------------

class TestSnapshotDurability:
    def test_snapshot_rename_fsyncs_the_directory(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(
            "repro.distributed.worker.fsync_directory", synced.append
        )
        spool = Spool(str(tmp_path), 3)
        spool.write_snapshot({"instances": [], "journal_seq": 0})
        assert synced == [spool.directory]
        assert spool.read_snapshot() == {"instances": [], "journal_seq": 0}
        spool.close()


# ----------------------------------------------------------------------
# The pipelined community vs the oracle
# ----------------------------------------------------------------------

class TestAsyncCommunity:
    def test_concurrent_clients_match_oracle(self):
        result = run_async_sharded(4, 12, 96, clients=16)
        assert result["ops"] == 96
        assert result["restarts"] == 0
        assert result["state"] == _counter_oracle(12, 96)

    def test_cross_shard_two_phase_matches_oracle(self, tmp_path):
        result = run_async_sharded(
            2, 8, 48, clients=4, cross_shard=True, spool_dir=str(tmp_path)
        )
        oracle = run_oracle(8, 48, cross_shard=True)
        assert result["state"] == oracle["state"]

    def test_two_phase_abort_rolls_back_everywhere(self):
        async def main():
            async with AsyncShardedCommunity(
                LENDING_LIBRARY_SPEC,
                shards=2,
                placement={"MEMBER": 0, "BOOK": 1},
            ) as community:
                await community.create("MEMBER", {"MName": "m1"})
                await community.create(
                    "BOOK", {"Isbn": "b1"}, "acquire", ["Duden"]
                )
                from repro.datatypes.values import identity

                book = identity("BOOK", "b1")
                await community.occur("MEMBER", "m1", "borrow", [book])
                with pytest.raises(PermissionDenied):
                    await community.occur("MEMBER", "m1", "borrow", [book])
                assert (await community.get("BOOK", "b1", "OnLoan")).payload is True
                borrowed = await community.get("MEMBER", "m1", "Borrowed")
                assert len(borrowed.payload) == 1

        asyncio.run(main())

    def test_lost_reply_retry_is_applied_exactly_once(self, tmp_path):
        """crash_after_commit under group commit: the barrier drains the
        spool, the worker dies before replying, and the retried rid is
        acknowledged as a replay, not re-applied."""

        async def main():
            async with AsyncShardedCommunity(
                COUNTER_SPEC,
                shards=1,
                spool_dir=str(tmp_path),
                retries=0,
                backoff=0.01,
            ) as community:
                await community.create("COUNTER", {"IdNo": 1})
                inner = {
                    "op": "occur",
                    "class": "COUNTER",
                    "key": 1,
                    "event": "bump",
                    "args": [],
                    "rid": "rid-lost-reply",
                }
                with pytest.raises(ShardUnavailable):
                    await community._request(
                        0, {"op": "crash_after_commit", "inner": dict(inner)}
                    )
                response = await community._request(0, dict(inner))
                assert response == {"ok": True, "status": "replayed"}
                value = await community.get("COUNTER", 1, "Value")
                assert value.payload == 1

        asyncio.run(main())

    def test_hung_worker_times_out_and_restarts(self, tmp_path):
        async def main():
            async with AsyncShardedCommunity(
                COUNTER_SPEC,
                shards=1,
                spool_dir=str(tmp_path),
                retries=0,
                backoff=0.01,
            ) as community:
                await community.create("COUNTER", {"IdNo": 1})
                with pytest.raises(ShardUnavailable):
                    await community._request(
                        0, {"op": "hang", "seconds": 2}, timeout=0.2
                    )
                assert community.restarts == 0  # restart is lazy
                value = await community.get("COUNTER", 1, "Value")
                assert value.payload == 0  # spool recovered the state
                assert community.restarts == 1

        asyncio.run(main())

    def test_concurrent_clients_survive_worker_kill_exactly_once(
        self, tmp_path
    ):
        """The acceptance fault injection: concurrent clients, one shard
        hard-killed mid-batch.  Retried rids must land exactly once and
        the merged state must still equal the single-process oracle."""
        counters, ops, clients = 8, 64, 8

        async def main():
            async with AsyncShardedCommunity(
                COUNTER_SPEC,
                shards=2,
                spool_dir=str(tmp_path),
                snapshot_interval=8,
                retries=3,
                backoff=0.01,
            ) as community:
                for index in range(counters):
                    await community.create("COUNTER", {"IdNo": index})
                done = 0

                async def client(start):
                    nonlocal done
                    for op in range(start, ops, clients):
                        await community.occur(
                            "COUNTER", op % counters, "bump"
                        )
                        done += 1

                async def killer():
                    while done < ops // 4:
                        await asyncio.sleep(0.001)
                    community.kill_worker(0)

                await asyncio.gather(
                    killer(), *(client(index) for index in range(clients))
                )
                state = await community.merged_state()
                return state, community.restarts

        state, restarts = asyncio.run(main())
        assert restarts >= 1, "the kill landed after the workload finished"
        assert state == _counter_oracle(counters, ops)

    def test_pipelining_beats_serial_on_blocking_workers(self, tmp_path):
        """Sanity (not a benchmark): with the spool on, pipelined
        clients finish the same ops in less wall time than one client
        issuing them serially against the same async community."""

        def run(client_count):
            with_spool = tmp_path / f"c{client_count}"
            with_spool.mkdir()
            return run_async_sharded(
                2, 8, 64, clients=client_count, spool_dir=str(with_spool)
            )

        serial = run(1)
        pipelined = run(16)
        assert pipelined["state"] == serial["state"] == _counter_oracle(8, 64)
        assert pipelined["seconds"] < serial["seconds"]
