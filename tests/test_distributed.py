"""The sharded object-community server, end to end.

Covers the distributed subsystem of the server PR:

* the length-prefixed JSON wire protocol (framing, timeouts, guards);
* identity partitioning (stable CRC32 hashing, placement pins, root-of-
  view-chain routing) and static remote-capability analysis;
* :class:`ShardObjectBase`'s remote-call seam (raise vs capture);
* shard-local operation through :class:`ShardedCommunity` with merged
  final state identical to a single-process oracle;
* cross-shard synchronization sets via two-phase commit -- commit,
  denial with rollback tombstones on every participant, and
  ``is_permitted`` escalation;
* crash recovery: kill-one-worker fault injection with snapshot +
  journal suffix replay, at-most-once retried mutations across a
  lost-reply crash, and hung-worker timeout handling.

``pytest-timeout`` is not available in the image, so an autouse SIGALRM
fixture bounds every test (a wedged worker must fail the test, not hang
the suite).
"""

import signal
import socket
import struct

import pytest

from repro.datatypes.values import identity
from repro.diagnostics import CheckError, PermissionDenied, RuntimeSpecError
from repro.distributed import (
    Partitioner,
    RemoteSyncError,
    ShardObjectBase,
    ShardUnavailable,
    ShardedCommunity,
    WireClosed,
    WireError,
    WireTimeout,
    merge_states,
    normalize_state,
    recv_frame,
    remote_capable_events,
    root_class,
    send_frame,
    shard_of_key,
)
from repro.distributed.workload import COUNTER_SPEC, run_oracle, run_sharded
from repro.lang import check_specification, parse_specification
from repro.library import FULL_COMPANY_SPEC, LENDING_LIBRARY_SPEC
from repro.observability.export import render_shard_prometheus
from repro.runtime import ObjectBase
from repro.runtime.compilespec import compile_specification
from repro.runtime.persistence import dump_state

TEST_DEADLINE_SECONDS = 120


@pytest.fixture(autouse=True)
def _deadline():
    """pytest-timeout is not installed; SIGALRM bounds each test so a
    wedged worker process fails the test instead of hanging the run."""

    def expired(signum, frame):
        raise TimeoutError(
            f"distributed test exceeded {TEST_DEADLINE_SECONDS}s"
        )

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(TEST_DEADLINE_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def compiled(spec_text):
    return compile_specification(
        check_specification(parse_specification(spec_text)).raise_if_errors()
    )


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------

class TestWire:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            message = {"op": "occur", "args": [{"k": "id", "key": [1, 2]}]}
            send_frame(a, message)
            assert recv_frame(b, timeout=5.0) == message
        finally:
            a.close()
            b.close()

    def test_multiple_frames_in_order(self):
        a, b = socket.socketpair()
        try:
            for index in range(5):
                send_frame(a, {"seq": index})
            assert [recv_frame(b, timeout=5.0)["seq"] for _ in range(5)] == list(
                range(5)
            )
        finally:
            a.close()
            b.close()

    def test_closed_peer(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(WireClosed):
                recv_frame(b, timeout=5.0)
        finally:
            b.close()

    def test_timeout_mid_frame(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 64))  # header only, body never comes
            with pytest.raises(WireTimeout):
                recv_frame(b, timeout=0.1)
        finally:
            a.close()
            b.close()

    def test_corrupted_length_guard(self, monkeypatch):
        monkeypatch.setattr("repro.distributed.wire.MAX_FRAME", 16)
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 17))
            with pytest.raises(WireError, match="exceeds MAX_FRAME"):
                recv_frame(b, timeout=5.0)
            with pytest.raises(WireError, match="exceeds MAX_FRAME"):
                send_frame(a, {"pad": "x" * 32})
        finally:
            a.close()
            b.close()

    def test_undecodable_body(self):
        a, b = socket.socketpair()
        try:
            body = b"\xff\xfe not json"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(WireError, match="undecodable"):
                recv_frame(b, timeout=5.0)
        finally:
            a.close()
            b.close()

    def test_non_object_body_rejected(self):
        a, b = socket.socketpair()
        try:
            body = b"[1,2,3]"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(WireError, match="JSON object"):
                recv_frame(b, timeout=5.0)
        finally:
            a.close()
            b.close()


# ----------------------------------------------------------------------
# Partitioning and static remote-capability
# ----------------------------------------------------------------------

class TestPartitioning:
    def test_hashing_is_stable_and_covers_all_shards(self):
        first = [shard_of_key(k, 4) for k in range(64)]
        second = [shard_of_key(k, 4) for k in range(64)]
        assert first == second  # CRC32, not randomized hash()
        assert set(first) == {0, 1, 2, 3}

    def test_tuple_payloads_hash_consistently(self):
        assert shard_of_key(("alice", (1960, 1, 1)), 4) == shard_of_key(
            ("alice", (1960, 1, 1)), 4
        )
        assert shard_of_key("alice", 1) == 0

    def test_roles_follow_their_base(self):
        company = compiled(FULL_COMPANY_SPEC)
        assert root_class(company, "MANAGER") == "PERSON"
        partitioner = Partitioner(company, 4)
        payload = ("alice", (1960, 1, 1))
        assert partitioner.shard_of("MANAGER", payload) == partitioner.shard_of(
            "PERSON", payload
        )

    def test_placement_pin_applies_to_root(self):
        company = compiled(FULL_COMPANY_SPEC)
        partitioner = Partitioner(company, 4, {"MANAGER": 3})
        # Pinning the role pins the whole view-of chain.
        assert partitioner.shard_of("PERSON", ("bob", (1970, 5, 5))) == 3
        assert partitioner.shard_of("MANAGER", ("bob", (1970, 5, 5))) == 3

    def test_placement_validation(self):
        lending = compiled(LENDING_LIBRARY_SPEC)
        with pytest.raises(CheckError, match="unknown class"):
            Partitioner(lending, 2, {"NOPE": 0})
        with pytest.raises(CheckError, match="outside"):
            Partitioner(lending, 2, {"BOOK": 2})
        with pytest.raises(ValueError):
            Partitioner(lending, 0)

    def test_identity_payload_precomputes_routing_key(self):
        counter = compiled(COUNTER_SPEC)
        partitioner = Partitioner(counter, 2)
        assert partitioner.identity_payload(counter.classes["COUNTER"], {"IdNo": 7}) == 7
        with pytest.raises(CheckError, match="missing identification"):
            partitioner.identity_payload(counter.classes["COUNTER"], {})


class TestRemoteCapability:
    def test_counter_bump_is_statically_shard_local(self):
        marked = remote_capable_events(compiled(COUNTER_SPEC))
        assert marked == set()

    def test_global_interactions_mark_their_sources(self):
        marked = remote_capable_events(compiled(LENDING_LIBRARY_SPEC))
        assert ("MEMBER", "borrow") in marked
        assert ("MEMBER", "give_back") in marked
        # BOOK's own events never call out.
        assert ("BOOK", "lend") not in marked
        assert ("BOOK", "acquire") not in marked


# ----------------------------------------------------------------------
# ShardObjectBase: the dispatch seam
# ----------------------------------------------------------------------

class TestShardObjectBase:
    def shard(self, index=0):
        return ShardObjectBase(
            LENDING_LIBRARY_SPEC,
            shard_index=index,
            shards=2,
            placement={"MEMBER": 0, "BOOK": 1},
        )

    def test_ownership(self):
        base = self.shard(0)
        assert base.owns("MEMBER", "m1")
        assert not base.owns("BOOK", "b1")

    def test_foreign_target_raises_remote_sync_error(self):
        base = self.shard(0)
        member = base.create("MEMBER", {"MName": "m1"})
        with pytest.raises(RemoteSyncError) as excinfo:
            base.occur(member, "borrow", [identity("BOOK", "b1")])
        calls = excinfo.value.calls
        assert [(c.class_name, c.key, c.event) for c in calls] == [
            ("BOOK", "b1", "lend")
        ]
        # The unit rolled back: nothing was borrowed.
        assert base.get(member, "Borrowed").payload == frozenset()

    def test_capture_mode_collects_instead_of_raising(self):
        base = self.shard(0)
        member = base.create("MEMBER", {"MName": "m1"})
        base.capture_remote = True
        base.occur(member, "borrow", [identity("BOOK", "b1")])
        assert [(c.class_name, c.key, c.event) for c in base.remote_calls] == [
            ("BOOK", "b1", "lend")
        ]
        # The local half of the unit did commit under capture.
        assert len(base.get(member, "Borrowed").payload) == 1

    def test_local_target_runs_the_ordinary_path(self):
        base = self.shard(1)
        book = base.create("BOOK", {"Isbn": "b1"}, "acquire", ["Duden"])
        assert base.get(book, "OnLoan").payload is False
        base.occur(book, "lend")
        assert base.get(book, "OnLoan").payload is True

    def test_missing_locally_owned_identity_still_errors(self):
        base = self.shard(0)
        member = base.create("MEMBER", {"MName": "m1"})
        base_book_shard = self.shard(0)
        del base_book_shard
        # MEMBER is pinned to shard 0 -- a member-owned missing identity
        # must not be mistaken for a remote one.
        base2 = ShardObjectBase(
            LENDING_LIBRARY_SPEC, shard_index=1, shards=2,
            placement={"MEMBER": 1, "BOOK": 1},
        )
        member2 = base2.create("MEMBER", {"MName": "m2"})
        with pytest.raises(RuntimeSpecError):
            base2.occur(member2, "borrow", [identity("BOOK", "missing")])


# ----------------------------------------------------------------------
# Shard-local operation through the coordinator
# ----------------------------------------------------------------------

class TestShardLocalCommunity:
    def test_merged_state_matches_single_process_oracle(self):
        sharded = run_sharded(shards=2, counters=12, ops=36)
        oracle = run_oracle(counters=12, ops=36)
        assert sharded["state"] == oracle["state"]

    def test_society_interface(self):
        with ShardedCommunity(COUNTER_SPEC, shards=2) as community:
            key = community.create("COUNTER", {"IdNo": 5})
            assert key == 5
            community.occur("COUNTER", 5, "bump")
            community.occur("COUNTER", 5, "bump")
            assert community.get("COUNTER", 5, "Value").payload == 2
            assert community.is_permitted("COUNTER", 5, "bump") is True
            assert community.step() is None  # no active events: quiescent
            assert community.run_active() == []

    def test_unknown_class_rejected_locally(self):
        with ShardedCommunity(COUNTER_SPEC, shards=1) as community:
            with pytest.raises(CheckError, match="unknown class"):
                community.create("NOPE", {"IdNo": 1})
            with pytest.raises(CheckError, match="unknown class"):
                community.occur("NOPE", 1, "bump")

    def test_worker_denial_reraised_with_original_type(self):
        with ShardedCommunity(LENDING_LIBRARY_SPEC, shards=1) as community:
            community.create("BOOK", {"Isbn": "b1"}, "acquire", ["Duden"])
            community.occur("BOOK", "b1", "lend")
            with pytest.raises(PermissionDenied):
                community.occur("BOOK", "b1", "lend")

    def test_merged_export_totals(self):
        with ShardedCommunity(COUNTER_SPEC, shards=2) as community:
            for index in range(4):
                community.create("COUNTER", {"IdNo": index})
            community.occur("COUNTER", 0, "bump")
            export = community.merged_export()
            assert len(export["shards"]) == 2
            assert export["totals"]["commits"] == 5
            assert export["totals"]["rollbacks"] == 0
            assert export["totals"]["restarts"] == 0
            text = render_shard_prometheus(export)
            assert '# TYPE repro_shard_commits gauge' in text
            assert 'repro_shard_commits{shard="0"}' in text
            assert "repro_shard_restarts 0" in text

    def test_merge_states_is_order_canonical(self):
        system = ObjectBase(COUNTER_SPEC)
        for index in range(6):
            system.create("COUNTER", {"IdNo": index})
        whole = normalize_state(dump_state(system))
        # Splitting the instance list across "shards" in any order merges
        # back to the same canonical snapshot.
        records = whole["instances"]
        members = whole["class_objects"]["COUNTER"]
        half_a = dict(
            whole, instances=records[1::2],
            class_objects={"COUNTER": members[1::2]},
        )
        half_b = dict(
            whole, instances=records[0::2],
            class_objects={"COUNTER": members[0::2]},
        )
        assert merge_states([half_a, half_b]) == whole


# ----------------------------------------------------------------------
# Cross-shard synchronization sets: two-phase commit
# ----------------------------------------------------------------------

@pytest.fixture
def library_community():
    """MEMBER and BOOK pinned to different shards: every borrow is a
    distributed synchronization set."""
    with ShardedCommunity(
        LENDING_LIBRARY_SPEC, shards=2, placement={"MEMBER": 0, "BOOK": 1}
    ) as community:
        community.create("MEMBER", {"MName": "m1"})
        community.create("BOOK", {"Isbn": "b1"}, "acquire", ["Duden"])
        yield community


class TestTwoPhaseCommit:
    def test_cross_shard_commit(self, library_community):
        community = library_community
        community.occur("MEMBER", "m1", "borrow", [identity("BOOK", "b1")])
        # Both halves of the unit committed, each on its own shard.
        assert community.get("BOOK", "b1", "OnLoan").payload is True
        assert len(community.get("MEMBER", "m1", "Borrowed").payload) == 1

    def test_abort_journals_tombstones_on_every_participant(
        self, library_community
    ):
        community = library_community
        community.occur("MEMBER", "m1", "borrow", [identity("BOOK", "b1")])
        before = community.merged_export()["totals"]
        with pytest.raises(PermissionDenied):
            # BOOK(b1) is on loan: shard 1 votes no, both shards tombstone.
            community.occur("MEMBER", "m1", "borrow", [identity("BOOK", "b1")])
        after = community.merged_export()["totals"]
        assert after["rollbacks"] - before["rollbacks"] == 2
        assert after["commits"] == before["commits"]
        rollbacks = [s["rollbacks"] for s in community.merged_export()["shards"]]
        assert rollbacks == [1, 1]
        # Nothing half-committed anywhere.
        assert len(community.get("MEMBER", "m1", "Borrowed").payload) == 1
        assert community.get("BOOK", "b1", "OnLoan").payload is True

    def test_denial_on_the_originating_shard_aborts_too(self, library_community):
        community = library_community
        for isbn in ("b2", "b3"):
            community.create("BOOK", {"Isbn": isbn}, "acquire", [isbn])
        for isbn in ("b1", "b2", "b3"):
            community.occur("MEMBER", "m1", "borrow", [identity("BOOK", isbn)])
        community.create("BOOK", {"Isbn": "b4"}, "acquire", ["b4"])
        with pytest.raises(PermissionDenied):
            # count(Borrowed) < 3 fails on the member's own shard.
            community.occur("MEMBER", "m1", "borrow", [identity("BOOK", "b4")])
        assert community.get("BOOK", "b4", "OnLoan").payload is False

    def test_is_permitted_escalates_through_prepare(self, library_community):
        community = library_community
        assert (
            community.is_permitted("MEMBER", "m1", "borrow", [identity("BOOK", "b1")])
            is True
        )
        community.occur("MEMBER", "m1", "borrow", [identity("BOOK", "b1")])
        assert (
            community.is_permitted("MEMBER", "m1", "borrow", [identity("BOOK", "b1")])
            is False
        )
        # The probe itself committed nothing and left no tombstone.
        totals = community.merged_export()["totals"]
        assert totals["rollbacks"] == 0

    def test_give_back_round_trip_matches_oracle(self, library_community):
        community = library_community
        community.occur("MEMBER", "m1", "borrow", [identity("BOOK", "b1")])
        community.occur("MEMBER", "m1", "give_back", [identity("BOOK", "b1")])
        oracle = ObjectBase(LENDING_LIBRARY_SPEC)
        oracle.create("MEMBER", {"MName": "m1"})
        oracle.create("BOOK", {"Isbn": "b1"}, "acquire", ["Duden"])
        oracle.occur(("MEMBER", "m1"), "borrow", [identity("BOOK", "b1")])
        oracle.occur(("MEMBER", "m1"), "give_back", [identity("BOOK", "b1")])
        assert community.merged_state() == normalize_state(dump_state(oracle))


# ----------------------------------------------------------------------
# Population quantifiers: one object base vs N shards
# ----------------------------------------------------------------------

#: COUNTER with a permission over the whole population that can turn false
BOUNDED_COUNTER_SPEC = COUNTER_SPEC.replace(
    "{ for all(C: COUNTER : C.Value >= 0) } bump;",
    "{ for all(C: COUNTER : C.Value < 2) } bump;",
)


def _bump_outcomes(bump):
    """"ok" or the error name of bumps on COUNTER 4, 4, then 0."""
    outcomes = []
    for key in (4, 4, 0):
        try:
            bump(key)
            outcomes.append("ok")
        except RuntimeSpecError as error:
            outcomes.append(type(error).__name__)
    return outcomes


def _sync_sharded_outcomes():
    with ShardedCommunity(BOUNDED_COUNTER_SPEC, shards=2) as community:
        for key in (4, 0):
            community.create("COUNTER", {"IdNo": key})
        return _bump_outcomes(lambda key: community.occur("COUNTER", key, "bump"))


def _async_sharded_outcomes():
    import asyncio

    from repro.distributed import AsyncShardedCommunity

    async def main():
        async with AsyncShardedCommunity(BOUNDED_COUNTER_SPEC, shards=2) as community:
            for key in (4, 0):
                await community.create("COUNTER", {"IdNo": key})
            outcomes = []
            for key in (4, 4, 0):
                try:
                    await community.occur("COUNTER", key, "bump")
                    outcomes.append("ok")
                except RuntimeSpecError as error:
                    outcomes.append(type(error).__name__)
            return outcomes

    return asyncio.run(main())


@pytest.mark.xfail(
    strict=True,
    reason="a shard evaluates population quantifiers over its own "
    "instances only (ROADMAP open item 1)",
)
@pytest.mark.parametrize(
    "sharded", [_sync_sharded_outcomes, _async_sharded_outcomes],
    ids=["sync", "async"],
)
def test_population_quantifier_sees_every_shard(sharded):
    """COUNTER(4) lives on shard 0 and COUNTER(0) on shard 1.  After
    two bumps COUNTER(4).Value is 2, so the third bump's permission is
    false -- but only the shard holding COUNTER(4) can see that."""
    assert [shard_of_key(key, 2) for key in (4, 0)] == [0, 1]
    oracle = ObjectBase(BOUNDED_COUNTER_SPEC)
    for key in (4, 0):
        oracle.create("COUNTER", {"IdNo": key})
    expected = _bump_outcomes(lambda key: oracle.occur(("COUNTER", key), "bump"))
    assert expected == ["ok", "ok", "PermissionDenied"]
    assert sharded() == expected


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------

class TestCrashRecovery:
    def test_kill_one_worker_recovers_from_snapshot_plus_journal(self, tmp_path):
        """The acceptance fault-injection scenario: hard-kill one shard
        after a snapshot was spooled, keep operating, and verify the
        restarted worker rebuilt snapshot + journal-suffix state."""
        with ShardedCommunity(
            COUNTER_SPEC,
            shards=2,
            spool_dir=str(tmp_path),
            snapshot_interval=4,
            retries=2,
            backoff=0.01,
        ) as community:
            for index in range(8):
                community.create("COUNTER", {"IdNo": index})
            for op in range(16):
                community.occur("COUNTER", op % 8, "bump")
            community.snapshot_all()
            # A journal suffix *after* the snapshot, so recovery must
            # replay, not just restore.
            for op in range(8):
                community.occur("COUNTER", op % 8, "bump")
            assert (tmp_path / "shard-0" / "snapshot.json").exists()

            community.kill_worker(0)
            # The community keeps serving: the next requests to shard 0
            # detect the crash, respawn, and recover.
            for op in range(8):
                community.occur("COUNTER", op % 8, "bump")
            assert community.restarts == 1
            pings = community.ping_all()
            assert pings[0]["recovered"] is True
            assert pings[1]["recovered"] is False
            for index in range(8):
                assert community.get("COUNTER", index, "Value").payload == 4

            oracle = ObjectBase(COUNTER_SPEC)
            for index in range(8):
                oracle.create("COUNTER", {"IdNo": index})
            for _ in range(4):
                for index in range(8):
                    oracle.occur(("COUNTER", index), "bump")
            assert community.merged_state() == normalize_state(dump_state(oracle))

    def test_kill_all_workers_recovers_everything(self, tmp_path):
        with ShardedCommunity(
            COUNTER_SPEC,
            shards=2,
            spool_dir=str(tmp_path),
            snapshot_interval=4,
            retries=2,
            backoff=0.01,
        ) as community:
            for index in range(6):
                community.create("COUNTER", {"IdNo": index})
            for op in range(12):
                community.occur("COUNTER", op % 6, "bump")
            for shard in range(2):
                community.kill_worker(shard)
            for index in range(6):
                assert community.get("COUNTER", index, "Value").payload == 2
            assert community.restarts == 2
            assert all(p["recovered"] for p in community.ping_all())

    def test_lost_reply_retry_is_applied_exactly_once(self, tmp_path):
        """crash_after_commit applies and spools the inner mutation, then
        dies before replying.  Retrying the same request id against the
        recovered worker is acknowledged as a replay, not re-applied."""
        with ShardedCommunity(
            COUNTER_SPEC,
            shards=1,
            spool_dir=str(tmp_path),
            retries=0,
            backoff=0.01,
        ) as community:
            community.create("COUNTER", {"IdNo": 1})
            inner = {
                "op": "occur",
                "class": "COUNTER",
                "key": 1,
                "event": "bump",
                "args": [],
                "rid": "rid-lost-reply",
            }
            with pytest.raises(ShardUnavailable):
                community._request(0, {"op": "crash_after_commit", "inner": dict(inner)})
            response = community._request(0, dict(inner))
            assert response == {"ok": True, "status": "replayed"}
            assert community.get("COUNTER", 1, "Value").payload == 1

    def test_hung_worker_times_out_and_restarts(self, tmp_path):
        with ShardedCommunity(
            COUNTER_SPEC,
            shards=1,
            spool_dir=str(tmp_path),
            retries=0,
            backoff=0.01,
        ) as community:
            community.create("COUNTER", {"IdNo": 1})
            with pytest.raises(ShardUnavailable, match="WireTimeout"):
                community._request(0, {"op": "hang", "seconds": 30}, timeout=0.2)
            # The timed-out socket was abandoned and the shard respawned;
            # state survived via the spool.
            assert community.restarts == 1
            assert community.get("COUNTER", 1, "Value").payload == 0

    def test_without_spool_restart_loses_state_but_stays_alive(self):
        with ShardedCommunity(
            COUNTER_SPEC, shards=1, retries=1, backoff=0.01
        ) as community:
            community.create("COUNTER", {"IdNo": 1})
            community.kill_worker(0)
            assert community.ping_all()[0]["recovered"] is False
            with pytest.raises(RuntimeSpecError):
                community.get("COUNTER", 1, "Value")  # population is gone

    def test_closed_community_refuses_requests(self):
        community = ShardedCommunity(COUNTER_SPEC, shards=1)
        community.close()
        with pytest.raises(ShardUnavailable):
            community.ping_all()
        community.close()  # idempotent
