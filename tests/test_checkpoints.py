"""Delta checkpoints: a shard worker recovers as base + deltas + journal.

Covers the worker's durability layout (``worker.py``, "Durability &
recovery"):

* crash points injected deterministically from the test side -- a delta
  written but not yet fsynced (kept, lost or torn), a new base renamed
  before the checkpoint log was removed, a torn journal tail -- each on
  memory, paged and sqlite storage and with one or three requests per
  group write, recovered to the single-process oracle's replay of
  exactly the acknowledged requests;
* byte-identity: for every example script and storage backend, a worker
  that checkpoints as deltas, crashes between units and recovers dumps
  byte-identically to a worker that never crashed;
* the checkpoint policy: deltas between bases, compaction once the log
  reaches the base's size, a clean shutdown leaving one base and no log;
* the journal a worker keeps in memory: bisected suffixes, records
  trimmed below the checkpoint, the recovered high-water mark, and
  ``export``'s running counts;
* ``export`` on a paged shard faults nothing in.

Workers run in-process; a "crash" abandons one with its files as they
are -- nothing written back, nothing flushed -- and a new worker over
the same spool and storage recovers, as a respawned process would.
Handling a request only leaves its records pending, as in a served
worker; :func:`settle` then runs the group-commit flusher's cycle.
"""

import contextlib
import io
import json
import os
import runpy

import pytest

from repro.datatypes.values import date, from_python, identity
from repro.diagnostics import TrollError
from repro.distributed import ShardWorker, Spool
from repro.distributed.workload import COUNTER_SPEC
from repro.library import LENDING_LIBRARY_SPEC
from repro.library.specs import PERSON_MANAGER_SPEC
from repro.observability.journal import (
    Journal,
    install_capture,
    uninstall_capture,
)
from repro.runtime import ObjectBase
from repro.runtime.persistence import (
    _payload_to_json,
    dump_incremental,
    dump_json,
    value_to_json,
)

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
EXAMPLES = sorted(
    os.path.join(EXAMPLES_DIR, name)
    for name in os.listdir(EXAMPLES_DIR)
    if name.endswith(".py")
)
BACKENDS = ("memory", "paged", "sqlite")


class Crash(BaseException):
    """A process death at an injected point: not an error any layer of
    the worker handles."""


def worker_config(spec, tmp_path, storage, spool=True, interval=4, name="w"):
    location = {
        "memory": None,
        "paged": f"paged:{tmp_path / (name + '-pages')}",
        "sqlite": f"sqlite:{tmp_path / (name + '.db')}",
    }[storage]
    return {
        "spec": spec,
        "shard_index": 0,
        "shards": 1,
        "spool_dir": str(tmp_path / (name + "-spool")) if spool else None,
        "snapshot_interval": interval,
        "storage": location,
        "hot_set": 8,
    }


def abandon(worker):
    """What a killed worker leaves behind: every file as written, no
    dirty instance written back."""
    if worker.spool is not None:
        worker.spool.close()
    worker.system.store.backend.close()


def settle(worker):
    """End one request with the group-commit flusher's cycle: write what
    went pending, then checkpoint when one is due."""
    worker.flush()
    if worker.checkpoint_due:
        worker.checkpoint()


# ----------------------------------------------------------------------
# A request stream over the lending library, and its oracle
# ----------------------------------------------------------------------


def library_requests():
    """Births, event calling (borrow >> lend), fines, a denial, deaths."""
    requests = []
    for i in range(6):
        requests.append(("create", "MEMBER", {"MName": f"m{i}"}, "join", []))
        requests.append(("create", "BOOK", {"Isbn": f"b{i}"}, "acquire", [f"t{i}"]))
    for round_ in range(4):
        for i in range(6):
            book = identity("BOOK", f"b{(i + round_) % 6}")
            requests.append(("occur", "MEMBER", f"m{i}", "borrow", [book]))
            requests.append(("occur", "MEMBER", f"m{i}", "incur_fine", [i + 1]))
        # b0 is on loan: a denied unit journals a tombstone
        requests.append(("occur", "MEMBER", "m5", "borrow", [identity("BOOK", f"b{round_ % 6}")]))
        for i in range(6):
            book = identity("BOOK", f"b{(i + round_) % 6}")
            requests.append(("occur", "MEMBER", f"m{i}", "give_back", [book]))
            requests.append(("occur", "MEMBER", f"m{i}", "pay_fine", [i + 1]))
    requests.append(("occur", "BOOK", "b5", "discard", []))
    requests.append(("occur", "MEMBER", "m5", "leave", []))
    requests.append(("create", "MEMBER", {"MName": "m6"}, "join", []))
    return requests


def wire(request, rid):
    kind, class_name, target, event, args = request
    encoded = [value_to_json(from_python(a)) for a in args]
    if kind == "create":
        return {
            "op": "create",
            "class": class_name,
            "identification": {
                name: value_to_json(from_python(v)) for name, v in target.items()
            },
            "event": event,
            "args": encoded,
            "rid": rid,
        }
    return {
        "op": "occur",
        "class": class_name,
        "key": target,
        "event": event,
        "args": encoded,
        "rid": rid,
    }


def oracle_state(spec, requests):
    system = ObjectBase(spec)
    for kind, class_name, target, event, args in requests:
        try:
            if kind == "create":
                system.create(class_name, target, event, args)
            else:
                system.occur((class_name, target), event, args)
        except TrollError:
            pass
    return dump_json(system)


# ----------------------------------------------------------------------
# Crash points
# ----------------------------------------------------------------------


class CrashPoint:
    """Where a worker dies, and what its dying write leaves in the file."""

    def __init__(self, name, arm_after, target, leave):
        self.name = name
        #: requests handled before the crash is armed
        self.arm_after = arm_after
        #: "delta": the checkpoint log's fsync; "journal": the journal's
        #: fsync; "base": after a base's rename, before the log's removal
        self.target = target
        #: of the bytes the dying write added: "all", "none", "half" of
        #: its first line (a torn line), or "marker": every line but
        #: half of the last (the last request's record, carrying its rid)
        self.leave = leave

    def __repr__(self):
        return self.name


CRASH_POINTS = [
    CrashPoint("delta-unsynced-kept", 30, "delta", "all"),
    CrashPoint("delta-unsynced-lost", 30, "delta", "none"),
    CrashPoint("delta-torn", 30, "delta", "half"),
    CrashPoint("base-renamed-log-kept", 20, "base", "all"),
    CrashPoint("journal-torn", 40, "journal", "half"),
    CrashPoint("records-kept-marker-torn", 40, "journal", "marker"),
]


@contextlib.contextmanager
def crash_at(point, worker, monkeypatch, fired):
    """Arm ``point`` for one request: raise :class:`Crash` there,
    appending ``(path, size before the dying write)`` to ``fired``."""
    spool = worker.spool
    if point.target == "base":
        original = Spool._remove_checkpoint_log

        def remove(self):
            if self is spool and self.log_bytes:
                fired.append((self.checkpoint_path, None))
                raise Crash()
            original(self)

        monkeypatch.setattr(Spool, "_remove_checkpoint_log", remove)
    else:
        path = spool.checkpoint_path if point.target == "delta" else spool.journal_path
        # one write per request: everything before it was fsynced
        before = os.path.getsize(path) if os.path.exists(path) else 0
        real_fsync = os.fsync

        def fsync(fd):
            if os.path.exists(path) and os.path.samestat(os.fstat(fd), os.stat(path)):
                fired.append((path, before))
                raise Crash()
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
    try:
        yield
    finally:
        monkeypatch.undo()


def tear(path, before, leave):
    """Cut what the dying write added to ``path`` down to ``leave``."""
    with open(path, "rb") as handle:
        handle.seek(before)
        added = handle.read()
    first_line = added.find(b"\n") + 1 or len(added)
    last_line = len(added) - (added.rfind(b"\n", 0, len(added) - 1) + 1)
    keep = {
        "all": len(added),
        "none": 0,
        "half": first_line // 2,
        "marker": len(added) - last_line + last_line // 2,
    }[leave]
    os.truncate(path, before + keep)


@pytest.mark.parametrize("per_write", [1, 3], ids=["sync", "group"])
@pytest.mark.parametrize("storage", BACKENDS)
@pytest.mark.parametrize("point", CRASH_POINTS, ids=repr)
def test_crash_point_recovers_acknowledged_requests(
    point, storage, per_write, tmp_path, monkeypatch
):
    """``per_write`` requests share each group write: one (``sync``, a
    lone client's cadence -- every reply waits for its own fsync) or
    three (``group``, the replies of concurrent clients held back for
    one fsync).  A crash loses the replies of the whole group."""
    requests = library_requests()
    config = worker_config(LENDING_LIBRARY_SPEC, tmp_path, storage)
    worker = ShardWorker(config)
    acked = []
    #: (request id, request) handled but not yet covered by a write
    unanswered = []
    fired = []
    for index, request in enumerate(requests):
        armed = index >= point.arm_after and not fired
        unanswered.append((f"r{index}", request))
        try:
            with (
                crash_at(point, worker, monkeypatch, fired)
                if armed
                else contextlib.nullcontext()
            ):
                worker.handle(wire(request, f"r{index}"))
                if len(unanswered) == per_write or index == len(requests) - 1:
                    settle(worker)
                    acked.extend(request for _rid, request in unanswered)
                    unanswered = []
        except Crash:
            abandon(worker)
            path, before = fired[0]
            if point.target == "base":
                assert os.path.getsize(path), "no deltas left behind the base"
            else:
                tear(path, before, point.leave)
            worker = ShardWorker(config)
            assert worker.recovered
            # exactly the acknowledged requests, plus those in flight
            # whose request ids reached the disk
            applied = {rid for rid, _request in unanswered if rid in worker.applied}
            assert dump_json(worker.system) == oracle_state(
                LENDING_LIBRARY_SPEC,
                acked + [request for rid, request in unanswered if rid in applied],
            )
            # the clients retry the requests they got no answer to
            for rid, request in unanswered:
                reply = worker.handle(wire(request, rid))
                assert (reply.get("status") == "replayed") == (rid in applied)
            settle(worker)
            acked.extend(request for _rid, request in unanswered)
            unanswered = []
    assert fired, f"{point} never fired"
    assert dump_json(worker.system) == oracle_state(LENDING_LIBRARY_SPEC, acked)
    # and it survives one more restart from whatever the crash left
    abandon(worker)
    again = ShardWorker(config)
    assert dump_json(again.system) == oracle_state(LENDING_LIBRARY_SPEC, acked)
    abandon(again)


# ----------------------------------------------------------------------
# Recovery byte-identity over every example script
# ----------------------------------------------------------------------


def _units(records):
    """Each committed unit of a journal as a ``commit_group`` request."""
    for record in records:
        if record.kind != "commit":
            continue
        items = []
        for trigger in record.triggers:
            args = [value_to_json(a) for a in trigger.args]
            if trigger.created:
                items.append({
                    "type": "create",
                    "class": trigger.class_name,
                    "identification": {
                        name: value_to_json(v)
                        for name, v in trigger.identification or ()
                    },
                    "event": trigger.event,
                    "args": args,
                })
            else:
                items.append({
                    "type": "occur",
                    "class": trigger.class_name,
                    "key": _payload_to_json(trigger.key),
                    "event": trigger.event,
                    "args": args,
                })
        yield {"op": "commit_group", "items": items, "rid": f"u{record.seq}"}


def _example_sessions(script):
    capture = install_capture()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(script, run_name="__main__")
    finally:
        uninstall_capture()
    return [
        (system.compiled, list(journal.records))
        for system, journal in capture.genesis_sessions()
    ]


@pytest.mark.parametrize("storage", BACKENDS)
@pytest.mark.parametrize("script", EXAMPLES, ids=os.path.basename)
def test_recovered_worker_dumps_like_one_that_never_crashed(
    script, storage, tmp_path
):
    sessions = _example_sessions(script)
    if not sessions:
        pytest.skip("example animates no ObjectBase (core-framework demo)")
    for number, (compiled, records) in enumerate(sessions):
        steady = ShardWorker(
            worker_config(compiled, tmp_path, storage, spool=False, name=f"s{number}")
        )
        config = worker_config(
            compiled, tmp_path, storage, interval=2, name=f"c{number}"
        )
        crashing = ShardWorker(config)
        units = list(_units(records))
        # about eight crashes a session, each after a different unit
        every = max(3, len(units) // 8)
        for count, request in enumerate(units, 1):
            for worker in (steady, crashing):
                reply = worker.handle(dict(request))
                settle(worker)
                assert reply["ok"], reply
            if count % every == 0:
                abandon(crashing)
                crashing = ShardWorker(config)
                assert dump_json(crashing.system) == dump_json(steady.system)
        abandon(crashing)
        crashing = ShardWorker(config)
        assert dump_json(crashing.system) == dump_json(steady.system)
        abandon(crashing)
        abandon(steady)


# ----------------------------------------------------------------------
# The checkpoint policy
# ----------------------------------------------------------------------


def _counter_worker(tmp_path, counters=16):
    worker = ShardWorker(worker_config(COUNTER_SPEC, tmp_path, "memory"))
    for key in range(counters):
        worker.handle({"op": "create", "class": "COUNTER",
                       "identification": {"IdNo": value_to_json(from_python(key))}})
        settle(worker)
    return worker


def _bump(worker, key):
    reply = worker.handle({"op": "occur", "class": "COUNTER", "key": key, "event": "bump"})
    settle(worker)
    assert reply["ok"], reply


def _checkpoint_lines(spool):
    if not os.path.exists(spool.checkpoint_path):
        return []
    with open(spool.checkpoint_path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def test_deltas_carry_only_what_changed_and_compact_at_base_size(tmp_path):
    worker = _counter_worker(tmp_path)
    spool = worker.spool
    assert spool.base_bytes and worker.checkpoint_seq == 16
    for _ in range(4):
        _bump(worker, 3)
    # one delta: the one counter those four records touched
    (delta,) = _checkpoint_lines(spool)
    assert delta["journal_seq"] == 20
    assert [r["key"] for r in delta["delta"]["instances"]] == [3]
    assert delta["delta"]["class_objects"] == {}
    assert spool.log_bytes == os.path.getsize(spool.checkpoint_path)
    # the log grows until it reaches the base's size; the checkpoint
    # after that is a new base, and the log is gone
    while spool.log_bytes < spool.base_bytes:
        for key in range(4):
            _bump(worker, key)
    base_before = spool.base_bytes
    for key in range(4):
        _bump(worker, key)
    assert not os.path.exists(spool.checkpoint_path)
    assert spool.log_bytes == 0 and spool.base_bytes > base_before
    assert spool.read_snapshot()["journal_seq"] == worker.checkpoint_seq
    abandon(worker)


def test_deltas_no_newer_than_the_base_are_skipped(tmp_path, monkeypatch):
    """A crash between a base's rename and the log's removal leaves the
    deltas the base covers in the log, and later deltas land after them:
    only the later ones may be laid over the base."""
    requests = library_requests()
    config = worker_config(LENDING_LIBRARY_SPEC, tmp_path, "memory")
    worker = ShardWorker(config)
    acked = []

    def send(request):
        worker.handle(wire(request, f"r{len(acked)}"))
        settle(worker)
        acked.append(request)

    while len(_checkpoint_lines(worker.spool)) != 1:
        send(requests[len(acked)])
    (stale,) = _checkpoint_lines(worker.spool)
    # a change the base holds, to an instance the stale delta lacks
    in_delta = {r["key"] for r in stale["delta"]["instances"]}
    member = next(f"m{i}" for i in range(6) if f"m{i}" not in in_delta)
    send(("occur", "MEMBER", member, "incur_fine", [7]))

    def crash(self):
        raise Crash()

    monkeypatch.setattr(Spool, "_remove_checkpoint_log", crash)
    with pytest.raises(Crash):
        worker.handle({"op": "snapshot"})
    monkeypatch.undo()
    abandon(worker)
    worker = ShardWorker(config)
    assert dump_json(worker.system) == oracle_state(LENDING_LIBRARY_SPEC, acked)
    rest = iter(requests[len(acked) - 1:])  # acked holds one extra request
    while len(_checkpoint_lines(worker.spool)) < 2:
        send(next(rest))
    assert _checkpoint_lines(worker.spool)[0] == stale
    abandon(worker)
    recovered = ShardWorker(config)
    assert dump_json(recovered.system) == oracle_state(LENDING_LIBRARY_SPEC, acked)
    abandon(recovered)


def test_a_failed_checkpoint_keeps_its_changes_for_the_next(tmp_path, monkeypatch):
    worker = _counter_worker(tmp_path)
    worker.handle({"op": "snapshot"})
    for _ in range(4):
        _bump(worker, 2)
    real_fsync = os.fsync

    def full_disk(fd):
        if os.path.samestat(os.fstat(fd), os.stat(worker.spool.checkpoint_path)):
            raise OSError(28, "No space left on device")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", full_disk)
    with pytest.raises(OSError):
        for _ in range(4):
            _bump(worker, 5)
    monkeypatch.undo()
    # the failed line never landed
    os.truncate(worker.spool.checkpoint_path, worker.spool.log_bytes)
    for _ in range(4):
        _bump(worker, 7)
    keys = [r["key"] for r in _checkpoint_lines(worker.spool)[-1]["delta"]["instances"]]
    assert keys == [5, 7]
    abandon(worker)
    recovered = ShardWorker(worker.config)
    values = {key: recovered.system.get(("COUNTER", key), "Value").payload for key in (2, 5, 7)}
    assert values == {2: 4, 5: 4, 7: 4}
    abandon(recovered)


def test_births_and_deaths_reach_the_delta(tmp_path):
    worker = ShardWorker(worker_config(LENDING_LIBRARY_SPEC, tmp_path, "memory"))
    requests = library_requests()[:12]
    for index, request in enumerate(requests):
        worker.handle(wire(request, f"r{index}"))
        settle(worker)
    worker.handle({"op": "snapshot"})
    births = [("create", "MEMBER", {"MName": f"n{i}"}, "join", []) for i in range(3)]
    death = ("occur", "BOOK", "b1", "discard", [])
    for index, request in enumerate(births + [death]):
        worker.handle(wire(request, f"x{index}"))
        settle(worker)
    (delta,) = _checkpoint_lines(worker.spool)
    members = delta["delta"]["class_objects"]
    assert [m["key"] for m, present in members["MEMBER"]] == ["n0", "n1", "n2"]
    assert all(present for _m, present in members["MEMBER"])
    assert [(m["key"], present) for m, present in members["BOOK"]] == [("b1", False)]
    abandon(worker)
    recovered = ShardWorker(worker_config(LENDING_LIBRARY_SPEC, tmp_path, "memory"))
    assert dump_json(recovered.system) == oracle_state(
        LENDING_LIBRARY_SPEC, requests + births + [death]
    )


def test_clean_shutdown_leaves_journal_and_one_base(tmp_path):
    worker = _counter_worker(tmp_path)
    for key in range(6):
        _bump(worker, key)
    assert _checkpoint_lines(worker.spool)
    assert worker.handle({"op": "shutdown"})["status"] == "bye"
    spool = worker.spool
    assert sorted(os.listdir(spool.directory)) == ["journal.jsonl", "snapshot.json"]
    # the base covers everything: a restart replays no journal suffix
    assert spool.read_snapshot()["journal_seq"] == worker.recorder.last_seq == 22
    state = dump_json(worker.system)
    abandon(worker)
    restarted = ShardWorker(worker.config)
    assert dump_json(restarted.system) == state
    # a second clean stop with nothing new rewrites nothing
    before = os.stat(spool.snapshot_path).st_mtime_ns
    restarted.handle({"op": "shutdown"})
    assert os.stat(spool.snapshot_path).st_mtime_ns == before
    abandon(restarted)


def test_snapshot_op_writes_a_full_base(tmp_path):
    worker = _counter_worker(tmp_path)
    for key in range(5):
        _bump(worker, key)
    reply = worker.handle({"op": "snapshot"})
    assert reply == {"ok": True, "journal_seq": 21}
    assert not os.path.exists(worker.spool.checkpoint_path)
    assert worker.spool.read_snapshot()["journal_seq"] == 21
    abandon(worker)


def test_paged_delta_dumps_paged_out_instances_without_faulting(tmp_path):
    """The delta of a paged store reads evicted instances' records from
    the backend, like a full dump does, byte-identical to the memory
    backend's records."""
    twins = []
    for storage in ("memory", "paged"):
        system = ObjectBase(
            COUNTER_SPEC,
            storage=None if storage == "memory" else f"paged:{tmp_path / 'pages'}",
            hot_set=8,
        )
        for key in range(40):
            system.create("COUNTER", {"IdNo": key})
        system.take_changes()
        for key in range(0, 40, 3):
            system.occur(("COUNTER", key), "bump")
        # unpin what the occurrence log holds, so evicted instances go
        system.journal.clear()
        faults = system.store.stats.faults
        delta = dump_incremental(system, system.take_changes())
        assert system.store.stats.faults == faults
        twins.append(json.dumps(delta, sort_keys=True))
    assert twins[0] == twins[1]
    assert system.store.resident_count() < 40


@pytest.mark.parametrize("txn_compile", [True, False], ids=["fused", "generic"])
def test_every_commit_path_notes_its_changes(txn_compile):
    system = ObjectBase(LENDING_LIBRARY_SPEC, txn_compile=txn_compile)
    system.create("MEMBER", {"MName": "m0"}, "join")
    system.create("BOOK", {"Isbn": "b0"}, "acquire", ["t"])
    assert system.changes is None
    system.take_changes()
    system.occur(("MEMBER", "m0"), "incur_fine", [2])
    assert list(system.take_changes().keys) == [("MEMBER", "m0")]
    system.occur(("MEMBER", "m0"), "borrow", [identity("BOOK", "b0")])
    system.create("MEMBER", {"MName": "m1"}, "join")
    changes = system.take_changes()
    assert list(changes.keys) == [("MEMBER", "m0"), ("BOOK", "b0"), ("MEMBER", "m1")]
    assert changes.members == {"MEMBER": {identity("MEMBER", "m1"): True}}
    assert not system.take_changes().keys


def test_a_role_writing_its_base_notes_the_base():
    """MANAGER.get_car writes Salary, which PERSON stores."""
    spec = PERSON_MANAGER_SPEC.replace(
        "      get_car(C) OfficialCar = C;\n",
        "      get_car(C) OfficialCar = C;\n      get_car(C) Salary = 9000;\n",
    )
    system = ObjectBase(spec)
    person = system.create(
        "PERSON", {"Name": "ann", "BirthDate": date(1960, 1, 1)}, "hire_into", ["R", 6000]
    )
    system.occur(person, "become_manager")
    system.take_changes()
    system.occur(("MANAGER", person.key), "get_car", [identity("CAR", "c1")])
    assert list(system.take_changes().keys) == [
        ("MANAGER", person.key), ("PERSON", person.key)
    ]


# ----------------------------------------------------------------------
# The journal a worker keeps in memory, and what export reports
# ----------------------------------------------------------------------


def test_records_since_bisects_and_trim_keeps_the_suffix():
    journal = Journal()
    system = ObjectBase(COUNTER_SPEC, journal=journal)
    for key in range(10):
        system.create("COUNTER", {"IdNo": key})
    for seq in range(-1, 12):
        assert journal.records_since(seq) == [r for r in journal.records if r.seq > seq]
    journal.trim(6)
    assert [r.seq for r in journal.records] == [7, 8, 9, 10]
    assert journal.records_since(3) == journal.records
    assert journal.records_since(8) == journal.records[2:]
    assert journal.last_seq == 10
    journal.trim(10)
    assert journal.records == [] and journal.last_seq == 10
    system.create("COUNTER", {"IdNo": 10})
    assert [r.seq for r in journal.records] == [11]


def test_recovered_worker_resumes_at_the_spooled_high_water_mark(tmp_path):
    worker = _counter_worker(tmp_path, counters=6)
    for key in range(3):
        _bump(worker, key)
    spooled = worker.spool.read_journal().last_seq
    assert spooled == 9
    abandon(worker)
    recovered = ShardWorker(worker.config)
    assert recovered.recorder.last_seq == spooled
    abandon(recovered)


def test_export_counts_run_on_past_the_trimmed_journal(tmp_path):
    worker = _counter_worker(tmp_path, counters=10)
    for key in range(7):
        _bump(worker, key)
    denied = worker.handle({"op": "occur", "class": "COUNTER", "key": 99, "event": "bump"})
    settle(worker)
    assert not denied["ok"]
    export = worker.handle({"op": "export"})
    assert len(worker.recorder.records) < 17
    assert (export["commits"], export["rollbacks"], export["journal_depth"]) == (17, 0, 17)
    abandon(worker)


@pytest.mark.parametrize("storage", ["paged", "sqlite"])
def test_export_on_a_paged_shard_faults_nothing_in(storage, tmp_path):
    exports = []
    for backend in ("memory", storage):
        worker = ShardWorker(worker_config(LENDING_LIBRARY_SPEC, tmp_path, backend, name=backend))
        for i in range(24):
            worker.handle(wire(("create", "MEMBER", {"MName": f"m{i}"}, "join", []), None))
            settle(worker)
            worker.handle(wire(("create", "BOOK", {"Isbn": f"b{i}"}, "acquire", ["t"]), None))
            settle(worker)
        worker.handle(wire(("occur", "BOOK", "b3", "discard", []), None))
        settle(worker)
        worker.handle({"op": "snapshot"})  # the journal holds no instance now
        # unpin what the occurrence log holds, so evicted instances go
        worker.system.journal.clear()
        if backend != "memory":
            assert worker.system.store.resident_count() < 48
        faults = worker.system.store.stats.faults
        exports.append(worker.handle({"op": "export"})["live_instances"])
        assert worker.system.store.stats.faults == faults
        abandon(worker)
    assert exports[0] == exports[1] == {"BOOK": 23, "MEMBER": 24}
