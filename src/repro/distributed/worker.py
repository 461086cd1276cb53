"""The shard worker: one process hosting one shard of the community.

A worker owns a :class:`ShardObjectBase` (with its own event journal
and probe cache) and serves the society-interface-shaped wire protocol
over a single socket: ``occur``, ``create``, ``get``, ``is_permitted``,
``step``, ``export``, ``dump``, the two-phase ops ``prepare_group`` /
``commit_group`` / ``abort_group``, and management ops (``ping``,
``snapshot``, ``shutdown``, fault-injection hooks for tests).  Frames
carry a ``mid`` (message id), so many requests can be in flight on the
socket at once; :func:`async_worker_serve` runs the handlers one at a
time on an event loop.

**Group commit.**  A handler applies its unit at once but leaves the
journal records (and the request id) pending; the server withholds the
reply until one shared write -- :meth:`ShardWorker.flush`, one fsync --
covers everything that went pending while the previous write was on
disk.  Durability cost is amortized across every concurrently pending
request instead of paid once per mutation.

**Durability & recovery.**  With a spool directory configured, every
committed (or tombstoned) unit is appended to ``journal.jsonl`` before
its reply leaves the worker; the journal is never truncated.  Every
``snapshot_interval`` flushed records the worker checkpoints
(:meth:`ShardWorker.checkpoint`): it appends a *delta* -- the records
of the instances committed units touched since the last checkpoint --
to ``checkpoints.jsonl``, or, once that log has grown to the size of
the full *base* it extends, rewrites the base ``snapshot.json``
atomically and empties the log.  A restarted worker rebuilds its state
as *base + newer deltas + journal suffix replay* (:func:`apply_deltas`,
:func:`restore_state`, :func:`replay_records`), the paper's "state is
the life cycle so far" semantics put to work.  Mutating requests carry
a request id, written into the journal on the last record line its unit
earned (or, for a request that earned none, as a ``{"rid": ...}`` marker
line), so a request retried across a crash is detected and acknowledged
instead of applied twice.

**Cross-shard units.**  Shard-local events (statically known never to
call across the boundary) run the unmodified fast path.  Remote-capable
events are first dry-run in capture mode: if the captured remote-call
set is empty they commit locally, otherwise the worker answers
``needs_2pc`` and the coordinator drives prepare/commit over every
participating shard.

**Telemetry.**  With ``observe`` configured the worker keeps a local
metrics registry (request latency per op, fsync latency, the animator's
own counters); with ``trace`` it additionally opens one ``shard.<op>``
span per request frame -- the animator's ``sync_set``/``occurrence``
spans nest inside it -- and ships every completed root span back on the
response frame (bounded by :func:`~repro.distributed.wire.bounded_span_batch`;
truncation bumps ``spans_dropped``, never breaks the frame).  Spans
completed outside a request (recovery replay after a respawn) ride the
next response.  With neither flag the worker exchanges byte-identical
happy-path frames with the pre-tracing protocol.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import socket
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.datatypes.compile import STATS as TERM_STATS
from repro.diagnostics import (
    CheckError,
    ConstraintViolation,
    EvaluationError,
    LifecycleError,
    OccurrenceRef,
    PermissionDenied,
    RuntimeSpecError,
    TrollError,
)
from repro.distributed.shardbase import RemoteCall, ShardObjectBase
from repro.storage.base import storage_for_shard
from repro.distributed.wire import (
    MAX_SPAN_BATCH,
    WireClosed,
    WireError,
    async_recv_frame,
    bounded_span_batch,
    encode_frame,
)
from repro.observability.distributed import SpanCollectorSink, TraceContext
from repro.observability.hooks import Observability
from repro.observability.profile import (
    MAX_PROFILE_DUMP,
    Profiler,
    bounded_profile_dump,
)
from repro.observability.tracer import span_to_dict
from repro.observability.journal import (
    Journal,
    TriggerRecord,
    record_from_json,
    record_to_json,
    replay_records,
)
from repro.runtime.objectbase import ChangeSet, _Transaction
from repro.runtime.persistence import (
    _payload_from_json,
    _payload_to_json,
    apply_deltas,
    dump_incremental,
    dump_state,
    restore_state,
    value_from_json,
    value_to_json,
)

#: reason name -> exception class, for re-raising peer denials with the
#: right type on abort tombstones and at the coordinator
ERROR_CLASSES = {
    "PermissionDenied": PermissionDenied,
    "ConstraintViolation": ConstraintViolation,
    "LifecycleError": LifecycleError,
    "EvaluationError": EvaluationError,
    "CheckError": CheckError,
    "RuntimeSpecError": RuntimeSpecError,
}


def error_class(reason: str):
    return ERROR_CLASSES.get(reason, RuntimeSpecError)


def occurrence_to_wire(ref: OccurrenceRef) -> Dict[str, Any]:
    """The failing occurrence of an error, wire-encoded for the
    coordinator to restore on re-raise (the ``failed_ref`` field)."""
    try:
        key = _payload_to_json(ref.key)
    except Exception:
        key = str(ref.key)
    return {"class": ref.class_name, "event": ref.event, "key": key}


def occurrence_from_wire(data: Dict[str, Any]) -> OccurrenceRef:
    key = data.get("key")
    try:
        key = _payload_from_json(key)
    except Exception:
        pass
    return OccurrenceRef(
        class_name=data.get("class", "?"), event=data.get("event"), key=key
    )


def calls_to_wire(calls) -> List[Dict[str, Any]]:
    return [
        {
            "class": call.class_name,
            "key": _payload_to_json(call.key),
            "event": call.event,
            "args": [value_to_json(a) for a in call.args],
        }
        for call in calls
    ]


def calls_from_wire(data) -> List[RemoteCall]:
    return [
        RemoteCall(
            class_name=item["class"],
            key=_payload_from_json(item["key"]),
            event=item["event"],
            args=tuple(value_from_json(a) for a in item["args"]),
        )
        for item in data
    ]


def fsync_directory(path: str) -> None:
    """Make a just-renamed directory entry itself durable.

    ``os.replace`` orders the rename against the *file's* data (already
    fsynced), but the rename lives in the directory: until the directory
    inode reaches disk, a crash can forget the new ``snapshot.json`` and
    bring the previous base back.  The journal is never truncated, so
    recovery would still reach the same state from that older base, but
    only by replaying everything since it; the fsync keeps recovery
    bounded by what the latest base covers."""
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:  # pragma: no cover - platforms without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _file_size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _read_lines(path: str) -> List[Dict[str, Any]]:
    """The parsed lines of a spool log.  A crash mid-append can leave
    a torn last line -- by construction unacknowledged, since its fsync
    never returned -- so that line is dropped *and cut off the file*,
    and the next append starts on a line of its own.  A torn line
    anywhere else is real corruption and still raises."""
    if not os.path.exists(path):
        return []
    with open(path, "rb") as handle:
        data = handle.read()
    lines = data.split(b"\n")
    # lines[-1] follows the last newline: empty, or a line whose write
    # never finished
    keep = len(data) - len(lines[-1])
    parsed: List[Dict[str, Any]] = []
    for index, line in enumerate(lines[:-1]):
        if not line.strip():
            continue
        try:
            parsed.append(json.loads(line))
        except ValueError:
            if index < len(lines) - 2:
                raise
            keep -= len(line) + 1
    if keep < len(data):
        os.truncate(path, keep)
    return parsed


class Spool:
    """Crash-durable per-shard storage: the journal (carrying the
    applied request ids) and the checkpoints.

    Checkpoints come in two shapes: ``snapshot.json``, the *base*, a
    full dump replaced atomically, and ``checkpoints.jsonl``, the
    *checkpoint log*, one delta line per checkpoint since that base.
    ``base_bytes`` and ``log_bytes`` are their sizes, from which the
    worker decides when to compact.

    Append handles stay open across appends: the group-commit flusher
    fsyncs the same file hundreds of times a second."""

    def __init__(self, directory: str, shard_index: int):
        self.directory = os.path.join(directory, f"shard-{shard_index}")
        os.makedirs(self.directory, exist_ok=True)
        self.journal_path = os.path.join(self.directory, "journal.jsonl")
        self.snapshot_path = os.path.join(self.directory, "snapshot.json")
        self.checkpoint_path = os.path.join(self.directory, "checkpoints.jsonl")
        self._journal_file = None
        self._checkpoint_file = None
        self.base_bytes = _file_size(self.snapshot_path)
        self.log_bytes = _file_size(self.checkpoint_path)

    def _journal_handle(self):
        if self._journal_file is None:
            self._journal_file = open(self.journal_path, "a", encoding="utf-8")
        return self._journal_file

    def close(self) -> None:
        for handle in (self._journal_file, self._checkpoint_file):
            if handle is not None:
                try:
                    handle.close()
                except OSError:  # pragma: no cover - defensive
                    pass
        self._journal_file = None
        self._checkpoint_file = None

    def append_group(self, records, rids, carried=None) -> None:
        """One group-commit write: the whole journal suffix and every
        applied rid land in the journal with a single fsync, however
        many requests the batch covers.  ``carried`` maps the seq of a
        request's last record to its rid, which that record's line
        carries, so no torn tail can keep a unit and lose its id;
        ``rids`` are the requests that earned no record, each written
        as a ``{"rid": ...}`` marker line."""
        if not records and not rids:
            return
        carried = carried or {}
        lines = []
        for record in records:
            data = record_to_json(record)
            rid = carried.get(record.seq)
            if rid is not None:
                data["rid"] = rid
            lines.append(json.dumps(data) + "\n")
        lines.extend(json.dumps({"rid": rid}) + "\n" for rid in rids)
        handle = self._journal_handle()
        handle.write("".join(lines))
        handle.flush()
        os.fsync(handle.fileno())

    def read_journal(self) -> Optional[Journal]:
        """The spooled journal, or None before the first write.  The one
        writer appends in sequence order, so file order is seq order."""
        if not os.path.exists(self.journal_path):
            return None
        journal = Journal()
        for data in _read_lines(self.journal_path):
            if "seq" not in data:
                continue  # rid marker
            record = record_from_json(data)
            journal.records.append(record)
            journal._seq = max(journal._seq, record.seq)
        return journal

    def write_snapshot(self, data: Dict[str, Any]) -> None:
        self.write_snapshot_text(json.dumps(data))

    def write_snapshot_text(self, text: str, delta: bool = False) -> None:
        """Write one checkpoint.  A delta is appended to the checkpoint
        log as one line under one fsync.  A base replaces
        ``snapshot.json`` atomically -- tmp write + fsync, rename, then
        fsync the *directory* so the rename itself survives a crash --
        and then removes the checkpoint log, whose deltas it covers.  A
        crash between the two leaves deltas no newer than the base,
        which recovery skips; losing the log, or any suffix of it, only
        lengthens the journal replay, so it needs no directory fsync."""
        if delta:
            if self._checkpoint_file is None:
                self._checkpoint_file = open(
                    self.checkpoint_path, "a", encoding="utf-8"
                )
            handle = self._checkpoint_file
            handle.write(text + "\n")
            handle.flush()
            os.fsync(handle.fileno())
            self.log_bytes += len(text) + 1
            return
        tmp = self.snapshot_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.snapshot_path)
        fsync_directory(self.directory)
        self.base_bytes = len(text)
        self._remove_checkpoint_log()

    def _remove_checkpoint_log(self) -> None:
        if self._checkpoint_file is not None:
            self._checkpoint_file.close()
            self._checkpoint_file = None
        if os.path.exists(self.checkpoint_path):
            os.remove(self.checkpoint_path)
        self.log_bytes = 0

    def read_snapshot(self) -> Optional[Dict[str, Any]]:
        if not os.path.exists(self.snapshot_path):
            return None
        with open(self.snapshot_path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def read_checkpoints(self) -> List[Dict[str, Any]]:
        """The checkpoint log's deltas, oldest first."""
        deltas = _read_lines(self.checkpoint_path)
        self.log_bytes = _file_size(self.checkpoint_path)
        return deltas

    def read_applied(self) -> set:
        """The applied-request set: every rid in the journal, on a
        record line or a marker line."""
        return {
            data["rid"] for data in _read_lines(self.journal_path) if "rid" in data
        }


class ShardWorker:
    """The request handler living inside one shard process."""

    MUTATING_OPS = frozenset({"occur", "create", "commit_group", "step"})

    def __init__(self, config: Dict[str, Any]):
        self.config = config
        self.shard_index: int = config["shard_index"]
        self.recorder = Journal()
        self.collector: Optional[SpanCollectorSink] = None
        if config.get("trace"):
            self.collector = SpanCollectorSink()
            # attr_metrics off: fleet telemetry has no per-attribute-read
            # gauge, and the hook scales with population (docs/
            # OBSERVABILITY.md, "What the servers count")
            self.obs: Optional[Observability] = Observability(
                tracing=True, sinks=[self.collector], attr_metrics=False
            )
        elif config.get("observe") or config.get("profile"):
            self.obs = Observability(tracing=False, attr_metrics=False)
        else:
            self.obs = None
        #: the spec-level profiler: profiled shards drain bounded
        #: profile dumps onto response frames (like span batches)
        self.prof = None
        if config.get("profile") and self.obs is not None:
            self.prof = self.obs.attach_profiler(
                Profiler(
                    mode=config["profile"],
                    interval=config.get("profile_interval", 16),
                )
            )
        self.span_batch_limit: int = (
            config.get("span_batch_limit") or MAX_SPAN_BATCH
        )
        self.in_flight = 0
        self.spans_dropped = 0
        self.profile_pruned = 0
        self.profile_limit: int = (
            config.get("profile_limit") or MAX_PROFILE_DUMP
        )
        #: interned "op:<name>" profile-root names
        self._op_names: Dict[str, str] = {}
        self.system = ShardObjectBase(
            config["spec"],
            shard_index=self.shard_index,
            shards=config["shards"],
            placement=config.get("placement"),
            permission_mode=config.get("permission_mode", "incremental"),
            check_constraints=config.get("check_constraints", True),
            probe_cache=config.get("probe_cache", True),
            journal=self.recorder,
            observability=self.obs,
            # path-bearing backends get a per-shard suffix so workers
            # never contend on one page file / database
            storage=storage_for_shard(config.get("storage"), self.shard_index),
            hot_set=config.get("hot_set"),
            txn_compile=config.get("txn_compile"),
        )
        spool_dir = config.get("spool_dir")
        self.spool = Spool(spool_dir, self.shard_index) if spool_dir else None
        if self.spool is not None:
            # delta checkpoints carry what committed units changed
            self.system.changes = ChangeSet()
        self.snapshot_interval: int = config.get("snapshot_interval", 64)
        self.flushed_seq = 0
        #: the journal sequence number the last checkpoint covers
        self.checkpoint_seq = 0
        self.applied: set = set()
        self.requests = 0
        self.recovered = False
        #: whether the request just handled left records or a rid for
        #: the next :meth:`flush` (its reply waits for that fsync)
        self._durability_pending = False
        #: rids of handled requests that earned no journal record
        self._pending_rids: List[str] = []
        #: seq of a handled request's last record -> the request's rid
        self._carried_rids: Dict[int, str] = {}
        #: the journal's last seq when the last request was deferred
        self._deferred_seq = 0
        self.group_commits = 0
        self.group_records = 0
        self._recover()

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild state from the spool: base + newer deltas + journal
        suffix.

        When tracing, the replay runs inside a ``shard.recovery_replay``
        root span; having no live request to ride on, it waits in the
        collector and ships with the next response frame."""
        if self.obs is not None and self.obs.tracing:
            with self.obs.tracer.span(
                "shard.recovery_replay", shard=self.shard_index
            ) as span:
                self._recover_core()
                span.set("recovered", self.recovered)
            if not self.recovered and self.collector is not None:
                # Nothing was replayed: drop the trivial span instead of
                # shipping noise with the first response.
                self.collector.drain()
        else:
            self._recover_core()

    def _recover_core(self) -> None:
        if self.spool is None:
            return
        disk = self.spool.read_journal()
        base = self.spool.read_snapshot()
        deltas = self.spool.read_checkpoints()
        if disk is None and base is None:
            return
        recorder, self.system.recorder = self.system.recorder, None
        self.system.capture_remote = True
        try:
            since = 0
            if base is not None:
                since = base.get("journal_seq") or 0
                # a crash after a base's rename but before the log was
                # removed leaves deltas the base already covers
                newer = [d for d in deltas if d["journal_seq"] > since]
                snapshot = base["snapshot"]
                if newer:
                    snapshot = apply_deltas(snapshot, [d["delta"] for d in newer])
                    since = newer[-1]["journal_seq"]
                restore_state(self.system, snapshot)
            if disk is not None:
                # replayed units are noted as changes: the next
                # checkpoint must carry them
                replay_records(self.system, disk.records_since(since))
            self.checkpoint_seq = since
        finally:
            self.system.capture_remote = False
            self.system.remote_calls = []
            self.system.recorder = recorder
        if disk is not None:
            self.recorder._seq = disk.last_seq
            self.flushed_seq = disk.last_seq
        self.applied = self.spool.read_applied()
        self.recovered = True

    def _defer(self, rid: Optional[str] = None) -> None:
        """Leave the unit just handled -- its journal records and its
        request id -- for the next :meth:`flush`; the server withholds
        the reply until that fsync covers it.  Records the journal
        gained since the previous deferral are this request's, and its
        rid rides on the last of them.  The in-memory applied set
        is updated at once: a retried rid can only reach a *live* worker
        after a teardown, and after a crash the recovered set comes from
        disk."""
        if rid:
            self.applied.add(rid)
        if self.spool is None:
            return
        last = self.recorder.last_seq
        if rid:
            if last > max(self._deferred_seq, self.flushed_seq):
                self._carried_rids[last] = rid
            else:
                self._pending_rids.append(rid)
        self._deferred_seq = last
        if rid or last > self.flushed_seq:
            self._durability_pending = True

    def take_durability(self) -> bool:
        """Whether the request just handled left work for the next
        flush (the server withholds its reply until that fsync lands)."""
        pending = self._durability_pending
        self._durability_pending = False
        return pending

    def flush(self) -> bool:
        """Write everything that went pending since the last flush --
        the journal suffix and the rids its units earned -- with one
        fsync; returns whether there was anything to write.  The
        group-commit flusher calls it once per cycle; the snapshot,
        shutdown and crash hooks call it directly."""
        if self.spool is None:
            return False
        records = self.recorder.records_since(self.flushed_seq)
        if not records and not self._pending_rids:
            return False
        rids, self._pending_rids = self._pending_rids, []
        carried, self._carried_rids = self._carried_rids, {}
        start = time.perf_counter()
        self.spool.append_group(records, rids, carried)
        self.flushed_seq = self.recorder.last_seq
        self.group_commits += 1
        self.group_records += len(records)
        if self.obs is not None:
            self.obs.metrics.histogram("phase.fsync").observe(
                time.perf_counter() - start
            )
        return True

    @property
    def checkpoint_due(self) -> bool:
        """Whether ``snapshot_interval`` records were flushed since the
        last checkpoint."""
        return self.flushed_seq - self.checkpoint_seq >= self.snapshot_interval

    def checkpoint(self, full: bool = False) -> None:
        """Persist the state the flushed journal reaches, at a point
        where that state holds nothing unflushed: a delta of the
        instances changed since the last checkpoint or, when ``full`` or
        once the checkpoint log has grown to the size of the base it
        extends, a new full base.  The in-memory journal then drops the
        records the checkpoint covers: the spool keeps them."""
        spool = self.spool
        full = full or spool.log_bytes >= spool.base_bytes
        changes = self.system.take_changes()
        data = dump_incremental(self.system, None if full else changes)
        try:
            spool.write_snapshot_text(json.dumps(data), not full)
        except OSError:
            # nothing new is known to be durable: the next checkpoint
            # must carry these changes as well
            self.system.changes = changes
            raise
        self.checkpoint_seq = data["journal_seq"]
        self.recorder.trim(self.checkpoint_seq)

    # ------------------------------------------------------------------
    # Item resolution (the shared 2PC item shape)
    # ------------------------------------------------------------------

    def _decode_args(self, data) -> Tuple[Any, ...]:
        return tuple(value_from_json(a) for a in (data or []))

    def _dry_items(self, items: List[Dict[str, Any]]):
        """Run the items as one capture-mode dry transaction (always
        rolled back).  Returns (ok, error, remote_calls).  Like a probe
        it is an atomic unit: mid-unit, population queries must read
        live life-cycle flags, not the epoch-keyed caches."""
        system = self.system
        system.remote_calls = []
        system.capture_remote = True
        registered = []
        system._in_unit += 1
        txn = _Transaction(system)
        error: Optional[TrollError] = None
        try:
            for item in items:
                if item["type"] == "create":
                    compiled = system.compiled_class(item["class"])
                    identification = {
                        name: value_from_json(v)
                        for name, v in (item.get("identification") or {}).items()
                    }
                    instance = system._register(compiled, identification)
                    registered.append(instance)
                    birth = system._birth_event(compiled, item.get("event"))
                    system._process(
                        txn, instance, birth.name, self._decode_args(item.get("args"))
                    )
                else:
                    instance = system.instance(
                        item["class"], _payload_from_json(item["key"])
                    )
                    system._process(
                        txn, instance, item["event"], self._decode_args(item.get("args"))
                    )
            system._check_static_constraints(txn)
        except RuntimeSpecError as exc:
            error = exc
        finally:
            txn.rollback()
            for instance in registered:
                bucket = system.instances.get(instance.class_name, {})
                if bucket.get(instance.key) is instance:
                    system._unregister(instance)
            system.capture_remote = False
            system._in_unit -= 1
            system._balance_store()
        remote = list(system.remote_calls)
        system.remote_calls = []
        return error is None, error, remote

    def _apply_items(self, items: List[Dict[str, Any]]) -> int:
        """Apply the items as one atomic local unit with remote capture
        on (the commit phase of a distributed synchronization set, or a
        shard-local unit already known to capture nothing)."""
        system = self.system
        system.remote_calls = []
        system.capture_remote = True
        registered = []
        run_items = []
        try:
            for item in items:
                if item["type"] == "create":
                    compiled = system.compiled_class(item["class"])
                    identification = {
                        name: value_from_json(v)
                        for name, v in (item.get("identification") or {}).items()
                    }
                    instance = system._register(compiled, identification)
                    registered.append(instance)
                    birth = system._birth_event(compiled, item.get("event"))
                    run_items.append(
                        (instance, birth.name, self._decode_args(item.get("args")))
                    )
                else:
                    run_items.append(
                        (
                            system.instance(
                                item["class"], _payload_from_json(item["key"])
                            ),
                            item["event"],
                            self._decode_args(item.get("args")),
                        )
                    )
            system._run_unit(run_items)
        except Exception:
            for instance in registered:
                if not instance.born:
                    system._unregister(instance)
            raise
        finally:
            system.capture_remote = False
            system.remote_calls = []
        return len(run_items)

    def _triggers_for(self, items: List[Dict[str, Any]]) -> Tuple[TriggerRecord, ...]:
        """Trigger records for an abort tombstone (no registration
        needed: creation items synthesize their record directly)."""
        triggers = []
        for item in items:
            if item["type"] == "create":
                compiled = self.system.compiled_class(item["class"])
                identification = {
                    name: value_from_json(v)
                    for name, v in (item.get("identification") or {}).items()
                }
                try:
                    payload = self.system.partitioner.identity_payload(
                        compiled, {k: v for k, v in identification.items()}
                    )
                except TrollError:
                    payload = None
                event = item.get("event")
                if event is None:
                    births = compiled.info.birth_events()
                    event = births[0].name if len(births) == 1 else "?"
                triggers.append(
                    TriggerRecord(
                        class_name=item["class"],
                        key=payload,
                        event=event,
                        args=self._decode_args(item.get("args")),
                        created=True,
                        identification=tuple(identification.items()) or None,
                    )
                )
            else:
                triggers.append(
                    TriggerRecord(
                        class_name=item["class"],
                        key=_payload_from_json(item["key"]),
                        event=item["event"],
                        args=self._decode_args(item.get("args")),
                    )
                )
        return tuple(triggers)

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        obs = self.obs
        if obs is None:
            return self._handle_core(request)
        op = request.get("op")
        self.in_flight += 1
        prof = self.prof
        if prof is not None:
            name = self._op_names.get(op)
            if name is None:
                name = self._op_names[op] = f"op:{op}"
            # one profile root per request: a fleet profile then shows
            # each shard's 2PC phases (op:prepare_group/op:commit_group)
            prof.begin_root(name)
        start = time.perf_counter()
        try:
            if obs.tracing:
                attributes = {"shard": self.shard_index, "op": op}
                context = TraceContext.from_wire(request.get("trace"))
                if context is not None:
                    attributes["tid"] = context.trace_id
                    attributes["parent_sid"] = context.parent_sid
                if request.get("rid"):
                    attributes["rid"] = request["rid"]
                with obs.tracer.span(f"shard.{op}", **attributes) as span:
                    response = self._handle_core(request)
                    if not response.get("ok"):
                        span.status = "error"
                        span.set("error", response.get("error"))
                    elif response.get("status"):
                        span.set("status", response["status"])
            else:
                response = self._handle_core(request)
        finally:
            self.in_flight -= 1
            if prof is not None:
                prof.end_root()
            elapsed = time.perf_counter() - start
            obs.metrics.histogram("request").observe(elapsed)
            obs.metrics.histogram(f"request.{op}").observe(elapsed)
        if obs.tracing and self.collector is not None and len(self.collector):
            batch, dropped = bounded_span_batch(
                [span_to_dict(span) for span in self.collector.drain()],
                self.span_batch_limit,
            )
            if batch:
                response["spans"] = batch
            if dropped:
                self.spans_dropped += dropped
                response["spans_dropped"] = dropped
        if prof is not None:
            dump = prof.drain()
            if dump is not None:
                dump, pruned = bounded_profile_dump(dump, self.profile_limit)
                response["profile"] = dump
                if pruned:
                    self.profile_pruned += pruned
                    response["profile_pruned"] = pruned
        return response

    def _handle_core(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.requests += 1
        op = request.get("op")
        rid = request.get("rid")
        if rid and op in self.MUTATING_OPS and rid in self.applied:
            # At-most-once: the op was applied but the reply was lost
            # (worker crash or timeout); acknowledge, do not re-apply.
            return {"ok": True, "status": "replayed"}
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            return {"ok": False, "error": "WireError", "message": f"unknown op {op!r}"}
        try:
            return handler(request)
        except TrollError as exc:
            self._defer()  # a denied unit may have journaled a tombstone
            failed = getattr(exc, "occurrence", None)
            response = {
                "ok": False,
                "error": type(exc).__name__,
                "message": str(exc),
                "failed": str(failed) if failed is not None else "",
                "shard": self.shard_index,
            }
            if failed is not None:
                response["failed_ref"] = occurrence_to_wire(failed)
            return response

    # -- lookup / probe ops --------------------------------------------

    def _op_ping(self, request):
        return {"ok": True, "shard": self.shard_index, "recovered": self.recovered}

    def _op_get(self, request):
        value = self.system.get(
            (request["class"], _payload_from_json(request["key"])),
            request["attribute"],
            self._decode_args(request.get("args")),
        )
        return {"ok": True, "value": value_to_json(value)}

    def _op_is_permitted(self, request):
        class_name = request["class"]
        event = request["event"]
        instance = self.system.instance(class_name, _payload_from_json(request["key"]))
        args = self._decode_args(request.get("args"))
        if (class_name, event) in self.system.remote_capable:
            ok, error, remote = self._dry_items(
                [
                    {
                        "type": "occur",
                        "class": class_name,
                        "key": request["key"],
                        "event": event,
                        "args": request.get("args") or [],
                    }
                ]
            )
            if ok and remote:
                return {
                    "ok": True,
                    "status": "needs_2pc",
                    "remote": calls_to_wire(remote),
                }
            return {"ok": True, "permitted": ok}
        return {
            "ok": True,
            "permitted": self.system.is_permitted(instance, event, args),
        }

    # -- mutating ops ---------------------------------------------------

    def _op_occur(self, request):
        class_name = request["class"]
        event = request["event"]
        item = {
            "type": "occur",
            "class": class_name,
            "key": request["key"],
            "event": event,
            "args": request.get("args") or [],
        }
        instance = self.system.instance(class_name, _payload_from_json(request["key"]))
        decl = instance.compiled.event(event)
        if decl is not None and decl.hidden:
            raise PermissionDenied(
                f"{class_name}.{event} is hidden; it occurs only through "
                "event calling"
            )
        if (class_name, event) in self.system.remote_capable:
            ok, error, remote = self._dry_items([item])
            if not ok:
                # Journal the denial tombstone for parity with the
                # single-process engine, then report it.
                triggers = self._triggers_for([item])
                self.recorder.record_rollback(triggers, error)
                self._defer()
                raise error
            if remote:
                return {
                    "ok": True,
                    "status": "needs_2pc",
                    "remote": calls_to_wire(remote),
                }
        self._apply_items([item])
        self._defer(request.get("rid"))
        return {"ok": True, "status": "done"}

    def _op_create(self, request):
        class_name = request["class"]
        compiled = self.system.compiled_class(class_name)
        birth = self.system._birth_event(compiled, request.get("event"))
        item = {
            "type": "create",
            "class": class_name,
            "identification": request.get("identification"),
            "event": request.get("event"),
            "args": request.get("args") or [],
        }
        if (class_name, birth.name) in self.system.remote_capable:
            ok, error, remote = self._dry_items([item])
            if not ok:
                triggers = self._triggers_for([item])
                self.recorder.record_rollback(triggers, error)
                self._defer()
                raise error
            if remote:
                return {
                    "ok": True,
                    "status": "needs_2pc",
                    "remote": calls_to_wire(remote),
                }
        self._apply_items([item])
        self._defer(request.get("rid"))
        identification = {
            name: value_from_json(v)
            for name, v in (request.get("identification") or {}).items()
        }
        payload = self.system.partitioner.identity_payload(compiled, identification)
        return {"ok": True, "status": "done", "key": _payload_to_json(payload)}

    def _op_step(self, request):
        system = self.system
        for instance, event in list(system._active_schedule()):
            if not instance.alive:
                continue
            class_name = instance.class_name
            if (class_name, event) in system.remote_capable:
                item = {
                    "type": "occur",
                    "class": class_name,
                    "key": _payload_to_json(instance.key),
                    "event": event,
                    "args": [],
                }
                ok, _error, remote = self._dry_items([item])
                if not ok:
                    continue
                if remote:
                    return {
                        "ok": True,
                        "status": "needs_2pc_candidate",
                        "class": class_name,
                        "key": _payload_to_json(instance.key),
                        "event": event,
                    }
                self._apply_items([item])
                self._defer(request.get("rid"))
                return {
                    "ok": True,
                    "status": "fired",
                    "class": class_name,
                    "key": _payload_to_json(instance.key),
                    "event": event,
                }
            if system.is_permitted(instance, event):
                system._occur_root(instance, event, ())
                self._defer(request.get("rid"))
                return {
                    "ok": True,
                    "status": "fired",
                    "class": class_name,
                    "key": _payload_to_json(instance.key),
                    "event": event,
                }
        return {"ok": True, "status": "none"}

    # -- two-phase protocol --------------------------------------------

    def _op_prepare_group(self, request):
        ok, error, remote = self._dry_items(request["items"])
        if not ok:
            failed = getattr(error, "occurrence", None)
            response = {
                "ok": True,
                "vote": False,
                "error": type(error).__name__,
                "message": str(error),
                "failed": str(failed) if failed is not None else "",
                "shard": self.shard_index,
            }
            if failed is not None:
                response["failed_ref"] = occurrence_to_wire(failed)
            return response
        return {"ok": True, "vote": True, "remote": calls_to_wire(remote)}

    def _op_commit_group(self, request):
        applied = self._apply_items(request["items"])
        self._defer(request.get("rid"))
        return {"ok": True, "status": "done", "occurrences": applied}

    def _op_abort_group(self, request):
        triggers = self._triggers_for(request["items"])
        error = error_class(request.get("reason", "RuntimeSpecError"))(
            request.get("message", "distributed unit aborted")
        )
        self.recorder.record_rollback(triggers, error)
        self._defer()
        return {"ok": True, "status": "aborted"}

    # -- state / telemetry ---------------------------------------------

    def _op_dump(self, request):
        return {"ok": True, "state": dump_state(self.system)}

    def _op_export(self, request):
        stats = self.system.probe_stats
        # keys, not instances: counting must not fault a paged shard in
        live = {}
        for class_name in sorted(self.system.instances):
            count = len(self.system.alive_keys(class_name))
            if count:
                live[class_name] = count
        recorder = self.recorder
        return {
            "ok": True,
            "shard": self.shard_index,
            "requests": self.requests,
            "in_flight": self.in_flight,
            "journal_depth": recorder.commit_count + recorder.rollback_count,
            "commits": recorder.commit_count,
            "rollbacks": recorder.rollback_count,
            "probe_cache": {
                "hits": stats.hits,
                "misses": stats.misses,
                "invalidations": stats.invalidations,
                "punts": stats.punts,
            },
            "term_compile": {
                "compiled": TERM_STATS.compiled,
                "fallbacks": TERM_STATS.fallbacks,
                "cache_hits": TERM_STATS.cache_hits,
            },
            "spans_dropped": self.spans_dropped,
            "group_commit": {
                "flushes": self.group_commits,
                "records": self.group_records,
            },
            "live_instances": live,
            "recovered": self.recovered,
            "metrics": self.obs.metrics.snapshot() if self.obs is not None else None,
            "metrics_dump": self.obs.metrics.dump() if self.obs is not None else None,
        }

    def _op_snapshot(self, request):
        if self.spool is not None:
            # the base's journal_seq must not lag records already in
            # the state it holds
            self.flush()
            self.checkpoint(full=True)
        return {"ok": True, "journal_seq": self.checkpoint_seq}

    # -- management / fault injection ----------------------------------

    def _op_shutdown(self, request):
        if self.spool is not None:
            # a clean stop leaves the journal and one full base: no
            # deltas for the next start to lay over it
            self.flush()
            if self.flushed_seq > self.checkpoint_seq or self.spool.log_bytes:
                self.checkpoint(full=True)
        return {"ok": True, "status": "bye"}

    def _op_crash(self, request):
        os._exit(1)

    def _op_crash_after_commit(self, request):
        """Apply (and durably spool) the inner mutating request, then
        die *before* replying -- the deterministic lost-reply scenario
        for the at-most-once retry tests."""
        inner = request["inner"]
        inner.setdefault("rid", request.get("rid"))
        self._handle_core(inner)
        # the point of this hook is "durable, then dead": no waiting for
        # the flusher
        self.flush()
        os._exit(2)

    def _op_hang(self, request):
        time.sleep(float(request.get("seconds", 1.0)))
        return {"ok": True, "status": "awake"}


class _GroupCommitServer:
    """The worker loop: many request frames in flight on one socket
    (multiplexed by ``mid``), handlers running to completion on the
    event loop, and mutating replies withheld until a shared group
    fsync covers them.

    The flusher coroutine writes everything that went pending while the
    previous fsync was on disk as one batch (:meth:`ShardWorker.flush`),
    then takes the checkpoint when one is due, before the batch's
    replies leave.  The writes block only this worker process; the
    coordinator and the sibling shards run under its fsync.
    ``fsync.batch`` records how many replies each fsync amortized."""

    #: ops that must observe a fully drained spool before they run: the
    #: snapshot's journal_seq must not lag the snapshotted state, and
    #: the crash/shutdown hooks promise "everything acknowledged *or
    #: applied* is durable"
    BARRIER_OPS = frozenset({"snapshot", "crash_after_commit", "shutdown"})

    def __init__(self, worker: ShardWorker, reader, writer):
        self.worker = worker
        self.reader = reader
        self.writer = writer
        self._pending: List[bytes] = []
        self._flush_event = asyncio.Event()
        self._cycle_waiters: List[asyncio.Future] = []
        self._closing = False
        self._flusher_task: Optional[asyncio.Task] = None

    async def run(self) -> None:
        if self.worker.spool is not None:
            self._flusher_task = asyncio.ensure_future(self._flusher())
        try:
            await self._serve()
        finally:
            self._closing = True
            self._flush_event.set()
            if self._flusher_task is not None:
                try:
                    await self._flusher_task
                except Exception:  # pragma: no cover - defensive
                    pass
            try:
                self.writer.close()
            except Exception:  # pragma: no cover - defensive
                pass

    async def _serve(self) -> None:
        while True:
            try:
                request = await async_recv_frame(self.reader)
            except (WireClosed, WireError, OSError):
                return
            op = request.get("op")
            if op in self.BARRIER_OPS:
                await self._barrier()
            mid = request.get("mid")
            try:
                response = self.worker.handle(request)
            except SystemExit:
                raise
            except Exception as exc:  # pragma: no cover - defensive
                response = {
                    "ok": False,
                    "error": "InternalError",
                    "message": f"{type(exc).__name__}: {exc}",
                }
            if mid is not None:
                response["mid"] = mid
            frame = encode_frame(response)
            if self.worker.take_durability():
                self._pending.append(frame)
                self._flush_event.set()
            else:
                self.writer.write(frame)
                try:
                    await self.writer.drain()
                except (ConnectionError, OSError):
                    return
            if op == "shutdown":
                return

    def _work_left(self) -> bool:
        worker = self.worker
        return bool(
            self._pending
            or worker._pending_rids
            or worker.recorder.last_seq > worker.flushed_seq
        )

    async def _barrier(self) -> None:
        """Wait until the flusher has written every deferred record and
        rid and sent the replies they held back."""
        if self._flusher_task is None:
            return
        while self._work_left():
            self._flush_event.set()
            waiter = asyncio.get_running_loop().create_future()
            self._cycle_waiters.append(waiter)
            await waiter

    async def _flusher(self) -> None:
        worker = self.worker
        obs = worker.obs
        while True:
            if self._closing and not self._work_left():
                self._notify_cycle()
                return
            await self._flush_event.wait()
            self._flush_event.clear()
            # Group-commit window: the coordinator coalesces a loop
            # tick's requests into one segment, so the wave is already
            # buffered when the first handler pends -- yield to the
            # serve loop until it stops growing the batch (two quiet
            # passes), then claim the whole wave for one fsync.  Plain
            # sleep(0) passes: a timed sleep would add scheduler-
            # granularity dwell to every cycle while the wave's clients
            # sit blocked on their withheld replies.
            quiet = 0
            while not self._closing and quiet < 2:
                size = len(self._pending) + worker.recorder.last_seq
                await asyncio.sleep(0)
                if len(self._pending) + worker.recorder.last_seq > size:
                    quiet = 0
                else:
                    quiet += 1
            # Claim the held replies and write the records they wait for
            # with no await in between: every claimed reply's records
            # are in this write.  Synchronous on purpose: the fsync
            # blocks only THIS worker process, and the OS runs the
            # coordinator and the sibling shards under it -- that
            # cross-process overlap is free, while an executor hop costs
            # two thread wakeups per cycle on a single-core host.
            pending, self._pending = self._pending, []
            if worker.flush():
                if obs is not None:
                    obs.metrics.histogram("fsync.batch", unit="count").observe(
                        len(pending)
                    )
                if worker.checkpoint_due:
                    # on the loop, like the fsync above: no handler can
                    # change the state between the flush and its dump
                    worker.checkpoint()
            if pending:
                self.writer.write(b"".join(pending))
                try:
                    await self.writer.drain()
                except (ConnectionError, OSError):  # pragma: no cover
                    pass
            self._notify_cycle()

    def _notify_cycle(self) -> None:
        waiters, self._cycle_waiters = self._cycle_waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)


async def async_worker_serve(worker: ShardWorker, sock: socket.socket) -> None:
    """The asyncio entry point of a shard worker."""
    reader, writer = await asyncio.open_connection(sock=sock)
    await _GroupCommitServer(worker, reader, writer).run()


def worker_main(sock: socket.socket, config: Dict[str, Any]) -> None:
    """Entry point of the shard child process."""
    worker = ShardWorker(config)
    # The fork inherits the coordinator process's whole heap.  Freeze it
    # out of the cyclic collector's generations: none of it is this
    # worker's garbage, but every full collection would rescan it --
    # and traced workers allocate enough (span trees, wire batches) to
    # trigger full collections regularly.  Freezing also keeps the
    # collector from dirtying copy-on-write pages of the shared heap.
    gc.collect()
    gc.freeze()
    try:
        asyncio.run(async_worker_serve(worker, sock))
    finally:
        try:
            sock.close()
        except OSError:
            pass
