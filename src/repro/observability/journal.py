"""The event journal: a flight recorder of synchronization sets.

The paper's semantics says an object's state *is* its finite event
sequence (Sections 3-4): observations are attribute valuations over
life-cycle traces.  PR 1 made individual synchronization sets
observable as span trees; this module makes *history* observable -- a
durable, causally-linked journal that can reconstruct any state and
explain any value.

A :class:`Journal` attached to an
:class:`~repro.runtime.objectbase.ObjectBase` (``ObjectBase(spec,
journal=Journal())``, or process-wide via :func:`install_capture`)
appends one :class:`JournalRecord` per *atomic unit*:

* committed sets record the triggering occurrence(s), every
  synchronized/called occurrence with the **calling edge** that caused
  it (``caused_by`` indexes into the record's occurrence list), and the
  per-aspect **attribute delta** each occurrence produced;
* rolled-back sets are recorded as **tombstones** carrying the
  denial/violation reason and the failing occurrence.

On top of the records:

* :func:`replay_journal` -- deterministic replay: re-animate the
  journal against the same compiled specification by re-firing the
  triggers in order (event calling rederives the rest);
  :func:`verify_replay` diffs the replayed ``dump_state`` snapshot
  against the live base's;
* ``records_since`` + :func:`replay_records` -- the journal suffix of
  a snapshot, i.e. incremental backup (see
  :func:`repro.runtime.persistence.restore_incremental`);
* provenance queries live in :mod:`repro.observability.provenance`,
  metric export in :mod:`repro.observability.export`.

The wiring contract matches PR 1: with no journal attached the
occurrence pipeline pays one attribute load and a ``None`` test.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.datatypes.values import Value

_MISSING = object()


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TriggerRecord:
    """One triggering occurrence of an atomic unit, with enough context
    to re-fire it: ``created`` marks creation triggers (the identity was
    registered immediately before the birth event), ``identification``
    their identification attribute values."""

    class_name: str
    key: Any
    event: str
    args: Tuple[Value, ...]
    created: bool = False
    identification: Optional[Tuple[Tuple[str, Value], ...]] = None

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.class_name}({self.key!r}).{self.event}({inner})"


@dataclass(frozen=True)
class OccurrenceRecord:
    """One committed occurrence inside a synchronization set.

    ``caused_by`` is the index (into the owning record's ``occurrences``)
    of the occurrence whose event calling or role coupling produced this
    one; ``None`` for the trigger(s).  ``delta`` holds the attribute
    values this occurrence changed on its aspect (merged-state diff)."""

    class_name: str
    key: Any
    event: str
    args: Tuple[Value, ...]
    kind: str  # birth | normal | death
    caused_by: Optional[int]
    delta: Tuple[Tuple[str, Value], ...]

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.class_name}({self.key!r}).{self.event}({inner})"


class JournalRecord:
    """One atomic unit: a committed synchronization set, or a tombstone
    for a rolled-back one.

    Commit records are materialized lazily: the recording hot path only
    captures references (the transaction's step list, calling edges and
    per-instance baseline states -- all append-only or immutable), and
    ``occurrences`` builds the :class:`OccurrenceRecord` tuple on first
    access.  Readers never observe the difference."""

    __slots__ = (
        "seq", "kind", "triggers", "reason", "message", "failed",
        "ts", "mono", "_occurrences", "_pending",
    )

    def __init__(
        self,
        seq: int,
        kind: str,  # "commit" | "rollback"
        triggers: Tuple[TriggerRecord, ...],
        occurrences: Tuple[OccurrenceRecord, ...] = (),
        reason: str = "",
        message: str = "",
        failed: str = "",
        ts: float = 0.0,
        mono: float = 0.0,
    ) -> None:
        self.seq = seq
        self.kind = kind
        self.triggers = triggers
        self.reason = reason
        self.message = message
        self.failed = failed
        #: wall-clock pair: ``ts`` is the epoch time the unit was
        #: recorded (correlate with external logs), ``mono`` the
        #: process-local monotonic clock (order/duration arithmetic).
        #: Deliberately excluded from ``__eq__`` -- replay comparison
        #: must stay deterministic across re-animations.
        self.ts = ts
        self.mono = mono
        self._occurrences = occurrences
        self._pending: Optional[tuple] = None

    @property
    def occurrences(self) -> Tuple[OccurrenceRecord, ...]:
        pending = self._pending
        if pending is not None:
            self._pending = None
            self._occurrences = _materialize_occurrences(*pending)
        return self._occurrences

    @property
    def committed(self) -> bool:
        return self.kind == "commit"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JournalRecord):
            return NotImplemented
        return (
            self.seq == other.seq
            and self.kind == other.kind
            and self.triggers == other.triggers
            and self.occurrences == other.occurrences
            and self.reason == other.reason
            and self.message == other.message
            and self.failed == other.failed
        )

    def __repr__(self) -> str:
        return (
            f"JournalRecord(seq={self.seq!r}, kind={self.kind!r}, "
            f"triggers={self.triggers!r}, occurrences={self.occurrences!r}, "
            f"reason={self.reason!r}, message={self.message!r}, "
            f"failed={self.failed!r})"
        )


def _materialize_occurrences(
    steps: Sequence[tuple],
    parents: Tuple[Optional[int], ...],
    baselines: Dict[int, tuple],
) -> Tuple[OccurrenceRecord, ...]:
    """Build the occurrence tuple of a commit record from the references
    captured on the hot path (see :meth:`Journal.record_commit`)."""
    occurrences = []
    previous = baselines
    for index, (instance, step, kind) in enumerate(steps):
        baseline = previous[id(instance)]
        state = step.state
        if baseline == state:
            delta: Tuple[Tuple[str, Value], ...] = ()
        else:
            # Unchanged attributes keep the identical Value object
            # across merged-state snapshots, so the identity check
            # short-circuits almost every comparison.
            get = dict(baseline).get
            changed = []
            for pair in state:
                old = get(pair[0], _MISSING)
                if old is not pair[1] and old != pair[1]:
                    changed.append(pair)
            delta = tuple(changed)
        previous[id(instance)] = state
        occurrences.append(
            OccurrenceRecord(
                class_name=instance.class_name,
                key=instance.key,
                event=step.event,
                args=step.args,
                kind=kind,
                caused_by=parents[index],
                delta=delta,
            )
        )
    return tuple(occurrences)


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------

class Journal:
    """An append-only, causally-linked log of atomic units.

    ``origin`` is ``"genesis"`` while the journal covers the object
    base's whole history (attached at construction); ``restore_state``
    flips it to ``"restored"``, after which full-history replay is no
    longer meaningful (use snapshot + ``records_since`` instead).
    """

    def __init__(self) -> None:
        self.records: List[JournalRecord] = []
        self.origin: str = "genesis"
        self._seq = 0
        #: units recorded through this journal, counted as they are
        #: recorded: ``records`` may have been trimmed since
        self.commit_count = 0
        self.rollback_count = 0

    # -- recording (called by the ObjectBase commit/rollback paths) ----

    def snapshot_triggers(self, items) -> Tuple[TriggerRecord, ...]:
        """Capture the triggering occurrences of a unit *before* it is
        processed (creation flags and identification values are only
        observable pre-commit)."""
        triggers = []
        for instance, event, args in items:
            created = not instance.born
            identification = None
            if created and not instance.compiled.is_single_object:
                identification = tuple(
                    (attr.name, instance.state[attr.name])
                    for attr in instance.compiled.info.id_attributes
                    if attr.name in instance.state
                )
            triggers.append(
                TriggerRecord(
                    class_name=instance.class_name,
                    key=instance.key,
                    event=event,
                    args=args,
                    created=created,
                    identification=identification,
                )
            )
        return tuple(triggers)

    def record_commit(self, txn, triggers: Tuple[TriggerRecord, ...]) -> JournalRecord:
        """Append the commit record for a transaction (called just
        before ``txn.commit()``, while instance traces still hold the
        pre-transaction state used as the delta baseline).

        Deliberately cheap: occurrence records and attribute deltas are
        derived lazily on first read (see :class:`JournalRecord`); here
        we only capture the step list, the calling edges, and a
        reference to each touched instance's pre-transaction state."""
        baselines: Dict[int, tuple] = {}
        for instance, _step, _kind in txn.steps:
            key = id(instance)
            if key not in baselines:
                steps = instance.trace.steps
                baselines[key] = steps[-1].state if steps else ()
        record = JournalRecord(
            seq=self._next_seq(),
            kind="commit",
            triggers=triggers,
            ts=time.time(),
            mono=time.perf_counter(),
        )
        record._pending = (txn.steps, tuple(txn.parents), baselines)
        self.records.append(record)
        self.commit_count += 1
        return record

    def record_rollback(
        self, triggers: Tuple[TriggerRecord, ...], error: BaseException
    ) -> JournalRecord:
        """Append a tombstone for a rolled-back unit."""
        failed = getattr(error, "occurrence", None)
        record = JournalRecord(
            seq=self._next_seq(),
            kind="rollback",
            triggers=triggers,
            reason=type(error).__name__,
            message=str(error),
            failed=str(failed) if failed is not None else "",
            ts=time.time(),
            mono=time.perf_counter(),
        )
        self.records.append(record)
        self.rollback_count += 1
        return record

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- inspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[JournalRecord]:
        return iter(self.records)

    @property
    def last_seq(self) -> int:
        """Sequence number of the last record issued (0 when none) --
        also after the records were trimmed, or when numbering resumed
        from a spooled journal."""
        return self._seq

    def commits(self) -> List[JournalRecord]:
        return [r for r in self.records if r.kind == "commit"]

    def rollbacks(self) -> List[JournalRecord]:
        return [r for r in self.records if r.kind == "rollback"]

    @property
    def rollback_ratio(self) -> float:
        """Tombstones as a fraction of all recorded units."""
        return len(self.rollbacks()) / len(self.records) if self.records else 0.0

    def records_since(self, seq: int) -> List[JournalRecord]:
        """Records strictly after sequence number ``seq`` (the journal
        suffix of a snapshot taken at ``seq``)."""
        return self.records[self._index_after(seq):]

    def trim(self, seq: int) -> None:
        """Drop the records at or below ``seq`` (a shard worker's
        records once a checkpoint covers them: its spool keeps them)."""
        del self.records[: self._index_after(seq)]

    def _index_after(self, seq: int) -> int:
        """Index of the first record after ``seq``.  Sequence numbers
        ascend, so this is a bisection: a suffix costs what it holds,
        not what the history before it holds."""
        records = self.records
        low, high = 0, len(records)
        while low < high:
            middle = (low + high) // 2
            if records[middle].seq <= seq:
                low = middle + 1
            else:
                high = middle
        return low

    # -- serialization -------------------------------------------------

    def write_jsonl(self, target) -> None:
        """One JSON object per record, to a path or text stream."""
        if hasattr(target, "write"):
            for record in self.records:
                target.write(json.dumps(record_to_json(record)) + "\n")
            return
        with open(target, "w", encoding="utf-8") as handle:
            self.write_jsonl(handle)

    @classmethod
    def read_jsonl(cls, target) -> "Journal":
        """Rebuild a journal from :meth:`write_jsonl` output."""
        journal = cls()
        if hasattr(target, "read"):
            lines = target.read().splitlines()
        else:
            with open(target, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        for line in lines:
            if not line.strip():
                continue
            record = record_from_json(json.loads(line))
            journal.records.append(record)
            journal._seq = max(journal._seq, record.seq)
        return journal


# ----------------------------------------------------------------------
# JSON encoding (the persistence layer's sort-tagged value coding)
# ----------------------------------------------------------------------

def record_to_json(record: JournalRecord) -> dict:
    """A JSON-compatible encoding of one journal record."""
    from repro.runtime.persistence import _payload_to_json, value_to_json

    return {
        "seq": record.seq,
        "kind": record.kind,
        "ts": record.ts,
        "mono": record.mono,
        "triggers": [
            {
                "class": t.class_name,
                "key": _payload_to_json(t.key),
                "event": t.event,
                "args": [value_to_json(a) for a in t.args],
                "created": t.created,
                "identification": (
                    [[name, value_to_json(v)] for name, v in t.identification]
                    if t.identification is not None
                    else None
                ),
            }
            for t in record.triggers
        ],
        "occurrences": [
            {
                "class": o.class_name,
                "key": _payload_to_json(o.key),
                "event": o.event,
                "args": [value_to_json(a) for a in o.args],
                "kind": o.kind,
                "caused_by": o.caused_by,
                "delta": [[name, value_to_json(v)] for name, v in o.delta],
            }
            for o in record.occurrences
        ],
        "reason": record.reason,
        "message": record.message,
        "failed": record.failed,
    }


def record_from_json(data: dict) -> JournalRecord:
    """Decode :func:`record_to_json` output."""
    from repro.runtime.persistence import _payload_from_json, value_from_json

    return JournalRecord(
        seq=data["seq"],
        kind=data["kind"],
        triggers=tuple(
            TriggerRecord(
                class_name=t["class"],
                key=_payload_from_json(t["key"]),
                event=t["event"],
                args=tuple(value_from_json(a) for a in t["args"]),
                created=t.get("created", False),
                identification=(
                    tuple((name, value_from_json(v)) for name, v in t["identification"])
                    if t.get("identification") is not None
                    else None
                ),
            )
            for t in data["triggers"]
        ),
        occurrences=tuple(
            OccurrenceRecord(
                class_name=o["class"],
                key=_payload_from_json(o["key"]),
                event=o["event"],
                args=tuple(value_from_json(a) for a in o["args"]),
                kind=o.get("kind", "normal"),
                caused_by=o.get("caused_by"),
                delta=tuple((name, value_from_json(v)) for name, v in o.get("delta", [])),
            )
            for o in data.get("occurrences", [])
        ),
        reason=data.get("reason", ""),
        message=data.get("message", ""),
        failed=data.get("failed", ""),
        ts=data.get("ts", 0.0),
        mono=data.get("mono", 0.0),
    )


# ----------------------------------------------------------------------
# Deterministic replay
# ----------------------------------------------------------------------

def replay_records(system, records: Sequence[JournalRecord]) -> int:
    """Re-animate ``records`` against ``system`` by re-firing their
    triggers in order.  Event calling, role coupling, valuation and
    monitors rederive the rest of each synchronization set, so a replay
    over the same compiled specification is deterministic.  Tombstones
    (rolled-back units) had no effect and are skipped.  Returns the
    number of units replayed."""
    from repro.diagnostics import RuntimeSpecError

    replayed = 0
    for record in records:
        if record.kind != "commit":
            continue
        triggers = record.triggers
        if len(triggers) == 1 and triggers[0].created:
            trigger = triggers[0]
            identification = (
                {name: value for name, value in trigger.identification}
                if trigger.identification is not None
                else None
            )
            system.create(
                trigger.class_name, identification, trigger.event, trigger.args
            )
        else:
            items = []
            for trigger in triggers:
                if trigger.created:
                    raise RuntimeSpecError(
                        f"journal seq {record.seq}: creation trigger "
                        f"{trigger} inside a multi-trigger unit cannot be "
                        "replayed"
                    )
                items.append(
                    (
                        system.instance(trigger.class_name, trigger.key),
                        trigger.event,
                        trigger.args,
                    )
                )
            system._run_unit(items)
        replayed += 1
    return replayed


def replay_journal(
    journal: Journal,
    source,
    permission_mode: str = "incremental",
    check_constraints: bool = True,
):
    """Rebuild an object base from scratch by replaying ``journal``
    against ``source`` (specification text, checked or compiled).
    Returns the freshly animated base."""
    from repro.runtime.objectbase import ObjectBase

    system = ObjectBase(
        source,
        permission_mode=permission_mode,
        check_constraints=check_constraints,
        journal=_NO_JOURNAL,
    )
    replay_records(system, journal.records)
    return system


def verify_replay(journal: Journal, system) -> List[str]:
    """Replay ``journal`` over ``system``'s compiled specification and
    diff the replayed ``dump_state`` snapshot against the live base's.
    Returns the list of differences (empty = deterministically
    identical)."""
    from repro.runtime.persistence import dump_state

    replayed = replay_journal(
        journal,
        system.compiled,
        permission_mode=system.permission_mode,
        check_constraints=system.check_constraints,
    )
    return diff_states(dump_state(system), dump_state(replayed))


def diff_states(live: Any, replayed: Any, path: str = "", limit: int = 50) -> List[str]:
    """Structural diff of two ``dump_state`` snapshots as a list of
    human-readable difference paths (bounded by ``limit``)."""
    diffs: List[str] = []
    _diff(live, replayed, path or "$", diffs, limit)
    return diffs


def _diff(a: Any, b: Any, path: str, out: List[str], limit: int) -> None:
    if len(out) >= limit:
        return
    if type(a) is not type(b):
        out.append(f"{path}: type {type(a).__name__} != {type(b).__name__}")
        return
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                out.append(f"{path}.{key}: only in replayed")
            elif key not in b:
                out.append(f"{path}.{key}: only in live")
            else:
                _diff(a[key], b[key], f"{path}.{key}", out, limit)
            if len(out) >= limit:
                return
        return
    if isinstance(a, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
            return
        for index, (x, y) in enumerate(zip(a, b)):
            _diff(x, y, f"{path}[{index}]", out, limit)
            if len(out) >= limit:
                return
        return
    if a != b:
        out.append(f"{path}: {a!r} != {b!r}")


class _NoJournal:
    """Sentinel: construct an ObjectBase with journaling explicitly off,
    even while a process-global capture is installed (replay must not
    journal itself into the capture)."""

    __slots__ = ()


_NO_JOURNAL = _NoJournal()


# ----------------------------------------------------------------------
# Process-global capture (the ``repro replay/why/export`` engine)
# ----------------------------------------------------------------------

class JournalCapture:
    """Attaches a fresh :class:`Journal` to every ObjectBase constructed
    while installed, keeping the (system, journal) sessions for later
    replay/provenance/export over unmodified example scripts."""

    def __init__(self) -> None:
        self.sessions: List[Tuple[Any, Journal]] = []

    def attach(self, system) -> Journal:
        journal = Journal()
        self.sessions.append((system, journal))
        return journal

    def genesis_sessions(self) -> List[Tuple[Any, Journal]]:
        """The sessions whose journal covers the base's whole history
        (non-empty, never target of a snapshot restore)."""
        return [
            (system, journal)
            for system, journal in self.sessions
            if journal.records and journal.origin == "genesis"
        ]


_CAPTURE: Optional[JournalCapture] = None


def install_capture(capture: Optional[JournalCapture] = None) -> JournalCapture:
    """Install a process-global journal capture; ObjectBases constructed
    afterwards each get their own journal."""
    global _CAPTURE
    if capture is None:
        capture = JournalCapture()
    _CAPTURE = capture
    return capture


def uninstall_capture() -> None:
    """Remove the process-global capture (back to zero overhead)."""
    global _CAPTURE
    _CAPTURE = None


def get_capture() -> Optional[JournalCapture]:
    """The installed process-global capture, or None."""
    return _CAPTURE
