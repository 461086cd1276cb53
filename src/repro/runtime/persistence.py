"""Persistence: snapshot and restore a running object base.

The motivating notion of the paper is an *object base* -- "structured
and persistent database objects as well as object dynamics".  This
module gives the animator that persistence: :func:`dump_state` captures
every instance (identity, life-cycle flags, attribute state, recorded
trace, role links) as a JSON-compatible structure, and
:func:`restore_state` rebuilds a behaviourally equivalent object base
over the same compiled specification -- incremental permission monitors
are reconstructed exactly by replaying the recorded traces (lazily, on
first permission check, via the object base's monitor auto-replay).

The value/step/instance codecs live in :mod:`repro.storage.codec`,
shared with the disk-resident storage backends; snapshots taken under
any backend are byte-identical (paged-out instances' records pass
through without being faulted in).

The specification itself is *not* serialised (it is text; store it next
to the snapshot).  Round-tripping is checked by the test suite: after
restore, observations, permissions and further evolution agree with the
original.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.datatypes.values import identity as make_identity
from repro.diagnostics import RuntimeSpecError
from repro.storage.codec import (
    instance_to_json as _instance_to_json,
    payload_from_json as _payload_from_json,
    payload_to_json as _payload_to_json,
    step_from_json as _step_from_json,
    step_to_json as _step_to_json,
    value_from_json,
    value_to_json,
)
from repro.runtime.instance import Instance
from repro.runtime.objectbase import ChangeSet, ObjectBase

FORMAT_VERSION = 1

__all__ = [
    "FORMAT_VERSION",
    "apply_deltas",
    "dump_incremental",
    "dump_json",
    "dump_state",
    "restore_incremental",
    "restore_json",
    "restore_state",
    "value_from_json",
    "value_to_json",
]


# ----------------------------------------------------------------------
# Object base -> JSON state
# ----------------------------------------------------------------------

def dump_state(system: ObjectBase) -> Dict[str, Any]:
    """Snapshot the full dynamic state of ``system``.

    Class buckets are visited in sorted class order, instances in
    registration order -- the same order under every storage backend, so
    snapshots of equivalent bases are byte-identical.  Under a paging
    store, paged-out instances are dumped straight from their backend
    records without faulting them in."""
    instances = []
    store = system.store
    if store.direct:
        for class_name in sorted(system.instances):
            for instance in system.instances[class_name].values():
                instances.append(_instance_to_json(instance))
    else:
        for class_name in sorted(store.class_names()):
            for key in store.keys(class_name):
                instances.append(store.dump_record(class_name, key))
    return {
        "format": FORMAT_VERSION,
        "permission_mode": system.permission_mode,
        "instances": instances,
        "class_objects": {
            name: [value_to_json(m) for m in sorted(obj.members)]
            for name, obj in system.class_objects.items()
        },
    }


def dump_json(system: ObjectBase, indent: Optional[int] = None) -> str:
    """:func:`dump_state` as a JSON string."""
    return json.dumps(dump_state(system), indent=indent, sort_keys=True)


def restore_state(system: ObjectBase, data: Dict[str, Any]) -> ObjectBase:
    """Restore a snapshot into a *fresh* object base built over the same
    specification.  Raises when the base already has instances."""
    if data.get("format") != FORMAT_VERSION:
        raise RuntimeSpecError(
            f"unsupported snapshot format {data.get('format')!r}"
        )
    if any(bucket for bucket in system.instances.values()):
        raise RuntimeSpecError("restore_state needs an empty object base")
    if system.recorder is not None:
        # The journal of a restored base does not cover its pre-snapshot
        # history; mark it so full-history replay verification skips it.
        system.recorder.origin = "restored"

    # Pass 1: build instances.
    for record in data["instances"]:
        class_name = record["class"]
        compiled = system.compiled_class(class_name)
        key = _payload_from_json(record["key"])
        instance = Instance(compiled, make_identity(class_name, key), system)
        instance.born = record["born"]
        instance.dead = record["dead"]
        instance.state = {
            name: value_from_json(v) for name, v in record["state"].items()
        }
        instance.param_state = {
            name: {
                tuple(value_from_json(a) for a in args): value_from_json(v)
                for args, v in table
            }
            for name, table in record["param_state"]
        }
        for step in record["trace"]:
            # record_step keeps the performed-event set and the
            # modification epoch consistent with the restored trace.
            instance.record_step(_step_from_json(step))
        system.instances.setdefault(class_name, {})[key] = instance

    # Pass 2: relink roles to their base aspects.
    for record in data["instances"]:
        if record["base"] is None:
            continue
        instance = system.instance(record["class"], _payload_from_json(record["key"]))
        base = system.instance(record["base"][0], _payload_from_json(record["base"][1]))
        instance.base = base
        base.roles[instance.class_name] = instance

    # Pass 3: class objects.
    for class_name, members in data.get("class_objects", {}).items():
        class_object = system.class_object(class_name)
        class_object.members = {value_from_json(m) for m in members}

    # Pass 4: rebuild protocol configurations exactly, by replaying
    # traces.  Incremental permission monitors need no pass here: the
    # object base replays an instance's trace into a monitor when the
    # monitor is first needed (_create_monitor), which is precisely the
    # replay this pass used to perform eagerly.
    for bucket in system.instances.values():
        for instance in bucket.values():
            automaton = instance.compiled.protocol
            if automaton is not None:
                states = automaton.initial
                for step in instance.trace:
                    if step.event in automaton.alphabet:
                        states = automaton.advance(states, step.event)
                instance.protocol_states = states

    # Pass 5: the instances above were inserted directly, bypassing
    # _register's population bump -- permission verdicts memoized
    # against the pre-restore (empty) populations would otherwise stay
    # "valid", and the scheduler's cached candidate list would miss the
    # restored instances.
    for class_name, bucket in system.instances.items():
        if bucket:
            system._bump_population(class_name)
    system.invalidate_probes()
    # A paging store admitted every restored instance to its hot set;
    # trim back down to the configured bound (writebacks seed the
    # backend records).
    system._balance_store()
    return system


def restore_json(system: ObjectBase, text: str) -> ObjectBase:
    """:func:`restore_state` from a JSON string."""
    return restore_state(system, json.loads(text))


# ----------------------------------------------------------------------
# Journal-aware snapshots: snapshot + journal suffix = incremental backup
# ----------------------------------------------------------------------

def dump_incremental(
    system: ObjectBase, changes: Optional[ChangeSet] = None
) -> Dict[str, Any]:
    """Snapshot ``system`` together with its journal high-water mark.

    With the event journal attached (``system.recorder``), the snapshot
    plus the journal records *after* ``journal_seq`` reconstruct any
    later state: restore the snapshot, then replay the suffix
    (:func:`restore_incremental`).  Without a recorder the mark is None
    and the snapshot stands alone.

    With ``changes`` (a :class:`~repro.runtime.objectbase.ChangeSet`
    taken from the base) the result is a *delta* instead: under
    ``"delta"``, the records of the changed instances only and the
    class-object membership changes, which :func:`apply_deltas` lays
    over an earlier snapshot.  Paged-out instances are dumped from
    their backend records, never faulted in."""
    recorder = getattr(system, "recorder", None)
    seq = recorder.last_seq if recorder is not None else None
    if changes is None:
        return {
            "format": FORMAT_VERSION,
            "snapshot": dump_state(system),
            "journal_seq": seq,
        }
    store = system.store
    return {
        "format": FORMAT_VERSION,
        "delta": {
            "instances": [store.dump_record(*key) for key in changes.keys],
            "class_objects": {
                name: [[value_to_json(m), present] for m, present in members.items()]
                for name, members in changes.members.items()
            },
        },
        "journal_seq": seq,
    }


def apply_deltas(snapshot: Dict[str, Any], deltas) -> Dict[str, Any]:
    """The :func:`dump_state` snapshot that results from laying the
    ``delta`` parts of :func:`dump_incremental` checkpoints, oldest
    first, over ``snapshot``: a changed instance's record replaces its
    old one in place, a new instance's record joins its class after the
    ones registered before it, and class-object members come and go.
    Restoring the result equals restoring a full snapshot taken at the
    last delta."""

    def ident(encoded) -> str:
        return json.dumps(encoded, sort_keys=True)

    records = {
        (record["class"], ident(record["key"])): record
        for record in snapshot["instances"]
    }
    members = {
        name: {ident(member): member for member in encoded}
        for name, encoded in snapshot.get("class_objects", {}).items()
    }
    for delta in deltas:
        for record in delta["instances"]:
            records[(record["class"], ident(record["key"]))] = record
        for name, changes in delta["class_objects"].items():
            current = members.setdefault(name, {})
            for member, present in changes:
                if present:
                    current[ident(member)] = member
                else:
                    current.pop(ident(member), None)
    return dict(
        snapshot,
        instances=list(records.values()),
        class_objects={name: list(m.values()) for name, m in members.items()},
    )


def restore_incremental(
    system: ObjectBase, data: Dict[str, Any], journal=None
) -> ObjectBase:
    """Restore a :func:`dump_incremental` backup into a fresh base, then
    replay the ``journal`` records issued after the snapshot's
    high-water mark (pass the journal the backup was taken under)."""
    if data.get("format") != FORMAT_VERSION:
        raise RuntimeSpecError(
            f"unsupported incremental backup format {data.get('format')!r}"
        )
    restore_state(system, data["snapshot"])
    seq = data.get("journal_seq")
    if journal is not None and seq is not None:
        from repro.observability.journal import replay_records

        replay_records(system, journal.records_since(seq))
    return system
