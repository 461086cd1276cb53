"""The instance registry: hot set, identity map, fault and evict.

:class:`InstanceStore` sits between :class:`~repro.runtime.objectbase.ObjectBase`
and a :class:`~repro.storage.base.StorageBackend` and owns the paging
policy:

* an **LRU hot set** of strongly-held resident instances, bounded by
  ``hot_set`` and trimmed only at *safe points* (``balance`` is called by
  the object base when no atomic unit is in flight, so mid-transaction
  state is never written back);
* a **weak identity map** guaranteeing that faulting a key yields *the
  same* :class:`~repro.runtime.instance.Instance` object as long as any
  live reference exists (memoized probe verdicts hold their dependency
  instances strongly, so a verdict can never be compared against a
  doppelganger's epoch);
* a per-class **registration index** (insertion-ordered ``key -> alive``
  flags) that answers existence, ordering and population questions
  without faulting.  The flag is updated only at commit
  (``note_lifecycle``), so for *resident* instances the live object's
  flags win -- mid-transaction births and deaths are visible to
  constraint evaluation exactly as in the all-resident runtime, while
  non-resident instances are by construction untouched by the running
  unit (the transaction holds strong references to everything it
  touches, and eviction happens only at safe points).

Faulted instances rebuild lazily: plain attribute values stay in the
encoded ``_lazy_state`` overlay until first observed, and permission
monitors are reconstructed by the object base's trace auto-replay on
first check.  Faulting an instance therefore evaluates *no* formulas --
population-quantified permissions cannot cascade into an O(n^2) fault
storm.

In **direct** mode (the memory backend) the store degenerates to the
seed's plain dict-of-dicts, which it hands to the object base verbatim:
every hot path is byte-for-byte the pre-storage code path.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.datatypes.values import Value, identity as make_identity
from repro.diagnostics import RuntimeSpecError
from repro.storage.base import StorageBackend, StorageStats, make_backend
from repro.storage.codec import (
    instance_to_json,
    instance_to_record,
    payload_from_json,
    step_from_json,
    strip_storage_fields,
    value_from_json,
)


class InstanceStore:
    """Paging policy over one backend, for one object base."""

    def __init__(self, system, storage: Optional[str], hot_set: int):
        self.system = system
        self.backend: StorageBackend = (
            storage if isinstance(storage, StorageBackend) else make_backend(storage)
        )
        self.direct: bool = self.backend.direct
        self.hot_capacity = max(int(hot_set), 8)
        if self.direct:
            #: the seed's registry, handed to the object base as-is
            self._dicts: Dict[str, Dict[object, Any]] = {
                name: {} for name in system.compiled.classes
            }
            self.stats = StorageStats()
            return
        #: class name -> key payload -> alive flag, in registration order
        self._index: Dict[str, Dict[object, bool]] = {
            name: {} for name in system.compiled.classes
        }
        #: (class, key) -> Instance, strong refs, LRU order
        self._hot: "OrderedDict[Tuple[str, object], Any]" = OrderedDict()
        #: (class, key) -> Instance, the identity map
        self._weak: "weakref.WeakValueDictionary[Tuple[str, object], Any]" = (
            weakref.WeakValueDictionary()
        )
        self.stats = StorageStats(resident_fn=self._weak.__len__)
        self._buckets = {name: _ClassBucket(self, name) for name in self._index}
        self._facade = _InstancesFacade(self)

    def mapping(self):
        """What the object base publishes as ``system.instances``."""
        return self._dicts if self.direct else self._facade

    # ------------------------------------------------------------------
    # Lookup and faulting
    # ------------------------------------------------------------------

    def get(self, class_name: str, key) -> Optional[Any]:
        hkey = (class_name, key)
        instance = self._weak.get(hkey)
        if instance is not None:
            hot = self._hot
            if hkey in hot:
                hot.move_to_end(hkey)
            else:
                # still alive through an outside reference (a verdict, a
                # transaction, user code): readmit, no backend round trip
                hot[hkey] = instance
            return instance
        flags = self._index.get(class_name)
        if flags is None or key not in flags:
            return None
        return self._fault(class_name, key)

    def _fault(self, class_name: str, key):
        record = self.backend.load(class_name, key)
        if record is None:
            raise RuntimeSpecError(
                f"storage backend {self.backend.name!r} has no record for "
                f"registered instance {class_name}({key!r})"
            )
        system = self.system
        from repro.runtime.instance import Instance

        compiled = system.compiled_class(class_name)
        instance = Instance(compiled, make_identity(class_name, key), system)
        instance.born = record["born"]
        instance.dead = record["dead"]
        # plain attributes stay encoded until first observed; the
        # record's attribute order is the canonical state-dict order
        # (materialize/write-back rebuild in it)
        instance._lazy_state = dict(record["state"])
        instance._state_order = tuple(record["state"])
        # param_state is an order-sensitive list in the snapshot format;
        # decode it eagerly so re-encoding preserves entry order
        instance.param_state = {
            name: {
                tuple(value_from_json(a) for a in args): value_from_json(v)
                for args, v in table
            }
            for name, table in record["param_state"]
        }
        for step in record["trace"]:
            instance.record_step(step_from_json(step))
        # Admit before linking: base/role faults recurse back to us.
        self._weak[(class_name, key)] = instance
        self._hot[(class_name, key)] = instance
        self.stats.faults += 1
        self.stats.note_resident()
        base_ref = record["base"]
        if base_ref is not None:
            base = self.get(base_ref[0], payload_from_json(base_ref[1]))
            if base is not None:
                instance.base = base
                base.roles[class_name] = instance
        for role_name in record.get("roles", ()):
            if role_name not in instance.roles:
                # the role's own fault links itself into our role set
                self.get(role_name, key)
        automaton = compiled.protocol
        if automaton is not None:
            states = automaton.initial
            for step in instance.trace:
                if step.event in automaton.alphabet:
                    states = automaton.advance(states, step.event)
            instance.protocol_states = states
        # record_step bumped the epoch per replayed trace step; the
        # stored epoch is the committed truth, and matching _clean_epoch
        # marks the instance clean (eviction skips the writeback)
        instance.epoch = record["epoch"]
        instance._clean_epoch = record["epoch"]
        return instance

    def readmit(self, instance) -> None:
        """Pin a mutated instance into the hot set so its eventual
        eviction writes the mutation back (called for every instance a
        transaction touches, including base aspects reached by write
        routing)."""
        hkey = (instance.class_name, instance.key)
        hot = self._hot
        if hkey in hot:
            hot.move_to_end(hkey)
        elif instance.key in self._index.get(instance.class_name, ()):
            self._weak[hkey] = instance
            hot[hkey] = instance
            self.stats.note_resident()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def insert(self, class_name: str, key, instance) -> None:
        flags = self._index.get(class_name)
        if flags is None:
            flags = self._index.setdefault(class_name, {})
            self._buckets.setdefault(class_name, _ClassBucket(self, class_name))
        flags[key] = instance.alive
        hkey = (class_name, key)
        self._weak[hkey] = instance
        self._hot[hkey] = instance
        self._hot.move_to_end(hkey)
        self.stats.note_resident()

    def remove(self, class_name: str, key) -> None:
        flags = self._index.get(class_name)
        if flags is not None:
            flags.pop(key, None)
        hkey = (class_name, key)
        self._hot.pop(hkey, None)
        self._weak.pop(hkey, None)
        self.backend.remove(class_name, key)

    def note_lifecycle(self, instance) -> None:
        """Commit an instance's alive flag into the index (births and
        deaths; rolled-back units never reach here)."""
        flags = self._index.get(instance.class_name)
        if flags is not None and instance.key in flags:
            flags[instance.key] = instance.alive

    # ------------------------------------------------------------------
    # Population queries (no faulting)
    # ------------------------------------------------------------------

    def contains(self, class_name: str, key) -> bool:
        flags = self._index.get(class_name)
        return flags is not None and key in flags

    def keys(self, class_name: str) -> List[object]:
        return list(self._index.get(class_name, ()))

    def count(self, class_name: str) -> int:
        return len(self._index.get(class_name, ()))

    def class_names(self) -> List[str]:
        return list(self._index)

    def is_alive(self, class_name: str, key) -> bool:
        instance = self._weak.get((class_name, key))
        if instance is not None:
            return instance.alive
        flags = self._index.get(class_name)
        return bool(flags and flags.get(key, False))

    def alive_keys(self, class_name: str) -> List[object]:
        flags = self._index.get(class_name)
        if not flags:
            return []
        weak = self._weak
        result = []
        for key, flag in flags.items():
            instance = weak.get((class_name, key))
            if instance.alive if instance is not None else flag:
                result.append(key)
        return result

    def population_identities(self, class_name: str) -> List[Value]:
        return [
            make_identity(class_name, key) for key in self.alive_keys(class_name)
        ]

    def alive_instances(self, class_name: str) -> List[Any]:
        """The alive instances of a class, faulting as needed (callers
        wanting population membership only should use
        :meth:`alive_keys`)."""
        return [self.get(class_name, key) for key in self.alive_keys(class_name)]

    def resident_count(self) -> int:
        return len(self._weak)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def dump_record(self, class_name: str, key) -> Dict[str, Any]:
        """The persistence-format record of one registered instance:
        from the live object when resident, straight from the backend
        (storage fields stripped) when paged out -- byte-identical
        either way."""
        if self.direct:
            return instance_to_json(self._dicts[class_name][key])
        instance = self._weak.get((class_name, key))
        if instance is not None:
            return instance_to_json(instance)
        record = self.backend.load(class_name, key)
        if record is None:
            raise RuntimeSpecError(
                f"storage backend {self.backend.name!r} has no record for "
                f"registered instance {class_name}({key!r})"
            )
        return strip_storage_fields(record)

    # ------------------------------------------------------------------
    # Paging policy
    # ------------------------------------------------------------------

    def balance(self) -> None:
        """Evict least-recently-used residents down to the hot-set
        capacity.  Only the object base calls this, and only at safe
        points (no atomic unit in flight)."""
        hot = self._hot
        capacity = self.hot_capacity
        if len(hot) <= capacity:
            return
        backend = self.backend
        stats = self.stats
        while len(hot) > capacity:
            (class_name, key), instance = hot.popitem(last=False)
            if instance.epoch != instance._clean_epoch:
                backend.store(class_name, key, instance_to_record(instance))
                instance._clean_epoch = instance.epoch
                stats.writebacks += 1
            if instance.probe_cache:
                # break the instance -> verdict -> instance self-cycle so
                # an unreferenced evictee leaves the identity map by
                # refcount, not a later gc pass
                instance.probe_cache.clear()
            stats.evictions += 1

    def flush(self) -> None:
        """Write back every dirty resident (hot or weakly held) and sync
        the backend -- the snapshot/shutdown barrier."""
        backend = self.backend
        stats = self.stats
        index = self._index
        for (class_name, key), instance in list(self._weak.items()):
            if instance.epoch == instance._clean_epoch:
                continue
            flags = index.get(class_name)
            if flags is None or key not in flags:
                continue
            backend.store(class_name, key, instance_to_record(instance))
            instance._clean_epoch = instance.epoch
            stats.writebacks += 1
        backend.sync()

    def invalidate_resident_probe_caches(self) -> None:
        """Drop memoized verdicts; evicted instances have none (cleared
        at eviction), so residents are the complete set."""
        for instance in list(self._weak.values()):
            instance.probe_cache.clear()

    def close(self) -> None:
        if not self.direct:
            self.flush()
        self.backend.close()


class _ClassBucket:
    """One class's ``key -> Instance`` mapping, faulting on access."""

    __slots__ = ("_store", "_class_name")

    def __init__(self, store: InstanceStore, class_name: str):
        self._store = store
        self._class_name = class_name

    def __getitem__(self, key):
        instance = self._store.get(self._class_name, key)
        if instance is None:
            raise KeyError(key)
        return instance

    def get(self, key, default=None):
        instance = self._store.get(self._class_name, key)
        return default if instance is None else instance

    def __setitem__(self, key, instance) -> None:
        self._store.insert(self._class_name, key, instance)

    def __delitem__(self, key) -> None:
        if not self._store.contains(self._class_name, key):
            raise KeyError(key)
        self._store.remove(self._class_name, key)

    def __contains__(self, key) -> bool:
        return self._store.contains(self._class_name, key)

    def __iter__(self) -> Iterator:
        return iter(self._store.keys(self._class_name))

    def __len__(self) -> int:
        return self._store.count(self._class_name)

    def keys(self):
        return self._store.keys(self._class_name)

    def values(self):
        store = self._store
        name = self._class_name
        return [store.get(name, key) for key in store.keys(name)]

    def items(self):
        store = self._store
        name = self._class_name
        return [(key, store.get(name, key)) for key in store.keys(name)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<storage bucket {self._class_name}: {len(self)} instance(s)>"


class _InstancesFacade:
    """``system.instances`` over a paging store: a read-through
    dict-of-dicts whose inner mappings are :class:`_ClassBucket`
    facades.  Iteration order is the registration index's class order
    (the spec's class order, exactly as the seed's literal dict)."""

    __slots__ = ("_store",)

    def __init__(self, store: InstanceStore):
        self._store = store

    def _bucket(self, class_name: str) -> _ClassBucket:
        return self._store._buckets[class_name]

    def __getitem__(self, class_name: str) -> _ClassBucket:
        return self._bucket(class_name)

    def get(self, class_name: str, default=None):
        if class_name in self._store._index:
            return self._bucket(class_name)
        return default

    def setdefault(self, class_name: str, default=None) -> _ClassBucket:
        if class_name not in self._store._index:
            self._store._index[class_name] = {}
            self._store._buckets[class_name] = _ClassBucket(self._store, class_name)
        return self._bucket(class_name)

    def __contains__(self, class_name: str) -> bool:
        return class_name in self._store._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.class_names())

    def __len__(self) -> int:
        return len(self._store._index)

    def keys(self):
        return self._store.class_names()

    def values(self):
        return [self._bucket(name) for name in self._store.class_names()]

    def items(self):
        return [(name, self._bucket(name)) for name in self._store.class_names()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<storage facade over {self._store.backend.name!r}>"
