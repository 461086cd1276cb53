"""The object base: populations, occurrences, atomic synchronization.

:class:`ObjectBase` is the animator's heart.  It is built from a checked
specification (or directly from specification text) and then drives
event occurrences::

    system = ObjectBase(FULL_COMPANY_SPEC)
    sales = system.create("DEPT", {"id": "Sales"},
                          "establishment", [date(1991, 3, 1)])
    alice = system.create("PERSON",
                          {"Name": "alice", "BirthDate": date(1960, 1, 1)},
                          "hire_into", ["Research", 4000])
    system.occur(sales, "hire", [alice.identity])

Every ``occur``/``create`` call processes one *synchronization set*: the
triggering occurrence plus everything event calling forces (local
interaction rules, global interactions, role births/deaths), as one
atomic unit -- any permission denial, life-cycle violation or constraint
breach rolls the whole set back and raises.

The occurrence pipeline per event, in order: route to the declaring
aspect; life-cycle check; permission check (monitors or naive replay,
per ``permission_mode``); valuation (all right-hand sides evaluated on
the pre-state, then applied); role births/deaths; called events
(transaction-call targets processed in sequence).  After the whole set:
static-constraint check over every touched instance and its role
aspects, then commit (traces, monitors, class objects).
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.datatypes.compile import evaluate_term
from repro.datatypes.evaluator import Environment, MapEnvironment, evaluate
from repro.datatypes.sorts import IdSort
from repro.datatypes.terms import Term, Var
from repro.datatypes.values import Value, from_python, identity as make_identity
from repro.diagnostics import (
    CheckError,
    ConstraintViolation,
    EvaluationError,
    LifecycleError,
    OccurrenceRef,
    PermissionDenied,
    RuntimeSpecError,
)
from repro.observability.hooks import (
    _NULL_SPAN,
    _NULL_SPAN_CONTEXT,
    Observability,
    get_observability,
)
from repro.observability.profile import (
    PHASE_CALLED_EVENTS,
    PHASE_CONSTRAINT_SWEEP,
    PHASE_JOURNAL_COMMIT,
    PHASE_PERMISSION,
    PHASE_ROLE_UPDATES,
    PHASE_VALUATION,
)
from repro.observability.journal import (
    Journal,
    _NoJournal,
    get_capture as get_journal_capture,
)
from repro.lang import ast
from repro.lang.checker import CheckedSpecification, check_specification
from repro.lang.parser import parse_specification
from repro.temporal.evaluation import TraceStep, evaluate_formula_now
from repro.temporal.monitors import FormulaMonitor
from repro.runtime.compilespec import (
    CompiledClass,
    CompiledSpecification,
    compile_specification,
)
from repro.runtime.enabledness import CachedVerdict, ProbeDependencies, ProbeStats
from repro.runtime.instance import Instance
from repro.runtime.verdicts import MaintainedVerdicts
from repro.runtime.txncompile import (
    STATS as _TXN_STATS,
    clear_plan_cache as _clear_txn_plans,
    lookup_plan as _lookup_txn_plan,
)
from repro.storage.registry import InstanceStore


class Occurrence:
    """One event occurrence inside a synchronization set."""

    __slots__ = ("instance", "event", "args")

    def __init__(self, instance: Instance, event: str, args: Tuple[Value, ...]):
        self.instance = instance
        self.event = event
        self.args = args

    def __repr__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.instance.class_name}({self.instance.key!r}).{self.event}({inner})"


class ClassObject:
    """The class-as-object: implicit ``members``/``count`` observations
    maintained by member birth and death (Section 3: "a class is again an
    object, with a time varying set of objects as members")."""

    def __init__(self, class_name: str):
        self.class_name = class_name
        self.members: Set[Value] = set()
        from repro.temporal.evaluation import Trace

        self.trace = Trace()

    @property
    def count(self) -> int:
        return len(self.members)

    def record(self, event: str, member: Value) -> None:
        from repro.datatypes.values import integer

        # The step records the member delta (args) and the new count;
        # the membership at any trace point is the insert/delete prefix
        # folded together.  Snapshotting the full member set here made
        # every birth O(population) -- quadratic time and memory over a
        # class's life, which the disk-resident backends exist to avoid.
        state = {"count": integer(self.count)}
        self.trace.append(TraceStep(event=event, args=(member,), state=tuple(state.items())))


class ChangeSet:
    """What committed units changed since the set was started: the
    ``(class, key)`` of every instance they touched and the class-object
    membership they changed (class -> identity -> member afterwards).

    Keys are kept in the order committed units first touched them; a
    unit touches its new instances in the order it registered them, so
    new keys follow the registry's order.  Keys, not instances: a
    paging store's hot-set bound still holds."""

    __slots__ = ("keys", "members")

    def __init__(self) -> None:
        self.keys: Dict[Tuple[str, object], None] = {}
        self.members: Dict[str, Dict[Value, bool]] = {}

    def note(self, instance: Instance) -> None:
        """An instance a committed unit touched, with its base aspects
        (attribute writes route to the aspect that stores them)."""
        keys = self.keys
        while instance is not None:
            keys[(instance.class_name, instance.key)] = None
            instance = instance.base


class _Transaction:
    """Book-keeping for one atomic synchronization set."""

    def __init__(self, system: "ObjectBase"):
        self.system = system
        self.processed: Set[Tuple[str, object, str, Tuple[Value, ...]]] = set()
        self.snapshots: Dict[int, Tuple[Instance, tuple]] = {}
        self.created: List[Instance] = []
        self.steps: List[Tuple[Instance, TraceStep, str]] = []
        self.depth = 0
        #: causal provenance for the journal, maintained only while a
        #: recorder is attached: ``parents[i]`` is the index of the step
        #: whose event calling / role coupling produced step ``i`` (None
        #: for triggers), ``call_stack`` the indices of the occurrences
        #: currently being processed.
        self.journaling = system.recorder is not None
        self.parents: List[Optional[int]] = []
        self.call_stack: List[int] = []

    def touch(self, instance: Instance) -> None:
        """Snapshot an instance the unit may change, with its base
        aspects: a role's attribute writes land on the aspect that
        stores them (``Instance.set_attribute``), so a rollback must
        restore the base chain as well."""
        snapshots = self.snapshots
        while instance is not None and id(instance) not in snapshots:
            snapshots[id(instance)] = (instance, instance.full_snapshot())
            instance.system.verdicts.note(instance)
            store = self.system.store
            if not store.direct:
                # every touched instance must be hot at commit so the
                # paging store writes the mutation back on eviction
                store.readmit(instance)
            instance = instance.base

    def touched_instances(self) -> List[Instance]:
        return [inst for inst, _ in self.snapshots.values()]

    def record(self, instance: Instance, step: TraceStep, kind: str) -> int:
        self.steps.append((instance, step, kind))
        if self.journaling:
            self.parents.append(self.call_stack[-1] if self.call_stack else None)
        return len(self.steps) - 1

    def rollback(self) -> None:
        for instance, snapshot in self.snapshots.values():
            instance.restore(snapshot)
        for instance in self.created:
            self.system._unregister(instance)

    def commit(self) -> None:
        incremental = self.system.permission_mode == "incremental"
        paging = not self.system.store.direct
        changes = self.system.changes
        if changes is not None:
            for instance, _snapshot in self.snapshots.values():
                changes.note(instance)
        self.system.verdicts.commit(
            instance for instance, _snapshot in self.snapshots.values()
        )
        for instance, step, kind in self.steps:
            instance.record_step(step)
            if incremental:
                self.system._update_monitors(instance, step)
            if kind in ("birth", "death"):
                # The class's alive-set changed; cached verdicts that
                # consulted the population (or the role set of a base
                # aspect) must notice.
                self.system._bump_population(instance.class_name)
                if paging:
                    self.system.store.note_lifecycle(instance)
                base = instance.base
                while base is not None:
                    base.epoch += 1
                    if paging:
                        self.system.store.readmit(base)
                    base = base.base
            if instance.compiled.info.kind == "class":
                class_object = self.system.class_object(instance.class_name)
                if kind == "birth":
                    class_object.members.add(instance.identity)
                    class_object.record("insert_member", instance.identity)
                elif kind == "death":
                    class_object.members.discard(instance.identity)
                    class_object.record("delete_member", instance.identity)
                if changes is not None and kind in ("birth", "death"):
                    changes.members.setdefault(instance.class_name, {})[
                        instance.identity
                    ] = kind == "birth"


class ObjectBase:
    """A running object society for one specification."""

    #: recursion guard for pathological calling cycles
    MAX_SYNC_DEPTH = 64

    def __init__(
        self,
        source: Union[str, ast.Specification, CheckedSpecification, CompiledSpecification],
        permission_mode: str = "incremental",
        check_constraints: bool = True,
        observability: Optional[Observability] = None,
        journal: Optional[Journal] = None,
        probe_cache: bool = True,
        term_compile: Optional[bool] = None,
        txn_compile: Optional[bool] = None,
        storage: Optional[str] = None,
        hot_set: Optional[int] = None,
    ):
        if permission_mode not in ("incremental", "naive"):
            raise ValueError("permission_mode must be 'incremental' or 'naive'")
        self.permission_mode = permission_mode
        self.check_constraints = check_constraints
        #: rule bodies evaluated through the closure compiler
        #: (repro.datatypes.compile) instead of the tree-walking
        #: interpreter.  None defers to REPRO_TERM_COMPILE (any value
        #: but "0" enables), so twin runs of unmodified scripts can
        #: compare both modes.  Flip at runtime via set_term_compile.
        if term_compile is None:
            term_compile = os.environ.get("REPRO_TERM_COMPILE", "1") != "0"
        self.term_compile = bool(term_compile)
        #: whole transactions executed through fused per-(class, event)
        #: closures (repro.runtime.txncompile) instead of the generic
        #: dry-transaction pipeline, which stays the behavioural oracle
        #: and the fallback for declined constructs.  None defers to
        #: REPRO_TXN_COMPILE (any value but "0" enables), so twin runs
        #: of unmodified scripts can compare both modes.  Flip at
        #: runtime via set_txn_compile.
        if txn_compile is None:
            txn_compile = os.environ.get("REPRO_TXN_COMPILE", "1") != "0"
        self.txn_compile = bool(txn_compile)
        #: epoch-memoized permission probes (False -> every probe is a
        #: fresh dry transaction, the exhaustive-rescan baseline)
        self.probe_caching = probe_cache
        #: read-set recorder of the probe currently running (None when
        #: no memoizing probe is in flight)
        self._probe_deps: Optional[ProbeDependencies] = None
        #: per-class population epochs (registry/alive-set changes)
        self._population_epochs: Dict[str, int] = {}
        #: bumped on instance (un)registration; keys the cached
        #: active-event candidate list
        self._registry_version = 0
        self._active_candidates: Optional[Tuple[int, List[Tuple[Instance, str]]]] = None
        #: probe-cache accounting (always on; cheap ints)
        self.probe_stats = ProbeStats()
        #: telemetry hooks (None -> the process-global default, which is
        #: itself None unless repro.observability.install() was called;
        #: the hot paths then pay a single attribute load + None test)
        self.obs: Optional[Observability] = (
            observability if observability is not None else get_observability()
        )
        if self.obs is not None:
            # probe_cache.* counters are live views over probe_stats --
            # no per-probe mirror callback on the hot path
            self.obs.attach_probe_source(self.probe_stats)
        #: the spec-level profiler, mirrored out of ``obs`` so profiled
        #: paths pay one attribute load + None test (the same dormant-
        #: hook contract as ``obs`` itself)
        self.prof = self.obs.profiler if self.obs is not None else None
        #: event-journal flight recorder, same disabled-by-default
        #: contract as ``obs`` (None -> the process-global journal
        #: capture if installed, else no recording); distinct from
        #: ``self.journal`` below, the plain in-memory occurrence list
        if isinstance(journal, _NoJournal):
            self.recorder: Optional[Journal] = None
        elif journal is not None:
            self.recorder = journal
        else:
            capture = get_journal_capture()
            self.recorder = capture.attach(self) if capture is not None else None
        if isinstance(source, str):
            source = parse_specification(source)
        if isinstance(source, ast.Specification):
            source = check_specification(source)
        if isinstance(source, CheckedSpecification):
            source.raise_if_errors()
            source = compile_specification(source)
        self.compiled: CompiledSpecification = source
        self.checked: CheckedSpecification = source.checked
        #: pluggable instance storage: "memory" (all-resident, the seed
        #: semantics), "paged[:dir]" or "sqlite[:path]".  None defers to
        #: REPRO_STORAGE; the hot-set bound to REPRO_STORAGE_HOT.
        if storage is None:
            storage = os.environ.get("REPRO_STORAGE") or "memory"
        if hot_set is None:
            hot_set = int(os.environ.get("REPRO_STORAGE_HOT", "0") or 0) or 4096
        self.store = InstanceStore(self, storage, hot_set)
        #: class name -> key payload -> Instance (in direct/memory mode
        #: the store's plain dicts, byte-for-byte the seed's registry;
        #: otherwise a read-through facade that faults on access)
        self.instances: Dict[str, Dict[object, Instance]] = self.store.mapping()
        if self.obs is not None and not self.store.direct:
            self.obs.attach_storage_source(self.store.stats)
        #: depth of atomic units in flight; the store only evicts (and
        #: population queries only serve their epoch-keyed caches) at
        #: depth 0, when every instance's flags are committed state
        self._in_unit = 0
        self._population_cache: Dict[str, Tuple[int, List[Value]]] = {}
        self._alive_cache: Dict[str, Tuple[int, List[Instance]]] = {}
        self._alive_key_cache: Dict[str, Tuple[int, List[object]]] = {}
        self.class_objects: Dict[str, ClassObject] = {}
        #: every occurrence committed, in order (for inspection/tests).
        #: Under a paging store an unbounded list would strongly pin
        #: every instance ever touched, so it becomes a bounded deque.
        self.journal: List[Occurrence] = (
            [] if self.store.direct else deque(maxlen=1024)
        )
        #: commit hooks: called with the occurrence list of each
        #: committed synchronization set (society-interface relays,
        #: Section 6's communicating object societies)
        self.on_commit: List = []
        #: what committed units changed since the last take_changes();
        #: None (nothing noted) unless an owner that checkpoints -- a
        #: shard worker with a spool -- started a ChangeSet
        self.changes: Optional[ChangeSet] = None
        #: the violator/witness sets of population-quantified
        #: permissions (repro.runtime.verdicts)
        self.verdicts = MaintainedVerdicts(self)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def compiled_class(self, class_name: str) -> CompiledClass:
        try:
            return self.compiled.classes[class_name]
        except KeyError:
            raise CheckError(f"unknown class {class_name!r}")

    def find(self, class_name: str, key) -> Optional[Instance]:
        deps = self._probe_deps
        if deps is not None:
            # Registry lookups depend on which identities exist -- a
            # population-epoch dependency (covers the not-found case).
            deps.note_population(class_name)
        if isinstance(key, Value):
            key = key.payload
        return self.instances.get(class_name, {}).get(key)

    def instance(self, class_name: str, key) -> Instance:
        found = self.find(class_name, key)
        if found is None:
            raise LifecycleError(f"no {class_name} instance with identity {key!r}")
        return found

    def single_object(self, name: str) -> Instance:
        """The unique instance of a single-object declaration."""
        compiled = self.compiled_class(name)
        if not compiled.is_single_object:
            raise CheckError(f"{name!r} is an object class, not a single object")
        found = self.find(name, name)
        if found is None:
            raise LifecycleError(f"single object {name!r} has not been created yet")
        return found

    def resolve_instance(self, identity: Value) -> Optional[Instance]:
        if not isinstance(identity.sort, IdSort):
            return None
        return self.find(identity.sort.class_name, identity.payload)

    def population(self, class_name: str) -> List[Value]:
        """Identities of the currently alive instances of a class.

        Memoized per population epoch while no atomic unit is in flight
        (mid-unit, life-cycle flags are uncommitted and the epoch has
        not advanced yet, so the scan must stay live)."""
        deps = self._probe_deps
        if deps is not None:
            deps.note_population(class_name)
        epoch = self._population_epochs.get(class_name, 0)
        at_rest = self._in_unit == 0
        if at_rest:
            cached = self._population_cache.get(class_name)
            if cached is not None and cached[0] == epoch:
                return cached[1]
        if self.store.direct:
            result = [
                inst.identity
                for inst in self.instances.get(class_name, {}).values()
                if inst.alive
            ]
        else:
            result = self.store.population_identities(class_name)
        if at_rest:
            self._population_cache[class_name] = (epoch, result)
        return result

    def alive_instances(self, class_name: str) -> List[Instance]:
        """The alive instances of a class (under a paging store this
        faults every one of them in; prefer :meth:`alive_keys` or
        :meth:`population` for membership-only questions)."""
        deps = self._probe_deps
        if deps is not None:
            deps.note_population(class_name)
        direct = self.store.direct
        epoch = self._population_epochs.get(class_name, 0)
        # only the all-resident runtime caches the instance list; under
        # a paging store the cache itself would pin the population
        at_rest = direct and self._in_unit == 0
        if at_rest:
            cached = self._alive_cache.get(class_name)
            if cached is not None and cached[0] == epoch:
                return cached[1]
        if direct:
            result = [
                i for i in self.instances.get(class_name, {}).values() if i.alive
            ]
        else:
            result = self.store.alive_instances(class_name)
        if at_rest:
            self._alive_cache[class_name] = (epoch, result)
        return result

    def alive_keys(self, class_name: str) -> List[object]:
        """Key payloads of the currently alive instances, in
        registration order, without faulting any instance in.  Memoized
        per population epoch at rest."""
        deps = self._probe_deps
        if deps is not None:
            deps.note_population(class_name)
        epoch = self._population_epochs.get(class_name, 0)
        at_rest = self._in_unit == 0
        if at_rest:
            cached = self._alive_key_cache.get(class_name)
            if cached is not None and cached[0] == epoch:
                return cached[1]
        if self.store.direct:
            result = [
                inst.key
                for inst in self.instances.get(class_name, {}).values()
                if inst.alive
            ]
        else:
            result = self.store.alive_keys(class_name)
        if at_rest:
            self._alive_key_cache[class_name] = (epoch, result)
        return result

    def class_object(self, class_name: str) -> ClassObject:
        if class_name not in self.compiled.classes:
            raise CheckError(f"unknown class {class_name!r}")
        if class_name not in self.class_objects:
            self.class_objects[class_name] = ClassObject(class_name)
        return self.class_objects[class_name]

    # ------------------------------------------------------------------
    # Creation and occurrence API
    # ------------------------------------------------------------------

    def create(
        self,
        class_name: str,
        identification: Optional[dict] = None,
        event: Optional[str] = None,
        args: Sequence[object] = (),
    ) -> Instance:
        """Create an instance: register the identity, then run the birth
        event (the class's unique birth event if ``event`` is omitted)."""
        compiled = self.compiled_class(class_name)
        instance = self._register(compiled, identification)
        birth = self._birth_event(compiled, event)
        try:
            self._occur_root(instance, birth.name, self._coerce_args(args))
        except Exception:
            if not instance.born:
                self._unregister(instance)
            raise
        return instance

    def occur(
        self,
        instance: Union[Instance, Tuple[str, object]],
        event: str,
        args: Sequence[object] = (),
    ) -> None:
        """Drive one event occurrence (plus its synchronization set)."""
        if not isinstance(instance, Instance):
            class_name, key = instance
            instance = self.instance(class_name, key)
        decl = instance.compiled.event(event)
        if decl is not None and decl.hidden:
            raise PermissionDenied(
                f"{instance.class_name}.{event} is hidden; it occurs only "
                "through event calling"
            )
        self._occur_root(instance, event, self._coerce_args(args))

    def is_permitted(
        self,
        instance: Instance,
        event: str,
        args: Sequence[object] = (),
        use_cache: Optional[bool] = None,
    ) -> bool:
        """Would this occurrence (with everything it calls) be admitted?

        Implemented as a dry transaction that always rolls back.  With
        probe caching on (the default), the verdict is memoized keyed on
        the epochs of every object the dry transaction actually read,
        so repeated probes against unchanged state cost a handful of
        integer comparisons.  ``use_cache=False`` forces a fresh dry
        transaction (the differential-testing oracle).
        """
        coerced = self._coerce_args(args)
        if use_cache is None:
            use_cache = self.probe_caching
        if not use_cache or self._probe_deps is not None or instance.system is not self:
            # Cache off, re-entrant probe, or a foreign instance: run the
            # plain dry transaction without touching the memo tables.
            return self._probe_fresh(instance, event, coerced)
        stats = self.probe_stats
        key = (event, coerced)
        entry = instance.probe_cache.get(key)
        if entry is not None:
            if entry.valid(self._population_epochs):
                stats.hits += 1
                return entry.verdict
            del instance.probe_cache[key]
            stats.invalidations += 1
        stats.misses += 1
        deps = ProbeDependencies()
        deps.note_instance(instance)
        self._probe_deps = deps
        try:
            verdict = self._probe_fresh(instance, event, coerced)
        finally:
            self._probe_deps = None
        if deps.punted:
            stats.punts += 1
        else:
            # Epochs are recorded *after* the dry transaction rolled
            # back, so they are the committed (pre-probe) epochs.
            pop_epochs = self._population_epochs
            instance.probe_cache[key] = CachedVerdict(
                verdict,
                tuple((dep, dep.epoch) for dep in deps.instances.values()),
                tuple(
                    (name, pop_epochs.get(name, 0)) for name in deps.populations
                ),
            )
        return verdict

    def _probe_fresh(
        self, instance: Instance, event: str, coerced: Tuple[Value, ...]
    ) -> bool:
        """One uncached dry transaction (always rolled back)."""
        obs = self.obs
        prof = self.prof
        if prof is not None:
            prof.begin_root(prof.node_name("probe", instance.class_name, event))
        self._in_unit += 1
        txn = _Transaction(self)
        try:
            self._process(txn, instance, event, coerced)
            self._check_static_constraints(txn)
            if obs is not None and obs.enabled:
                obs.metrics.counter("probes.admitted").inc()
            return True
        except RuntimeSpecError:
            if obs is not None and obs.enabled:
                obs.metrics.counter("probes.rejected").inc()
            return False
        finally:
            txn.rollback()
            self._in_unit -= 1
            self._balance_store()
            if prof is not None:
                prof.end_root()

    def invalidate_probes(self) -> None:
        """Drop every memoized probe verdict (escape hatch for callers
        that mutate instance state behind the runtime's back)."""
        if self.store.direct:
            for bucket in self.instances.values():
                for instance in bucket.values():
                    instance.probe_cache.clear()
        else:
            # paged-out instances carry no verdicts (cleared at
            # eviction); the residents are the complete set
            self.store.invalidate_resident_probe_caches()
        self._active_candidates = None
        self.verdicts.drop()

    # ------------------------------------------------------------------
    # Rule-body evaluation (closure compiler seam)
    # ------------------------------------------------------------------

    def eval_term(
        self,
        term: Term,
        env: Optional[Environment] = None,
        owner: Optional[CompiledClass] = None,
    ) -> Value:
        """Evaluate a rule body: through the closure compiler when
        ``term_compile`` is on (compiled bodies cached on ``owner``, the
        rule's :class:`CompiledClass`, when given), through the
        tree-walking interpreter otherwise.  The flag is consulted per
        call, so monitors and views holding this bound method follow
        :meth:`set_term_compile` flips immediately."""
        if not self.term_compile:
            return evaluate(term, env)
        return evaluate_term(
            term,
            env,
            cache=None if owner is None else owner.term_cache,
        )

    def _class_term_eval(self, owner: CompiledClass):
        """A ``(term, env) -> Value`` evaluator whose compiled bodies are
        cached on ``owner`` (for monitors and the naive permission path,
        whose rule terms belong to one class)."""

        def term_eval(term: Term, env: Optional[Environment] = None) -> Value:
            return self.eval_term(term, env, owner)

        return term_eval

    def set_term_compile(self, enabled: bool) -> None:
        """Flip between compiled and interpreted rule evaluation.

        Also drops every memoized probe verdict: cached enabledness
        entries were produced by the *other* evaluation path, and the
        soundness argument for reusing them ("unchanged epochs imply an
        identical re-evaluation") holds only while the evaluator that
        would re-run is the one that ran.  Swapping a compiled
        permission body for its interpreted fallback (or back) must
        therefore invalidate, not inherit, the cache."""
        enabled = bool(enabled)
        if enabled == self.term_compile:
            return
        self.term_compile = enabled
        self.invalidate_probes()

    def set_txn_compile(self, enabled: bool) -> None:
        """Flip between fused transaction closures and the generic
        pipeline.

        Mirrors :meth:`set_term_compile`'s invalidation contract:
        memoized probe verdicts were produced by the *other* execution
        path and must be dropped, not inherited.  The compiled-plan
        cache is cleared as well -- the specification may be shared by
        systems in either mode, and a stale plan compiled before a flip
        must not survive into the next enable."""
        enabled = bool(enabled)
        if enabled == self.txn_compile:
            return
        self.txn_compile = enabled
        self.invalidate_probes()
        _clear_txn_plans(self.compiled)

    def _active_schedule(self) -> List[Tuple[Instance, str]]:
        """The scheduler's candidate list -- every parameterless active
        event of every registered instance, in deterministic registry
        order -- cached until the registry changes.  Liveness is checked
        at iteration time (death does not change the registry)."""
        cached = self._active_candidates
        if cached is not None and cached[0] == self._registry_version:
            return cached[1]
        candidates = [
            (instance, event.name)
            for class_name in sorted(self.instances)
            for instance in self.instances[class_name].values()
            for event in self.compiled_class(class_name).active_events()
            if not event.param_sorts
        ]
        self._active_candidates = (self._registry_version, candidates)
        return candidates

    def _active_schedule_keys(self) -> List[Tuple[str, object, str]]:
        """The paging-store twin of :meth:`_active_schedule`: the same
        candidates as (class, key, event) triples, so the cached list
        pins no instances.  Instances are resolved (and faulted) one at
        a time when the scheduler actually probes them."""
        cached = self._active_candidates
        if cached is not None and cached[0] == self._registry_version:
            return cached[1]
        store = self.store
        candidates: List[Tuple[str, object, str]] = []
        for class_name in sorted(store.class_names()):
            events = [
                event.name
                for event in self.compiled_class(class_name).active_events()
                if not event.param_sorts
            ]
            if not events:
                continue
            for key in store.keys(class_name):
                for event_name in events:
                    candidates.append((class_name, key, event_name))
        self._active_candidates = (self._registry_version, candidates)
        return candidates

    def step(self, order: Optional[Sequence[Tuple[str, object, str]]] = None) -> Optional[Occurrence]:
        """Fire one enabled *active* event (the scheduler step for active
        objects).  Candidates are parameterless active events of alive
        instances, probed in deterministic registry order (or the given
        ``order`` of (class, key, event) triples; entries naming an
        unknown or not-alive identity are skipped, matching the default
        path's filter).  Probes go through the epoch-memoized cache, so
        only candidates whose last verdict was invalidated by an actual
        dependency change are re-probed.  Returns the fired occurrence
        or None when no active event is enabled."""
        if order is None and not self.store.direct:
            # the cached candidate list holds (class, key, event)
            # triples so it pins nothing; aliveness is answered by the
            # registration index before any instance is faulted in
            store = self.store
            for class_name, key, event_name in self._active_schedule_keys():
                if not store.is_alive(class_name, key):
                    continue
                instance = self.find(class_name, key)
                if instance is None or not instance.alive:
                    continue
                if self.is_permitted(instance, event_name):
                    self._occur_root(instance, event_name, ())
                    return Occurrence(instance, event_name, ())
            return None
        candidates: Iterable[Tuple[Instance, str]]
        if order is not None:
            candidates = [
                (found, event_name)
                for class_name, key, event_name in order
                for found in (self.find(class_name, key),)
                if found is not None
            ]
        else:
            candidates = self._active_schedule()
        for instance, event_name in candidates:
            if not instance.alive:
                continue
            if self.is_permitted(instance, event_name):
                self._occur_root(instance, event_name, ())
                return Occurrence(instance, event_name, ())
        return None

    def run_active(self, max_steps: int = 100) -> List[Occurrence]:
        """Run the active-event scheduler until quiescence (or the step
        bound)."""
        fired: List[Occurrence] = []
        for _ in range(max_steps):
            occurrence = self.step()
            if occurrence is None:
                break
            fired.append(occurrence)
        return fired

    def enabled_events(
        self,
        instance: Instance,
        candidate_args: Optional[Dict[str, List[Sequence[object]]]] = None,
    ) -> List[Tuple[str, Tuple[Value, ...]]]:
        """The admissible next occurrences of ``instance`` -- the
        simulation explorer.

        Parameterless events are probed directly; for events with
        parameters, candidate argument lists must be supplied via
        ``candidate_args`` (event name -> list of argument tuples),
        since parameter domains are unbounded.  Each candidate is tried
        in a dry transaction (full semantics: permissions, protocol,
        constraints, called events).
        """
        candidate_args = candidate_args or {}
        results: List[Tuple[str, Tuple[Value, ...]]] = []
        for name, decl in sorted(instance.compiled.info.all_events().items()):
            if decl.param_sorts:
                for args in candidate_args.get(name, ()):
                    coerced = self._coerce_args(args)
                    if self.is_permitted(instance, name, coerced):
                        results.append((name, coerced))
            else:
                if self.is_permitted(instance, name, ()):
                    results.append((name, ()))
        return results

    def pending_obligations(self, instance: Instance) -> List[str]:
        """Obligation events the instance has not yet performed (its
        death events stay denied while this list is non-empty).  Uses
        the performed-event set maintained incrementally alongside the
        trace, so the check is O(obligations), not O(trace)."""
        performed = instance.performed_events
        return [
            event
            for event in instance.compiled.obligations
            if event not in performed
        ]

    def pending_obligations_scan(self, instance: Instance) -> List[str]:
        """The O(trace) reference implementation of
        :meth:`pending_obligations`, rebuilding the performed-event set
        from the whole trace.  Kept as the differential-test oracle for
        the incremental set."""
        performed = {step.event for step in instance.trace}
        return [
            event
            for event in instance.compiled.obligations
            if event not in performed
        ]

    def get(self, instance: Union[Instance, Tuple[str, object]], attribute: str, args: Sequence[object] = ()) -> Value:
        """Observe an attribute (read-only interface).  Hidden
        attributes are not part of the public observation interface."""
        if not isinstance(instance, Instance):
            class_name, key = instance
            instance = self.instance(class_name, key)
        decl = instance.compiled.info.attributes.get(attribute)
        if decl is not None and decl.hidden:
            raise PermissionDenied(
                f"{instance.class_name}.{attribute} is hidden; it is "
                "observable only from the object's own rules"
            )
        return instance.observe(attribute, self._coerce_args(args))

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def _register(self, compiled: CompiledClass, identification: Optional[dict]) -> Instance:
        if compiled.is_single_object:
            payload: object = compiled.name
            id_values: Dict[str, Value] = {}
        else:
            id_attrs = compiled.info.id_attributes
            if not id_attrs:
                raise CheckError(
                    f"class {compiled.name} has no identification attributes; "
                    "supply an explicit identity via identification={'id': ...}"
                )
            identification = identification or {}
            id_values = {}
            payload_parts = []
            for attr in id_attrs:
                if attr.name not in identification:
                    raise CheckError(
                        f"missing identification attribute {attr.name!r} for "
                        f"{compiled.name}"
                    )
                value = from_python(identification[attr.name])
                id_values[attr.name] = value
                payload_parts.append(value.payload)
            payload = payload_parts[0] if len(payload_parts) == 1 else tuple(payload_parts)
        existing = self.find(compiled.name, payload)
        if existing is not None:
            if existing.dead:
                raise LifecycleError(
                    f"{compiled.name} identity {payload!r} already lived and "
                    "died; identities are not reused"
                )
            raise LifecycleError(
                f"{compiled.name} identity {payload!r} already exists"
            )
        identity = make_identity(compiled.name, payload)
        instance = Instance(compiled, identity, self)
        instance.state.update(id_values)
        self.instances.setdefault(compiled.name, {})[payload] = instance
        self._bump_population(compiled.name)
        return instance

    def _unregister(self, instance: Instance) -> None:
        bucket = self.instances.get(instance.class_name, {})
        if bucket.get(instance.key) is instance:
            del bucket[instance.key]
        self._bump_population(instance.class_name)
        if instance.base is not None:
            instance.base.roles.pop(instance.class_name, None)
            # The base aspect's role set changed; verdicts that iterated
            # its roles must notice.
            instance.base.epoch += 1

    def take_changes(self) -> Optional[ChangeSet]:
        """The changes noted so far, replaced by a fresh set."""
        changes, self.changes = self.changes, ChangeSet()
        return changes

    def _bump_population(self, class_name: str) -> None:
        """Advance the class's population epoch (registry or alive-set
        change) and invalidate the cached scheduler candidate list."""
        epochs = self._population_epochs
        epochs[class_name] = epochs.get(class_name, 0) + 1
        self._registry_version += 1

    def _balance_store(self) -> None:
        """Let the paging store evict down to its hot-set bound, but
        only at a safe point: no atomic unit in flight (uncommitted
        state must never be written back, and every in-flight unit holds
        strong references to its touched instances).  The maintained
        verdicts forget the finished units' touches at the same point."""
        if self._in_unit == 0:
            self.verdicts.settle()
            if not self.store.direct:
                self.store.balance()

    def _birth_event(self, compiled: CompiledClass, name: Optional[str]) -> ast.EventDecl:
        births = compiled.info.birth_events()
        if name is not None:
            decl = compiled.event(name)
            if decl is None or decl.kind != "birth":
                raise CheckError(
                    f"{compiled.name} has no birth event named {name!r}"
                )
            return decl
        if len(births) != 1:
            raise CheckError(
                f"{compiled.name} has {len(births)} birth events; pass one "
                "explicitly"
            )
        return births[0]

    def _coerce_args(self, args: Sequence[object]) -> Tuple[Value, ...]:
        coerced = []
        for arg in args:
            if isinstance(arg, Instance):
                coerced.append(arg.identity)
            else:
                coerced.append(from_python(arg))
        return tuple(coerced)

    # ------------------------------------------------------------------
    # The occurrence engine
    # ------------------------------------------------------------------

    def _occur_root(self, instance: Instance, event: str, args: Tuple[Value, ...]) -> None:
        if self.txn_compile:
            plan, fresh = _lookup_txn_plan(instance.compiled, event, self.compiled)
            if plan is not None and plan.eligible(self, instance):
                obs = self.obs
                if obs is not None and obs.enabled:
                    if not fresh:
                        _TXN_STATS.cache_hits += 1
                    plan.run_observed(self, obs, instance, args)
                    return
                if self.prof is None:
                    if not fresh:
                        _TXN_STATS.cache_hits += 1
                    plan.run_quiet(self, instance, args)
                    return
            _TXN_STATS.fallbacks += 1
        self._run_unit(((instance, event, args),))

    def _run_unit(
        self, items: Sequence[Tuple[Instance, str, Tuple[Value, ...]]]
    ) -> None:
        """Drive one atomic unit (a synchronization set) to commit or
        rollback.  ``items`` are the triggering occurrences (one for a
        plain ``occur``; several for a transaction-call sequence)."""
        obs = self.obs
        if obs is not None and obs.enabled:
            self._run_unit_observed(obs, items)
            return
        recorder = self.recorder
        triggers = recorder.snapshot_triggers(items) if recorder is not None else None
        self._in_unit += 1
        try:
            txn = _Transaction(self)
            try:
                for instance, event, args in items:
                    self._process(txn, instance, event, args)
                self._check_static_constraints(txn)
            except Exception as exc:
                txn.rollback()
                if recorder is not None:
                    recorder.record_rollback(triggers, exc)
                raise
            if recorder is not None:
                recorder.record_commit(txn, triggers)
            txn.commit()
        finally:
            self._in_unit -= 1
            self._balance_store()
        committed = [Occurrence(inst, step.event, step.args) for inst, step, _ in txn.steps]
        self.journal.extend(committed)
        self._notify_commit(committed)

    def _run_unit_observed(
        self,
        obs: Observability,
        items: Sequence[Tuple[Instance, str, Tuple[Value, ...]]],
    ) -> None:
        """The instrumented twin of :meth:`_run_unit`: a ``sync_set``
        root span, a ``constraint_check`` phase, and commit/rollback
        metrics (rolled-back occurrences count as aborted)."""
        first = items[0]
        recorder = self.recorder
        triggers = recorder.snapshot_triggers(items) if recorder is not None else None
        prof = self.prof
        if prof is not None:
            # one profile root per atomic unit, keyed by its trigger;
            # end_root unwinds whatever a rollback exception leaked
            prof.begin_root(
                prof.node_name("unit", first[0].class_name, first[1])
            )
        if obs.tracing:
            # span attributes (f-string + repr) are only worth building
            # when a span will actually record them
            span_context = obs.tracer.span(
                "sync_set",
                trigger=f"{first[0].class_name}({first[0].key!r}).{first[1]}",
            )
        else:
            span_context = _NULL_SPAN_CONTEXT
        self._in_unit += 1
        try:
            with span_context as root:
                txn = _Transaction(self)
                try:
                    for instance, event, args in items:
                        self._process(txn, instance, event, args)
                    if prof is not None:
                        prof.begin(PHASE_CONSTRAINT_SWEEP)
                    with obs.phase("constraint_check"):
                        self._check_static_constraints(txn)
                    if prof is not None:
                        prof.end()
                except Exception as exc:
                    txn.rollback()
                    reason = type(exc).__name__
                    failed = getattr(exc, "occurrence", None)
                    root.set("outcome", "rolled_back")
                    root.set("rollback_reason", reason)
                    if failed is not None:
                        root.set("failed_occurrence", str(failed))
                    obs.on_rollback(
                        len(txn.steps), reason, str(failed) if failed else ""
                    )
                    if recorder is not None:
                        recorder.record_rollback(triggers, exc)
                    raise
                if prof is not None:
                    prof.begin(PHASE_JOURNAL_COMMIT)
                if recorder is not None:
                    recorder.record_commit(txn, triggers)
                txn.commit()
                if prof is not None:
                    prof.end()
                committed = [
                    Occurrence(inst, step.event, step.args) for inst, step, _ in txn.steps
                ]
                root.set("outcome", "committed")
                root.set("sync_set_size", len(committed))
                obs.on_commit(len(committed))
                self.journal.extend(committed)
                self._notify_commit(committed)
        finally:
            self._in_unit -= 1
            self._balance_store()
            if prof is not None:
                prof.end_root()

    def _notify_commit(self, committed: List[Occurrence]) -> None:
        for hook in list(self.on_commit):
            hook(committed)

    def _process(
        self, txn: _Transaction, instance: Instance, event: str, args: Tuple[Value, ...]
    ) -> None:
        txn.depth += 1
        if txn.depth > self.MAX_SYNC_DEPTH:
            raise RuntimeSpecError(
                f"event calling exceeded depth {self.MAX_SYNC_DEPTH} "
                f"(at {instance.class_name}.{event}) -- calling cycle?"
            )
        try:
            obs = self.obs
            if obs is not None and obs.enabled:
                if obs.tracing:
                    with obs.tracer.span(
                        "occurrence",
                        **{
                            "class": instance.class_name,
                            "event": event,
                            "identity": repr(instance.key),
                        },
                    ) as span:
                        self._process_body(txn, instance, event, args, obs, span)
                else:
                    self._process_body(
                        txn, instance, event, args, obs, _NULL_SPAN
                    )
            else:
                self._process_body(txn, instance, event, args, None, None)
        except RuntimeSpecError as exc:
            # Attach the failing occurrence of the synchronization set,
            # so rollback diagnostics and trace spans agree on the
            # culprit.  The innermost occurrence wins (tag only once).
            if exc.occurrence is None:
                exc.occurrence = OccurrenceRef(
                    instance.class_name, event, instance.key
                )
            raise
        finally:
            txn.depth -= 1

    def _process_body(
        self,
        txn: _Transaction,
        instance: Instance,
        event: str,
        args: Tuple[Value, ...],
        obs: Optional[Observability],
        span,
    ) -> None:
        deps = self._probe_deps
        if deps is not None:
            # The verdict depends on every processed instance's
            # life-cycle flags, protocol configuration and monitor
            # state -- all covered by the instance epoch.
            deps.note_instance(instance)
        decl = instance.compiled.event(event)
        if decl is None:
            raise CheckError(
                f"{instance.class_name} has no event {event!r}"
            )
        if len(args) != len(decl.param_sorts):
            raise CheckError(
                f"{instance.class_name}.{event} expects "
                f"{len(decl.param_sorts)} argument(s), got {len(args)}"
            )
        # Route inherited (bound) normal events to the declaring
        # aspect: PERSON owns ChangeSalary even when called on the
        # MANAGER role.
        if (
            decl.binding is not None
            and decl.binding.object_name != instance.class_name
            and instance.base is not None
        ):
            target = instance
            while target.base is not None and target.class_name != decl.binding.object_name:
                target = target.base
            if target is not instance:
                if obs is not None:
                    span.set(
                        "routed_to",
                        f"{target.class_name}.{decl.binding.event_name}",
                    )
                self._process(txn, target, decl.binding.event_name, args)
                return

        key = (instance.class_name, instance.key, event, args)
        if key in txn.processed:
            if obs is not None:
                span.set("deduplicated", True)
            return
        txn.processed.add(key)

        if obs is None:
            new_protocol_states = self._phase_checks(instance, decl, event, args)
            assignments = self._plan_valuation(instance, event, args)
            self._phase_apply(
                txn, instance, decl, event, args, new_protocol_states, assignments
            )
            self._phase_roles(txn, instance, event, args)
            self._phase_calling(txn, instance, event, args)
            if txn.journaling:
                txn.call_stack.pop()
        else:
            prof = self.prof
            if prof is not None:
                prof.begin(
                    prof.node_name("occurrence", instance.class_name, event)
                )
                prof.begin(PHASE_PERMISSION)
            with obs.phase("permission_check"):
                new_protocol_states = self._phase_checks(instance, decl, event, args)
            if prof is not None:
                prof.end()
                prof.begin(PHASE_VALUATION)
            with obs.phase("valuation"):
                assignments = self._plan_valuation(instance, event, args)
                self._phase_apply(
                    txn, instance, decl, event, args, new_protocol_states, assignments
                )
            if prof is not None:
                prof.end()
                prof.begin(PHASE_ROLE_UPDATES)
            with obs.phase("role_updates"):
                self._phase_roles(txn, instance, event, args)
            if prof is not None:
                prof.end()
                prof.begin(PHASE_CALLED_EVENTS)
            with obs.phase("called_events"):
                self._phase_calling(txn, instance, event, args)
            if prof is not None:
                prof.end()
                prof.end()  # the occurrence node
            if txn.journaling:
                txn.call_stack.pop()

    def _phase_checks(
        self,
        instance: Instance,
        decl: ast.EventDecl,
        event: str,
        args: Tuple[Value, ...],
    ):
        """Life-cycle, permission (own + role aspects) and protocol
        checks; returns the successor protocol states (or None)."""
        self._check_lifecycle(instance, decl)
        self._check_permissions(instance, event, args)
        for role in self._all_roles(instance):
            self._check_permissions(role, event, args)
        return self._check_protocol(instance, decl, event)

    def _phase_apply(
        self,
        txn: _Transaction,
        instance: Instance,
        decl: ast.EventDecl,
        event: str,
        args: Tuple[Value, ...],
        new_protocol_states,
        assignments,
    ) -> None:
        """Apply the occurrence: life-cycle flags, valuation results,
        and the trace steps for the instance and its role aspects."""
        txn.touch(instance)
        if new_protocol_states is not None:
            instance.protocol_states = new_protocol_states
        kind = decl.kind
        if kind == "birth":
            instance.born = True
            txn.created.append(instance)
            self._apply_initial_values(instance)
            self._check_initial_constraints(instance)
        elif kind == "death":
            instance.dead = True
        for attribute, attr_args, value in assignments:
            instance.set_attribute(attribute, value, attr_args)

        step = TraceStep(
            event=event,
            args=args,
            state=tuple(instance.merged_state().items()),
        )
        index = txn.record(instance, step, kind)
        if txn.journaling:
            # Everything recorded until _process_body pops (role echoes,
            # role births/deaths, called events) was caused by this step.
            txn.call_stack.append(index)
        for role in self._all_roles(instance):
            txn.touch(role)
            txn.record(
                role,
                TraceStep(event=event, args=args, state=tuple(role.merged_state().items())),
                "normal",
            )

    def _phase_roles(
        self, txn: _Transaction, instance: Instance, event: str, args: Tuple[Value, ...]
    ) -> None:
        """Role births and deaths bound to this event."""
        for view_name in instance.compiled.role_births_by_event.get(event, []):
            self._birth_role(txn, instance, view_name, event, args)
        for view_name in instance.compiled.role_deaths_by_event.get(event, []):
            role = self._find_role(instance, view_name)
            if role is not None and role.alive:
                txn.touch(role)
                role.dead = True
                txn.record(
                    role,
                    TraceStep(event=event, args=args, state=tuple(role.merged_state().items())),
                    "death",
                )

    def _phase_calling(
        self, txn: _Transaction, instance: Instance, event: str, args: Tuple[Value, ...]
    ) -> None:
        """Event calling: local interaction rules, then globals."""
        for rule in instance.compiled.callings_by_event.get(event, []):
            self._fire_calling_rule(txn, instance, rule, args)
        for rule in self.compiled.global_callings.get(
            (instance.class_name, event), []
        ):
            self._fire_global_rule(txn, instance, rule, args)

    def _all_roles(self, instance: Instance):
        """All alive role aspects of ``instance``, transitively (a
        WORKSTATION is a role of the COMPUTER role of the device)."""
        for role in instance.roles.values():
            if role.alive:
                yield role
                yield from self._all_roles(role)

    def _find_role(self, instance: Instance, view_name: str) -> Optional[Instance]:
        for role in instance.roles.values():
            if role.class_name == view_name:
                return role
            found = self._find_role(role, view_name)
            if found is not None:
                return found
        return None

    def _birth_role(
        self,
        txn: _Transaction,
        base_instance: Instance,
        view_name: str,
        event: str,
        args: Tuple[Value, ...],
    ) -> None:
        existing = self.find(view_name, base_instance.key)
        if existing is not None and existing.alive:
            # The role already exists; the phase-entry event is not a
            # second birth (permissions on the base event govern this).
            return
        if existing is not None and existing.dead:
            raise LifecycleError(
                f"{view_name} role of {base_instance.key!r} already ended; "
                "phases are not re-entered with the same role instance"
            )
        compiled = self.compiled_class(view_name)
        # The role's base is its *view-of parent* aspect of the same
        # identity, which may itself be a role (multi-level chains).
        parent = base_instance
        if compiled.base is not None and compiled.base != base_instance.class_name:
            parent = self.find(compiled.base, base_instance.key)
            if parent is None or not parent.alive:
                raise LifecycleError(
                    f"cannot enter the {view_name} phase of "
                    f"{base_instance.key!r}: the required {compiled.base} "
                    "aspect does not exist"
                )
        identity = make_identity(view_name, base_instance.key)
        role = Instance(compiled, identity, self, base=parent)
        self.instances.setdefault(view_name, {})[role.key] = role
        self._bump_population(view_name)
        parent.roles[view_name] = role
        # A new role aspect joined the parent's role set (rolled back via
        # _unregister's bump if the unit aborts).
        parent.epoch += 1
        txn.created.append(role)
        txn.touch(role)
        self._check_permissions(role, event, args)
        role.born = True
        self._apply_initial_values(role)
        self._check_initial_constraints(role)
        for attribute, attr_args, value in self._plan_valuation(role, event, args):
            role.set_attribute(attribute, value, attr_args)
        txn.record(
            role,
            TraceStep(event=event, args=args, state=tuple(role.merged_state().items())),
            "birth",
        )

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    def _check_lifecycle(self, instance: Instance, decl: ast.EventDecl) -> None:
        name = f"{instance.class_name}({instance.key!r})"
        if decl.kind == "birth":
            if instance.born:
                raise LifecycleError(f"{name}: second birth event {decl.name!r}")
            return
        if not instance.born:
            raise LifecycleError(
                f"{name}: event {decl.name!r} before birth"
            )
        if instance.dead:
            raise LifecycleError(
                f"{name}: event {decl.name!r} after death"
            )

    def _check_protocol(self, instance: Instance, decl: ast.EventDecl, event: str):
        """Advance the behaviour-pattern automaton; deny occurrences
        that violate the declared protocol.  Returns the successor state
        set (to apply after snapshotting), or None when unconstrained."""
        automaton = instance.compiled.protocol
        if automaton is None:
            return None
        states = instance.protocol_states
        constrained = event in automaton.alphabet
        if constrained:
            states = automaton.advance(states, event)
            if not states:
                if self.obs is not None and self.obs.enabled:
                    self.obs.on_permission_denied(
                        instance.class_name, event, "behaviour_pattern"
                    )
                raise PermissionDenied(
                    f"{instance.class_name}({instance.key!r}).{event}: "
                    "occurrence violates the declared behaviour pattern"
                )
        if decl.kind == "death" and not automaton.is_accepting(states):
            if self.obs is not None and self.obs.enabled:
                self.obs.on_permission_denied(
                    instance.class_name, event, "behaviour_pattern"
                )
            raise PermissionDenied(
                f"{instance.class_name}({instance.key!r}).{event}: "
                "behaviour pattern incomplete at death"
            )
        return states if constrained else None

    def _check_permissions(
        self, instance: Instance, event: str, args: Tuple[Value, ...]
    ) -> None:
        deps = self._probe_deps
        if deps is not None:
            # Monitor summaries advance with the checked aspect's trace;
            # role aspects checked here are not otherwise processed.
            deps.note_instance(instance)
        rules = instance.compiled.permissions_by_event.get(event, ())
        prof = self.prof
        for index, rule in enumerate(rules):
            bindings = self._match_event_args(rule.event.args, args, instance, rule.variables)
            if bindings is None:
                continue
            env = instance.environment(bindings)
            if prof is not None:
                prof.begin(
                    prof.rule_name(
                        "permission", instance.class_name, event, index
                    )
                )
            if self.permission_mode == "incremental":
                monitor = self._monitor_for(instance, rule)
                admitted = monitor.check(env)
            else:
                admitted = evaluate_formula_now(
                    rule.formula,
                    instance.trace,
                    env,
                    term_eval=self._class_term_eval(instance.compiled),
                )
            if prof is not None:
                prof.end()
            if not admitted:
                if self.obs is not None and self.obs.enabled:
                    self.obs.on_permission_denied(
                        instance.class_name, event, str(rule.formula)
                    )
                raise PermissionDenied(
                    f"{instance.class_name}({instance.key!r}).{event}: "
                    f"permission {{ {rule.formula} }} does not hold",
                    rule.position,
                )

    def _monitor_for(self, instance: Instance, rule: ast.PermissionRule) -> FormulaMonitor:
        monitor = instance.monitors.get(id(rule))
        if monitor is None:
            monitor = self._create_monitor(instance, rule)
        return monitor

    def _create_monitor(self, instance: Instance, rule: ast.PermissionRule) -> FormulaMonitor:
        """Build a rule's incremental monitor and bring it up to date by
        replaying the instance's committed trace (exactly the restore
        replay, and equivalent to having updated it at every commit --
        monitors always exist by first commit in the all-resident
        runtime).  Instances faulted in from storage therefore rebuild
        their monitors lazily on first permission check, never at fault
        time, so faulting evaluates no formulas."""
        monitor = FormulaMonitor(
            rule.formula,
            instance.compiled.var_sorts_for(rule),
            hooks=self.obs,
            term_eval=self._class_term_eval(instance.compiled),
            # a foreign instance's quantifiers range over its own system
            quantifiers=self.verdicts.handles if instance.system is self else None,
        )
        instance.monitors[id(rule)] = monitor
        if instance.trace:
            env = instance.environment()
            for step in instance.trace:
                monitor.update(step, env)
        return monitor

    def _update_monitors(self, instance: Instance, step: TraceStep) -> None:
        monitors = instance.monitors
        env: Optional[Environment] = None
        for rule_list in instance.compiled.permissions_by_event.values():
            for rule in rule_list:
                monitor = monitors.get(id(rule))
                if monitor is None:
                    # creation replays the whole trace -- the committed
                    # ``step`` included (record_step ran first), so an
                    # explicit update here would double-apply it
                    self._create_monitor(instance, rule)
                    continue
                if env is None:
                    env = instance.environment()
                monitor.update(step, env)

    def _check_static_constraints(self, txn: _Transaction) -> None:
        if not self.check_constraints:
            return
        seen: Set[int] = set()
        for instance in txn.touched_instances():
            for target in itertools.chain([instance], self._all_roles(instance)):
                if id(target) in seen or not target.alive:
                    continue
                seen.add(id(target))
                self._check_instance_constraints(
                    target,
                    target.compiled.static_constraints,
                    occurrence=OccurrenceRef(target.class_name, None, target.key),
                )

    def _apply_initial_values(self, instance: Instance) -> None:
        """Apply ``initially`` attribute defaults at birth (valuation
        rules for the birth event may overwrite them)."""
        env = instance.environment()
        for attr in instance.compiled.info.attributes.values():
            if attr.initial is None or attr.derived:
                continue
            # Inherited attributes live on the base aspect; a role birth
            # must not reset them.
            if instance._storage_owner(attr.name) is not instance:
                continue
            instance.set_attribute(
                attr.name, self.eval_term(attr.initial, env, instance.compiled)
            )

    def _check_initial_constraints(self, instance: Instance) -> None:
        if self.check_constraints:
            self._check_instance_constraints(instance, instance.compiled.initial_constraints)

    def _check_instance_constraints(
        self,
        instance: Instance,
        constraints: Sequence[ast.ConstraintDecl],
        occurrence: Optional[OccurrenceRef] = None,
    ) -> None:
        deps = self._probe_deps
        if deps is not None:
            deps.note_instance(instance)
        prof = self.prof
        for index, constraint in enumerate(constraints):
            env = instance.environment()
            if prof is not None:
                prof.begin(
                    prof.indexed_name("constraint", instance.class_name, index)
                )
            try:
                holds = bool(
                    self.eval_term(constraint.formula, env, instance.compiled)
                )
            except EvaluationError as exc:
                if self.obs is not None and self.obs.enabled:
                    self.obs.on_constraint_violation(instance.class_name)
                raise ConstraintViolation(
                    f"{instance.class_name}({instance.key!r}): constraint "
                    f"{constraint.formula} cannot be evaluated: {exc.message}",
                    constraint.position,
                    occurrence=occurrence,
                )
            if prof is not None:
                prof.end()
            if not holds:
                if self.obs is not None and self.obs.enabled:
                    self.obs.on_constraint_violation(instance.class_name)
                raise ConstraintViolation(
                    f"{instance.class_name}({instance.key!r}): constraint "
                    f"{constraint.formula} violated",
                    constraint.position,
                    occurrence=occurrence,
                )

    # ------------------------------------------------------------------
    # Valuation
    # ------------------------------------------------------------------

    def _plan_valuation(
        self, instance: Instance, event: str, args: Tuple[Value, ...]
    ) -> List[Tuple[str, Tuple[Value, ...], Value]]:
        assignments: List[Tuple[str, Tuple[Value, ...], Value]] = []
        prof = self.prof
        for rule in instance.compiled.valuation_by_event.get(event, ()):
            bindings = self._match_event_args(
                rule.event.args, args, instance, rule.variables
            )
            if bindings is None:
                continue
            env = instance.environment(bindings)
            owner = instance.compiled
            if prof is not None:
                prof.begin(
                    prof.node_name(
                        "valuation", instance.class_name, rule.attribute
                    )
                )
            if rule.guard is not None:
                try:
                    if not bool(self.eval_term(rule.guard, env, owner)):
                        if prof is not None:
                            prof.end()
                        continue
                except EvaluationError:
                    if prof is not None:
                        prof.end()
                    continue
            attr_args = tuple(
                self.eval_term(a, env, owner) for a in rule.attribute_args
            )
            value = self.eval_term(rule.expr, env, owner)
            if prof is not None:
                prof.end()
            assignments.append((rule.attribute, attr_args, value))
        return assignments

    def _match_event_args(
        self,
        patterns: Tuple[Term, ...],
        args: Tuple[Value, ...],
        instance: Instance,
        rule_variables: Tuple[ast.VariableDecl, ...],
    ) -> Optional[Dict[str, Value]]:
        """Unify a rule's event-argument patterns with actual values.

        A ``Var`` that is a declared rule variable (or fresh name) binds;
        any other term is evaluated and compared.  Returns the bindings,
        or None when the rule does not apply to this occurrence.
        """
        if len(patterns) != len(args):
            return None
        var_names = {v.name for v in rule_variables}
        bindings: Dict[str, Value] = {}
        for pattern, actual in zip(patterns, args):
            if isinstance(pattern, Var) and (
                pattern.name in var_names or not instance.has_attribute(pattern.name)
            ):
                bound = bindings.get(pattern.name)
                if bound is None:
                    bindings[pattern.name] = actual
                elif bound != actual:
                    return None
                continue
            try:
                expected = self.eval_term(
                    pattern, instance.environment(bindings), instance.compiled
                )
            except EvaluationError:
                return None
            if expected != actual:
                return None
        return bindings

    # ------------------------------------------------------------------
    # Event calling
    # ------------------------------------------------------------------

    def _fire_calling_rule(
        self,
        txn: _Transaction,
        instance: Instance,
        rule: ast.CallingRule,
        args: Tuple[Value, ...],
    ) -> None:
        bindings = self._match_event_args(
            rule.trigger.args, args, instance, rule.variables
        )
        if bindings is None:
            return
        env = instance.environment(bindings)
        if rule.guard is not None:
            try:
                if not bool(self.eval_term(rule.guard, env, instance.compiled)):
                    return
            except EvaluationError:
                return
        for target in rule.targets:
            self._dispatch_call(txn, instance, target, env)

    def _fire_global_rule(
        self,
        txn: _Transaction,
        instance: Instance,
        rule: ast.CallingRule,
        args: Tuple[Value, ...],
    ) -> None:
        bindings: Dict[str, Value] = {}
        trigger = rule.trigger
        if trigger.qualifier is not None and isinstance(trigger.qualifier.key, Var):
            bindings[trigger.qualifier.key.name] = instance.identity
        for pattern, actual in zip(trigger.args, args):
            # In a global rule every Var is a binder (there is no local
            # attribute scope to shadow it).
            if isinstance(pattern, Var):
                bound = bindings.get(pattern.name)
                if bound is None:
                    bindings[pattern.name] = actual
                elif bound != actual:
                    return
            else:
                try:
                    expected = self.eval_term(pattern, MapEnvironment(bindings))
                except EvaluationError:
                    return
                if expected != actual:
                    return
        env = instance.environment(bindings)
        if rule.guard is not None:
            try:
                # Global interaction rules belong to no class; their
                # compiled bodies live in the module-global cache.
                if not bool(self.eval_term(rule.guard, env)):
                    return
            except EvaluationError:
                return
        for target in rule.targets:
            self._dispatch_call(txn, instance, target, env)

    def _dispatch_call(
        self, txn: _Transaction, instance: Instance, target: ast.EventRef, env: Environment
    ) -> None:
        """Resolve one call target and process the called event on every
        resolved instance.  The distributed runtime overrides this seam:
        targets owned by another shard are captured as remote calls
        instead of being processed locally."""
        for target_instance in self._resolve_targets(instance, target, env):
            target_args = tuple(self.eval_term(a, env) for a in target.args)
            self._process(txn, target_instance, target.name, target_args)

    def _resolve_targets(
        self, instance: Instance, target: ast.EventRef, env: Environment
    ) -> List[Instance]:
        qualifier = target.qualifier
        if qualifier is None or qualifier.name == "self":
            return [instance]
        info = instance.compiled.info
        # Component slot: broadcast to the member(s).
        if qualifier.name in info.components:
            value = instance.observe(qualifier.name)
            members: Iterable[Value]
            if isinstance(value.sort, IdSort):
                members = [value]
            else:
                members = list(value.payload)
            resolved = []
            for member in members:
                found = self.resolve_instance(member)
                if found is None:
                    raise RuntimeSpecError(
                        f"component {qualifier.name!r} of "
                        f"{instance.class_name}({instance.key!r}) references "
                        f"missing instance {member}"
                    )
                resolved.append(found)
            return resolved
        # Incorporated base object alias.
        alias_base = self._alias_base(instance, qualifier.name)
        if alias_base is not None:
            return [self.single_object(alias_base)]
        # Class-qualified: CLASS(key).event
        if qualifier.name in self.compiled.classes:
            if qualifier.key is None:
                raise RuntimeSpecError(
                    f"class-qualified call {qualifier.name}.{target.name} "
                    "needs an identity"
                )
            key_value = self.eval_term(qualifier.key, env)
            found = self.find(qualifier.name, key_value)
            if found is None:
                raise RuntimeSpecError(
                    f"no {qualifier.name} instance with identity "
                    f"{key_value.payload!r} for call to {target.name!r}"
                )
            return [found]
        raise RuntimeSpecError(
            f"cannot resolve call qualifier {qualifier.name!r} in "
            f"{instance.class_name}"
        )

    def _alias_base(self, instance: Instance, alias: str) -> Optional[str]:
        current: Optional[Instance] = instance
        while current is not None:
            base_name = current.compiled.info.inheriting.get(alias)
            if base_name is not None:
                return base_name
            current = current.base
        return None

    # ------------------------------------------------------------------
    # Sequenced occurrence (one atomic unit)
    # ------------------------------------------------------------------

    def occur_sequence(
        self,
        pairs: Sequence[Tuple[Instance, str, Sequence[object]]],
    ) -> None:
        """Drive several occurrences as *one* atomic unit (the runtime
        face of transaction calling, used by derived interface events
        whose calling rule lists a target sequence)."""
        items = [
            (instance, event, self._coerce_args(args))
            for instance, event, args in pairs
        ]
        if self.txn_compile and items:
            # Homogeneous-batch fast path: one compiled closure reused
            # across the whole sequence instead of re-resolving rules
            # per occurrence.  Quiet-only -- instrumented batches keep
            # the generic pipeline's per-occurrence span structure.
            first_instance, first_event, _ = items[0]
            homogeneous = (
                (self.obs is None or not self.obs.enabled)
                and self.prof is None
                and all(
                    instance.compiled is first_instance.compiled
                    and event == first_event
                    for instance, event, _args in items
                )
            )
            if homogeneous:
                plan, fresh = _lookup_txn_plan(
                    first_instance.compiled, first_event, self.compiled
                )
                if plan is not None and all(
                    plan.eligible(self, instance) for instance, _e, _a in items
                ):
                    _TXN_STATS.cache_hits += (
                        len(items) - 1 if fresh else len(items)
                    )
                    plan.run_batch_quiet(self, items)
                    return
            _TXN_STATS.fallbacks += len(items)
        self._run_unit(items)

    def sequence_permitted(
        self, pairs: Sequence[Tuple[Instance, str, Sequence[object]]]
    ) -> bool:
        """Would :meth:`occur_sequence` over ``pairs`` be admitted?  A
        dry transaction that always rolls back."""
        self._in_unit += 1
        txn = _Transaction(self)
        try:
            for instance, event, args in pairs:
                self._process(txn, instance, event, self._coerce_args(args))
            self._check_static_constraints(txn)
            return True
        except RuntimeSpecError:
            return False
        finally:
            txn.rollback()
            self._in_unit -= 1
            self._balance_store()
