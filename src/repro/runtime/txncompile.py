"""Whole-transaction compilation: fused per-event transaction closures.

PR 5's closure compiler lowers individual rule *bodies*; every occurrence
still runs the generic dry-transaction pipeline (permission probe,
valuation loop, constraint sweep, journal bookkeeping) in interpreted
Python.  This module compiles the *whole transaction*: for each
``(class, event)`` pair it builds, once, a :class:`TxnPlan` that

* inlines the permission fast-path (pre-classified event-argument
  matchers, a shared no-bindings environment, the monitor lookup without
  the per-rule profiling scaffolding of the generic path),
* executes valuation writes directly against instance storage (no
  ``_Transaction`` allocation, no ``full_snapshot`` dict copies, no
  ``_storage_owner`` set rebuilding per write -- rollback uses a targeted
  undo log instead), and
* sweeps only the statically-relevant constraint subset: constraints
  whose read-set (own plain attributes, derived attributes expanded
  transitively) intersects the event's write-set (the attributes its
  valuation rules can assign).  Constraints that read beyond the
  instance's own state (quantifiers, query operations, foreign
  attribute access, populations) are conservatively always swept.

The generic pipeline stays the behavioural oracle.  Any construct the
compiler cannot reproduce bit-for-bit -- event calling fan-out, role
birth/death, hidden events, view classes, birth/death events -- is
*declined* statically, and per-call conditions the plan cannot handle
(live role aspects, re-entrant probes, a partially faulted-in instance
under a paging store) fall back dynamically; both run the existing
``_run_unit`` pipeline with identical exception types, bit-identical
journals and traces, and the probe-cache epoch contract of
docs/PERFORMANCE.md preserved unchanged (fused commits perform exactly
the same epoch arithmetic as the generic commit path).

Decline taxonomy (the strings cached in ``CompiledClass.txn_cache``):

========================  ==============================================
``unknown_event``         no such event (the generic path raises)
``lifecycle_event``       birth/death events (creation, initial values,
                          population bumps, obligation permissions)
``hidden_event``          occurs only through event calling
``bound_event``           routed to the declaring aspect of a role chain
``view_class``            role/view classes (base-chain state, echoes)
``event_calling``         local or global interaction rules fan out
``role_lifecycle``        the event births or kills role aspects
========================  ==============================================

Mirroring ``repro.datatypes.compile``, the module keeps always-on plain
int accounting in :data:`STATS`; observability's ``txn_compile.*``
counters are live views over it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.datatypes.operations import BUILTIN_OPERATIONS
from repro.datatypes.terms import (
    Apply,
    AttributeAccess,
    Lit,
    ListCons,
    SelfExpr,
    SetCons,
    Term,
    TupleCons,
    Var,
)
from repro.datatypes.values import Value
from repro.diagnostics import (
    CheckError,
    ConstraintViolation,
    EvaluationError,
    LifecycleError,
    OccurrenceRef,
    PermissionDenied,
    RuntimeSpecError,
)
from repro.observability.profile import (
    PHASE_CALLED_EVENTS,
    PHASE_CONSTRAINT_SWEEP,
    PHASE_JOURNAL_COMMIT,
    PHASE_PERMISSION,
    PHASE_ROLE_UPDATES,
    PHASE_VALUATION,
)
from repro.temporal.evaluation import TraceStep, evaluate_formula_now


class TxnCompileStats:
    """Always-on plain-int accounting of the transaction-compiler seam.
    The observability counters ``txn_compile.{compiled,declines,
    fallbacks,cache_hits}`` are live views over this object -- no
    per-occurrence callback."""

    __slots__ = ("compiled", "declines", "fallbacks", "cache_hits")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        #: (class, event) pairs lowered to fused transaction closures
        self.compiled = 0
        #: (class, event) pairs the compiler statically declined
        self.declines = 0
        #: occurrences run through the generic pipeline while
        #: txn-compile was on (declined pair or per-call ineligibility)
        self.fallbacks = 0
        #: occurrences executed by a previously compiled fused closure
        self.cache_hits = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "compiled": self.compiled,
            "declines": self.declines,
            "fallbacks": self.fallbacks,
            "cache_hits": self.cache_hits,
        }


STATS = TxnCompileStats()

#: removed-value sentinel for the write undo log
_MISSING = object()

#: matcher sentinel: the rule's arity never matches this event
_NEVER = object()

_Occurrence = None


def _occurrence_class():
    # resolved lazily: objectbase imports this module at load time
    global _Occurrence
    if _Occurrence is None:
        from repro.runtime.objectbase import Occurrence

        _Occurrence = Occurrence
    return _Occurrence


class _ShimTxn:
    """The minimal transaction facade :meth:`Journal.record_commit`
    reads: the committed step list and the causal parent of each step
    (always ``None`` -- fused plans never record called occurrences)."""

    __slots__ = ("steps", "parents")

    def __init__(self, steps):
        self.steps = steps
        self.parents = (None,) * len(steps)


# ----------------------------------------------------------------------
# Static read-set analysis
# ----------------------------------------------------------------------


def constraint_read_set(term: Term, compiled) -> Optional[frozenset]:
    """The set of own plain-attribute names a constraint term can read,
    or ``None`` when the term can observe state beyond this instance's
    own attributes (quantifiers, query operations, foreign attribute
    access, populations, aliases) and must always be swept.  Derived
    attributes are expanded transitively through their derivation
    rules."""
    reads: set = set()
    if _collect_reads(term, compiled, frozenset(), reads, set()):
        return frozenset(reads)
    return None


def _collect_reads(term, compiled, bound, reads, expanding) -> bool:
    """Accumulate local attribute reads; False means non-local."""
    if isinstance(term, (Lit, SelfExpr)):
        return True
    if isinstance(term, Var):
        if term.name in bound:
            return True
        return _note_attribute(term.name, compiled, reads, expanding)
    if isinstance(term, Apply):
        if term.op not in BUILTIN_OPERATIONS:
            # parametrized own-attribute read in application form
            if not _note_attribute(term.op, compiled, reads, expanding):
                return False
        for arg in term.args:
            if not _collect_reads(arg, compiled, bound, reads, expanding):
                return False
        return True
    if isinstance(term, AttributeAccess):
        # only SELF.attr is provably local; any other object term may
        # resolve to a foreign instance's state
        if not isinstance(term.obj, SelfExpr):
            return False
        if not _note_attribute(term.attribute, compiled, reads, expanding):
            return False
        for arg in term.args:
            if not _collect_reads(arg, compiled, bound, reads, expanding):
                return False
        return True
    if isinstance(term, (SetCons, ListCons)):
        return all(
            _collect_reads(t, compiled, bound, reads, expanding)
            for t in term.items
        )
    if isinstance(term, TupleCons):
        return all(
            _collect_reads(t, compiled, bound, reads, expanding)
            for _, t in term.items
        )
    # Forall/Exists (scope harvesting), QueryOp (collection queries) and
    # anything unrecognized: conservatively non-local.
    return False


def _note_attribute(name, compiled, reads, expanding) -> bool:
    info = compiled.info
    if name not in info.attributes and name not in info.components:
        # unbound name, inheriting alias or population read
        return False
    reads.add(name)
    rule = compiled.derivation_by_attribute.get(name)
    if rule is not None and name not in expanding:
        expanding.add(name)
        try:
            if not _collect_reads(
                rule.expr, compiled, frozenset(rule.params), reads, expanding
            ):
                return False
        finally:
            expanding.discard(name)
    return True


# ----------------------------------------------------------------------
# Event-argument matcher compilation
# ----------------------------------------------------------------------


def _compile_matcher(patterns, param_count, var_names, compiled):
    """Classify a rule's event-argument patterns.

    Returns ``_NEVER`` (arity can never match), a fast binder closure
    (every pattern is a binding ``Var``), or ``None`` (at least one
    pattern needs evaluation -- match dynamically through the generic
    ``_match_event_args``)."""
    if len(patterns) != param_count:
        return _NEVER
    info = compiled.info
    names: List[str] = []
    for pattern in patterns:
        if isinstance(pattern, Var) and (
            pattern.name in var_names
            or (
                pattern.name not in info.attributes
                and pattern.name not in info.components
            )
        ):
            names.append(pattern.name)
        else:
            return None
    if not names:
        return lambda args: {}
    binder = tuple(names)
    if len(set(binder)) == len(binder):
        def match(args, _names=binder):
            return dict(zip(_names, args))

        return match

    def match_dup(args, _names=binder):
        bindings: Dict[str, Value] = {}
        for name, actual in zip(_names, args):
            bound = bindings.get(name)
            if bound is None:
                bindings[name] = actual
            elif bound != actual:
                return None
        return bindings

    return match_dup


# ----------------------------------------------------------------------
# The transaction plan
# ----------------------------------------------------------------------


class TxnPlan:
    """One fused transaction closure for a ``(class, event)`` pair."""

    __slots__ = (
        "class_name",
        "event",
        "decl_name",
        "param_count",
        "perm_rules",
        "val_rules",
        "automaton",
        "protocol_constrained",
        "relevant_constraints",
        "write_set",
        "constraint_total",
        "is_class_kind",
    )

    def __init__(
        self,
        class_name,
        event,
        decl_name,
        param_count,
        perm_rules,
        val_rules,
        automaton,
        protocol_constrained,
        relevant_constraints,
        write_set,
        constraint_total,
        is_class_kind,
    ):
        self.class_name = class_name
        self.event = event
        self.decl_name = decl_name
        self.param_count = param_count
        #: ((original index, rule, matcher), ...)
        self.perm_rules = perm_rules
        #: ((rule, matcher), ...)
        self.val_rules = val_rules
        self.automaton = automaton
        self.protocol_constrained = protocol_constrained
        #: ((original index, constraint), ...) -- the statically-relevant
        #: subset of the class's static constraints
        self.relevant_constraints = relevant_constraints
        self.write_set = write_set
        self.constraint_total = constraint_total
        self.is_class_kind = is_class_kind

    @property
    def relevant_indexes(self) -> Tuple[int, ...]:
        return tuple(index for index, _ in self.relevant_constraints)

    # -- per-call eligibility ------------------------------------------

    def eligible(self, system, instance) -> bool:
        """Per-call conditions the fused closure cannot reproduce:
        live role aspects (role permission checks, echo steps, the
        role-aware constraint sweep), a memoizing probe in flight, a
        nested atomic unit, a partially faulted-in instance (rollback
        images would have to carry the lazy overlay), or a foreign
        instance."""
        return (
            not instance.roles
            and instance._lazy_state is None
            and system._probe_deps is None
            and system._in_unit == 0
            and instance.system is system
        )

    # -- phases (shared by quiet/observed/batch runners) ---------------

    def _checks(self, system, instance, args, obs, prof):
        """Arity, life-cycle, permission and protocol checks; returns
        the successor protocol states (or None).  Mirrors the generic
        ``_process_body`` + ``_phase_checks`` bit for bit."""
        if len(args) != self.param_count:
            raise CheckError(
                f"{self.class_name}.{self.event} expects "
                f"{self.param_count} argument(s), got {len(args)}"
            )
        if not instance.born:
            raise LifecycleError(
                f"{self.class_name}({instance.key!r}): event "
                f"{self.decl_name!r} before birth"
            )
        if instance.dead:
            raise LifecycleError(
                f"{self.class_name}({instance.key!r}): event "
                f"{self.decl_name!r} after death"
            )
        shared_env = None
        incremental = system.permission_mode == "incremental"
        for index, rule, matcher in self.perm_rules:
            if matcher is None:
                bindings = system._match_event_args(
                    rule.event.args, args, instance, rule.variables
                )
            else:
                bindings = matcher(args)
            if bindings is None:
                continue
            if bindings:
                env = instance.environment(bindings)
            else:
                env = shared_env
                if env is None:
                    env = shared_env = instance.environment()
            if prof is not None:
                prof.begin(
                    prof.rule_name(
                        "permission", self.class_name, self.event, index
                    )
                )
            if incremental:
                monitor = instance.monitors.get(id(rule))
                if monitor is None:
                    monitor = system._create_monitor(instance, rule)
                admitted = monitor.check(env)
            else:
                admitted = evaluate_formula_now(
                    rule.formula,
                    instance.trace,
                    env,
                    term_eval=system._class_term_eval(instance.compiled),
                )
            if prof is not None:
                prof.end()
            if not admitted:
                if obs is not None:
                    obs.on_permission_denied(
                        self.class_name, self.event, str(rule.formula)
                    )
                raise PermissionDenied(
                    f"{self.class_name}({instance.key!r}).{self.event}: "
                    f"permission {{ {rule.formula} }} does not hold",
                    rule.position,
                )
        if self.protocol_constrained:
            states = self.automaton.advance(
                instance.protocol_states, self.event
            )
            if not states:
                if obs is not None:
                    obs.on_permission_denied(
                        self.class_name, self.event, "behaviour_pattern"
                    )
                raise PermissionDenied(
                    f"{self.class_name}({instance.key!r}).{self.event}: "
                    "occurrence violates the declared behaviour pattern"
                )
            return states
        return None

    def _plan(self, system, instance, args, prof):
        """Evaluate every applicable valuation rule on the pre-state;
        mirrors ``_plan_valuation``."""
        assignments: List[Tuple[str, Tuple[Value, ...], Value]] = []
        shared_env = None
        owner = instance.compiled
        for rule, matcher in self.val_rules:
            if matcher is None:
                bindings = system._match_event_args(
                    rule.event.args, args, instance, rule.variables
                )
            else:
                bindings = matcher(args)
            if bindings is None:
                continue
            if bindings:
                env = instance.environment(bindings)
            else:
                env = shared_env
                if env is None:
                    env = shared_env = instance.environment()
            if prof is not None:
                prof.begin(
                    prof.node_name(
                        "valuation", self.class_name, rule.attribute
                    )
                )
            if rule.guard is not None:
                try:
                    if not bool(system.eval_term(rule.guard, env, owner)):
                        if prof is not None:
                            prof.end()
                        continue
                except EvaluationError:
                    if prof is not None:
                        prof.end()
                    continue
            attr_args = tuple(
                system.eval_term(a, env, owner) for a in rule.attribute_args
            )
            value = system.eval_term(rule.expr, env, owner)
            if prof is not None:
                prof.end()
            assignments.append((rule.attribute, attr_args, value))
        return assignments

    def _apply(self, system, instance, assignments, new_states, obs, undo):
        """Write the valuation results directly against instance
        storage, appending (attribute, args-or-None, old value) entries
        to ``undo``.  Epoch arithmetic matches ``set_attribute``: one
        bump per write."""
        if not system.store.direct:
            # every mutated instance must be hot at commit so the paging
            # store writes the mutation back on eviction
            system.store.readmit(instance)
        system.verdicts.note(instance)
        if new_states is not None:
            instance.protocol_states = new_states
        count_writes = obs is not None and obs.count_attr_accesses
        state = instance.state
        param_state = instance.param_state
        for attribute, attr_args, value in assignments:
            if count_writes:
                obs.on_attribute_write(self.class_name, attribute)
            instance.epoch += 1
            if attr_args:
                table = param_state.setdefault(attribute, {})
                undo.append(
                    (attribute, attr_args, table.get(attr_args, _MISSING))
                )
                table[attr_args] = value
            else:
                undo.append((attribute, None, state.get(attribute, _MISSING)))
                state[attribute] = value

    @staticmethod
    def _undo(touched, undo):
        """Roll a failed fused transaction back: written values restored
        in reverse, then each touched instance's epoch and protocol
        configuration -- exactly the image ``full_snapshot``/``restore``
        would have produced."""
        for instance, attribute, attr_args, old in reversed(undo):
            if attr_args is not None:
                table = instance.param_state.get(attribute)
                if table is not None:
                    if old is _MISSING:
                        table.pop(attr_args, None)
                        if not table:
                            # the write created the table; a generic
                            # rollback restores a param_state without it
                            del instance.param_state[attribute]
                    else:
                        table[attr_args] = old
            elif old is _MISSING:
                instance.state.pop(attribute, None)
            else:
                instance.state[attribute] = old
        for instance, epoch, protocol_states in touched:
            instance.epoch = epoch
            instance.protocol_states = protocol_states

    def _sweep(self, system, instance, obs, prof):
        """Check the statically-relevant constraint subset; mirrors
        ``_check_instance_constraints`` (original indexes, identical
        messages and the event-less OccurrenceRef)."""
        if not system.check_constraints or not self.relevant_constraints:
            return
        env = instance.environment()
        occurrence = OccurrenceRef(self.class_name, None, instance.key)
        owner = instance.compiled
        for index, constraint in self.relevant_constraints:
            if prof is not None:
                prof.begin(
                    prof.indexed_name("constraint", self.class_name, index)
                )
            try:
                holds = bool(system.eval_term(constraint.formula, env, owner))
            except EvaluationError as exc:
                if obs is not None:
                    obs.on_constraint_violation(self.class_name)
                raise ConstraintViolation(
                    f"{self.class_name}({instance.key!r}): constraint "
                    f"{constraint.formula} cannot be evaluated: {exc.message}",
                    constraint.position,
                    occurrence=occurrence,
                )
            if prof is not None:
                prof.end()
            if not holds:
                if obs is not None:
                    obs.on_constraint_violation(self.class_name)
                raise ConstraintViolation(
                    f"{self.class_name}({instance.key!r}): constraint "
                    f"{constraint.formula} violated",
                    constraint.position,
                    occurrence=occurrence,
                )

    def _commit(self, system, steps, recorder, triggers):
        """Journal record, trace steps, monitor updates, the
        class-object side effect and the maintained quantifier verdicts,
        as the generic commit does them."""
        if recorder is not None:
            recorder.record_commit(_ShimTxn(steps), triggers)
        incremental = system.permission_mode == "incremental"
        changes = system.changes
        for instance, step, _kind in steps:
            if changes is not None:
                changes.note(instance)
            instance.record_step(step)
            if incremental:
                system._update_monitors(instance, step)
            if self.is_class_kind:
                system.class_object(self.class_name)
        system.verdicts.commit(instance for instance, _step, _kind in steps)

    def _finish(self, system, steps):
        occurrence_cls = _occurrence_class()
        committed = [
            occurrence_cls(instance, step.event, step.args)
            for instance, step, _kind in steps
        ]
        system.journal.extend(committed)
        system._notify_commit(committed)

    # -- runners --------------------------------------------------------

    def run_quiet(self, system, instance, args) -> None:
        """The fused hot path: no observability, no profiler (the
        dispatcher routes those to :meth:`run_observed` or the generic
        pipeline)."""
        recorder = system.recorder
        triggers = (
            recorder.snapshot_triggers(((instance, self.event, args),))
            if recorder is not None
            else None
        )
        system._in_unit += 1
        try:
            step = None
            touched: list = []
            undo: list = []
            try:
                try:
                    new_states = self._checks(
                        system, instance, args, None, None
                    )
                    assignments = self._plan(system, instance, args, None)
                    touched.append(
                        (instance, instance.epoch, instance.protocol_states)
                    )
                    item_undo: list = []
                    self._apply(
                        system, instance, assignments, new_states,
                        system.obs, item_undo,
                    )
                    undo.extend(
                        (instance, attribute, attr_args, old)
                        for attribute, attr_args, old in item_undo
                    )
                    step = TraceStep(
                        event=self.event,
                        args=args,
                        state=tuple(instance.state.items()),
                    )
                except RuntimeSpecError as exc:
                    if exc.occurrence is None:
                        exc.occurrence = OccurrenceRef(
                            self.class_name, self.event, instance.key
                        )
                    raise
                self._sweep(system, instance, None, None)
            except Exception as exc:
                self._undo(touched, undo)
                if recorder is not None:
                    recorder.record_rollback(triggers, exc)
                raise
            steps = ((instance, step, "normal"),)
            self._commit(system, steps, recorder, triggers)
        finally:
            system._in_unit -= 1
            system._balance_store()
        self._finish(system, steps)

    def run_observed(self, system, obs, instance, args) -> None:
        """The instrumented twin of :meth:`run_quiet`: reproduces the
        generic observed pipeline's spans, phases, hooks and counters,
        with one deliberate difference -- the profiler root is
        ``txn:CLS.event`` instead of ``unit:CLS.event``, so ``repro
        profile`` attributes fused vs fallback occurrences."""
        recorder = system.recorder
        triggers = (
            recorder.snapshot_triggers(((instance, self.event, args),))
            if recorder is not None
            else None
        )
        prof = system.prof
        if prof is not None:
            prof.begin_root(
                prof.node_name("txn", self.class_name, self.event)
            )
        if obs.tracing:
            span_context = obs.tracer.span(
                "sync_set",
                trigger=f"{self.class_name}({instance.key!r}).{self.event}",
            )
        else:
            from repro.observability.hooks import _NULL_SPAN_CONTEXT

            span_context = _NULL_SPAN_CONTEXT
        system._in_unit += 1
        try:
            with span_context as root:
                step = None
                touched: list = []
                undo: list = []
                try:
                    try:
                        if obs.tracing:
                            with obs.tracer.span(
                                "occurrence",
                                **{
                                    "class": self.class_name,
                                    "event": self.event,
                                    "identity": repr(instance.key),
                                },
                            ):
                                step = self._observed_body(
                                    system, obs, prof, instance, args,
                                    touched, undo,
                                )
                        else:
                            step = self._observed_body(
                                system, obs, prof, instance, args,
                                touched, undo,
                            )
                    except RuntimeSpecError as exc:
                        if exc.occurrence is None:
                            exc.occurrence = OccurrenceRef(
                                self.class_name, self.event, instance.key
                            )
                        raise
                    if prof is not None:
                        prof.begin(PHASE_CONSTRAINT_SWEEP)
                    with obs.phase("constraint_check"):
                        self._sweep(system, instance, obs, prof)
                    if prof is not None:
                        prof.end()
                except Exception as exc:
                    self._undo(touched, undo)
                    reason = type(exc).__name__
                    failed = getattr(exc, "occurrence", None)
                    root.set("outcome", "rolled_back")
                    root.set("rollback_reason", reason)
                    if failed is not None:
                        root.set("failed_occurrence", str(failed))
                    obs.on_rollback(
                        1 if step is not None else 0,
                        reason,
                        str(failed) if failed else "",
                    )
                    if recorder is not None:
                        recorder.record_rollback(triggers, exc)
                    raise
                steps = ((instance, step, "normal"),)
                if prof is not None:
                    prof.begin(PHASE_JOURNAL_COMMIT)
                self._commit(system, steps, recorder, triggers)
                if prof is not None:
                    prof.end()
                root.set("outcome", "committed")
                root.set("sync_set_size", 1)
                obs.on_commit(1)
                self._finish(system, steps)
        finally:
            system._in_unit -= 1
            system._balance_store()
            if prof is not None:
                prof.end_root()

    def _observed_body(
        self, system, obs, prof, instance, args, touched, undo
    ) -> TraceStep:
        """Checks + valuation + apply under the generic path's phase
        spans and profiler nodes (role_updates and called_events are
        statically empty but still timed, matching the oracle)."""
        if prof is not None:
            prof.begin(
                prof.node_name("occurrence", self.class_name, self.event)
            )
            prof.begin(PHASE_PERMISSION)
        with obs.phase("permission_check"):
            new_states = self._checks(system, instance, args, obs, prof)
        if prof is not None:
            prof.end()
            prof.begin(PHASE_VALUATION)
        with obs.phase("valuation"):
            assignments = self._plan(system, instance, args, prof)
            touched.append(
                (instance, instance.epoch, instance.protocol_states)
            )
            item_undo: list = []
            self._apply(
                system, instance, assignments, new_states, obs, item_undo
            )
            undo.extend(
                (instance, attribute, attr_args, old)
                for attribute, attr_args, old in item_undo
            )
            step = TraceStep(
                event=self.event,
                args=args,
                state=tuple(instance.state.items()),
            )
        if prof is not None:
            prof.end()
            prof.begin(PHASE_ROLE_UPDATES)
        with obs.phase("role_updates"):
            pass
        if prof is not None:
            prof.end()
            prof.begin(PHASE_CALLED_EVENTS)
        with obs.phase("called_events"):
            pass
        if prof is not None:
            prof.end()
            prof.end()  # the occurrence node
        return step

    def run_batch_quiet(self, system, items: Sequence[tuple]) -> None:
        """One atomic unit over a homogeneous event batch, reusing this
        plan across every item (the ``occur_sequence`` fast path).
        Items are processed strictly in order -- later items see earlier
        items' writes, duplicates are deduplicated on the generic
        ``(class, key, event, args)`` key -- then one constraint sweep
        over the touched instances in first-touch order, then one
        commit."""
        recorder = system.recorder
        triggers = (
            recorder.snapshot_triggers(items) if recorder is not None else None
        )
        obs = system.obs
        system._in_unit += 1
        try:
            touched: list = []
            touched_ids: set = set()
            undo: list = []
            steps: list = []
            processed: set = set()
            try:
                for instance, event, args in items:
                    dedup = (self.class_name, instance.key, event, args)
                    if dedup in processed:
                        continue
                    processed.add(dedup)
                    try:
                        new_states = self._checks(
                            system, instance, args, None, None
                        )
                        assignments = self._plan(
                            system, instance, args, None
                        )
                        if id(instance) not in touched_ids:
                            touched_ids.add(id(instance))
                            touched.append(
                                (
                                    instance,
                                    instance.epoch,
                                    instance.protocol_states,
                                )
                            )
                        item_undo: list = []
                        self._apply(
                            system, instance, assignments, new_states,
                            obs, item_undo,
                        )
                        undo.extend(
                            (instance, attribute, attr_args, old)
                            for attribute, attr_args, old in item_undo
                        )
                        steps.append(
                            (
                                instance,
                                TraceStep(
                                    event=event,
                                    args=args,
                                    state=tuple(instance.state.items()),
                                ),
                                "normal",
                            )
                        )
                    except RuntimeSpecError as exc:
                        if exc.occurrence is None:
                            exc.occurrence = OccurrenceRef(
                                self.class_name, event, instance.key
                            )
                        raise
                for instance, _epoch, _protocol in touched:
                    self._sweep(system, instance, None, None)
            except Exception as exc:
                self._undo(touched, undo)
                if recorder is not None:
                    recorder.record_rollback(triggers, exc)
                raise
            steps = tuple(steps)
            self._commit(system, steps, recorder, triggers)
        finally:
            system._in_unit -= 1
            system._balance_store()
        self._finish(system, steps)


# ----------------------------------------------------------------------
# Compilation and the per-class plan cache
# ----------------------------------------------------------------------


def compile_txn(compiled, event: str, spec):
    """Build the fused :class:`TxnPlan` for ``(compiled, event)``, or a
    decline-reason string (see the module docstring's taxonomy)."""
    decl = compiled.event(event)
    if decl is None:
        return "unknown_event"
    if decl.kind != "normal":
        return "lifecycle_event"
    if decl.hidden:
        return "hidden_event"
    if decl.binding is not None and decl.binding.object_name != compiled.name:
        return "bound_event"
    if compiled.base is not None:
        return "view_class"
    if compiled.callings_by_event.get(event):
        return "event_calling"
    if spec.global_callings.get((compiled.name, event)):
        return "event_calling"
    if compiled.role_births_by_event.get(event) or compiled.role_deaths_by_event.get(event):
        return "role_lifecycle"

    param_count = len(decl.param_sorts)
    perm_rules = []
    for index, rule in enumerate(compiled.permissions_by_event.get(event, ())):
        var_names = frozenset(v.name for v in rule.variables)
        matcher = _compile_matcher(
            rule.event.args, param_count, var_names, compiled
        )
        if matcher is _NEVER:
            continue
        perm_rules.append((index, rule, matcher))
    val_rules = []
    for rule in compiled.valuation_by_event.get(event, ()):
        var_names = frozenset(v.name for v in rule.variables)
        matcher = _compile_matcher(
            rule.event.args, param_count, var_names, compiled
        )
        if matcher is _NEVER:
            continue
        val_rules.append((rule, matcher))

    write_set = frozenset(rule.attribute for rule, _ in val_rules)
    relevant = []
    for index, constraint in enumerate(compiled.static_constraints):
        reads = constraint_read_set(constraint.formula, compiled)
        if reads is None or reads & write_set:
            relevant.append((index, constraint))

    automaton = compiled.protocol
    return TxnPlan(
        class_name=compiled.name,
        event=event,
        decl_name=decl.name,
        param_count=param_count,
        perm_rules=tuple(perm_rules),
        val_rules=tuple(val_rules),
        automaton=automaton,
        protocol_constrained=(
            automaton is not None and event in automaton.alphabet
        ),
        relevant_constraints=tuple(relevant),
        write_set=write_set,
        constraint_total=len(compiled.static_constraints),
        is_class_kind=compiled.info.kind == "class",
    )


def lookup_plan(compiled, event: str, spec):
    """The cached plan for ``(compiled, event)`` -- ``(plan, fresh)``
    where ``plan`` is None for declined pairs.  Plans and declines are
    cached on ``CompiledClass.txn_cache``; they are system-independent
    (permission mode and storage are branched per call), so systems
    sharing one compiled specification share the cache."""
    cache = compiled.txn_cache
    entry = cache.get(event)
    if entry is None:
        entry = compile_txn(compiled, event, spec)
        cache[event] = entry
        if isinstance(entry, str):
            STATS.declines += 1
            return None, True
        STATS.compiled += 1
        return entry, True
    if isinstance(entry, str):
        return None, False
    return entry, False


def decline_reason(compiled, event: str, spec) -> Optional[str]:
    """The decline-taxonomy label for a pair, or None when it fuses."""
    entry = compiled.txn_cache.get(event)
    if entry is None:
        entry = compile_txn(compiled, event, spec)
    return entry if isinstance(entry, str) else None


def clear_plan_cache(spec) -> None:
    """Drop every cached plan and decline of a compiled specification
    (the :meth:`ObjectBase.set_txn_compile` flip contract)."""
    for compiled in spec.classes.values():
        compiled.txn_cache.clear()
