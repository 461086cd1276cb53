"""Maintained verdicts for population-quantified permissions.

A permission such as ``{ for all(C: COUNTER : C.Value >= 0) } bump``
quantifies over a class population, and its incremental monitor
(:mod:`repro.temporal.monitors`) would evaluate the body once per alive
instance on every check.  For the fragment below the object base
instead keeps, per quantified formula, the keys of the alive instances
whose body disagrees with the quantifier -- the *violators* of a
``for all``, the *witnesses* of an ``exists`` -- and answers a check
from that set: ``for all`` holds iff it is empty, ``exists`` iff it is
not.  Section 5.1's derived attributes are the paper's precedent: a
value the system keeps up to date instead of recomputing it.

**Fragment.**  Decided once per formula, from its syntax: a ``for all``
or ``exists`` over one variable whose sort is a class ``K`` with no
``view of`` base, reached from the permission's root through ``not``,
``and``, ``or`` and ``=>`` only; a body of state propositions joined by
the same connectives; terms made only of literals, the bound variable,
built-in operations and ``X.a``, where ``X`` is the bound variable and
``a`` a non-derived, parameterless attribute that ``K``'s own template
or identification declares.  Such a body reads nothing but the bound
instance's own state, so only a change to that instance can change its
entry.  Everything else -- ``SELF`` and other free names, derived
attributes, nested quantifiers, queries, temporal operators -- keeps
the monitor's full evaluation.

**Update points.**  A set is built on its first check, in one pass over
``alive_keys(K)``, and from then on holds keys, not instances, so a
paging store's hot-set bound holds.  Each commit re-evaluates the
``K``-instances its unit touched, on the generic and the fused path
alike (:meth:`MaintainedVerdicts.commit`).  Inside a unit a check
corrects the committed set by evaluating, live, the ``K``-instances the
running units have touched so far (:meth:`MaintainedVerdicts.note`), so
a called event's permission sees its caller's writes and a later item
of a batch sees the earlier items'.  The touch log is dropped once no
unit is in flight (:meth:`MaintainedVerdicts.settle`).  No verdict is
ever cached against an epoch: a rollback restores old epochs, and the
next write would reuse them.  ``invalidate_probes`` (hence
``restore_state``) drops every set.

**Full evaluation** still answers two cases: a probe that records a read
set (``_probe_deps``), so memoized probe verdicts keep exact
dependencies, and a check whose monitor harvested, from the checking
instance's own trace, a domain value that is not an alive member of
``K`` -- the full domain then differs from the population.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.datatypes.operations import BUILTIN_OPERATIONS
from repro.datatypes.sorts import IdSort
from repro.datatypes.terms import Apply, AttributeAccess, Lit, Term, Var
from repro.runtime.instance import Instance, SystemEnvironment
from repro.temporal.formulas import (
    AndF,
    ExistsF,
    ForallF,
    Formula,
    ImpliesF,
    NotF,
    OrF,
    StateProp,
)

_CONNECTIVES = (AndF, OrF, ImpliesF)


def _plain_term(term: Term, variable: str, attributes: frozenset) -> bool:
    if isinstance(term, Lit):
        return True
    if isinstance(term, Var):
        return term.name == variable
    if isinstance(term, Apply):
        return term.op in BUILTIN_OPERATIONS and all(
            _plain_term(arg, variable, attributes) for arg in term.args
        )
    if isinstance(term, AttributeAccess):
        return (
            isinstance(term.obj, Var)
            and term.obj.name == variable
            and not term.args
            and term.attribute in attributes
        )
    return False


def _state_body(formula: Formula, variable: str, attributes: frozenset) -> bool:
    if isinstance(formula, StateProp):
        return _plain_term(formula.term, variable, attributes)
    if isinstance(formula, NotF):
        return _state_body(formula.body, variable, attributes)
    if isinstance(formula, _CONNECTIVES):
        return _state_body(formula.left, variable, attributes) and _state_body(
            formula.right, variable, attributes
        )
    return False


def quantified_class(formula: Formula, spec) -> Optional[str]:
    """The class a quantified formula ranges over, when the formula is
    in the maintained fragment (see the module docstring); else None."""
    if len(formula.variables) != 1:
        return None
    variable, sort = formula.variables[0]
    if not isinstance(sort, IdSort):
        return None
    compiled = spec.classes.get(sort.class_name)
    if compiled is None or compiled.base is not None:
        return None
    info = compiled.info
    attributes = frozenset(
        attr.name
        for attr in info.id_attributes + tuple(info.template.attributes)
        if not attr.derived
        and not attr.param_sorts
        and attr.name not in compiled.derivation_by_attribute
        and attr.name not in info.components
    )
    if not _state_body(formula.body, variable, attributes):
        return None
    return sort.class_name


def _quantifiers(formula: Formula) -> Iterable[Formula]:
    """The quantified subformulas reached from the root through
    propositional connectives only (the positions whose check runs at
    the current instant, under no other binder)."""
    if isinstance(formula, (ForallF, ExistsF)):
        yield formula
    elif isinstance(formula, NotF):
        yield from _quantifiers(formula.body)
    elif isinstance(formula, _CONNECTIVES):
        yield from _quantifiers(formula.left)
        yield from _quantifiers(formula.right)


class QuantifierVerdict:
    """The maintained verdict of one quantified formula in one object
    base: ``flagged`` holds the keys of the alive ``K``-instances whose
    body disagrees with the quantifier at the last commit (None until
    the first check builds it, and again after a drop)."""

    __slots__ = (
        "system", "class_name", "touched", "variable", "want_all", "body", "flagged"
    )

    def __init__(self, system, class_name: str, formula: Formula, touched: Dict):
        self.system = system
        self.class_name = class_name
        #: the running units' touched K-instances (MaintainedVerdicts.touched)
        self.touched = touched
        self.variable = formula.variables[0][0]
        self.want_all = isinstance(formula, ForallF)
        #: the compiled body (a stateless monitor node), supplied by the
        #: first monitor compiled for the formula
        self.body = None
        self.flagged: Optional[Set[object]] = None

    def bind(self, body) -> None:
        if self.body is None:
            self.body = body

    def _flag(self, instance: Instance) -> bool:
        """Whether ``instance`` disagrees with the quantifier now."""
        if not instance.alive:
            return False
        env = SystemEnvironment(self.system, {self.variable: instance.identity})
        return self.body.check(env) != self.want_all

    def _build(self) -> Optional[Set[object]]:
        system = self.system
        class_name = self.class_name
        flagged = set()
        try:
            for key in system.alive_keys(class_name):
                if self._flag(system.find(class_name, key)):
                    flagged.add(key)
        except Exception:
            # an unexpected error: leave it to the full evaluation,
            # which raises (or not) exactly as it always did
            return None
        self.flagged = flagged
        return flagged

    def refresh(self, instance: Instance) -> None:
        """Re-evaluate a committed instance's entry."""
        try:
            flagged = self._flag(instance)
        except Exception:
            # a commit never evaluated permissions, so it must not fail
            # here: forget the set, and the next check rebuilds it or
            # evaluates in full
            self.flagged = None
            return
        if flagged:
            self.flagged.add(instance.key)
        else:
            self.flagged.discard(instance.key)

    def verdict(self, harvested: List) -> Optional[bool]:
        """The formula's truth now, or None when the caller must
        evaluate it in full.  ``harvested`` are the domain values the
        checking monitor collected from its instance's trace."""
        system = self.system
        if system._probe_deps is not None:
            return None
        class_name = self.class_name
        for value in harvested:
            sort = value.sort
            if not (isinstance(sort, IdSort) and sort.class_name == class_name):
                return None
            member = system.find(class_name, value.payload)
            if member is None or not member.alive:
                return None
        touched = self.touched
        flagged = self.flagged
        if flagged is None:
            # the set is the committed state: build it only while no
            # running unit has changed a K-instance
            if touched:
                return None
            flagged = self._build()
            if flagged is None:
                return None
        if touched:
            try:
                hit = any(self._flag(instance) for instance in touched.values())
            except Exception:
                return None
            if not hit:
                keys = {instance.key for instance in touched.values()}
                hit = len(flagged) > sum(1 for key in keys if key in flagged)
        else:
            hit = bool(flagged)
        return not hit if self.want_all else hit


class MaintainedVerdicts:
    """Every maintained quantifier verdict of one object base, and the
    log of the ``K``-instances the running units touched."""

    def __init__(self, system):
        #: id(quantified formula) -> its verdict, the table monitors
        #: compile against (:class:`~repro.temporal.monitors.FormulaMonitor`)
        self.handles: Dict[int, QuantifierVerdict] = {}
        #: class -> the verdicts quantifying over it
        self.by_class: Dict[str, List[QuantifierVerdict]] = {}
        #: class -> id(instance) -> instance, for the classes some
        #: verdict quantifies over: what the running units touched
        self.touched: Dict[str, Dict[int, Instance]] = {}
        if system.permission_mode != "incremental":
            return
        spec = system.compiled
        for compiled in spec.classes.values():
            for rules in compiled.permissions_by_event.values():
                for rule in rules:
                    for formula in _quantifiers(rule.formula):
                        if id(formula) in self.handles:
                            continue
                        class_name = quantified_class(formula, spec)
                        if class_name is None:
                            continue
                        verdict = QuantifierVerdict(
                            system,
                            class_name,
                            formula,
                            self.touched.setdefault(class_name, {}),
                        )
                        self.handles[id(formula)] = verdict
                        self.by_class.setdefault(class_name, []).append(verdict)

    def note(self, instance: Instance) -> None:
        """An instance a running unit is about to change."""
        log = self.touched.get(instance.class_name)
        if log is not None:
            log[id(instance)] = instance

    def commit(self, instances: Iterable[Instance]) -> None:
        """Re-evaluate the entries of the instances a committing unit
        touched."""
        by_class = self.by_class
        if not by_class:
            return
        for instance in instances:
            for verdict in by_class.get(instance.class_name, ()):
                if verdict.flagged is not None:
                    verdict.refresh(instance)

    def settle(self) -> None:
        """No unit is in flight: forget what the finished ones touched."""
        for log in self.touched.values():
            if log:
                log.clear()

    def drop(self) -> None:
        """Forget every set; the next check rebuilds it."""
        for verdicts in self.by_class.values():
            for verdict in verdicts:
                verdict.flagged = None
