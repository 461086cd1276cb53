"""Incremental temporal-formula monitors.

Re-evaluating a permission formula by replaying the whole trace
(:mod:`repro.temporal.evaluation`) costs O(trace length) per check.  A
:class:`FormulaMonitor` instead maintains, per formula, a summary that is
updated once per event occurrence, making each check independent of the
trace length.  This is the design choice ablated in benchmark A1.

The compilation is compositional.  Each node answers "does my subformula
hold *at the current position* under a given binding?" via ``check``;
temporal nodes additionally fold their child's per-position answers into
a summary on ``update``:

* ``sometime(after(e(t...)))`` -- the set of argument tuples with which
  ``e`` has occurred (exact);
* ``sometime(φ)`` / ``always(φ)`` -- the set of variable bindings for
  which φ has held / failed at some past position;
* ``since(φ, ψ)`` -- the classical recurrence
  ``S_now = ψ_now or (S_prev and φ_now)`` per binding.

Bindings are enumerated over an accumulated *active domain* (values
harvested from each step's arguments and state, plus class populations).
The monitors are exact for the guarded fragment -- formulas whose
quantified and free variables are bounded by the state or event at the
satisfying position -- which covers every permission in the paper.  The
test suite cross-checks monitors against the naive semantics on
randomised traces.

**Dependency visibility contract** (docs/PERFORMANCE.md): probe
memoization tracks a check's read set through the environment seams.
A monitor's ``check`` reads (a) its own summary, which advances only
when the owning instance's trace does -- covered by that instance's
epoch, which the object base records for every aspect it checks -- and
(b) current state and populations through the passed environment
(``Instance.observe`` / ``ObjectBase.population``), which record
themselves.  In particular the active-domain enumeration of quantified
permissions reads class populations via ``env.class_population`` on
every ``check``, so such verdicts carry population-epoch dependencies
and are invalidated by any birth or death in the quantified class.
(A quantifier with a maintained verdict, :mod:`repro.runtime.verdicts`,
answers from the object base's violator or witness set instead, but
never while a probe records a read set.)
New summary state must stay a pure fold of the owner's trace steps (or
the check must punt).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.datatypes.evaluator import Environment, _harvest, evaluate
from repro.datatypes.sorts import IdSort, Sort
from repro.datatypes.values import Value, boolean
from repro.diagnostics import EvaluationError
from repro.temporal.evaluation import StateEnvironment, TraceStep, match_pattern
from repro.temporal.formulas import (
    After,
    Always,
    AndF,
    ExistsF,
    ForallF,
    Formula,
    ImpliesF,
    NotF,
    OrF,
    Since,
    Sometime,
    StateProp,
)

Binding = Tuple[Value, ...]


class _DomainAccumulator:
    """Accumulates the active-domain values for a list of sorted variables."""

    def __init__(self, var_decls: Tuple[Tuple[str, Sort], ...]):
        self.var_decls = var_decls
        self._values: List[List[Value]] = [[] for _ in var_decls]
        self._seen: List[Set[Value]] = [set() for _ in var_decls]

    def absorb_step(self, step: TraceStep) -> None:
        for index, (_, sort) in enumerate(self.var_decls):
            harvested: List[Value] = []
            for arg in step.args:
                _harvest(arg, sort, harvested)
            for _, value in step.state:
                _harvest(value, sort, harvested)
            bucket, seen = self._values[index], self._seen[index]
            for v in harvested:
                if v not in seen:
                    seen.add(v)
                    bucket.append(v)

    def domains(self, env: Environment) -> List[List[Value]]:
        """Current per-variable domains, merged with class populations."""
        result = []
        for index, (_, sort) in enumerate(self.var_decls):
            domain = list(self._values[index])
            known = set(domain)
            if isinstance(sort, IdSort):
                for ident in env.class_population(sort.class_name):
                    if ident not in known:
                        known.add(ident)
                        domain.append(ident)
            if sort.name in ("bool", "boolean"):
                for b in (boolean(True), boolean(False)):
                    if b not in known:
                        domain.append(b)
            result.append(domain)
        return result

    def bindings(self, env: Environment) -> Iterable[Dict[str, Value]]:
        """Every binding of the variables over the current domains."""
        domains = self.domains(env)

        def recurse(index: int, acc: Dict[str, Value]):
            if index == len(self.var_decls):
                yield dict(acc)
                return
            name = self.var_decls[index][0]
            for value in domains[index]:
                acc[name] = value
                yield from recurse(index + 1, acc)
            acc.pop(name, None)

        yield from recurse(0, {})


def _decls_for(names: Iterable[str], var_sorts: Dict[str, Sort]) -> Tuple[Tuple[str, Sort], ...]:
    """The *declared* variables among ``names``, with their sorts.

    Only declared rule/quantifier variables are folded per binding; any
    other free name is an attribute and resolves through the state
    environment at each position instead.
    """
    return tuple(
        sorted(((n, var_sorts[n]) for n in names if n in var_sorts), key=lambda p: p[0])
    )


class _Node:
    """A compiled formula node."""

    def update(self, step: TraceStep, env: Environment) -> None:
        """Fold one new trace step into the summary."""

    def check(self, env: Environment) -> bool:
        """Truth at the current position under ``env`` (which exposes the
        current state and the outer bindings)."""
        raise NotImplementedError


class _StateNode(_Node):
    def __init__(self, formula: StateProp, term_eval=evaluate):
        self._term = formula.term
        self._term_eval = term_eval

    def check(self, env: Environment) -> bool:
        try:
            return bool(self._term_eval(self._term, env))
        except EvaluationError:
            return False


class _AfterNode(_Node):
    def __init__(self, formula: After, term_eval=evaluate):
        self._pattern = formula.pattern
        self._term_eval = term_eval
        self._last: Optional[TraceStep] = None

    def update(self, step: TraceStep, env: Environment) -> None:
        self._last = step

    def check(self, env: Environment) -> bool:
        if self._last is None:
            return False
        return match_pattern(
            self._pattern, self._last.event, self._last.args, env, self._term_eval
        )


class _SometimeAfterNode(_Node):
    """Exact summary for the ``sometime(after(e(t...)))`` idiom."""

    def __init__(self, formula: After, term_eval=evaluate):
        self._pattern = formula.pattern
        self._term_eval = term_eval
        self._seen_args: Set[Binding] = set()
        self._seen_any = False

    def update(self, step: TraceStep, env: Environment) -> None:
        if step.event == self._pattern.event:
            self._seen_any = True
            self._seen_args.add(step.args)

    def check(self, env: Environment) -> bool:
        if not self._seen_any:
            return False
        if self._pattern.match_any_args or not self._pattern.args:
            if self._pattern.match_any_args:
                return True
            return () in self._seen_args
        try:
            term_eval = self._term_eval
            wanted = tuple(term_eval(t, env) for t in self._pattern.args)
        except EvaluationError:
            return False
        return wanted in self._seen_args


class _FoldNode(_Node):
    """Shared machinery for Sometime/Always: per-binding fold of the
    child's per-position answers."""

    def __init__(self, child: _Node, free_decls: Tuple[Tuple[str, Sort], ...]):
        self._child = child
        self._domain = _DomainAccumulator(free_decls)
        self._free_names = tuple(n for n, _ in free_decls)
        self._marked: Set[Binding] = set()
        self._marked_closed = False

    def _fold(self, step: TraceStep, env: Environment, mark_when: bool) -> None:
        self._child.update(step, env)
        state_env = StateEnvironment(step.state_dict(), env)
        if not self._free_names:
            if not self._marked_closed and self._child.check(state_env) == mark_when:
                self._marked_closed = True
            return
        self._domain.absorb_step(step)
        for binding in self._domain.bindings(state_env):
            key = tuple(binding[n] for n in self._free_names)
            if key in self._marked:
                continue
            if self._child.check(state_env.child(binding)) == mark_when:
                self._marked.add(key)

    def _lookup_key(self, env: Environment) -> Optional[Binding]:
        try:
            return tuple(env.lookup(n) for n in self._free_names)
        except EvaluationError:
            return None


class _SometimeNode(_FoldNode):
    """``sometime(φ)``: φ held at a recorded position *or holds at the
    current instant* (matching ``evaluate_formula_now``)."""

    def update(self, step: TraceStep, env: Environment) -> None:
        self._fold(step, env, mark_when=True)

    def check(self, env: Environment) -> bool:
        if self._child.check(env):
            return True
        if not self._free_names:
            return self._marked_closed
        key = self._lookup_key(env)
        return key is not None and key in self._marked


class _AlwaysNode(_FoldNode):
    """``always(φ)``: φ held at every recorded position *and holds at the
    current instant*."""

    def update(self, step: TraceStep, env: Environment) -> None:
        self._fold(step, env, mark_when=False)

    def check(self, env: Environment) -> bool:
        if not self._child.check(env):
            return False
        if not self._free_names:
            return not self._marked_closed
        key = self._lookup_key(env)
        return key is None or key not in self._marked


class _SinceNode(_Node):
    """``since(hold, anchor)`` via the recurrence
    ``S_now = anchor_now or (S_prev and hold_now)`` per binding."""

    def __init__(
        self,
        hold: _Node,
        anchor: _Node,
        free_decls: Tuple[Tuple[str, Sort], ...],
    ):
        self._hold = hold
        self._anchor = anchor
        self._domain = _DomainAccumulator(free_decls)
        self._free_names = tuple(n for n, _ in free_decls)
        self._state: Dict[Binding, bool] = {}
        self._state_closed = False

    def update(self, step: TraceStep, env: Environment) -> None:
        self._hold.update(step, env)
        self._anchor.update(step, env)
        state_env = StateEnvironment(step.state_dict(), env)
        if not self._free_names:
            anchor_now = self._anchor.check(state_env)
            hold_now = self._hold.check(state_env)
            self._state_closed = anchor_now or (self._state_closed and hold_now)
            return
        self._domain.absorb_step(step)
        new_state: Dict[Binding, bool] = {}
        for binding in self._domain.bindings(state_env):
            key = tuple(binding[n] for n in self._free_names)
            bound_env = state_env.child(binding)
            anchor_now = self._anchor.check(bound_env)
            hold_now = self._hold.check(bound_env)
            prev = self._state.get(key, False)
            new_state[key] = anchor_now or (prev and hold_now)
        self._state = new_state

    def check(self, env: Environment) -> bool:
        anchor_now = self._anchor.check(env)
        hold_now = self._hold.check(env)
        if not self._free_names:
            return anchor_now or (hold_now and self._state_closed)
        try:
            key = tuple(env.lookup(n) for n in self._free_names)
        except EvaluationError:
            return False
        return anchor_now or (hold_now and self._state.get(key, False))


class _NotNode(_Node):
    def __init__(self, child: _Node):
        self._child = child

    def update(self, step: TraceStep, env: Environment) -> None:
        self._child.update(step, env)

    def check(self, env: Environment) -> bool:
        return not self._child.check(env)


class _BinNode(_Node):
    def __init__(self, kind: str, left: _Node, right: _Node):
        self._kind = kind
        self._left = left
        self._right = right

    def update(self, step: TraceStep, env: Environment) -> None:
        self._left.update(step, env)
        self._right.update(step, env)

    def check(self, env: Environment) -> bool:
        if self._kind == "and":
            return self._left.check(env) and self._right.check(env)
        if self._kind == "or":
            return self._left.check(env) or self._right.check(env)
        return (not self._left.check(env)) or self._right.check(env)


class _QuantNode(_Node):
    def __init__(
        self,
        want_all: bool,
        var_decls: Tuple[Tuple[str, Sort], ...],
        child: _Node,
        maintained=None,
    ):
        self._want_all = want_all
        self._var_decls = var_decls
        self._child = child
        self._domain = _DomainAccumulator(var_decls)
        #: the object base's maintained verdict for this formula
        #: (repro.runtime.verdicts), or None: then every check evaluates
        #: the body once per domain value
        self._maintained = maintained

    def update(self, step: TraceStep, env: Environment) -> None:
        self._domain.absorb_step(step)
        self._child.update(step, env)

    def check(self, env: Environment) -> bool:
        maintained = self._maintained
        if maintained is not None:
            verdict = maintained.verdict(self._domain._values[0])
            if verdict is not None:
                return verdict
        for binding in self._domain.bindings(env):
            outcome = self._child.check(env.child(binding))
            if self._want_all and not outcome:
                return False
            if not self._want_all and outcome:
                return True
        return self._want_all


def _compile(
    formula: Formula,
    var_sorts: Dict[str, Sort],
    term_eval=evaluate,
    quantifiers: Optional[Dict[int, object]] = None,
) -> _Node:
    """Compile ``formula``.  ``quantifiers`` maps id(quantified
    subformula) to its maintained verdict; it reaches only the positions
    under propositional connectives, where a check runs at the current
    instant under no other binder."""
    if isinstance(formula, StateProp):
        return _StateNode(formula, term_eval)
    if isinstance(formula, After):
        return _AfterNode(formula, term_eval)
    if isinstance(formula, Sometime):
        if isinstance(formula.body, After):
            return _SometimeAfterNode(formula.body, term_eval)
        child = _compile(formula.body, var_sorts, term_eval)
        return _SometimeNode(child, _decls_for(formula.body.free_variables(), var_sorts))
    if isinstance(formula, Always):
        child = _compile(formula.body, var_sorts, term_eval)
        return _AlwaysNode(child, _decls_for(formula.body.free_variables(), var_sorts))
    if isinstance(formula, Since):
        free = formula.hold.free_variables() | formula.anchor.free_variables()
        return _SinceNode(
            _compile(formula.hold, var_sorts, term_eval),
            _compile(formula.anchor, var_sorts, term_eval),
            _decls_for(free, var_sorts),
        )
    if isinstance(formula, NotF):
        return _NotNode(_compile(formula.body, var_sorts, term_eval, quantifiers))
    if isinstance(formula, AndF):
        return _BinNode("and", _compile(formula.left, var_sorts, term_eval, quantifiers), _compile(formula.right, var_sorts, term_eval, quantifiers))
    if isinstance(formula, OrF):
        return _BinNode("or", _compile(formula.left, var_sorts, term_eval, quantifiers), _compile(formula.right, var_sorts, term_eval, quantifiers))
    if isinstance(formula, ImpliesF):
        return _BinNode("implies", _compile(formula.left, var_sorts, term_eval, quantifiers), _compile(formula.right, var_sorts, term_eval, quantifiers))
    if isinstance(formula, (ForallF, ExistsF)):
        inner_sorts = dict(var_sorts)
        inner_sorts.update({n: s for n, s in formula.variables})
        child = _compile(formula.body, inner_sorts, term_eval)
        maintained = quantifiers.get(id(formula)) if quantifiers else None
        if maintained is not None:
            maintained.bind(child)
        return _QuantNode(
            isinstance(formula, ForallF), tuple(formula.variables), child, maintained
        )
    raise EvaluationError(f"cannot compile formula of kind {type(formula).__name__}")


class FormulaMonitor:
    """The incremental monitor for one formula.

    Usage: call :meth:`update` once after every event occurrence (with
    the runtime's base environment), and :meth:`check` before a candidate
    occurrence (with an environment exposing the current state and the
    candidate's parameter bindings).
    """

    def __init__(
        self,
        formula: Formula,
        var_sorts: Optional[Dict[str, Sort]] = None,
        hooks=None,
        term_eval=None,
        quantifiers: Optional[Dict[int, object]] = None,
    ):
        self.formula = formula
        #: propositional atoms (state propositions, pattern arguments)
        #: evaluate through ``term_eval`` -- the runtime passes
        #: ``ObjectBase.eval_term`` to route them through the closure
        #: compiler; default is the tree-walking interpreter.
        #: ``quantifiers`` are the object base's maintained verdicts
        #: (id(quantified subformula) -> verdict), see _compile.
        self._root = _compile(
            formula, dict(var_sorts or {}), term_eval or evaluate, quantifiers
        )
        #: optional telemetry hooks (an Observability-shaped object with
        #: on_monitor_update/on_monitor_check); None means no overhead
        self.hooks = hooks

    def update(self, step: TraceStep, env: Optional[Environment] = None) -> None:
        hooks = self.hooks
        if hooks is not None and hooks.enabled:
            hooks.on_monitor_update()
        self._root.update(step, env or Environment())

    def check(self, env: Optional[Environment] = None) -> bool:
        hooks = self.hooks
        if hooks is not None and hooks.enabled:
            hooks.on_monitor_check()
        return self._root.check(env or Environment())


def compile_monitor(
    formula: Formula, var_sorts: Optional[Dict[str, Sort]] = None
) -> FormulaMonitor:
    """Compile ``formula`` into an incremental :class:`FormulaMonitor`.

    ``var_sorts`` declares the sorts of the formula's free variables
    (from the permission rule's ``variables`` clause); they drive the
    active-domain accumulation for binding enumeration.
    """
    return FormulaMonitor(formula, var_sorts)
