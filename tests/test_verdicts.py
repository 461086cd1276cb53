"""Maintained verdicts for population-quantified permissions
(:mod:`repro.runtime.verdicts`).

The maintained violator/witness sets must answer exactly as the full
evaluation does.  The differential runs seeded operation streams over a
spec with ``for all`` and ``exists`` permissions -- births, deaths,
constraint rollbacks, event calling whose called permission reads the
caller's write, ``occur_sequence`` batches, and ``is_permitted`` with
the probe cache on and off -- against ``permission_mode="naive"``,
which replays traces and never consults a maintained set.
"""

import random

import pytest

from repro.datatypes import compile as term_compile
from repro.datatypes.values import from_python, identity
from repro.diagnostics import PermissionDenied, TrollError
from repro.distributed.worker import ShardWorker
from repro.distributed.workload import COUNTER_SPEC
from repro.library import FULL_COMPANY_SPEC
from repro.runtime import ObjectBase
from repro.runtime.persistence import dump_state, value_to_json
from repro.runtime.verdicts import quantified_class

ACCOUNTS_SPEC = """
object class ACC
  identification
    No: nat;
  template
    attributes
      Bal: integer initially 0;
      Tag: nat initially 0;
    events
      birth open(integer);
      credit(integer);
      debit(integer);
      spend(integer);
      mark(nat);
      poke;
      death close;
    valuation
      variables k: integer; t: nat;
      open(k) Bal = k;
      credit(k) Bal = Bal + k;
      debit(k) Bal = Bal - k;
      spend(k) Bal = Bal - k;
      mark(t) Tag = t;
      poke Tag = Tag + 1;
    permissions
      variables k: integer; t: nat;
      { for all(A: ACC : A.Bal >= 0 or A.Tag > 3) } open(k);
      { for all(A: ACC : A.Bal >= 0) } debit(k);
      { for all(A: ACC : A.Bal <= 40 => A.Tag < 9) } mark(t);
      { exists(A: ACC : A.Tag = 2 and not(A.Bal < 1)) } poke;
      { exists(A: ACC : A.Tag >= 1) } close;
    constraints
      static Bal <= 50;
end object class ACC;

object class LEDGER
  identification
    Id: nat;
  template
    attributes
      N: nat initially 0;
    events
      birth init;
      audit;
      note(ACC);
      tally;
    valuation
      variables X: ACC;
      audit N = N + 1;
      note(X) N = N + 1;
      tally N = N + 1;
    permissions
      { for all(A: ACC : A.Bal >= 0) } audit;
      { for all(A: ACC : A.Bal >= -2) and exists(A: ACC : A.Tag = 1) } tally;
end object class LEDGER;

global interactions
  variables A: ACC; k: integer;
  ACC(A).spend(k) >> LEDGER(0).audit;
"""

ACC_EVENTS = (
    ("credit", lambda rng: [rng.randint(1, 30)]),
    ("debit", lambda rng: [rng.randint(1, 8)]),
    ("spend", lambda rng: [rng.randint(1, 8)]),
    ("mark", lambda rng: [rng.randint(0, 10)]),
    ("poke", lambda rng: []),
    ("close", lambda rng: []),
)


def operations(seed, count=70):
    """A seeded stream of operations over ACC(0..9) and LEDGER(0)."""
    rng = random.Random(seed)
    ops = [("create", "LEDGER", 0, "init", [])]
    for _ in range(count):
        roll = rng.random()
        key = rng.randrange(10)
        if roll < 0.2:
            ops.append(("create", "ACC", key, "open", [rng.randint(-3, 10)]))
        elif roll < 0.25:
            ops.append(("occur", "LEDGER", 0, "tally", []))
        elif roll < 0.3:
            # LEDGER's monitors harvest the noted identity from its
            # trace, so it joins their quantifier domains even once
            # dead, or when it never existed
            noted = identity("ACC", key if rng.random() < 0.9 else 99)
            ops.append(("occur", "LEDGER", 0, "note", [noted]))
        elif roll < 0.55:
            # a homogeneous batch (the fused path's batch runner) or a
            # mixed one (the generic pipeline)
            homogeneous = roll < 0.45
            event, args = rng.choice(ACC_EVENTS[:4])
            batch = []
            for _ in range(rng.randint(2, 4 if homogeneous else 3)):
                if not homogeneous:
                    event, args = rng.choice(ACC_EVENTS)
                batch.append((rng.randrange(10), event, args(rng)))
            ops.append(("sequence", batch))
        elif roll < 0.7:
            event, args = rng.choice(ACC_EVENTS)
            ops.append(("probe", key, event, args(rng), rng.random() < 0.5))
        else:
            event, args = rng.choice(ACC_EVENTS)
            ops.append(("occur", "ACC", key, event, args(rng)))
    return ops


def play(system, ops):
    """Each operation's outcome: "ok", a probe's verdict, or the name
    of the error it raised."""
    outcomes = []
    for op in ops:
        try:
            if op[0] == "create":
                _, class_name, key, event, args = op
                ident = {"No": key} if class_name == "ACC" else {"Id": key}
                system.create(class_name, ident, event, args)
            elif op[0] == "occur":
                _, class_name, key, event, args = op
                system.occur((class_name, key), event, args)
            elif op[0] == "sequence":
                system.occur_sequence(
                    [(system.instance("ACC", key), event, args) for key, event, args in op[1]]
                )
            else:
                _, key, event, args, use_cache = op
                outcomes.append(
                    system.is_permitted(
                        system.instance("ACC", key), event, args, use_cache=use_cache
                    )
                )
                continue
            outcomes.append("ok")
        except TrollError as error:
            outcomes.append(type(error).__name__)
    return outcomes


def comparable_state(system):
    state = dump_state(system)
    del state["permission_mode"]
    return state


@pytest.mark.parametrize("storage", ["memory", "paged"])
@pytest.mark.parametrize("txn_compile", [True, False], ids=["fused", "generic"])
@pytest.mark.parametrize("seed", range(6))
def test_maintained_verdicts_match_naive_evaluation(seed, txn_compile, storage, tmp_path):
    ops = operations(seed)
    system = ObjectBase(
        ACCOUNTS_SPEC,
        txn_compile=txn_compile,
        storage=f"paged:{tmp_path / 'pages'}" if storage == "paged" else "memory",
        hot_set=4,
    )
    oracle = ObjectBase(ACCOUNTS_SPEC, permission_mode="naive", txn_compile=txn_compile)
    outcomes = play(system, ops)
    assert outcomes == play(oracle, ops)
    assert comparable_state(system) == comparable_state(oracle)
    # the stream exercised both verdicts and a maintained set
    assert "PermissionDenied" in outcomes and "ok" in outcomes
    assert any(v.flagged is not None for v in system.verdicts.handles.values())


def test_called_permission_reads_the_callers_write():
    """``spend`` leaves ACC(1) negative; the LEDGER.audit it calls
    checks ``for all(A: ACC : A.Bal >= 0)`` on the unit's live state."""
    for mode in ("incremental", "naive"):
        system = ObjectBase(ACCOUNTS_SPEC, permission_mode=mode)
        system.create("LEDGER", {"Id": 0}, "init")
        system.create("ACC", {"No": 1}, "open", [3])
        system.occur(("ACC", 1), "spend", [2])
        with pytest.raises(PermissionDenied):
            system.occur(("ACC", 1), "spend", [2])
        assert system.get(("ACC", 1), "Bal").payload == 1


def test_first_check_inside_a_rolled_back_unit():
    """``audit``'s set is first needed inside ``spend``'s unit, after the
    uncommitted write; the unit rolls back, so the set must not have
    been built from that write."""
    system = ObjectBase(ACCOUNTS_SPEC)
    system.create("LEDGER", {"Id": 0}, "init")
    system.create("ACC", {"No": 1}, "open", [3])
    with pytest.raises(PermissionDenied):
        system.occur(("ACC", 1), "spend", [5])
    system.occur(("LEDGER", 0), "audit")
    assert system.get(("LEDGER", 0), "N").payload == 1


def test_later_batch_items_see_earlier_writes():
    for txn_compile in (True, False):
        system = ObjectBase(ACCOUNTS_SPEC, txn_compile=txn_compile)
        for key in (1, 2):
            system.create("ACC", {"No": key}, "open", [2])
        a, b = system.instance("ACC", 1), system.instance("ACC", 2)
        with pytest.raises(PermissionDenied):
            system.occur_sequence([(a, "debit", [5]), (b, "debit", [1])])
        system.occur_sequence([(a, "debit", [2]), (b, "debit", [1])])
        assert [system.get(x, "Bal").payload for x in (a, b)] == [0, 1]


def test_harvested_identities_outside_the_population():
    """LEDGER's monitors harvest the identities ``note`` was given from
    LEDGER's own trace: a dead ACC and one that never existed stay in
    the quantifier domains, where the maintained sets cannot see them."""
    outcomes = {}
    for mode in ("incremental", "naive"):
        system = ObjectBase(ACCOUNTS_SPEC, permission_mode=mode)
        system.create("LEDGER", {"Id": 0}, "init")
        for key in (1, 2):
            system.create("ACC", {"No": key}, "open", [5])
        ledger = ("LEDGER", 0)
        system.occur(("ACC", 1), "mark", [1])
        system.occur(ledger, "note", [identity("ACC", 1)])
        system.occur(("ACC", 1), "close")
        # the dead ACC(1) is the only witness of exists(A.Tag = 1)
        results = [system.is_permitted(system.instance(*ledger), "tally", use_cache=False)]
        system.occur(("ACC", 2), "mark", [1])
        results.append(system.is_permitted(system.instance(*ledger), "tally", use_cache=False))
        system.occur(ledger, "note", [identity("ACC", 99)])
        # ACC(99).Bal cannot be evaluated, so the for all fails
        results.append(system.is_permitted(system.instance(*ledger), "tally", use_cache=False))
        outcomes[mode] = results
    assert outcomes["incremental"] == outcomes["naive"] == [True, True, False]


def test_memoized_probe_keeps_every_dependency():
    """A probe that records a read set evaluates in full: its cached
    verdict must notice a change to any ACC, not only the probed one."""
    system = ObjectBase(ACCOUNTS_SPEC)
    for key in (1, 2):
        system.create("ACC", {"No": key}, "open", [5])
    system.occur(("ACC", 1), "debit", [1])  # builds the violator set
    probed = system.instance("ACC", 1)
    assert system.is_permitted(probed, "debit", [1])
    system.occur(("ACC", 2), "debit", [6])
    assert not system.is_permitted(probed, "debit", [1])
    assert not system.is_permitted(probed, "debit", [1], use_cache=False)


def test_bounded_counter_reproducer_in_one_process():
    spec = COUNTER_SPEC.replace("C.Value >= 0", "C.Value < 2")
    for txn_compile in (True, False):
        system = ObjectBase(spec, txn_compile=txn_compile)
        for key in (4, 0):
            system.create("COUNTER", {"IdNo": key})
        outcomes = []
        for key in (4, 4, 0):
            try:
                system.occur(("COUNTER", key), "bump")
                outcomes.append("ok")
            except PermissionDenied:
                outcomes.append("PermissionDenied")
        assert outcomes == ["ok", "ok", "PermissionDenied"]


@pytest.mark.parametrize("txn_compile", [True, False], ids=["fused", "generic"])
def test_term_evaluations_per_bump_do_not_grow_with_population(txn_compile):
    def evaluations_per_bump(counters):
        system = ObjectBase(COUNTER_SPEC, txn_compile=txn_compile)
        for key in range(counters):
            system.create("COUNTER", {"IdNo": key})
        system.occur(("COUNTER", 0), "bump")  # builds the violator set
        before = term_compile.STATS.cache_hits
        for key in range(32):
            system.occur(("COUNTER", key % counters), "bump")
        return (term_compile.STATS.cache_hits - before) / 32

    assert evaluations_per_bump(16) == evaluations_per_bump(256) == 2


def test_direct_writes_need_invalidate_probes():
    system = ObjectBase(ACCOUNTS_SPEC)
    system.create("ACC", {"No": 1}, "open", [1])
    system.occur(("ACC", 1), "debit", [1])
    acc = system.instance("ACC", 1)
    acc.set_attribute("Bal", system._coerce_args([-1])[0])
    system.invalidate_probes()
    with pytest.raises(PermissionDenied):
        system.occur(acc, "debit", [1])


class TestFragment:
    def _formulas(self, system, class_name, event):
        return [
            rule.formula
            for rule in system.compiled.classes[class_name].permissions_by_event[event]
        ]

    def test_counter_bump_qualifies(self):
        system = ObjectBase(COUNTER_SPEC)
        (formula,) = self._formulas(system, "COUNTER", "bump")
        assert quantified_class(formula, system.compiled) == "COUNTER"
        assert list(system.verdicts.by_class) == ["COUNTER"]

    def test_temporal_body_does_not_qualify(self):
        system = ObjectBase(FULL_COMPANY_SPEC)
        (formula,) = self._formulas(system, "DEPT", "closure")
        assert quantified_class(formula, system.compiled) is None
        assert not system.verdicts.handles

    @pytest.mark.parametrize(
        "body",
        [
            "for all(D: COUNTER : C.Value + D.Value >= 0)",  # nested
            "C.Value >= Value",  # the checking instance's attribute
            "C = SELF",
            "C.Twice >= 0",  # derived
        ],
    )
    def test_other_reads_do_not_qualify(self, body):
        spec = COUNTER_SPEC.replace(
            "      Value: nat;", "      Value: nat;\n      derived Twice: nat;"
        ).replace(
            "    permissions",
            "    derivation rules\n      Twice = Value + Value;\n    permissions",
        ).replace("C.Value >= 0", body)
        system = ObjectBase(spec)
        assert not system.verdicts.handles

    def test_naive_mode_maintains_nothing(self):
        assert not ObjectBase(COUNTER_SPEC, permission_mode="naive").verdicts.handles


DRY_SPEC = """
object class K
  identification
    No: nat;
  template
    attributes
      V: nat;
    events
      birth mk;
      poke;
    valuation
      mk V = 7;
    permissions
      { for all(C: K : C.V >= 0) } mk;
      { exists(C: K : C.V = 7 and C.No = 9) } poke;
end object class K;
"""


@pytest.mark.parametrize(
    "spec",
    [
        DRY_SPEC,
        # reading the checking instance's No puts both rules outside the
        # maintained fragment: the full evaluation reads population()
        DRY_SPEC.replace("C.V >= 0", "C.V >= 0 or No = 0").replace(
            "C.No = 9", "C.No = No + 8"
        ),
    ],
    ids=["maintained", "full-evaluation"],
)
def test_dry_items_sees_a_birth_of_the_same_unit(spec):
    """A 2PC prepare must admit what the commit admits: the birth's own
    permission check reads the population before ``born`` is set, and a
    dry run that is not an atomic unit served that stale list again to
    the later item."""
    worker = ShardWorker({"spec": spec, "shard_index": 0, "shards": 1})
    worker.system.create("K", {"No": 1})
    items = [
        {
            "type": "create",
            "class": "K",
            "identification": {"No": value_to_json(from_python(9))},
            "args": [],
        },
        {"type": "occur", "class": "K", "key": 1, "event": "poke", "args": []},
    ]
    ok, error, _remote = worker._dry_items(items)
    assert ok, error
    assert worker._apply_items(items) == 2
