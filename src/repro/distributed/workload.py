"""The shard-local reference workload: a community of counters.

``COUNTER.bump`` guards itself with a universally quantified permission
over the whole class population.  The object base keeps that formula's
violator set up to date (:mod:`repro.runtime.verdicts`), so a bump
re-evaluates only the counter it wrote and costs the same whatever the
shard's population; ``benchmarks/bench_distributed.py`` guards that.
Each shard still judges the permission over its own counters only (see
ROADMAP item 1(a)).

``bump`` has no calling rules, so it is statically shard-local
(``remote_capable_events`` does not mark it) and runs the unmodified
fast path inside each worker -- no two-phase machinery on the hot path.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, Optional

from repro.distributed.aio import AsyncShardedCommunity
from repro.distributed.coordinator import (
    ShardedCommunity,
    normalize_state,
)
from repro.observability.distributed import verify_merged_trace
from repro.runtime.objectbase import ObjectBase
from repro.runtime.persistence import dump_state

COUNTER_SPEC = """
object class COUNTER
  identification
    IdNo: nat;
  template
    attributes
      Value: nat;
    events
      birth new_counter;
      bump;
    valuation
      new_counter Value = 0;
      bump Value = Value + 1;
    permissions
      { for all(C: COUNTER : C.Value >= 0) } bump;
end object class COUNTER;
"""

#: The cross-shard twin: every ``bump`` also notes a global interaction
#: into the single AUDIT(0) ledger.  Counters spread over the shards by
#: identity hash while AUDIT(0) lives on exactly one of them, so every
#: bump triggered on another shard escalates to the coordinator's
#: two-phase protocol -- the workload ``repro profile --fleet`` uses to
#: show 2PC phase costs on *every* participating shard.
AUDITED_COUNTER_SPEC = COUNTER_SPEC + """
object class AUDIT
  identification
    Tag: nat;
  template
    attributes
      Count: nat;
    events
      birth open;
      note;
    valuation
      open Count = 0;
      note Count = Count + 1;
end object class AUDIT;

global interactions
  variables C: COUNTER;
  COUNTER(C).bump >> AUDIT(0).note;
"""

DEFAULT_COUNTERS = 120
DEFAULT_OPS = 480


def run_sharded(
    shards: int,
    counters: int = DEFAULT_COUNTERS,
    ops: int = DEFAULT_OPS,
    spool_dir: Optional[str] = None,
    snapshot_interval: int = 64,
    observe: bool = False,
    export: bool = False,
    trace: bool = False,
    slow_threshold: Optional[float] = None,
    verify_traces: bool = False,
    profile: Optional[str] = None,
    cross_shard: bool = False,
    storage: Optional[str] = None,
    hot_set: Optional[int] = None,
    txn_compile: Optional[bool] = None,
) -> Dict[str, Any]:
    """Run the counter workload against a sharded community.  Returns
    elapsed seconds, throughput, the merged final state, and (with
    ``export=True``) the merged per-shard telemetry.  With ``trace=True``
    every request is traced end to end; ``verify_traces=True`` addition-
    ally runs :func:`~repro.observability.distributed.verify_merged_trace`
    over every captured tree and reports the problem list.  ``profile``
    enables spec-level profiling on every worker ("exact" or "sampling");
    the merged fleet profile lands under ``"profile"``.  ``cross_shard``
    switches to :data:`AUDITED_COUNTER_SPEC`, whose bumps fan out to the
    AUDIT ledger through the two-phase protocol."""
    spec = AUDITED_COUNTER_SPEC if cross_shard else COUNTER_SPEC
    with ShardedCommunity(
        spec,
        shards=shards,
        spool_dir=spool_dir,
        snapshot_interval=snapshot_interval,
        observe=observe,
        trace=trace,
        # headroom past one root per request: management round-trips
        # (merged state / export collection) land in the ring too
        trace_capacity=max(256, counters + ops + 8 * shards),
        slow_threshold=slow_threshold,
        profile=profile,
        storage=storage,
        hot_set=hot_set,
        txn_compile=txn_compile,
    ) as community:
        if cross_shard:
            community.create("AUDIT", {"Tag": 0})
        for index in range(counters):
            community.create("COUNTER", {"IdNo": index})
        start = time.perf_counter()
        for op in range(ops):
            community.occur("COUNTER", op % counters, "bump")
        elapsed = time.perf_counter() - start
        state = community.merged_state()
        exported = community.merged_export() if export or trace else None
        traces = community.traces() if trace else []
        slow = community.slow_requests() if slow_threshold is not None else []
        profile_dump = community.fleet_profile() if profile else None
        problems: Dict[str, Any] = {}
        if verify_traces and trace:
            for root in traces:
                found = verify_merged_trace(root)
                if found:
                    problems[root.attributes.get("tid", "?")] = found
    return {
        "shards": shards,
        "counters": counters,
        "ops": ops,
        "seconds": elapsed,
        "throughput": ops / elapsed if elapsed > 0 else float("inf"),
        "state": state,
        "export": exported,
        "traces": traces,
        "trace_problems": problems,
        "slow_requests": slow,
        "profile": profile_dump,
    }


def run_async_sharded(
    shards: int,
    counters: int = DEFAULT_COUNTERS,
    ops: int = DEFAULT_OPS,
    clients: int = 8,
    spool_dir: Optional[str] = None,
    snapshot_interval: int = 64,
    observe: bool = False,
    export: bool = False,
    trace: bool = False,
    cross_shard: bool = False,
    storage: Optional[str] = None,
    hot_set: Optional[int] = None,
    txn_compile: Optional[bool] = None,
) -> Dict[str, Any]:
    """The counter workload against the async pipelined community:
    ``clients`` concurrent client coroutines partition the op indices
    among themselves and hammer the coordinator in parallel.

    Counter bumps commute (``bump`` is ``Value = Value + 1`` with a
    population-wide read-only guard), so *any* interleaving of the
    partitioned ops reaches the same final state -- the merged dump
    stays byte-comparable to the single-process oracle that runs the
    same multiset of ops."""

    async def _run() -> Dict[str, Any]:
        spec = AUDITED_COUNTER_SPEC if cross_shard else COUNTER_SPEC
        async with AsyncShardedCommunity(
            spec,
            shards=shards,
            spool_dir=spool_dir,
            snapshot_interval=snapshot_interval,
            observe=observe,
            trace=trace,
            trace_capacity=max(256, counters + ops + 8 * shards),
            storage=storage,
            hot_set=hot_set,
            txn_compile=txn_compile,
        ) as community:
            if cross_shard:
                await community.create("AUDIT", {"Tag": 0})
            for index in range(counters):
                await community.create("COUNTER", {"IdNo": index})

            async def client(worker_index: int) -> int:
                done = 0
                for op in range(worker_index, ops, clients):
                    await community.occur("COUNTER", op % counters, "bump")
                    done += 1
                return done

            start = time.perf_counter()
            completed = await asyncio.gather(
                *(client(index) for index in range(max(1, clients)))
            )
            elapsed = time.perf_counter() - start
            state = await community.merged_state()
            exported = (
                await community.merged_export() if export or trace else None
            )
            traces = community.traces() if trace else []
            group_commit = (
                (exported or {}).get("totals", {}).get("group_commit")
                if exported
                else None
            )
            restarts = community.restarts
        return {
            "shards": shards,
            "clients": clients,
            "counters": counters,
            "ops": sum(completed),
            "seconds": elapsed,
            "throughput": sum(completed) / elapsed if elapsed > 0 else float("inf"),
            "state": state,
            "export": exported,
            "traces": traces,
            "group_commit": group_commit,
            "restarts": restarts,
        }

    return asyncio.run(_run())


def run_oracle(
    counters: int = DEFAULT_COUNTERS,
    ops: int = DEFAULT_OPS,
    cross_shard: bool = False,
    storage: Optional[str] = None,
    hot_set: Optional[int] = None,
    txn_compile: Optional[bool] = None,
) -> Dict[str, Any]:
    """The single-process oracle: the same occurrence sequence on one
    in-process ObjectBase; final state in the merged canonical order."""
    system = ObjectBase(
        AUDITED_COUNTER_SPEC if cross_shard else COUNTER_SPEC,
        storage=storage,
        hot_set=hot_set,
        txn_compile=txn_compile,
    )
    if cross_shard:
        system.create("AUDIT", {"Tag": 0})
    for index in range(counters):
        system.create("COUNTER", {"IdNo": index})
    start = time.perf_counter()
    for op in range(ops):
        system.occur(("COUNTER", op % counters), "bump")
    elapsed = time.perf_counter() - start
    return {
        "counters": counters,
        "ops": ops,
        "seconds": elapsed,
        "throughput": ops / elapsed if elapsed > 0 else float("inf"),
        "state": normalize_state(dump_state(system)),
    }
