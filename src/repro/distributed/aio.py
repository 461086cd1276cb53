"""The coordinator: routing, retry, two-phase commit, merged telemetry.

:class:`AsyncShardedCommunity` is the one implementation of the
sharded community's society interface (Section 6: one interface over
communicating modules).  It forks N shard worker processes, each
hosting a :class:`~repro.distributed.shardbase.ShardObjectBase` over the
full specification, routes every request to the owning shard by
identity hash (or placement pin), and exposes the society interface of
a single object base: ``create`` / ``occur`` / ``get`` / ``is_permitted``
/ ``step`` / ``run_active`` plus merged state and telemetry.  The
blocking :class:`~repro.distributed.coordinator.ShardedCommunity` is a
facade that runs this class on a private event loop, over blocking
connections to the workers.

Every frame carries a ``mid`` (message id), so N client coroutines can
have N requests in flight on one socket per shard; a demultiplexer task
per connection resolves response frames to their waiting futures by
mid.  Workers run the group-commit loop
(:func:`~repro.distributed.worker.async_worker_serve`): they apply
mutations immediately but withhold the replies until a shared fsync
covers the whole pending batch.

**Cross-shard synchronization sets.**  When a worker answers
``needs_2pc`` -- its dry run captured event calls into identities owned
by other shards -- the coordinator drives a two-phase protocol:

1. *Prepare fixpoint*: route the captured calls to their owners, ask
   every participating shard to dry-run its sub-unit
   (``prepare_group``, all participants of a round concurrently), and
   fold newly discovered remote calls back in until the participant set
   is closed (bounded by ``MAX_2PC_ROUNDS``).
2. *Commit*: all shards voted yes -> each commits its sub-unit as one
   atomic local unit (``commit_group``).  *Abort*: any no-vote -> every
   participant journals a rollback tombstone (``abort_group``) and the
   original denial is re-raised with its original type.

**Consistency.**  Each worker's event loop serializes its handlers, so
concurrent shard-local mutations on one shard never interleave
mid-unit.  The cross-shard invariant -- between a distributed unit's
unanimous yes vote and its commit, no conflicting unit may run on a
participant -- is kept with a global unit lock (distributed units are
serialized against each other) plus a write-preferring readers/writer
gate per shard: shard-local mutations hold their shard's gate as
readers, a distributed unit holds the gates of every participant as the
writer for its whole prepare->commit window.  Reads (``get``) bypass the
gates; they only ever see committed state.

**Failures.**  A request timeout (reported as
:class:`~repro.distributed.wire.WireTimeout`) tears the connection down
-- the stream may no longer be frame-aligned -- and every other request
in flight on it fails over to a retry.  A dead connection's shard is
respawned by the next request that needs it; the fresh worker recovers
from its spool.  Retries back off exponentially with a cap and jitter
(:func:`backoff_delay`) and never block the event loop.  Mutating
requests carry a request id the worker spools with the journal, so a
retry of a crashed-but-applied request is acknowledged, not re-applied.

**Telemetry** (``observe=True`` for metrics, ``trace=True`` for both).
The stack-based tracer cannot nest spans across interleaved await
points, so the coordinator builds its span trees explicitly: one
``request`` root per society-interface call, held in a
:class:`contextvars.ContextVar` (task-local, so concurrent client
coroutines never cross wires); a ``dispatch`` child per wire round-trip,
whose frame carries the trace context; worker span batches grafted
under it with :func:`~repro.observability.distributed.attach_remote_spans`;
``2pc.prepare`` / ``2pc.commit`` / ``2pc.abort`` phase spans around a
distributed unit's rounds and a ``respawn`` span inside the dispatch
that restarted a worker.  Completed roots go to the ring (and the
optional slow-request log).  With ``profile`` set, workers drain
bounded spec-level profile dumps onto their replies, merged per shard
into :meth:`AsyncShardedCommunity.fleet_profile`.  With neither flag
the request path carries no telemetry work and the frames no telemetry
fields.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import itertools
import json
import random
import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.datatypes.values import Value, from_python
from repro.diagnostics import CheckError, RuntimeSpecError, TrollError
from repro.distributed.shardbase import Partitioner
from repro.distributed.wire import (
    WireError,
    WireTimeout,
    async_recv_frame,
    async_send_frame,
    encode_frame,
)
from repro.distributed.worker import error_class, occurrence_from_wire, worker_main
from repro.observability.distributed import (
    SlowRequestLog,
    attach_remote_spans,
    request_traces,
    trace_by_id,
)
from repro.observability.export import merge_fleet_registry
from repro.observability.hooks import Observability
from repro.observability.profile import ProfileNode
from repro.observability.tracer import RingBufferSink, Span
from repro.lang.checker import check_specification
from repro.lang.parser import parse_specification
from repro.runtime.compilespec import compile_specification
from repro.runtime.persistence import (
    _payload_from_json,
    _payload_to_json,
    value_from_json,
    value_to_json,
)

#: bound on the prepare fixpoint (each round can only add shards or
#: items; real calling chains close in one or two rounds)
MAX_2PC_ROUNDS = 8

#: ceiling on the retry backoff: one worker's restart must never stall
#: traffic for longer than this per attempt, however many attempts the
#: exponential curve has already climbed
BACKOFF_CAP = 1.0

#: the current society-interface call's root span (task-local)
_ROOT_SPAN: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
    "repro_async_root_span", default=None
)

#: the 2PC phase span the current task's dispatches nest under
_PHASE_SPAN: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
    "repro_async_phase_span", default=None
)

#: shared no-op `with` target for the phases of untraced units
_UNTRACED = contextlib.nullcontext()


def backoff_delay(
    attempt: int,
    base: float,
    cap: float = BACKOFF_CAP,
    jitter: Optional[float] = None,
) -> float:
    """The sleep before retry ``attempt + 1``: exponential in
    ``attempt``, capped at ``cap``, with jitter drawn uniformly from
    ``[delay/2, delay]`` so simultaneous retries against one restarting
    worker de-synchronize instead of stampeding in lockstep.

    ``jitter`` pins the uniform draw to a value in ``[0, 1]`` for
    deterministic tests; ``None`` draws from :func:`random.random`."""
    if base <= 0:
        return 0.0
    delay = min(float(cap), base * (2 ** attempt))
    fraction = random.random() if jitter is None else jitter
    return delay * (0.5 + 0.5 * fraction)


def remote_error(
    response: Dict[str, Any], index: Optional[int] = None
) -> TrollError:
    """Rebuild a shard-side error with its original type *and* its
    original error-carrying contract: the failing
    :class:`~repro.diagnostics.OccurrenceRef` and the shard identity
    travel on the error frame and are restored here."""
    exc = error_class(response.get("error", "RuntimeSpecError"))(
        response.get("message", f"shard {index} error")
    )
    failed = response.get("failed_ref")
    if failed:
        exc.occurrence = occurrence_from_wire(failed)
    shard = response.get("shard", index)
    if shard is not None:
        exc.shard = shard
    return exc


class ShardUnavailable(TrollError):
    """A worker stayed unreachable through every retry and restart, or
    the community was closed."""


def _item_key(item: Dict[str, Any]) -> Tuple[str, str, str, str]:
    """Canonical dedup key of a wire item (or captured remote call)."""
    if item.get("type") == "create":
        return (
            item["class"],
            "create:" + json.dumps(item.get("identification"), sort_keys=True),
            item.get("event") or "",
            json.dumps(item.get("args") or [], sort_keys=True),
        )
    return (
        item["class"],
        json.dumps(item["key"], sort_keys=True),
        item["event"],
        json.dumps(item.get("args") or [], sort_keys=True),
    )


def merge_states(states: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-shard ``dump_state`` snapshots into one canonical
    snapshot (instances sorted by class and identity; class-object
    member sets unioned and sorted)."""
    instances: List[Dict[str, Any]] = []
    class_objects: Dict[str, List[Any]] = {}
    for state in states:
        instances.extend(state.get("instances", []))
        for name, members in state.get("class_objects", {}).items():
            class_objects.setdefault(name, []).extend(members)
    instances.sort(key=lambda r: (r["class"], json.dumps(r["key"], sort_keys=True)))
    first = states[0] if states else {}
    return {
        "format": first.get("format"),
        "permission_mode": first.get("permission_mode"),
        "instances": instances,
        "class_objects": {
            name: sorted(members, key=lambda m: json.dumps(m, sort_keys=True))
            for name, members in class_objects.items()
        },
    }


def normalize_state(state: Dict[str, Any]) -> Dict[str, Any]:
    """A single-process ``dump_state`` in the same canonical order as
    :func:`merge_states` output (the oracle side of equivalence tests)."""
    return merge_states([state])


async def _join(process, timeout: float = 5.0) -> None:
    """Wait up to ``timeout`` seconds for a worker process to exit,
    without blocking the loop and without an executor thread: no thread
    may exist when the next worker is forked."""
    deadline = time.monotonic() + timeout
    while process.is_alive() and time.monotonic() < deadline:
        await asyncio.sleep(0.01)


class _ConnectionLost(Exception):
    """Internal, always-retryable: the connection died with requests in
    flight (worker crash, teardown after a peer's timeout)."""


class _AsyncHandle:
    """One shard connection: process, streams, in-flight futures, and
    the outbox of frames coalescing into the next write.  A *blocking*
    connection (the facade's, see :mod:`repro.distributed.coordinator`)
    instead sends a request and reads its reply in ``exchange``."""

    blocking = False

    __slots__ = (
        "index",
        "process",
        "reader",
        "writer",
        "futures",
        "demux",
        "alive",
        "cause",
        "outbox",
        "flush_pending",
        "deadlines",
    )

    def __init__(self, index: int, process, reader, writer):
        self.index = index
        self.process = process
        self.reader = reader
        self.writer = writer
        self.futures: Dict[int, asyncio.Future] = {}
        self.demux: Optional[asyncio.Task] = None
        self.alive = True
        #: why the connection was torn down (the respawn span's reason)
        self.cause = ""
        self.outbox: List[bytes] = []
        self.flush_pending = False
        self.deadlines: Dict[int, float] = {}


class _ShardGate:
    """A write-preferring readers/writer gate.

    Shard-local mutations are readers (the worker's event loop already
    serializes them against each other); a distributed unit is the
    writer for every participating shard.  Writers are preferred --
    arriving readers queue behind a waiting writer -- so a steady local
    stream cannot starve 2PC.  Deadlock-free: a reader holds exactly one
    gate and never awaits another, and the coordinator's unit lock
    admits one writer at a time.

    No lock inside: the event loop is single-threaded and every state
    transition below happens between awaits, so the counters are
    already atomic.  The uncontended reader path -- every shard-local
    mutation -- is two integer operations and no suspension at all."""

    __slots__ = ("_readers", "_writer", "_writers_waiting", "_waiters")

    def __init__(self):
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        self._waiters: List[asyncio.Future] = []

    def _wake(self) -> None:
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    async def _wait(self) -> None:
        waiter = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        await waiter

    async def acquire_read(self) -> None:
        while self._writer or self._writers_waiting:
            await self._wait()
        self._readers += 1

    def release_read(self) -> None:
        self._readers -= 1
        if self._waiters and self._readers == 0:
            self._wake()

    async def acquire_write(self) -> None:
        self._writers_waiting += 1
        try:
            while self._writer or self._readers:
                await self._wait()
        finally:
            self._writers_waiting -= 1
        self._writer = True

    def release_write(self) -> None:
        self._writer = False
        self._wake()


class _Phase:
    """A 2PC phase span under a traced request: the dispatches of the
    phase's rounds nest inside it (task-local, like the root)."""

    __slots__ = ("span", "token")

    def __init__(self, root: Span, name: str, **attributes: Any):
        self.span = Span(name, attributes)
        root.children.append(self.span)

    def __enter__(self) -> Span:
        self.token = _PHASE_SPAN.set(self.span)
        return self.span

    def __exit__(self, kind, exc, traceback) -> None:
        self.span.end = time.perf_counter()
        if exc is not None:
            self.span.status = "error"
        _PHASE_SPAN.reset(self.token)


class AsyncShardedCommunity:
    """The society interface over N group-commit shard workers.

    Use as an async context manager (``__aenter__`` spawns the
    workers), or construct and ``await community.start()``.  All
    society-interface methods are coroutines safe to call from many
    client tasks concurrently."""

    def __init__(
        self,
        spec: str,
        shards: int = 4,
        placement: Optional[Dict[str, int]] = None,
        spool_dir: Optional[str] = None,
        permission_mode: str = "incremental",
        check_constraints: bool = True,
        probe_cache: bool = True,
        snapshot_interval: int = 64,
        request_timeout: float = 30.0,
        retries: int = 2,
        backoff: float = 0.05,
        observe: bool = False,
        trace: bool = False,
        trace_capacity: int = 256,
        slow_threshold: Optional[float] = None,
        slow_log_path: Optional[str] = None,
        span_batch_limit: Optional[int] = None,
        profile: Optional[str] = None,
        profile_interval: int = 16,
        profile_limit: Optional[int] = None,
        storage: Optional[str] = None,
        hot_set: Optional[int] = None,
        txn_compile: Optional[bool] = None,
    ):
        if not isinstance(spec, str):
            raise CheckError(
                "a sharded community needs specification text (workers "
                "re-parse it in their own processes)"
            )
        checked = check_specification(parse_specification(spec))
        checked.raise_if_errors()
        self.compiled = compile_specification(checked)
        self.spec_text = spec
        self.shards = shards
        self.partitioner = Partitioner(self.compiled, shards, placement)
        self.placement = dict(placement or {})
        self.spool_dir = spool_dir
        self.permission_mode = permission_mode
        self.check_constraints = check_constraints
        self.probe_cache = probe_cache
        self.snapshot_interval = snapshot_interval
        self.request_timeout = request_timeout
        self.retries = retries
        self.backoff = backoff
        self.observe = observe
        self.trace = trace
        self.span_batch_limit = span_batch_limit
        #: spec-level profiling mode shipped to every worker ("exact" /
        #: "sampling" / None); workers drain bounded profile dumps onto
        #: response frames, merged per shard for :meth:`fleet_profile`
        self.profile = profile
        self.profile_interval = profile_interval
        self.profile_limit = profile_limit
        #: storage backend spec shipped to every worker; path-bearing
        #: specs are suffixed per shard (storage_for_shard) so workers
        #: never share page files
        self.storage = storage
        self.hot_set = hot_set
        #: fused-transaction mode shipped to every worker (None defers
        #: to each worker process's REPRO_TXN_COMPILE default)
        self.txn_compile = txn_compile
        self.profile_pruned = 0
        self._profiles: Dict[int, Dict[str, Any]] = {}
        #: worker restarts observed (crash detection + recovery)
        self.restarts = 0
        #: telemetry spans truncated off response frames (fleet-wide
        #: counterpart lives in each worker's ``spans_dropped``)
        self.spans_dropped = 0
        self.in_flight = 0
        self.slow_log: Optional[SlowRequestLog] = None
        if trace:
            sinks = [RingBufferSink(trace_capacity)]
            if slow_threshold is not None:
                self.slow_log = SlowRequestLog(slow_threshold, path=slow_log_path)
                sinks.append(self.slow_log)
            self.obs: Optional[Observability] = Observability(
                tracing=True, sinks=sinks
            )
        elif observe:
            self.obs = Observability(tracing=False)
        else:
            self.obs = None
        self._tids = itertools.count(1)
        self._sids = itertools.count(1)
        self._rids = itertools.count(1)
        self._mids = itertools.count(1)
        self._handles: List[Optional[_AsyncHandle]] = [None] * shards
        self._restart_locks = [asyncio.Lock() for _ in range(shards)]
        self._gates = [_ShardGate() for _ in range(shards)]
        self._unit_lock = asyncio.Lock()
        self._closed = False
        self._watchdog: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "AsyncShardedCommunity":
        for index in range(self.shards):
            if self._handles[index] is None:
                await self._spawn(index)
        if self._watchdog is None:
            self._watchdog = asyncio.ensure_future(self._expire_loop())
        return self

    async def _expire_loop(self) -> None:
        """Fail requests whose deadline passed.  One shared sweep task
        enforces every in-flight timeout; a timeout can fire up to one
        sweep interval late, which is fine for a failure detector."""
        interval = min(0.5, max(0.05, self.request_timeout / 4))
        while not self._closed:
            await asyncio.sleep(interval)
            now = asyncio.get_running_loop().time()
            for handle in self._handles:
                if handle is None or not handle.deadlines:
                    continue
                expired = [
                    mid
                    for mid, deadline in handle.deadlines.items()
                    if deadline <= now
                ]
                for mid in expired:
                    handle.deadlines.pop(mid, None)
                    future = handle.futures.pop(mid, None)
                    if future is not None and not future.done():
                        future.set_exception(
                            WireTimeout(f"no reply from shard {handle.index}")
                        )

    def _worker_config(self, index: int) -> Dict[str, Any]:
        return {
            "spec": self.spec_text,
            "shard_index": index,
            "shards": self.shards,
            "placement": self.placement,
            "spool_dir": self.spool_dir,
            "permission_mode": self.permission_mode,
            "check_constraints": self.check_constraints,
            "probe_cache": self.probe_cache,
            "snapshot_interval": self.snapshot_interval,
            "observe": self.observe,
            "trace": self.trace,
            "span_batch_limit": self.span_batch_limit,
            "profile": self.profile,
            "profile_interval": self.profile_interval,
            "profile_limit": self.profile_limit,
            "storage": self.storage,
            "hot_set": self.hot_set,
            "txn_compile": self.txn_compile,
        }

    async def _spawn(self, index: int) -> _AsyncHandle:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        parent_sock, child_sock = socket.socketpair()
        process = ctx.Process(
            target=worker_main,
            args=(child_sock, self._worker_config(index)),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        process.start()
        child_sock.close()
        handle = await self._connect(index, process, parent_sock)
        self._handles[index] = handle
        return handle

    async def _connect(self, index: int, process, sock) -> _AsyncHandle:
        """Wrap a fresh worker's socket in streams and start the task
        that routes its replies."""
        reader, writer = await asyncio.open_connection(sock=sock)
        handle = _AsyncHandle(index, process, reader, writer)
        handle.demux = asyncio.ensure_future(self._demux(handle))
        return handle

    async def _demux(self, handle: _AsyncHandle) -> None:
        """Per-connection response router: resolves futures by mid.
        Any stream failure (EOF on worker death, desync, reset) fails
        every in-flight request over to the retry path."""
        try:
            while True:
                frame = await async_recv_frame(handle.reader)
                mid = frame.pop("mid", None)
                handle.deadlines.pop(mid, None)
                future = handle.futures.pop(mid, None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except asyncio.CancelledError:
            self._teardown(handle, _ConnectionLost("connection torn down"))
        except (WireError, OSError) as exc:
            self._teardown(handle, exc)

    def _enqueue(self, handle: _AsyncHandle, payload: bytes) -> None:
        """Queue a frame and coalesce every frame enqueued this loop
        tick into one transport write: on a single-core host each send
        wakes the worker process and hands it the CPU, so one syscall
        carrying the whole burst costs one context switch instead of
        one per request -- and delivers the worker an arrival wave its
        group commit can cover with a single fsync."""
        handle.outbox.append(payload)
        if not handle.flush_pending:
            handle.flush_pending = True
            asyncio.get_running_loop().call_soon(self._flush_outbox, handle)

    def _flush_outbox(self, handle: _AsyncHandle) -> None:
        handle.flush_pending = False
        if not handle.outbox or not handle.alive:
            return
        data = b"".join(handle.outbox)
        handle.outbox.clear()
        try:
            handle.writer.write(data)
        except Exception:
            # a dying stream fails the in-flight futures via the demux
            # task's teardown; the retry path owns recovery
            pass

    def _teardown(self, handle: _AsyncHandle, exc: BaseException) -> None:
        """Mark the connection dead, close the transport, and fail every
        in-flight future with a retryable error."""
        if handle.alive:
            handle.cause = type(exc).__name__
        handle.alive = False
        handle.outbox.clear()
        handle.deadlines.clear()
        try:
            handle.writer.close()
        except Exception:  # pragma: no cover - defensive
            pass
        futures, handle.futures = handle.futures, {}
        for future in futures.values():
            if not future.done():
                future.set_exception(_ConnectionLost(str(exc) or type(exc).__name__))

    async def _respawn(self, index: int, span: Optional[Span] = None) -> _AsyncHandle:
        """The live handle for a shard whose connection is dead (or was
        never opened), respawning its worker first.  Respawns are
        serialized per shard so concurrent failed requests fund one
        recovery, not one each.  ``span`` is the dispatch that asked: a
        traced respawn is a ``respawn`` span inside it."""
        async with self._restart_locks[index]:
            handle = self._handles[index]
            if handle is not None and handle.alive and handle.process.is_alive():
                return handle
            if self.obs is not None:
                self.obs.metrics.counter("rpc.respawns").inc(labels=(str(index),))
            if span is None:
                return await self._restart(index, handle)
            reason = (handle.cause or "dead_worker") if handle else "no_worker"
            respawn = Span("respawn", {"shard": index, "reason": reason})
            span.children.append(respawn)
            try:
                return await self._restart(index, handle)
            finally:
                respawn.end = time.perf_counter()

    async def _restart(
        self, index: int, handle: Optional[_AsyncHandle]
    ) -> _AsyncHandle:
        """Kill whatever is left of a shard and spawn a fresh worker,
        which recovers from its spool (base + deltas + journal)."""
        if handle is not None:
            self._teardown(handle, _ConnectionLost("dead worker"))
            if handle.demux is not None:
                handle.demux.cancel()
            if handle.process.is_alive():
                handle.process.terminate()
            await _join(handle.process)
            self._handles[index] = None
        self.restarts += 1
        return await self._spawn(index)

    async def _revive(self) -> None:
        """Respawn every shard whose connection a failed call tore down
        (the blocking facade's contract: a call that gives up on a shard
        leaves it restarted)."""
        for index, handle in enumerate(self._handles):
            if not self._closed and handle is not None and not handle.alive:
                await self._respawn(index)

    def kill_worker(self, index: int) -> None:
        """Hard-kill one shard process (fault injection for tests); the
        demux task observes the EOF and fails in-flight requests over to
        crash detection + restart."""
        handle = self._handles[index]
        if handle is not None and handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=5)

    # ------------------------------------------------------------------
    # The request machinery: pipelining, timeout, retry, restart
    # ------------------------------------------------------------------

    async def _request(
        self, index: int, message: Dict[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        if self._closed:
            raise ShardUnavailable("the community has been closed")
        obs = self.obs
        if obs is None:
            return await self._request_attempts(index, message, timeout, None)
        op = message.get("op")
        start = time.perf_counter()
        try:
            if obs.tracing:
                sid = f"s{next(self._sids)}"
                root = _ROOT_SPAN.get()
                tid = root.attributes.get("tid", "") if root is not None else ""
                message = dict(message, trace={"tid": tid, "sid": sid})
                span = Span("dispatch", {"op": op, "shard": index, "sid": sid})
                if root is not None:
                    (_PHASE_SPAN.get() or root).children.append(span)
                try:
                    response = await self._request_attempts(
                        index, message, timeout, span
                    )
                    batch = response.pop("spans", None)
                    if batch:
                        attach_remote_spans(span, batch)
                    dropped = response.pop("spans_dropped", 0)
                    if dropped:
                        self.spans_dropped += dropped
                        obs.metrics.counter("rpc.spans_dropped").inc(dropped)
                        span.set("spans_dropped", dropped)
                    return response
                except Exception as exc:
                    span.status = "error"
                    span.attributes.setdefault("error", type(exc).__name__)
                    raise
                finally:
                    span.end = time.perf_counter()
                    if root is None:
                        # A dispatch outside any request root (management
                        # round-trips) is its own trace tree.
                        for sink in obs.tracer.sinks:
                            sink.emit(span)
            return await self._request_attempts(index, message, timeout, None)
        finally:
            obs.metrics.histogram("rpc").observe(time.perf_counter() - start)
            obs.metrics.counter("rpc.requests").inc(labels=(str(op),))

    async def _request_attempts(
        self,
        index: int,
        message: Dict[str, Any],
        timeout: Optional[float],
        span: Optional[Span],
    ) -> Dict[str, Any]:
        timeout = self.request_timeout if timeout is None else timeout
        attempts = self.retries + 1
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            handle = self._handles[index]
            if handle is None or not handle.alive:
                # No is_alive() on the live path: that is a waitpid
                # syscall per request.  A worker that died without the
                # demux noticing yet just fails this request over to
                # the retry path, which lands here.
                handle = await self._respawn(index, span)
            mid = next(self._mids)
            try:
                if handle.blocking:
                    response = handle.exchange(message, timeout)
                else:
                    loop = asyncio.get_running_loop()
                    future = loop.create_future()
                    handle.futures[mid] = future
                    # The watchdog sweep enforces the deadline: a shared
                    # periodic scan instead of two timer-heap operations
                    # per request (timeouts here are coarse failure
                    # detectors with retries stacked on top, not
                    # precision timers).
                    handle.deadlines[mid] = loop.time() + timeout
                    self._enqueue(handle, encode_frame(dict(message, mid=mid)))
                    response = await future
                # Profile batches ride every response frame of a
                # profiled worker (traced or not); absorb them here so
                # no caller ever sees them.
                dump = response.pop("profile", None)
                if dump is not None:
                    self._absorb_profile(
                        index, dump, response.pop("profile_pruned", 0)
                    )
                return response
            except (_ConnectionLost, WireError, OSError) as exc:
                handle.deadlines.pop(mid, None)
                handle.futures.pop(mid, None)
                last_error = exc
                timed_out = isinstance(exc, WireTimeout)
                if self.obs is not None:
                    kind = "timeout" if timed_out else "crash"
                    self.obs.metrics.counter("rpc.failures").inc(labels=(kind,))
                if timed_out or handle.blocking:
                    # A hung worker, a reply stuck mid-frame, or a failed
                    # blocking exchange: the stream cannot be trusted, so
                    # tear it down -- every other in-flight request fails
                    # over to its retry.
                    self._teardown(handle, exc)
                    if handle.demux is not None:
                        handle.demux.cancel()
                if attempt + 1 < attempts:
                    if self.obs is not None:
                        self.obs.metrics.counter("rpc.retries").inc()
                    if span is not None:
                        span.set("retries", attempt + 1)
                    await asyncio.sleep(backoff_delay(attempt, self.backoff))
        raise ShardUnavailable(
            f"shard {index} unreachable after {attempts} attempt(s): "
            f"{type(last_error).__name__}: {last_error}"
        )

    async def _call(
        self, index: int, message: Dict[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        response = await self._request(index, message, timeout)
        if not response.get("ok"):
            raise remote_error(response, index)
        return response

    def _rid(self) -> str:
        return f"r{next(self._rids)}"

    # ------------------------------------------------------------------
    # Routing helpers
    # ------------------------------------------------------------------

    def _route(self, class_name: str, key) -> Tuple[Any, int]:
        if class_name not in self.compiled.classes:
            raise CheckError(f"unknown class {class_name!r}")
        payload = key.payload if isinstance(key, Value) else key
        return payload, self.partitioner.shard_of(class_name, payload)

    @staticmethod
    def _encode_args(args: Sequence[object]) -> List[Any]:
        return [value_to_json(from_python(a)) for a in args]

    # ------------------------------------------------------------------
    # The society interface
    # ------------------------------------------------------------------

    async def _observed(self, op: str, attributes: Dict[str, Any], thunk):
        """One society-interface call under telemetry: a task-local
        ``request`` root span (concurrent client tasks each get their
        own) and per-op latency histograms.  Never entered when
        ``self.obs`` is None."""
        obs = self.obs
        self.in_flight += 1
        start = time.perf_counter()
        try:
            if obs.tracing:
                tid = f"t{next(self._tids)}"
                root = Span("request", dict(attributes, op=op, tid=tid))
                token = _ROOT_SPAN.set(root)
                try:
                    return await thunk()
                except Exception as exc:
                    root.status = "error"
                    root.attributes.setdefault("error", type(exc).__name__)
                    raise
                finally:
                    root.end = time.perf_counter()
                    _ROOT_SPAN.reset(token)
                    for sink in obs.tracer.sinks:
                        sink.emit(root)
            return await thunk()
        finally:
            self.in_flight -= 1
            elapsed = time.perf_counter() - start
            obs.metrics.histogram("request").observe(elapsed)
            obs.metrics.histogram(f"request.{op}").observe(elapsed)

    async def create(
        self,
        class_name: str,
        identification: Optional[dict] = None,
        event: Optional[str] = None,
        args: Sequence[object] = (),
    ):
        """Create an instance on its owning shard; returns the identity
        payload (the routing key for later calls)."""
        if self.obs is not None:
            return await self._observed(
                "create",
                {"class": class_name},
                lambda: self._create_core(class_name, identification, event, args),
            )
        return await self._create_core(class_name, identification, event, args)

    async def _create_core(
        self,
        class_name: str,
        identification: Optional[dict],
        event: Optional[str],
        args: Sequence[object],
    ):
        if class_name not in self.compiled.classes:
            raise CheckError(f"unknown class {class_name!r}")
        compiled = self.compiled.classes[class_name]
        payload = self.partitioner.identity_payload(compiled, identification)
        shard = self.partitioner.shard_of(class_name, payload)
        item = {
            "type": "create",
            "class": class_name,
            "identification": {
                name: value_to_json(from_python(v))
                for name, v in (identification or {}).items()
            },
            "event": event,
            "args": self._encode_args(args),
        }
        message = dict(item, op="create", rid=self._rid())
        message.pop("type")
        response = await self._mutate(shard, message)
        if response.get("status") == "needs_2pc":
            await self._run_2pc({shard: [item]}, response.get("remote", []))
        return payload

    async def occur(
        self, class_name: str, key, event: str, args: Sequence[object] = ()
    ) -> None:
        """Drive one event occurrence (plus its synchronization set,
        across shards when event calling requires it)."""
        if self.obs is not None:
            return await self._observed(
                "occur",
                {"class": class_name, "event": event},
                lambda: self._occur_core(class_name, key, event, args),
            )
        return await self._occur_core(class_name, key, event, args)

    async def _occur_core(
        self, class_name: str, key, event: str, args: Sequence[object]
    ) -> None:
        payload, shard = self._route(class_name, key)
        key_json = _payload_to_json(payload)
        args_json = self._encode_args(args)
        message = {
            "op": "occur",
            "class": class_name,
            "key": key_json,
            "event": event,
            "args": args_json,
            "rid": self._rid(),
        }
        response = await self._mutate(shard, message)
        if response.get("status") == "needs_2pc":
            item = {
                "type": "occur",
                "class": class_name,
                "key": key_json,
                "event": event,
                "args": args_json,
            }
            await self._run_2pc({shard: [item]}, response.get("remote", []))

    async def _mutate(self, shard: int, message: Dict[str, Any]) -> Dict[str, Any]:
        """A shard-local mutating request, holding the shard's gate as a
        reader so no distributed unit's vote->commit window overlaps it."""
        gate = self._gates[shard]
        await gate.acquire_read()
        try:
            return await self._call(shard, message)
        finally:
            gate.release_read()

    async def get(
        self, class_name: str, key, attribute: str, args: Sequence[object] = ()
    ) -> Value:
        if self.obs is not None:
            return await self._observed(
                "get",
                {"class": class_name, "attribute": attribute},
                lambda: self._get_core(class_name, key, attribute, args),
            )
        return await self._get_core(class_name, key, attribute, args)

    async def _get_core(
        self, class_name: str, key, attribute: str, args: Sequence[object]
    ) -> Value:
        payload, shard = self._route(class_name, key)
        response = await self._call(
            shard,
            {
                "op": "get",
                "class": class_name,
                "key": _payload_to_json(payload),
                "attribute": attribute,
                "args": self._encode_args(args),
            },
        )
        return value_from_json(response["value"])

    async def is_permitted(
        self, class_name: str, key, event: str, args: Sequence[object] = ()
    ) -> bool:
        if self.obs is not None:
            return await self._observed(
                "is_permitted",
                {"class": class_name, "event": event},
                lambda: self._is_permitted_core(class_name, key, event, args),
            )
        return await self._is_permitted_core(class_name, key, event, args)

    async def _is_permitted_core(
        self, class_name: str, key, event: str, args: Sequence[object]
    ) -> bool:
        payload, shard = self._route(class_name, key)
        item = {
            "type": "occur",
            "class": class_name,
            "key": _payload_to_json(payload),
            "event": event,
            "args": self._encode_args(args),
        }
        message = dict(item, op="is_permitted")
        message.pop("type")
        response = await self._call(shard, message)
        if response.get("status") == "needs_2pc":
            # A dry fixpoint: prepares are rolled-back transactions, so
            # no gates are needed -- but serialize against real units so
            # the verdict is not computed mid vote->commit window.
            async with self._unit_lock:
                ok, _failure, _groups = await self._prepare_fixpoint(
                    {shard: [item]},
                    response.get("remote", []),
                    None,
                    _ROOT_SPAN.get(),
                )
            return ok
        return bool(response.get("permitted"))

    async def step(self) -> Optional[Tuple[str, Any, str]]:
        """Fire one enabled active event somewhere in the community;
        returns (class, key, event) or None at quiescence.  Shards are
        polled in index order; a cross-shard candidate whose distributed
        unit aborts is skipped this round."""
        if self.obs is not None:
            return await self._observed("step", {}, self._step_core)
        return await self._step_core()

    async def _step_core(self) -> Optional[Tuple[str, Any, str]]:
        for shard in range(self.shards):
            response = await self._mutate(
                shard, {"op": "step", "rid": self._rid()}
            )
            status = response.get("status")
            if status == "fired":
                return (
                    response["class"],
                    _payload_from_json(response["key"]),
                    response["event"],
                )
            if status == "needs_2pc_candidate":
                item = {
                    "type": "occur",
                    "class": response["class"],
                    "key": response["key"],
                    "event": response["event"],
                    "args": [],
                }
                try:
                    await self._run_2pc({shard: [item]}, [])
                except RuntimeSpecError:
                    continue
                return (
                    response["class"],
                    _payload_from_json(response["key"]),
                    response["event"],
                )
        return None

    async def run_active(self, max_steps: int = 100) -> List[Tuple[str, Any, str]]:
        fired: List[Tuple[str, Any, str]] = []
        for _ in range(max_steps):
            occurrence = await self.step()
            if occurrence is None:
                break
            fired.append(occurrence)
        return fired

    # ------------------------------------------------------------------
    # Two-phase commit (batched rounds, gated participants)
    # ------------------------------------------------------------------

    async def _prepare_fixpoint(
        self,
        groups: Dict[int, List[Dict[str, Any]]],
        remote: List[Dict[str, Any]],
        held: Optional[List[int]],
        root: Optional[Span],
    ) -> Tuple[bool, Optional[Dict[str, Any]], Dict[int, List[Dict[str, Any]]]]:
        """Close the participant set, preparing every round's shards
        concurrently.  Returns (all_voted_yes, failing_response_or_None,
        groups).  When ``held`` is a list, each participant's gate is
        write-acquired before its first prepare and recorded there for
        the caller to release (after commit/abort).  ``root`` is the
        traced request the rounds belong to, if any."""
        seen = {
            _item_key(item) for items in groups.values() for item in items
        }
        queue = list(remote)
        with (
            _Phase(root, "2pc.prepare") if root is not None else _UNTRACED
        ) as span:
            for round_index in range(MAX_2PC_ROUNDS):
                for call in queue:
                    key = _item_key(call)
                    if key in seen:
                        continue
                    seen.add(key)
                    payload = _payload_from_json(call["key"])
                    owner = self.partitioner.shard_of(call["class"], payload)
                    groups.setdefault(owner, []).append(
                        {
                            "type": "occur",
                            "class": call["class"],
                            "key": call["key"],
                            "event": call["event"],
                            "args": call.get("args") or [],
                        }
                    )
                queue = []
                shards = sorted(groups)
                if held is not None:
                    for shard in shards:
                        if shard not in held:
                            await self._gates[shard].acquire_write()
                            held.append(shard)
                responses = await asyncio.gather(
                    *(
                        self._call(
                            shard, {"op": "prepare_group", "items": groups[shard]}
                        )
                        for shard in shards
                    )
                )
                for shard, response in zip(shards, responses):
                    if not response.get("vote"):
                        if span is not None:
                            span.set("vote", False)
                            span.set("no_vote_shard", response.get("shard", shard))
                        return False, response, groups
                    for call in response.get("remote", []):
                        if _item_key(call) not in seen:
                            queue.append(call)
                if not queue:
                    if span is not None:
                        span.set("rounds", round_index + 1)
                        span.set("shards", shards)
                    return True, None, groups
        raise RuntimeSpecError(
            f"distributed synchronization set did not close within "
            f"{MAX_2PC_ROUNDS} prepare rounds (calling cycle across shards?)"
        )

    async def _run_2pc(
        self,
        groups: Dict[int, List[Dict[str, Any]]],
        remote: List[Dict[str, Any]],
    ) -> None:
        obs = self.obs
        root = _ROOT_SPAN.get()
        if root is not None:
            root.set("2pc", True)
        if obs is not None:
            obs.metrics.counter("2pc.units").inc()
        async with self._unit_lock:
            held: List[int] = []
            try:
                ok, failure, groups = await self._prepare_fixpoint(
                    groups, remote, held, root
                )
                if not ok:
                    reason = failure.get("error", "RuntimeSpecError")
                    message = failure.get("message", "distributed unit aborted")
                    if obs is not None:
                        obs.metrics.counter("2pc.aborts").inc(labels=(reason,))

                    async def _abort(shard: int) -> None:
                        # Tombstones on every participant, best-effort: a
                        # shard that cannot journal the abort has nothing
                        # committed.
                        try:
                            await self._call(
                                shard,
                                {
                                    "op": "abort_group",
                                    "items": groups[shard],
                                    "reason": reason,
                                    "message": message,
                                },
                            )
                        except TrollError:
                            pass

                    with (
                        _Phase(root, "2pc.abort", reason=reason)
                        if root is not None
                        else _UNTRACED
                    ):
                        await asyncio.gather(
                            *(_abort(shard) for shard in sorted(groups))
                        )
                    # Re-raise with the original type, failing occurrence
                    # and shard identity (they travelled on the no-vote).
                    raise remote_error(failure)
                # All voted yes; the unit lock plus the write gates on
                # every participant admit no conflicting unit in between
                # -- commits cannot be denied.  A crash mid-round is
                # covered by restart + the rid spool.
                with (
                    _Phase(root, "2pc.commit", shards=sorted(groups))
                    if root is not None
                    else _UNTRACED
                ):
                    await asyncio.gather(
                        *(
                            self._call(
                                shard,
                                {
                                    "op": "commit_group",
                                    "rid": self._rid(),
                                    "items": groups[shard],
                                },
                            )
                            for shard in sorted(groups)
                        )
                    )
            finally:
                for shard in held:
                    self._gates[shard].release_write()
        if obs is not None:
            obs.metrics.counter("2pc.commits").inc()

    # ------------------------------------------------------------------
    # Merged state and telemetry
    # ------------------------------------------------------------------

    async def merged_state(self) -> Dict[str, Any]:
        """The community's full state as one canonical ``dump_state``
        snapshot (compare against :func:`normalize_state` of an oracle).
        Dumps run concurrently; quiesce the clients first when an exact
        cross-shard cut is needed (the oracle checks do)."""
        states = await asyncio.gather(
            *(
                self._call(shard, {"op": "dump"})
                for shard in range(self.shards)
            )
        )
        return merge_states([state["state"] for state in states])

    async def merged_export(self) -> Dict[str, Any]:
        """Per-shard counters, the coordinator's own counters and
        metrics dump, plus community totals -- the document the fleet
        renderers (:func:`~repro.observability.export.render_fleet_prometheus`)
        consume."""
        shards = list(
            await asyncio.gather(
                *(
                    self._call(shard, {"op": "export"})
                    for shard in range(self.shards)
                )
            )
        )
        totals = {
            "requests": sum(s.get("requests", 0) for s in shards),
            "commits": sum(s.get("commits", 0) for s in shards),
            "rollbacks": sum(s.get("rollbacks", 0) for s in shards),
            "journal_depth": sum(s.get("journal_depth", 0) for s in shards),
            "restarts": self.restarts,
            "spans_dropped": self.spans_dropped
            + sum(s.get("spans_dropped", 0) for s in shards),
            "group_commit": {
                "flushes": sum(
                    (s.get("group_commit") or {}).get("flushes", 0)
                    for s in shards
                ),
                "records": sum(
                    (s.get("group_commit") or {}).get("records", 0)
                    for s in shards
                ),
            },
        }
        coordinator = {
            "restarts": self.restarts,
            "in_flight": self.in_flight,
            "spans_dropped": self.spans_dropped,
            "slow_requests": self.slow_log.total if self.slow_log else 0,
            "metrics_dump": self.obs.metrics.dump() if self.obs else None,
        }
        return {"shards": shards, "coordinator": coordinator, "totals": totals}

    async def fleet_metrics(self):
        """One merged :class:`~repro.observability.metrics.MetricsRegistry`
        over the coordinator and every shard (histograms merged
        bucket-by-bucket)."""
        return merge_fleet_registry(await self.merged_export())

    def _absorb_profile(
        self, index: int, dump: Dict[str, Any], pruned: int
    ) -> None:
        """Merge a worker's drained profile batch under its shard node."""
        state = self._profiles.get(index)
        if state is None:
            state = self._profiles[index] = {
                "node": ProfileNode(f"shard:{index}"),
                "mode": dump.get("mode", "exact"),
                "interval": dump.get("interval", 1),
                "total_roots": 0,
                "sampled_roots": 0,
                "pruned": 0,
            }
        state["node"].merge_dict(dump["tree"])
        state["total_roots"] += dump.get("total_roots", 0)
        state["sampled_roots"] += dump.get("sampled_roots", 0)
        if pruned:
            state["pruned"] += pruned
            self.profile_pruned += pruned

    def fleet_profile(self) -> Dict[str, Any]:
        """One merged spec-level profile over the whole fleet: a dump
        whose tree has one ``shard:N`` subtree per shard that reported
        work (same shape as a :class:`Profiler` dump, so every exporter
        and the ``repro profile`` renderer apply unchanged)."""
        children = []
        total = sampled = pruned = 0
        for index in sorted(self._profiles):
            state = self._profiles[index]
            children.append(state["node"].to_dict())
            total += state["total_roots"]
            sampled += state["sampled_roots"]
            pruned += state["pruned"]
        tree: Dict[str, Any] = {
            "name": "fleet",
            "calls": sampled,
            "seconds": sum(child["seconds"] for child in children),
        }
        if children:
            tree["children"] = children
        dump = {
            "mode": self.profile or "exact",
            "interval": self.profile_interval,
            "total_roots": total,
            "sampled_roots": sampled,
            "scale": (total / sampled) if sampled else 1.0,
            "tree": tree,
        }
        if pruned:
            dump["pruned"] = pruned
        return dump

    def traces(self) -> List[Span]:
        """The merged request trace trees currently in the ring sink
        (oldest first); empty when tracing is off."""
        if self.obs is None or self.obs.ring is None:
            return []
        return request_traces(self.obs.ring.spans)

    def find_trace(self, trace_id: str) -> Optional[Span]:
        """The merged request tree with the given trace id, or None."""
        if self.obs is None or self.obs.ring is None:
            return None
        return trace_by_id(self.obs.ring.spans, trace_id)

    def slow_requests(self) -> List[Span]:
        """Merged traces captured by the slow-request log (empty when no
        threshold was configured)."""
        return list(self.slow_log.entries) if self.slow_log else []

    async def snapshot_all(self) -> List[int]:
        """Force every shard to spool a fresh snapshot; returns the
        per-shard journal high-water marks."""
        responses = await asyncio.gather(
            *(
                self._call(shard, {"op": "snapshot"})
                for shard in range(self.shards)
            )
        )
        return [response["journal_seq"] for response in responses]

    async def ping_all(self) -> List[Dict[str, Any]]:
        return list(
            await asyncio.gather(
                *(
                    self._call(shard, {"op": "ping"})
                    for shard in range(self.shards)
                )
            )
        )

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        loop = asyncio.get_running_loop()
        if self._watchdog is not None:
            self._watchdog.cancel()
            try:
                await self._watchdog
            except (asyncio.CancelledError, Exception):
                pass
            self._watchdog = None
        for index, handle in enumerate(self._handles):
            if handle is None:
                continue
            try:
                if handle.alive and handle.blocking:
                    handle.exchange({"op": "shutdown"}, 2.0)
                elif handle.alive:
                    mid = next(self._mids)
                    future = loop.create_future()
                    handle.futures[mid] = future
                    await async_send_frame(
                        handle.writer, {"op": "shutdown", "mid": mid}
                    )
                    await asyncio.wait_for(future, 2.0)
            except (WireError, OSError, asyncio.TimeoutError, _ConnectionLost):
                pass
            self._teardown(handle, _ConnectionLost("community closed"))
            if handle.demux is not None:
                handle.demux.cancel()
                try:
                    await handle.demux
                except (asyncio.CancelledError, Exception):
                    pass
            await _join(handle.process)
            if handle.process.is_alive():
                handle.process.terminate()
                await _join(handle.process)
            self._handles[index] = None

    async def __aenter__(self) -> "AsyncShardedCommunity":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()
