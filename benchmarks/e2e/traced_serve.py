"""``repro serve`` with timers around its layer entry points.

Usage::

    PYTHONPATH=src python benchmarks/e2e/traced_serve.py --spans-dir DIR serve SPEC --port 0 ...

``runner.Server`` starts it that way.  Everything after ``--spans-dir DIR`` is handed to ``repro.cli.main``
unchanged.  Before that, each entry point in :data:`TARGETS` is replaced
by a wrapper that appends one span -- ``(kind, key, start, end, ...)``
with ``time.perf_counter`` stamps -- to an in-memory list.  Nothing under
``src/`` changes.  ``perf_counter`` is CLOCK_MONOTONIC on Linux, so
stamps taken in the serve process and in its shard workers lie on one
time line.

Joining spans to client requests:

* the client puts a ``"bid"`` (benchmark request id) field in every
  request line; the server ignores it, and the wrapper around
  ``cli._serve_dispatch_async`` puts it in the :data:`BID` context
  variable, which every task the coordinator spawns for that request
  inherits;
* the coordinator's ``encode_frame`` wrapper stamps each frame it
  encodes with the current bid, keyed by the frame's ``mid`` (message
  ids are unique per coordinator, across shards);
* shard workers are forked, so they inherit the wrappers; their spans
  carry the ``mid`` of the frame being handled, and the wrapper around
  ``aio.worker_main`` writes each worker's spans to a file when the
  worker exits.  The serve process writes its own when ``main`` returns.

A target that no longer exists (renamed upstream) stops the run before
the server starts, instead of silently dropping a layer.
"""

from __future__ import annotations

import collections
import contextvars
import importlib
import json
import os
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: the benchmark request id of the client request being served
BID: contextvars.ContextVar = contextvars.ContextVar("bench_bid", default=None)

#: (module, attribute path, span kind) of every wrapped entry point.
#: ``dump_incremental`` is wrapped in the worker's namespace because the
#: worker calls it through its own import of ``repro.runtime.persistence``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.cli", "_serve_dispatch_async", "cli"),
    ("repro.distributed.aio", "AsyncShardedCommunity.create", "aio"),
    ("repro.distributed.aio", "AsyncShardedCommunity.occur", "aio"),
    ("repro.distributed.aio", "AsyncShardedCommunity.get", "aio"),
    ("repro.distributed.aio", "AsyncShardedCommunity.is_permitted", "aio"),
    ("repro.distributed.aio", "encode_frame", "cenc"),
    ("repro.distributed.aio", "AsyncShardedCommunity._flush_outbox", "flush"),
    ("repro.distributed.aio", "async_recv_frame", "cdec"),
    ("repro.distributed.aio", "worker_main", "worker_main"),
    ("repro.distributed.wire", "_decode_body", "decode"),
    ("asyncio.streams", "StreamReader.feed_data", "feed"),
    ("repro.distributed.worker", "async_recv_frame", "wdec"),
    ("repro.distributed.worker", "encode_frame", "wenc"),
    ("repro.distributed.worker", "ShardWorker.handle", "handle"),
    ("repro.distributed.worker", "ShardWorker.take_durability", "held"),
    ("repro.distributed.worker", "ShardWorker._dry_items", "dry"),
    ("repro.runtime.objectbase", "ObjectBase._run_unit", "unit"),
    ("repro.runtime.objectbase", "ObjectBase.get", "get"),
    ("repro.runtime.objectbase", "ObjectBase.is_permitted", "perm"),
    ("repro.storage.registry", "InstanceStore.get", "sget"),
    ("repro.storage.registry", "InstanceStore.balance", "balance"),
    ("repro.observability.journal", "Journal.record_commit", "commit"),
    ("repro.observability.journal", "Journal.records_since", "scan"),
    ("repro.distributed.worker", "Spool.append_group", "fsync"),
    ("repro.distributed.worker", "Spool.write_snapshot_text", "swrite"),
    ("repro.distributed.worker", "dump_incremental", "dump"),
)


class Recorder:
    """The spans of one process, written out when the process is done."""

    def __init__(self, directory: str):
        self.directory = directory
        self.role = "coordinator"
        self.spans: List[tuple] = []
        #: mid of the frame a worker is handling (None between frames)
        self.current: Optional[int] = None
        #: mid of the frame a worker handled last
        self.last: Optional[int] = None
        #: (start, end, bytes) of the last frame body decoded
        self.decoded: Tuple[float, float, int] = (0.0, 0.0, 0)
        #: id of an encoded coordinator frame still in an outbox -> mid
        self.unsent: Dict[int, Optional[int]] = {}

    def become_worker(self) -> None:
        """Forked workers start with a copy of the coordinator's list."""
        self.role = "worker"
        self.spans = []

    def write(self) -> None:
        path = os.path.join(self.directory, f"{self.role}-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"role": self.role, "pid": os.getpid(), "spans": self.spans}, handle)


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, current value) of ``module.path``; raises
    AttributeError or ImportError when it does not exist."""
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute, getattr(owner, attribute)


def _counters(worker) -> Tuple[int, ...]:
    """The worker's always-on counters a handled frame may move."""
    from repro.runtime.txncompile import STATS

    system = worker.system
    storage = system.store.stats
    probes = system.probe_stats
    return (
        storage.faults,
        storage.writebacks,
        probes.hits,
        probes.misses,
        STATS.cache_hits,
        STATS.compiled,
    )


def _wrapper(kind: str, original: Callable, rec: Recorder) -> Callable:
    """The timing wrapper for one span kind.  Wrappers look up
    ``rec.spans`` on every call: a forked worker swaps in its own list."""
    if kind == "cli":

        async def wrapped(community, request):
            token = BID.set(request.get("bid"))
            start = perf_counter()
            try:
                return await original(community, request)
            finally:
                rec.spans.append(("cli", BID.get(), start, perf_counter()))
                BID.reset(token)

    elif kind == "aio":

        async def wrapped(self, *args, **kwargs):
            start = perf_counter()
            try:
                return await original(self, *args, **kwargs)
            finally:
                rec.spans.append(("aio", BID.get(), start, perf_counter()))

    elif kind == "cenc":

        def wrapped(message):
            start = perf_counter()
            data = original(message)
            mid = message.get("mid")
            rec.spans.append(
                ("cenc", BID.get(), start, perf_counter(), mid, len(data), message.get("op"))
            )
            rec.unsent[id(data)] = mid
            return data

    elif kind == "flush":

        def wrapped(self, handle):
            mids = tuple(rec.unsent.pop(id(payload), None) for payload in handle.outbox)
            original(self, handle)
            sent = perf_counter()
            rec.spans.append(("flush", None, sent, sent, mids))

    elif kind == "feed":

        def wrapped(self, data):
            fed = self.__dict__.get("_bench_fed", 0) + len(data)
            self._bench_fed = fed
            feeds = self.__dict__.get("_bench_feeds")
            if feeds is not None:
                feeds.append((fed, perf_counter()))
            return original(self, data)

    elif kind in ("cdec", "wdec"):

        async def wrapped(reader, timeout=None):
            waiting = perf_counter()
            feeds = reader.__dict__.get("_bench_feeds")
            if feeds is None:
                feeds = reader._bench_feeds = collections.deque()
            frame = await original(reader, timeout)
            start, end, size = rec.decoded
            # the frame's last byte came with the first feed reaching the
            # stream offset consumed so far
            consumed = reader.__dict__.get("_bench_fed", 0) - len(reader._buffer)
            while feeds and feeds[0][0] < consumed:
                feeds.popleft()
            arrived = feeds[0][1] if feeds and feeds[0][1] <= start else None
            rec.spans.append((kind, frame.get("mid"), start, end, size, waiting, arrived))
            return frame

    elif kind == "decode":

        def wrapped(body):
            start = perf_counter()
            message = original(body)
            rec.decoded = (start, perf_counter(), len(body) + 4)
            return message

    elif kind == "wenc":

        def wrapped(message):
            start = perf_counter()
            data = original(message)
            rec.spans.append(("wenc", message.get("mid"), start, perf_counter(), len(data)))
            return data

    elif kind == "handle":

        def wrapped(self, request):
            mid = request.get("mid")
            before = _counters(self)
            rec.current = mid
            start = perf_counter()
            try:
                return original(self, request)
            finally:
                end = perf_counter()
                rec.current = None
                rec.last = mid
                moved = tuple(a - b for a, b in zip(_counters(self), before))
                rec.spans.append(("handle", mid, start, end, request.get("op"), moved))

    elif kind == "held":

        def wrapped(self):
            withheld = original(self)
            if withheld:
                rec.spans.append(("held", rec.last, 0.0, 0.0))
            return withheld

    elif kind == "worker_main":

        def wrapped(sock, config):
            rec.become_worker()
            try:
                original(sock, config)
            finally:
                rec.write()

    elif kind in ("fsync", "swrite"):

        # Spool.append_group(records, rids) / write_snapshot_text(text):
        # the span carries the record count or the snapshot's length
        def wrapped(self, payload, *rest):
            start = perf_counter()
            try:
                return original(self, payload, *rest)
            finally:
                rec.spans.append((kind, None, start, perf_counter(), len(payload)))

    else:

        def wrapped(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                rec.spans.append((kind, rec.current, start, perf_counter()))

    return wrapped


def install(rec: Recorder, targets: Sequence[Tuple[str, str, str]] = TARGETS) -> None:
    """Wrap every target, or raise LookupError naming the missing ones
    (before wrapping any)."""
    resolved = []
    missing = []
    for module_name, path, kind in targets:
        try:
            resolved.append((_resolve(module_name, path), kind))
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{path}")
    if missing:
        raise LookupError(
            "traced serve: layer entry points not found: " + ", ".join(missing)
        )
    for (owner, attribute, original), kind in resolved:
        setattr(owner, attribute, _wrapper(kind, original, rec))


def main(argv: Sequence[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans-dir":
        print("usage: traced_serve.py --spans-dir DIR serve ARGS...", file=sys.stderr)
        return 2
    rec = Recorder(argv[1])
    try:
        install(rec)
    except LookupError as error:
        print(error, file=sys.stderr)
        return 3
    from repro import cli

    try:
        return cli.main(list(argv[2:]))
    finally:
        rec.write()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
