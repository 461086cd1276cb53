"""The blocking face of the sharded community.

:class:`ShardedCommunity` offers the society interface of
:class:`~repro.distributed.aio.AsyncShardedCommunity` -- the one
implementation of routing, retry and respawn, two-phase commit, merged
state and telemetry (see that module) -- as plain blocking calls, for
callers without an event loop of their own: the CLI commands, the
benchmarks and the tests.

The facade owns a private event loop that runs in the caller's thread,
and each call runs the core's coroutine on it.  No thread is involved:
none exists when the core forks a worker, and a call costs no
cross-thread hand-off.  The core is built *inside* that loop, because
on Python 3.9 an :class:`asyncio.Lock` binds to the loop current when it
is constructed.

A blocking caller has one request in flight, so the facade's core
reaches its workers over blocking sockets (:class:`_Connection`): the
call writes its request and reads the reply itself, and a call that
touches one shard finishes in a single pass of the loop.  The core's
stream connections would cost the same call six passes -- a write
deferred to coalesce with others, a demultiplexer task, the loop's stop
-- which more than doubled a one-shard round trip.  Blocking inside the
core's coroutines is safe here because the loop serves this one caller;
its fan-outs (2PC rounds, merged state) visit the shards in turn.

Between calls the loop does not run, so nothing restarts a shard in the
background: a call that gives up on a shard (:class:`ShardUnavailable`)
respawns it before it returns, and the next call finds a recovered
worker.
"""

from __future__ import annotations

import asyncio
import inspect
import socket
from typing import Any, Dict

from repro.distributed.aio import (  # noqa: F401 -- re-exported
    BACKOFF_CAP,
    MAX_2PC_ROUNDS,
    AsyncShardedCommunity,
    ShardUnavailable,
    _AsyncHandle,
    backoff_delay,
    merge_states,
    normalize_state,
)
from repro.distributed.wire import recv_frame, send_frame


class _Connection(_AsyncHandle):
    """A blocking connection to one shard worker.  A failed exchange
    leaves the stream unusable -- a late reply would desynchronize the
    framing -- and the core tears it down and respawns the worker."""

    __slots__ = ()
    blocking = True

    def __init__(self, index: int, process, sock: socket.socket):
        super().__init__(index, process, None, sock)

    def exchange(self, message: Dict[str, Any], timeout: float) -> Dict[str, Any]:
        send_frame(self.writer, message)
        return recv_frame(self.writer, timeout)


class _Core(AsyncShardedCommunity):
    """The async core on blocking connections."""

    async def _connect(self, index: int, process, sock) -> _Connection:
        return _Connection(index, process, sock)


async def _stop_after(loop: asyncio.AbstractEventLoop, coroutine):
    try:
        return await coroutine
    finally:
        loop.stop()


class ShardedCommunity:
    """A blocking society interface over N shard worker processes.

    Takes the arguments of :class:`AsyncShardedCommunity` and spawns the
    workers at construction.  Every member of the core is reached
    through this object: coroutine methods (``create``, ``occur``,
    ``get``, ``merged_state``, ...) as blocking calls, the rest
    (``restarts``, ``traces()``, ``fleet_profile()``, ``kill_worker()``,
    ...) unchanged."""

    def __init__(self, spec: str, **options: Any):
        self._loop = asyncio.new_event_loop()
        try:
            self._core = self._loop.run_until_complete(self._start(spec, options))
        except BaseException:
            self._loop.close()
            raise

    @staticmethod
    async def _start(spec: str, options: Dict[str, Any]) -> AsyncShardedCommunity:
        return await _Core(spec, **options).start()

    def _run(self, coroutine):
        loop = self._loop
        if loop.is_closed():
            coroutine.close()
            raise ShardUnavailable("the community has been closed")
        # run_until_complete would spend one more loop pass on its
        # done-callback: the task stops the loop itself
        task = loop.create_task(_stop_after(loop, coroutine))
        loop.run_forever()
        try:
            return task.result()
        except ShardUnavailable:
            # no loop runs between calls to respawn the shard later
            loop.run_until_complete(self._core._revive())
            raise

    def __getattr__(self, name: str):
        core = self.__dict__.get("_core")
        if core is None:
            raise AttributeError(name)
        member = getattr(core, name)
        if not inspect.iscoroutinefunction(member):
            return member

        def call(*args: Any, **kwargs: Any):
            return self._run(member(*args, **kwargs))

        call.__name__ = name
        call.__doc__ = member.__doc__
        # later calls find the wrapper without coming back here
        self.__dict__[name] = call
        return call

    def run(self, function, *args: Any):
        """Run ``function(core, *args)`` -- a coroutine function over
        the async community -- to completion on the facade's loop."""
        return self._run(function(self._core, *args))

    def close(self) -> None:
        if self._loop.is_closed():
            return
        try:
            self._loop.run_until_complete(self._core.close())
        finally:
            self._loop.close()

    def __enter__(self) -> "ShardedCommunity":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
