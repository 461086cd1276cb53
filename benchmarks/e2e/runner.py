"""Drive one workload against real ``repro serve --port`` processes.

A run sets up three servers in turn, each ``repro serve SPEC --port 0
--shards 2 --spool-dir DIR`` (plus ``--storage paged:DIR --hot-set N`` on
``read-paged``) with every production default: fused transactions and
term compilation on, group commit with fsync, a snapshot every 64
records.  Over two TCP connections, one client process loads each
server's population and sends it a third of the measured requests, then
dumps the merged state and shuts the server down.  Set-up time is the
median of the three servers; latency percentiles and throughput pool
them.  A traced run then replays the first server's share against one
more server under ``traced_serve.py`` and builds the layer table from it
(see ``layers.py``).
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import sys
import tempfile
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from . import _SRC, layers, percentile
from .workloads import (
    CONNECTIONS,
    MUTATING,
    WORKLOADS,
    Workload,
    oracle_check,
    population,
    requests,
    resolve_sizes,
)

HERE = os.path.dirname(os.path.abspath(__file__))
#: working space for spools, page files and span files (each run removes
#: its own directory); inside the checkout, so fsyncs hit its filesystem
WORK_ROOT = os.path.join(HERE, ".work")
SHARDS = 2
#: dump replies are megabytes long, far past asyncio's 64 KiB line limit
LINE_LIMIT = 1 << 28
#: a run gives up (and kills its servers) after this many seconds
RUN_DEADLINE = 170.0


class Deadline:
    """A run's time limit: ``left()`` raises once it has passed."""

    def __init__(self, seconds: float):
        self.end = perf_counter() + seconds

    def left(self) -> float:
        remaining = self.end - perf_counter()
        if remaining <= 0:
            raise TimeoutError("benchmark run exceeded its deadline")
        return remaining


class Server:
    """One ``repro serve`` process (under ``traced_serve.py`` when
    ``spans_dir`` is set) and the client's connections to it."""

    def __init__(self, workload: Workload, sizes: Dict[str, Any], workdir: str,
                 spans_dir: Optional[str] = None):
        os.makedirs(workdir)
        self.workdir = workdir
        self.spool = os.path.join(workdir, "spool")
        spec_path = os.path.join(workdir, "spec.troll")
        with open(spec_path, "w", encoding="utf-8") as handle:
            handle.write(workload.spec)
        serve = ["serve", spec_path, "--port", "0", "--shards", str(SHARDS),
                 "--spool-dir", self.spool]
        if workload.paged:
            serve += ["--storage", "paged:" + os.path.join(workdir, "pages"),
                      "--hot-set", str(sizes["hot_set"])]
        if spans_dir is not None:
            self.argv = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                         "--spans-dir", spans_dir, *serve]
        else:
            self.argv = [sys.executable, "-m", "repro", *serve]
        self.process: Optional[asyncio.subprocess.Process] = None
        self.stopped = False
        self.conns: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    def _stderr_tail(self) -> str:
        with open(os.path.join(self.workdir, "serve.err"), "rb") as handle:
            return handle.read()[-2000:].decode("utf-8", "replace")

    async def start(self, deadline: Deadline) -> float:
        """Launch the server and connect; returns the seconds from launch
        until it listened."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
        start = perf_counter()
        with open(os.path.join(self.workdir, "serve.err"), "wb") as stderr:
            self.process = await asyncio.create_subprocess_exec(
                *self.argv, stdout=asyncio.subprocess.PIPE, stderr=stderr,
                env=env, cwd=self.workdir, start_new_session=True,
            )
        line = await asyncio.wait_for(self.process.stdout.readline(), min(60.0, deadline.left()))
        if not line:
            await self.process.wait()
            raise RuntimeError(f"repro serve exited before listening:\n{self._stderr_tail()}")
        listening = perf_counter() - start
        port = json.loads(line)["port"]
        for _ in range(CONNECTIONS):
            self.conns.append(
                await asyncio.open_connection("127.0.0.1", port, limit=LINE_LIMIT)
            )
        return listening

    async def call(self, request: dict, deadline: Deadline) -> dict:
        reader, writer = self.conns[0]
        writer.write((json.dumps(request) + "\n").encode("utf-8"))
        line = await asyncio.wait_for(reader.readline(), deadline.left())
        if not line:
            raise RuntimeError(f"server closed the connection:\n{self._stderr_tail()}")
        return json.loads(line)

    def rss_mb(self) -> float:
        """Sum of VmHWM over the serve process and its shard workers (its
        process group: the server leads a session of its own)."""
        total_kb = 0
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                if os.getpgid(int(entry)) != self.process.pid:
                    continue
                with open(f"/proc/{entry}/status", "r") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except (ProcessLookupError, FileNotFoundError):
                continue
        return total_kb / 1024.0

    def spool_bytes(self) -> int:
        return sum(
            os.path.getsize(os.path.join(root, name))
            for root, _dirs, names in os.walk(self.spool)
            for name in names
        )

    async def stop(self) -> None:
        """Shut the server down and wait for it to exit; kill its process
        group if it does not.  Idempotent."""
        if self.process is None or self.stopped:
            return
        self.stopped = True
        try:
            for _reader, writer in self.conns[1:]:
                writer.close()
            if self.conns and self.process.returncode is None:
                reader, writer = self.conns[0]
                writer.write(b'{"op": "shutdown"}\n')
                await asyncio.wait_for(reader.readline(), 30)
                writer.close()
            await asyncio.wait_for(self.process.wait(), 60)
        except (OSError, asyncio.TimeoutError):
            pass
        finally:
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            await self.process.wait()


# ----------------------------------------------------------------------
# Client loops
# ----------------------------------------------------------------------


@dataclass
class Stream:
    """One connection's requests and what became of them."""

    requests: List[dict]
    lines: List[bytes] = field(default_factory=list)
    starts: List[float] = field(default_factory=list)
    ends: List[float] = field(default_factory=list)
    raw: List[bytes] = field(default_factory=list)
    late: List[float] = field(default_factory=list)

    def replies(self) -> List[Optional[dict]]:
        out = []
        for line in self.raw:
            try:
                out.append(json.loads(line) if line else None)
            except json.JSONDecodeError:
                out.append(None)
        return out


def _streams(per_conn: List[List[dict]], bid_base: int) -> List[Stream]:
    """Pre-encoded request lines, each stamped with a benchmark request
    id that the server ignores (the traced server joins spans on it)."""
    out = []
    for conn, reqs in enumerate(per_conn):
        stream = Stream(reqs)
        for index, request in enumerate(reqs):
            bid = bid_base + conn * 10_000_000 + index
            stream.lines.append((json.dumps(dict(request, bid=bid)) + "\n").encode("utf-8"))
        out.append(stream)
    return out


async def _closed(server: Server, streams: List[Stream], deadline: Deadline) -> None:
    """Each connection sends its next request once the last reply is in."""

    async def one(conn: int, stream: Stream) -> None:
        reader, writer = server.conns[conn]
        for line in stream.lines:
            start = perf_counter()
            writer.write(line)
            raw = await reader.readline()
            stream.ends.append(perf_counter())
            stream.starts.append(start)
            stream.raw.append(raw)
            if not raw:
                return

    await asyncio.wait_for(
        asyncio.gather(*(one(c, s) for c, s in enumerate(streams))), deadline.left()
    )


async def _open(server: Server, streams: List[Stream], rate: float,
                deadline: Deadline) -> None:
    """Send on a fixed schedule regardless of replies: request ``j`` of
    connection ``c`` is due at ``t0 + (j * CONNECTIONS + c) / rate``."""
    t0 = perf_counter() + 0.05

    async def send(conn: int, stream: Stream) -> None:
        writer = server.conns[conn][1]
        for index, line in enumerate(stream.lines):
            due = t0 + (index * CONNECTIONS + conn) / rate
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            stream.late.append(perf_counter() - due)
            stream.starts.append(due)
            writer.write(line)

    async def receive(conn: int, stream: Stream) -> None:
        reader = server.conns[conn][0]
        for _ in stream.lines:
            raw = await reader.readline()
            stream.ends.append(perf_counter())
            stream.raw.append(raw)
            if not raw:
                return

    tasks = [send(c, s) for c, s in enumerate(streams)]
    tasks += [receive(c, s) for c, s in enumerate(streams)]
    await asyncio.wait_for(asyncio.gather(*tasks), deadline.left())


# ----------------------------------------------------------------------
# One server's life: set-up, measured phase, dump, shutdown
# ----------------------------------------------------------------------


@dataclass
class Life:
    """What one server run produced."""

    setup_s: float
    compile_s: float
    populate_s: float
    creates: List[Stream]
    measured: List[Stream] = field(default_factory=list)
    state: Any = None
    rss_mb: float = 0.0
    spool_bytes: int = 0


async def _life(workload: Workload, sizes: Dict[str, Any], workdir: str,
                measured: List[List[dict]], deadline: Deadline,
                spans_dir: Optional[str] = None) -> Life:
    """Set one server up, run ``measured`` (per connection) against it,
    read its memory, dump its state, and shut it down."""
    server = Server(workload, sizes, workdir, spans_dir)
    try:
        launched = perf_counter()
        compile_s = await server.start(deadline)
        creates = _streams(
            [population(workload, sizes, c) for c in range(CONNECTIONS)], 0
        )
        await _closed(server, creates, deadline)
        ready = max(s.ends[-1] for s in creates if s.ends)
        life = Life(ready - launched, compile_s, ready - launched - compile_s, creates)
        life.measured = _streams(measured, 100_000_000)
        if workload.open_loop:
            await _open(server, life.measured, sizes["rate"], deadline)
        else:
            await _closed(server, life.measured, deadline)
        life.rss_mb = server.rss_mb()
        reply = await server.call({"op": "dump"}, deadline)
        life.state = reply.get("state")
        await server.stop()
        life.spool_bytes = server.spool_bytes()
        return life
    finally:
        await server.stop()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


@dataclass
class Result:
    """One invocation's outcome: what the command prints."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    correct: bool
    attempted: int
    failed: int
    problems: List[str]
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    samples: Dict[str, int]


def _answered(life: Life):
    """(request, start, end) of every answered measured request."""
    for stream in life.measured:
        for request, start, end, raw in zip(stream.requests, stream.starts, stream.ends, stream.raw):
            if raw:
                yield request, start, end


def _half_ratio(life: Life) -> float:
    """Second-half over first-half throughput of one measured phase."""
    begin = min(s.starts[0] for s in life.measured if s.starts)
    done = sorted(end for _request, _start, end in _answered(life))
    half = len(done) // 2
    first, second = done[half - 1] - begin, done[-1] - done[half - 1]
    return ((len(done) - half) / second) / (half / first) if first > 0 and second > 0 else 0.0


def _client_metrics(lives: List[Life]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Client-side metrics pooled over the servers of one run: latency
    percentiles over every request, throughput over the summed measured
    phases, and the median server for set-up time and memory."""
    lat, reads, writes = [], [], []
    elapsed = 0.0
    for life in lives:
        ends = []
        for request, start, end in _answered(life):
            lat.append(end - start)
            (writes if request["op"] in MUTATING else reads).append(end - start)
            ends.append(end)
        elapsed += max(ends) - min(s.starts[0] for s in life.measured if s.starts)
    mutating = sum(
        1
        for life in lives
        for stream in life.creates + life.measured
        for request, raw in zip(stream.requests, stream.raw)
        if raw and request["op"] in MUTATING
    )
    late = [x for life in lives for stream in life.measured for x in stream.late]
    metrics = {
        "setup_s": median(life.setup_s for life in lives),
        "ops_per_s": len(lat) / elapsed,
        "p50_ms": percentile(lat, 50) * 1e3,
        "p99_ms": percentile(lat, 99) * 1e3,
        "write_p50_ms": percentile(writes, 50) * 1e3,
        "write_p99_ms": percentile(writes, 99) * 1e3,
        "read_p50_ms": percentile(reads, 50) * 1e3,
        "read_p99_ms": percentile(reads, 99) * 1e3,
        "rss_mb": median(life.rss_mb for life in lives),
        "spool_bytes_per_op": sum(life.spool_bytes for life in lives) / mutating,
        "setup.compile_s": median(life.compile_s for life in lives),
        "setup.populate_s": median(life.populate_s for life in lives),
        "client.late_p99_ms": percentile(late, 99) * 1e3,
        "client.second_half_ratio": median(_half_ratio(life) for life in lives),
    }
    samples = {
        "setup_s": len(lives),
        "p50_ms": len(lat), "p99_ms": len(lat),
        "write_p50_ms": len(writes), "write_p99_ms": len(writes),
        "read_p50_ms": len(reads), "read_p99_ms": len(reads),
        "client.late_p99_ms": len(late),
    }
    return metrics, samples


def _check(workload: Workload, lives: List[Life]) -> Tuple[int, int, List[str]]:
    """Count attempted and failed requests, and hold every server's
    replies and merged final state to the oracle."""
    attempted = failed = 0
    problems: List[str] = []
    for life in lives:
        for stream in life.creates + life.measured:
            attempted += len(stream.requests)
            answered = sum(1 for reply in stream.replies() if reply and reply.get("ok"))
            failed += len(stream.requests) - answered
    if failed:
        problems.append(f"{failed} of {attempted} requests failed or went unanswered")
        return attempted, failed, problems
    for index, life in enumerate(lives):
        streams = [
            list(zip(create.requests + run.requests, create.replies() + run.replies()))
            for create, run in zip(life.creates, life.measured)
        ]
        mismatches, state = oracle_check(workload, streams)
        problems += [f"server {index}: {m}" for m in mismatches[:5]]
        if mismatches:
            problems.append(f"server {index}: {len(mismatches)} replies differ from the oracle")
        if life.state != json.loads(json.dumps(state)):
            problems.append(f"server {index}: merged final state differs from the oracle")
    return attempted, failed, problems


def _mean_latency(life: Life) -> float:
    values = [end - start for _request, start, end in _answered(life)]
    return sum(values) / len(values)


END_TO_END = ("setup_s", "ops_per_s", "p50_ms", "p99_ms", "write_p50_ms",
              "write_p99_ms", "rss_mb", "spool_bytes_per_op")
#: per-layer metrics the untraced servers of a traced invocation give
CLIENT_LAYER = ("read_p50_ms", "read_p99_ms", "setup.compile_s", "setup.populate_s",
                "client.late_p99_ms", "client.second_half_ratio")


async def _run(workload: Workload, seed: int, seconds: float, trace: bool,
               overrides: Optional[Dict[str, Any]]) -> Result:
    deadline = Deadline(RUN_DEADLINE)
    sizes = resolve_sizes(workload, seconds, overrides)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    try:
        shares = [
            [requests(workload, sizes, seed, c, index) for c in range(CONNECTIONS)]
            for index in range(sizes["servers"])
        ]
        lives = []
        for index, share in enumerate(shares):
            lives.append(await _life(workload, sizes, os.path.join(workdir, f"server{index}"),
                                     share, deadline))
        traced = None
        if trace:
            # the first server's share again, under traced_serve.py
            spans = os.path.join(workdir, "spans")
            os.makedirs(spans)
            traced = await _life(workload, sizes, os.path.join(workdir, "traced"),
                                 shares[0], deadline, spans_dir=spans)
        attempted, failed, problems = _check(workload, lives + ([traced] if traced else []))
        client, samples = _client_metrics(lives)
        per_layer: Dict[str, float] = {}
        if traced is not None and not failed:
            records = [
                (json.loads(line)["bid"], start, end)
                for stream in traced.measured
                for line, start, end in zip(stream.lines, stream.starts, stream.ends)
            ]
            per_layer, layer_samples = layers.analyze(records, spans)
            samples.update({f"trace.{k}": v for k, v in layer_samples.items()})
            if layer_samples["unjoined_frames"]:
                problems.append(f"{layer_samples['unjoined_frames']} traced frames did not join")
            # mean latency rather than ops_per_s: the open loop's rate is fixed
            per_layer["trace.overhead_frac"] = (
                per_layer["trace.latency_us"] / 1e6 / _mean_latency(lives[0]) - 1.0
            )
            per_layer.update({name: client[name] for name in CLIENT_LAYER})
        return Result(workload.name, seed, seconds, trace, not problems, attempted,
                      failed, problems, {name: client[name] for name in END_TO_END},
                      per_layer, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool = False,
                 sizes: Optional[Dict[str, Any]] = None) -> Result:
    """Run one workload; ``sizes`` overrides its population and request
    counts (the smoke test runs tiny ones)."""
    return asyncio.run(_run(WORKLOADS[name], seed, seconds, trace, sizes))
