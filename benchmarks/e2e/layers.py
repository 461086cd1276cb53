"""The layer table: spans from a traced run, joined to client requests.

Each client request gets a set of labelled intervals on the common
``perf_counter`` time line:

==============  =========================================================
layer           intervals
==============  =========================================================
``net``         the client's round trip (send, or due time in the open
                loop, to reply)
``cli``         ``cli._serve_dispatch_async``
``aio``         ``AsyncShardedCommunity.occur/get/is_permitted/create``
``wire``        ``encode_frame`` / frame decode, coordinator and worker
``ipc``         a frame between processes: from its socket write
                (``_flush_outbox``, or the end of the worker's reply
                path) until the receiving loop took its last byte in
                (``StreamReader.feed_data``)
``queue``       a frame waiting for a busy receiver: the worker handling
                other frames or flushing, either side not yet back at its
                socket, or bytes taken in but not yet decoded
``worker``      ``ShardWorker.handle``
``runtime``     ``ObjectBase._run_unit/get/is_permitted``,
                ``ShardWorker._dry_items``
``storage``     ``InstanceStore.get/balance``
``journal``     ``Journal.record_commit``, and the ``records_since``
                scan of the group flush that covered the reply
``spool``       that flush's ``Spool.append_group``, and the snapshot
                (``dump_incremental`` to ``write_snapshot_text``) taken in
                the same flush cycle
``groupcommit`` a withheld reply's wait from its encode to the end of its
                flush cycle
unattributed    time between processes that no stamp bounds (a frame
                whose arrival could not be stamped)
==============  =========================================================

A layer's self time is the part of the request's time line where it is
the innermost interval (latest in :data:`PRECEDENCE`), so the self times
and the unattributed time add up to the round trip exactly.
"""

from __future__ import annotations

import bisect
import json
import os
from statistics import mean
from typing import Any, Dict, List, Tuple

#: innermost last; ``transit`` is the unattributed remainder
PRECEDENCE = (
    "net",
    "cli",
    "aio",
    "transit",
    "ipc",
    "queue",
    "groupcommit",
    "wire",
    "worker",
    "runtime",
    "spool",
    "journal",
    "storage",
)
_P = {name: index for index, name in enumerate(PRECEDENCE)}

#: span kind (traced_serve.TARGETS) -> layer, for spans inside a handled frame
_INNER = {
    "dry": "runtime",
    "unit": "runtime",
    "get": "runtime",
    "perm": "runtime",
    "sget": "storage",
    "balance": "storage",
    "commit": "journal",
    "scan": "journal",
    "dump": "spool",
}

#: the self-time rows, in report order
SELF_ROWS = (
    "net", "cli", "aio", "wire", "ipc", "queue", "worker", "groupcommit",
    "runtime", "journal", "spool", "storage",
)


def load(directory: str) -> Tuple[dict, List[dict]]:
    """The coordinator's span file and every worker's."""
    coordinator = None
    workers = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if data["role"] == "coordinator":
            coordinator = data
        else:
            workers.append(data)
    if coordinator is None or not workers:
        raise RuntimeError(f"traced run left no coordinator/worker spans in {directory}")
    return coordinator, workers


def _merge(intervals: List[Tuple[float, float]]) -> List[List[float]]:
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


class _Worker:
    """One worker's spans, indexed by frame and by flush cycle."""

    def __init__(self, data: dict):
        self.frames: Dict[int, Dict[str, Any]] = {}
        self.held = set()
        scans, fsyncs, dumps, swrites = [], [], [], []
        busy = []
        for span in data["spans"]:
            kind, key, start, end = span[0], span[1], span[2], span[3]
            if kind in ("wdec", "wenc", "handle"):
                self.frames.setdefault(key, {})[kind] = span
                busy.append((start, end))
            elif kind == "held":
                self.held.add(key)
            elif kind == "scan" and key is None:
                scans.append((start, end))
                busy.append((start, end))
            elif kind == "fsync":
                fsyncs.append((start, end, span[4]))
                busy.append((start, end))
            elif kind == "dump":
                dumps.append((start, end))
            elif kind == "swrite":
                swrites.append((start, end, span[4]))
            elif key is not None:
                self.frames.setdefault(key, {}).setdefault("inner", []).append(span)
        fsyncs.sort()
        scans.sort()
        dumps.sort()
        swrites.sort()
        self.fsync_starts = [f[0] for f in fsyncs]
        #: per flush cycle: (scan, fsync, snapshot, reply-ready time)
        self.cycles = []
        self.snapshots = []
        scan_ends = [s[1] for s in scans]
        dump_starts = [d[0] for d in dumps]
        swrite_starts = [w[0] for w in swrites]
        for index, (start, end, records) in enumerate(fsyncs):
            at = bisect.bisect_right(scan_ends, start) - 1
            scan = scans[at] if at >= 0 else None
            limit = fsyncs[index + 1][0] if index + 1 < len(fsyncs) else float("inf")
            at = bisect.bisect_left(dump_starts, end)
            snapshot = None
            if at < len(dumps) and dumps[at][0] < limit:
                dump = dumps[at]
                write_at = bisect.bisect_left(swrite_starts, dump[1])
                if write_at < len(swrites):
                    write = swrites[write_at]
                    snapshot = (dump[0], write[1], write[2])
                    self.snapshots.append(snapshot)
                    # json.dumps between the two runs on the worker's loop
                    busy.append((dump[0], write[0]))
            ready = snapshot[1] if snapshot else end
            self.cycles.append((scan, (start, end, records), snapshot, ready))
        self.busy = _merge(busy)
        self.busy_starts = [b[0] for b in self.busy]

    def covering_cycle(self, encoded: float):
        """The flush cycle that covered a reply withheld at ``encoded``."""
        at = bisect.bisect_left(self.fsync_starts, encoded)
        return self.cycles[at] if at < len(self.cycles) else None

    def busy_within(self, start: float, end: float) -> List[Tuple[float, float]]:
        """The parts of [start, end] this worker spent on anything."""
        out = []
        at = max(0, bisect.bisect_right(self.busy_starts, start) - 1)
        while at < len(self.busy) and self.busy[at][0] < end:
            lo, hi = max(start, self.busy[at][0]), min(end, self.busy[at][1])
            if hi > lo:
                out.append((lo, hi))
            at += 1
        return out


def _self_times(intervals: List[Tuple[float, float, int]], lo: float, hi: float) -> List[float]:
    """Per precedence level, the time in [lo, hi] where that level is the
    innermost covering interval."""
    events = []
    for start, end, level in intervals:
        start, end = max(start, lo), min(end, hi)
        if end > start:
            events.append((start, 1, level))
            events.append((end, -1, level))
    events.sort()
    counts = [0] * len(PRECEDENCE)
    out = [0.0] * len(PRECEDENCE)
    previous = lo
    for time, delta, level in events:
        if time > previous:
            top = max(i for i, count in enumerate(counts) if count)
            out[top] += time - previous
            previous = time
        counts[level] += delta
    return out


def _crossing(written: float, received: tuple, busy) -> List[Tuple[float, float, int]]:
    """The intervals of one frame crossing between processes, from its
    socket write to its decode (``received`` is the receiver's decode
    span: start, end, size, when the receiver began waiting for it, when
    its last byte was taken in).  The receiver's ``busy`` time, waiting
    for the receiver to come back to its socket, and holding the bytes
    before decoding them are queueing; the hand-over up to the last
    byte's arrival is ipc."""
    decoded, listening, arrived = received[2], received[5], received[6]
    out = [(written, decoded, _P["transit"])]
    if arrived is not None:
        out.append((written, arrived, _P["ipc"]))
        out.append((arrived, decoded, _P["queue"]))
    out.append((written, min(listening, decoded), _P["queue"]))
    out += [(start, end, _P["queue"]) for start, end in busy]
    return out


def _mean(values) -> float:
    values = list(values)
    return mean(values) if values else 0.0


def analyze(
    requests: List[Tuple[Any, float, float]], directory: str
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-layer metrics of the traced measured phase.

    ``requests`` holds ``(bid, start, end)`` of every measured client
    request.  Returns the metrics and their sample counts."""
    coordinator, worker_files = load(directory)
    workers = [_Worker(data) for data in worker_files]
    owner: Dict[int, _Worker] = {}
    for worker in workers:
        for mid in worker.frames:
            owner[mid] = worker
    cli: Dict[Any, List[tuple]] = {}
    aio: Dict[Any, List[tuple]] = {}
    frames: Dict[Any, List[int]] = {}
    encoded: Dict[int, tuple] = {}
    written_at: Dict[int, float] = {}
    decoded: Dict[int, tuple] = {}
    for span in coordinator["spans"]:
        kind = span[0]
        if kind == "cli":
            cli.setdefault(span[1], []).append(span)
        elif kind == "aio":
            aio.setdefault(span[1], []).append(span)
        elif kind == "cenc":
            frames.setdefault(span[1], []).append(span[4])
            encoded[span[4]] = span
        elif kind == "flush":
            for mid in span[4]:
                written_at[mid] = span[2]
        elif kind == "cdec":
            decoded[span[1]] = span

    n = len(requests)
    window = (min(r[1] for r in requests), max(r[2] for r in requests))
    totals = [0.0] * len(PRECEDENCE)
    latencies = []
    frame_count = unjoined = two_pc = wire_bytes = 0
    reply_waits = []
    moved = [0] * 6
    units = gets = 0
    for bid, lo, hi in requests:
        latencies.append(hi - lo)
        intervals = [(lo, hi, _P["net"])]
        intervals += [(s[2], s[3], _P["cli"]) for s in cli.get(bid, ())]
        intervals += [(s[2], s[3], _P["aio"]) for s in aio.get(bid, ())]
        mids = frames.get(bid, ())
        frame_count += len(mids)
        if any(encoded[mid][6] == "prepare_group" for mid in mids):
            two_pc += 1
        for mid in mids:
            sent = encoded[mid]
            intervals.append((sent[2], sent[3], _P["wire"]))
            wire_bytes += sent[5]
            back = decoded.get(mid)
            worker = owner.get(mid)
            spans = worker.frames[mid] if worker is not None else {}
            if back is None or not all(k in spans for k in ("wdec", "handle", "wenc")):
                unjoined += 1
                continue
            intervals.append((back[2], back[3], _P["wire"]))
            wdec, handle, wenc = spans["wdec"], spans["handle"], spans["wenc"]
            wire_bytes += wenc[4]
            intervals.append((wdec[2], wdec[3], _P["wire"]))
            intervals.append((wenc[2], wenc[3], _P["wire"]))
            intervals.append((handle[2], handle[3], _P["worker"]))
            moved = [a + b for a, b in zip(moved, handle[5])]
            for inner in spans.get("inner", ()):
                intervals.append((inner[2], inner[3], _P[_INNER[inner[0]]]))
                units += inner[0] == "unit"
                gets += inner[0] == "sget"
            # outbound from the socket write: the outbox dwell before it
            # is the coordinator's own
            written = written_at.get(mid, sent[3])
            intervals += _crossing(
                written, wdec, worker.busy_within(written, wdec[2])
            )
            ready = wenc[3]
            cycle = worker.covering_cycle(wenc[3]) if mid in worker.held else None
            if cycle is not None:
                scan, fsync, snapshot, ready = cycle
                reply_waits.append(fsync[1] - handle[3])
                intervals.append((wenc[3], ready, _P["groupcommit"]))
                if scan is not None:
                    intervals.append((scan[0], scan[1], _P["journal"]))
                intervals.append((fsync[0], fsync[1], _P["spool"]))
                if snapshot is not None:
                    intervals.append((snapshot[0], snapshot[1], _P["spool"]))
            # the reply leaves as soon as it is ready
            intervals += _crossing(ready, back, ())
        totals = [a + b for a, b in zip(totals, _self_times(intervals, lo, hi))]

    def in_window(items):
        return [item for item in items if window[0] <= item[0] <= window[1]]

    fsyncs = in_window([c[1] for w in workers for c in w.cycles])
    scans = in_window([c[0] for w in workers for c in w.cycles if c[0] is not None])
    snapshots = in_window([s for w in workers for s in w.snapshots])
    faults, writebacks, hits, misses, fused_hits, fused_compiled = moved
    mean_latency = _mean(latencies)
    metrics = {
        f"{layer}.self_us": totals[_P[layer]] / n * 1e6 for layer in SELF_ROWS
    }
    metrics.update(
        {
            "aio.frames_per_req": frame_count / n,
            "aio.2pc_frac": two_pc / n,
            "wire.bytes_per_req": wire_bytes / n,
            "worker.reply_wait_us": _mean(reply_waits) * 1e6,
            "spool.fsync_us": _mean(f[1] - f[0] for f in fsyncs) * 1e6,
            "spool.records_per_fsync": (
                sum(f[2] for f in fsyncs) / len(fsyncs) if fsyncs else 0.0
            ),
            "spool.snapshot_ms": _mean(s[1] - s[0] for s in snapshots) * 1e3,
            "spool.snapshots_per_1k_req": len(snapshots) / n * 1e3,
            "spool.snapshot_bytes": _mean(s[2] for s in snapshots),
            "journal.scan_us": _mean(s[1] - s[0] for s in scans) * 1e6,
            "runtime.probe_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
            "runtime.txn_fallback_frac": (
                units / (units + fused_hits + fused_compiled) if units else 0.0
            ),
            "storage.fault_frac": faults / gets if gets else 0.0,
            "storage.writebacks_per_req": writebacks / n,
            "trace.latency_us": mean_latency * 1e6,
            "trace.unattributed_frac": (
                totals[_P["transit"]] / n / mean_latency if mean_latency else 0.0
            ),
        }
    )
    samples = {
        "requests": n,
        "frames": frame_count,
        "unjoined_frames": unjoined,
        "withheld_replies": len(reply_waits),
        "fsyncs": len(fsyncs),
        "scans": len(scans),
        "snapshots": len(snapshots),
        "storage_gets": gets,
    }
    return metrics, samples
