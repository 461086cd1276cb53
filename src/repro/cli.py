"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``dot FILE...``    -- emit a Graphviz class diagram of the checked
  specification (classes, view-of, components, interfaces).
* ``check FILE...``  -- parse and statically check specification files,
  printing diagnostics; exit status 1 on errors.
* ``format FILE``    -- parse and pretty-print (normalise) a
  specification to stdout.
* ``info FILE...``   -- print the inventory (classes, objects,
  interfaces, global interaction blocks) of the checked specification.
* ``library NAME``   -- print a specification from the bundled paper
  library (``library list`` enumerates the names).
* ``stats [SCRIPT]`` -- animate an example script (default: the built-in
  company demo) under metrics instrumentation and print the counter /
  phase-timing table (including the ``probe_cache.*`` counters of the
  epoch-memoized enabledness engine, docs/PERFORMANCE.md).
* ``trace [SCRIPT]`` -- same, but record span trees and print the last
  synchronization sets as nested traces (``--jsonl`` dumps all of them).
  ``trace --distributed [REQ]`` instead runs the built-in workload on a
  sharded server with end-to-end tracing and renders the *merged*
  cross-process request tree(s) -- all of them verified for complete
  coordinator-dispatch/shard coverage.
* ``replay [SCRIPT]`` -- animate under the event journal, then replay
  each journal against the same compiled spec and verify the replayed
  state is identical to the live base (``--save`` dumps the journals).
* ``why TARGET [SCRIPT]`` -- provenance query: walk the journal back to
  the occurrence (and event-calling chain) that wrote an attribute,
  e.g. ``repro why "DEPT('Research').manager"``.
* ``export [SCRIPT]`` -- metrics + journal gauges in Prometheus text
  exposition format (or ``--format json``).  ``export --fleet`` runs the
  sharded workload and exports the merged fleet view instead: per-shard
  gauges, cache hit rates, latency quantiles, and the aggregate
  histograms merged bucket-by-bucket across every process.
* ``top`` -- a refreshing per-shard utilization/latency table over a
  live sharded community driving the built-in workload.
* ``workload --trace`` -- the sharded throughput workload with every
  request traced end to end and every merged trace verified.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.diagnostics import TrollError
from repro.lang import check_specification, parse_specification
from repro.lang.printer import print_specification


def _read_sources(paths: List[str]) -> str:
    chunks = []
    for path in paths:
        if path == "-":
            chunks.append(sys.stdin.read())
        else:
            with open(path, "r", encoding="utf-8") as handle:
                chunks.append(handle.read())
    return "\n".join(chunks)


def _add_storage_flags(parser: "argparse.ArgumentParser") -> None:
    parser.add_argument(
        "--storage", metavar="SPEC", default=None,
        help="instance storage backend: 'memory' (default), "
        "'paged[:DIR]' or 'sqlite[:FILE]' -- disk backends keep only "
        "a bounded hot set of instances resident",
    )
    parser.add_argument(
        "--hot-set", type=int, default=None, dest="hot_set",
        help="LRU hot-set capacity for disk-resident storage "
        "(default: 4096)",
    )
    parser.add_argument(
        "--no-txn-compile", action="store_true", dest="no_txn_compile",
        help="run occurrences through the generic dry-transaction "
        "pipeline instead of fused per-event transaction closures "
        "(the interpreted oracle; same as REPRO_TXN_COMPILE=0)",
    )


def _storage_environment(args: argparse.Namespace):
    """Context manager exporting the storage and compile-mode flags as
    the environment defaults (``REPRO_STORAGE`` / ``REPRO_STORAGE_HOT``
    / ``REPRO_TXN_COMPILE``) that object bases constructed by an
    animated script fall back to."""
    import contextlib
    import os

    @contextlib.contextmanager
    def _apply():
        saved = {}
        updates = {}
        if getattr(args, "storage", None):
            updates["REPRO_STORAGE"] = args.storage
        if getattr(args, "hot_set", None):
            updates["REPRO_STORAGE_HOT"] = str(args.hot_set)
        if getattr(args, "no_txn_compile", False):
            updates["REPRO_TXN_COMPILE"] = "0"
        for key, value in updates.items():
            saved[key] = os.environ.get(key)
            os.environ[key] = value
        try:
            yield
        finally:
            for key, previous in saved.items():
                if previous is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = previous

    return _apply()


def _cmd_check(args: argparse.Namespace) -> int:
    text = _read_sources(args.files)
    spec = parse_specification(text, source=args.files[0])
    checked = check_specification(spec)
    for diagnostic in checked.diagnostics:
        print(diagnostic)
    errors = len(checked.diagnostics.errors)
    warnings = len(checked.diagnostics.warnings)
    print(f"{errors} error(s), {warnings} warning(s)")
    return 1 if errors else 0


def _cmd_format(args: argparse.Namespace) -> int:
    text = _read_sources(args.files)
    spec = parse_specification(text, source=args.files[0])
    sys.stdout.write(print_specification(spec))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    text = _read_sources(args.files)
    spec = parse_specification(text, source=args.files[0])
    checked = check_specification(spec)
    for name, info in sorted(checked.classes.items()):
        kind = "object" if info.kind == "object" else "object class"
        base = f" (view of {info.base})" if info.base else ""
        print(f"{kind} {name}{base}")
        print(f"  attributes: {', '.join(sorted(info.attributes)) or '-'}")
        print(f"  events:     {', '.join(sorted(info.all_events())) or '-'}")
        if info.components:
            print(f"  components: {', '.join(sorted(info.components))}")
    for name, interface in sorted(checked.interfaces.items()):
        bases = ", ".join(
            f"{cls} {alias}" if alias != cls else cls
            for alias, cls in interface.encapsulating.items()
        )
        print(f"interface class {name} encapsulating {bases}")
        print(f"  attributes: {', '.join(sorted(interface.attributes)) or '-'}")
        print(f"  events:     {', '.join(sorted(interface.events)) or '-'}")
    blocks = len(checked.spec.global_interactions)
    if blocks:
        rules = sum(len(b.rules) for b in checked.spec.global_interactions)
        print(f"global interactions: {rules} rule(s) in {blocks} block(s)")
    if checked.diagnostics.has_errors():
        print(f"({len(checked.diagnostics.errors)} check error(s) -- run 'check')")
        return 1
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from repro.core.viz import specification_to_dot

    text = _read_sources(args.files)
    spec = parse_specification(text, source=args.files[0])
    checked = check_specification(spec)
    checked.raise_if_errors()
    sys.stdout.write(specification_to_dot(checked))
    return 0


def _cmd_library(args: argparse.Namespace) -> int:
    import repro.library as library

    names = [n for n in library.__all__ if n.endswith("_SPEC")]
    if args.name == "list":
        for name in names:
            print(name)
        return 0
    if args.name not in names:
        print(f"unknown library spec {args.name!r}; try 'library list'",
              file=sys.stderr)
        return 1
    sys.stdout.write(getattr(library, args.name))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.observability.runner import run_instrumented

    # Scripts build their own object bases; the storage flags reach
    # them through the environment defaults ObjectBase falls back to.
    with _storage_environment(args):
        obs = run_instrumented(
            args.script, tracing=False, capture_output=not args.verbose
        )
    if args.json:
        print(json.dumps(obs.metrics.snapshot(), indent=2))
    else:
        source = args.script or "built-in company demo"
        print(f"telemetry for: {source}")
        print()
        print(obs.metrics.render_table())
    return 0


def _cmd_trace_distributed(args: argparse.Namespace) -> int:
    from repro.distributed.workload import run_sharded
    from repro.observability.tracer import render_span

    result = run_sharded(
        args.shards,
        counters=args.counters,
        ops=args.ops,
        trace=True,
        verify_traces=True,
    )
    traces = result["traces"]
    if not traces:
        print("no merged request traces captured", file=sys.stderr)
        return 1
    wanted = args.distributed
    if wanted and wanted != "last":
        selected = [t for t in traces if t.attributes.get("tid") == wanted]
        if not selected:
            print(
                f"no merged trace with id {wanted!r} "
                f"(captured t1..t{len(traces)})",
                file=sys.stderr,
            )
            return 1
    else:
        selected = traces[-args.limit:] if args.limit else traces
    print(
        f"distributed trace: showing {len(selected)} of {len(traces)} "
        f"merged request tree(s) over {args.shards} shard(s)"
    )
    for root in selected:
        print()
        print(render_span(root))
    problems = result["trace_problems"]
    if problems:
        print(f"\n{len(problems)} trace(s) FAILED merge verification:")
        for tid, issues in sorted(problems.items()):
            for issue in issues:
                print(f"  {tid}: {issue}")
        return 1
    print(f"\nall {len(traces)} merged trace(s) verified complete")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import contextlib

    from repro.observability.runner import run_instrumented

    if args.distributed is not None:
        return _cmd_trace_distributed(args)
    from repro.observability.tracer import (
        JSONLSink,
        RingBufferSink,
        render_span,
    )

    ring = RingBufferSink(capacity=max(args.limit, 256))
    sinks = [ring]
    with contextlib.ExitStack() as stack:
        if args.jsonl:
            sinks.append(stack.enter_context(JSONLSink(args.jsonl)))
        run_instrumented(
            args.script, tracing=True, sinks=sinks,
            capture_output=not args.verbose,
        )
    # Permission probes also produce root spans ("occurrence" roots);
    # the trace view shows the atomic units driven to commit/rollback.
    roots = [span for span in ring.spans if span.name == "sync_set"]
    shown = roots[-args.limit:] if args.limit else roots
    source = args.script or "built-in company demo"
    print(
        f"trace for: {source} -- showing {len(shown)} of "
        f"{len(roots)} synchronization set(s)"
    )
    for span in shown:
        print()
        print(render_span(span))
    if args.jsonl:
        print(f"\n(all {len(ring.spans)} root spans written to {args.jsonl})")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.observability.journal import verify_replay
    from repro.observability.runner import run_with_journal

    _, sessions = run_with_journal(args.script, capture_output=not args.verbose)
    genesis = [
        (system, journal)
        for system, journal in sessions
        if journal.records and journal.origin == "genesis"
    ]
    source = args.script or "built-in company demo"
    print(
        f"replay for: {source} -- {len(genesis)} journaled object base(s) "
        f"({len(sessions)} captured)"
    )
    failures = 0
    for index, (system, journal) in enumerate(genesis):
        diffs = verify_replay(journal, system)
        commits = len(journal.commits())
        rollbacks = len(journal.rollbacks())
        status = "identical" if not diffs else f"{len(diffs)} difference(s)"
        print(
            f"  base {index}: {commits} committed set(s), "
            f"{rollbacks} tombstone(s) -> replayed state {status}"
        )
        for diff in diffs[:10]:
            print(f"    {diff}")
        if diffs:
            failures += 1
    if args.save:
        for index, (_, journal) in enumerate(genesis):
            path = args.save if len(genesis) == 1 else f"{args.save}.{index}"
            journal.write_jsonl(path)
            print(f"  journal of base {index} written to {path}")
    return 1 if failures else 0


def _parse_why_target(target: str):
    """``CLASS(KEY).attribute`` -> (class, key, attribute); KEY is a
    Python literal (quoted strings, tuples for composite identities)."""
    import ast as python_ast
    import re

    match = re.match(r"^\s*(\w+)\((.*)\)\.(\w+)\s*$", target)
    if match is None:
        raise ValueError(
            f"cannot parse {target!r}; expected CLASS(KEY).attribute, "
            "e.g. \"DEPT('Research').manager\""
        )
    class_name, key_text, attribute = match.groups()
    key_text = key_text.strip()
    if not key_text:
        key = class_name  # single objects use their name as key
    else:
        try:
            key = python_ast.literal_eval(key_text)
        except (ValueError, SyntaxError):
            key = key_text  # bare identifier, treat as string key
    return class_name, key, attribute


def _cmd_why(args: argparse.Namespace) -> int:
    from repro.observability.provenance import explain, render_provenance
    from repro.observability.runner import run_with_journal

    try:
        class_name, key, attribute = _parse_why_target(args.target)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    _, sessions = run_with_journal(args.script, capture_output=not args.verbose)
    source = args.script or "built-in company demo"
    answers = 0
    for system, journal in sessions:
        provenance = explain(journal, class_name, key, attribute)
        if provenance is not None:
            print(f"provenance in: {source}")
            print(render_provenance(provenance))
            answers += 1
    if not answers:
        print(
            f"no journaled write of {class_name}({key!r}).{attribute} "
            f"found in {source}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    import json

    from repro.observability.export import render_json, render_prometheus
    from repro.observability.runner import run_with_journal

    if args.fleet:
        from repro.distributed.workload import run_sharded
        from repro.observability.export import (
            render_fleet_json,
            render_fleet_prometheus,
        )

        result = run_sharded(
            args.shards,
            counters=args.counters,
            ops=args.ops,
            observe=True,
            export=True,
        )
        if args.format == "json":
            text = json.dumps(render_fleet_json(result["export"]), indent=2) + "\n"
        else:
            text = render_fleet_prometheus(result["export"])
    else:
        obs, sessions = run_with_journal(
            args.script, capture_output=not args.verbose
        )
        if args.format == "json":
            text = json.dumps(render_json(obs.metrics, sessions), indent=2) + "\n"
        else:
            text = render_prometheus(obs.metrics, sessions)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.format} export to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _parse_placement(pins: Optional[List[str]]) -> Optional[dict]:
    placement = {}
    for pin in pins or []:
        name, sep, shard = pin.partition("=")
        if not sep or not shard.lstrip("-").isdigit():
            raise ValueError(
                f"bad --pin {pin!r}; expected CLASS=SHARD (e.g. BOOK=1)"
            )
        placement[name] = int(shard)
    return placement or None


def _serve_decode_key(key):
    """JSON-lines identity payloads: lists encode composite keys."""
    return tuple(key) if isinstance(key, list) else key


def _serve_decode_arg(arg):
    """Event arguments: sort-tagged objects pass through the value
    coding (so identities are expressible as {"k": "id", ...}); plain
    scalars coerce like the in-process API."""
    from repro.runtime.persistence import value_from_json

    if isinstance(arg, dict) and "k" in arg:
        return value_from_json(arg)
    if isinstance(arg, list):
        return tuple(arg)
    return arg


async def _serve_dispatch_async(community, request: dict) -> dict:
    """One JSON-lines ``repro serve`` request against an
    :class:`~repro.distributed.aio.AsyncShardedCommunity`: both the TCP
    server and the stdin loop dispatch through here."""
    from repro.runtime.persistence import value_to_json

    op = request.get("op")
    class_name = request.get("class")
    args = [_serve_decode_arg(a) for a in request.get("args") or []]
    if op == "create":
        identification = {
            name: _serve_decode_arg(v)
            for name, v in (request.get("identification") or {}).items()
        }
        key = await community.create(
            class_name, identification or None, request.get("event"), args
        )
        return {"ok": True, "key": key if not isinstance(key, tuple) else list(key)}
    if op == "occur":
        await community.occur(
            class_name, _serve_decode_key(request.get("key")),
            request.get("event"), args,
        )
        return {"ok": True}
    if op == "get":
        value = await community.get(
            class_name, _serve_decode_key(request.get("key")),
            request.get("attribute"), args,
        )
        return {"ok": True, "value": value_to_json(value)}
    if op == "is_permitted":
        permitted = await community.is_permitted(
            class_name, _serve_decode_key(request.get("key")),
            request.get("event"), args,
        )
        return {"ok": True, "permitted": permitted}
    if op == "step":
        fired = await community.step()
        if fired is None:
            return {"ok": True, "fired": None}
        fired_class, key, event = fired
        return {
            "ok": True,
            "fired": {
                "class": fired_class,
                "key": key if not isinstance(key, tuple) else list(key),
                "event": event,
            },
        }
    if op == "export":
        return {"ok": True, "export": await community.merged_export()}
    if op == "dump":
        return {"ok": True, "state": await community.merged_state()}
    return {"ok": False, "error": "WireError", "message": f"unknown op {op!r}"}


def _serve_tcp(args: argparse.Namespace, text: str, placement) -> int:
    """``repro serve --port``: a JSON-lines TCP server over the async
    pipelined community -- many clients at once, each line one request,
    requests from all clients interleaved in flight."""
    import asyncio
    import json

    from repro.distributed.aio import AsyncShardedCommunity

    async def main() -> int:
        async with AsyncShardedCommunity(
            text,
            shards=args.shards,
            placement=placement,
            spool_dir=args.spool_dir,
            storage=args.storage,
            hot_set=args.hot_set,
            txn_compile=False if args.no_txn_compile else None,
        ) as community:
            stop = asyncio.Event()

            async def handle_client(reader, writer):
                try:
                    while True:
                        try:
                            line = await reader.readline()
                        except asyncio.CancelledError:
                            # server shutdown with this client still
                            # connected -- close quietly
                            break
                        if not line:
                            break
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            request = json.loads(line)
                        except json.JSONDecodeError as error:
                            reply = {
                                "ok": False,
                                "error": "WireError",
                                "message": str(error),
                            }
                        else:
                            if request.get("op") in ("quit", "shutdown"):
                                reply = {"ok": True, "status": "bye"}
                                writer.write(
                                    (json.dumps(reply) + "\n").encode("utf-8")
                                )
                                await writer.drain()
                                if request.get("op") == "shutdown":
                                    stop.set()
                                break
                            try:
                                reply = await _serve_dispatch_async(
                                    community, request
                                )
                            except TrollError as error:
                                reply = {
                                    "ok": False,
                                    "error": type(error).__name__,
                                    "message": str(error),
                                }
                        writer.write((json.dumps(reply) + "\n").encode("utf-8"))
                        await writer.drain()
                finally:
                    try:
                        writer.close()
                    except Exception:
                        pass

            server = await asyncio.start_server(
                handle_client, host="127.0.0.1", port=args.port
            )
            port = server.sockets[0].getsockname()[1]
            print(
                json.dumps(
                    {
                        "ok": True,
                        "serving": True,
                        "shards": args.shards,
                        "port": port,
                        "pipelined": True,
                    }
                ),
                flush=True,
            )
            async with server:
                await stop.wait()
        return 0

    return asyncio.run(main())


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.distributed import ShardedCommunity

    text = _read_sources(args.files)
    try:
        placement = _parse_placement(args.pin)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.port is not None:
        return _serve_tcp(args, text, placement)
    with ShardedCommunity(
        text,
        shards=args.shards,
        placement=placement,
        spool_dir=args.spool_dir,
        storage=args.storage,
        hot_set=args.hot_set,
        txn_compile=False if args.no_txn_compile else None,
    ) as community:
        print(
            json.dumps({"ok": True, "serving": True, "shards": args.shards}),
            flush=True,
        )
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as error:
                reply = {"ok": False, "error": "WireError", "message": str(error)}
                print(json.dumps(reply), flush=True)
                continue
            if request.get("op") in ("quit", "shutdown"):
                print(json.dumps({"ok": True, "status": "bye"}), flush=True)
                break
            try:
                reply = community.run(_serve_dispatch_async, request)
            except TrollError as error:
                reply = {
                    "ok": False,
                    "error": type(error).__name__,
                    "message": str(error),
                }
            print(json.dumps(reply), flush=True)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time as time_mod

    from repro.distributed.coordinator import ShardedCommunity
    from repro.distributed.workload import COUNTER_SPEC
    from repro.observability.metrics import MetricsRegistry

    with ShardedCommunity(
        COUNTER_SPEC, shards=args.shards, observe=True
    ) as community:
        for index in range(args.counters):
            community.create("COUNTER", {"IdNo": index})
        previous = {}
        ops_driven = 0
        for frame in range(args.frames):
            start = time_mod.perf_counter()
            for _ in range(args.ops_per_frame):
                community.occur("COUNTER", ops_driven % args.counters, "bump")
                ops_driven += 1
            elapsed = time_mod.perf_counter() - start
            export = community.merged_export()
            rows = []
            for shard in export["shards"]:
                index = shard.get("shard")
                dump = shard.get("metrics_dump")
                registry = MetricsRegistry.from_dumps([dump] if dump else [])
                hist = registry.histograms.get("request")
                fsync = registry.histograms.get("phase.fsync")
                requests = shard.get("requests", 0)
                busy = hist.sum if hist is not None else 0.0
                prev_requests, prev_busy = previous.get(index, (0, 0.0))
                previous[index] = (requests, busy)
                rate = (requests - prev_requests) / elapsed if elapsed else 0.0
                util = (
                    min((busy - prev_busy) / elapsed, 1.0) if elapsed else 0.0
                )
                rows.append(
                    {
                        "shard": index,
                        "reqs": requests,
                        "rate": rate,
                        "util": util,
                        "commits": shard.get("commits", 0),
                        "rollbacks": shard.get("rollbacks", 0),
                        "journal": shard.get("journal_depth", 0),
                        "p50_ms": hist.percentile(0.5) * 1e3
                        if hist and hist.count
                        else 0.0,
                        "p95_ms": hist.percentile(0.95) * 1e3
                        if hist and hist.count
                        else 0.0,
                        "fsync95_ms": fsync.percentile(0.95) * 1e3
                        if fsync and fsync.count
                        else 0.0,
                    }
                )
            # --sort column, descending for load columns; shard index
            # ascending keeps the stable dashboard layout
            if args.sort == "shard":
                rows.sort(key=lambda row: row["shard"])
            else:
                rows.sort(
                    key=lambda row: (-row[args.sort], row["shard"])
                )
            if args.limit:
                rows = rows[: args.limit]
            coordinator = export.get("coordinator") or {}
            totals = export["totals"]
            if args.json:
                print(
                    json.dumps(
                        {
                            "frame": frame + 1,
                            "frames": args.frames,
                            "elapsed_seconds": elapsed,
                            "ops_driven": ops_driven,
                            "shards": rows,
                            "totals": totals,
                            "in_flight": coordinator.get("in_flight", 0),
                        },
                        sort_keys=True,
                    ),
                    flush=True,
                )
            else:
                if frame and sys.stdout.isatty():
                    print("\x1b[2J\x1b[H", end="")
                print(
                    f"repro top -- frame {frame + 1}/{args.frames}: "
                    f"{args.shards} shard(s), {args.ops_per_frame} "
                    f"op(s)/frame, {elapsed:.3f}s"
                )
                print(
                    f"{'shard':>5} {'reqs':>7} {'req/s':>8} {'util%':>6} "
                    f"{'commits':>8} {'rollbk':>7} {'journal':>8} "
                    f"{'p50ms':>8} {'p95ms':>8} {'fsync95':>8}"
                )
                for row in rows:
                    print(
                        f"{row['shard']:>5} {row['reqs']:>7} "
                        f"{row['rate']:>8.0f} {row['util'] * 100:>6.1f} "
                        f"{row['commits']:>8} "
                        f"{row['rollbacks']:>7} "
                        f"{row['journal']:>8} "
                        f"{row['p50_ms']:>8.3f} {row['p95_ms']:>8.3f} "
                        f"{row['fsync95_ms']:>8.3f}"
                    )
                print(
                    f"coordinator: restarts={totals['restarts']} "
                    f"in_flight={coordinator.get('in_flight', 0)} "
                    f"spans_dropped={totals.get('spans_dropped', 0)} "
                    f"ops_driven={ops_driven}"
                )
            if frame + 1 < args.frames and args.interval:
                time_mod.sleep(args.interval)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.observability.profile import (
        render_collapsed,
        render_profile_prometheus,
        render_profile_table,
        render_speedscope,
        verify_fleet_profile,
    )

    problems: Optional[List[str]] = None
    if args.fleet:
        from repro.distributed.workload import run_sharded

        result = run_sharded(
            args.shards,
            counters=args.counters,
            ops=args.ops,
            profile=args.mode,
            cross_shard=True,
        )
        dump = result["profile"]
        print(
            f"fleet profile: {args.shards} shard(s), {args.counters} "
            f"counters, {args.ops} ops (cross-shard audited workload), "
            f"{result['seconds']:.3f}s"
        )
        problems = verify_fleet_profile(dump)
    else:
        from repro.observability.runner import run_instrumented

        obs = run_instrumented(
            args.script,
            tracing=False,
            capture_output=not args.verbose,
            profile=args.mode,
            profile_interval=args.interval,
        )
        dump = obs.profiler.dump()
    print(render_profile_table(dump, by=args.by, top=args.top))
    if args.speedscope:
        with open(args.speedscope, "w", encoding="utf-8") as handle:
            json.dump(render_speedscope(dump), handle)
        print(f"wrote speedscope profile to {args.speedscope}")
    if args.collapsed:
        with open(args.collapsed, "w", encoding="utf-8") as handle:
            handle.write(render_collapsed(dump))
        print(f"wrote collapsed flamegraph stacks to {args.collapsed}")
    if args.prometheus:
        text = render_profile_prometheus(dump)
        if args.prometheus == "-":
            sys.stdout.write(text)
        else:
            with open(args.prometheus, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote profile metrics to {args.prometheus}")
    if problems is not None:
        if problems:
            for problem in problems:
                print(f"  incomplete: {problem}")
            return 1
        print("  every shard profiled both 2PC phases")
    return 0


def _cmd_workload_async(args: argparse.Namespace) -> int:
    """``repro workload --clients N`` (N >= 2): the community driven by
    N concurrent client coroutines."""
    from repro.distributed.workload import run_async_sharded, run_oracle
    from repro.observability.export import render_shard_prometheus

    result = run_async_sharded(
        args.shards,
        counters=args.counters,
        ops=args.ops,
        clients=args.clients,
        spool_dir=args.spool_dir,
        export=True,
        trace=args.trace,
        storage=args.storage,
        hot_set=args.hot_set,
        txn_compile=False if args.no_txn_compile else None,
    )
    print(
        f"async sharded run: {args.shards} shard(s), {args.clients} "
        f"client(s), {result['counters']} counters, {result['ops']} ops"
    )
    print(f"  {result['seconds']:.3f}s -> {result['throughput']:.0f} ops/s")
    totals = result["export"]["totals"]
    print(
        f"  commits={totals['commits']} rollbacks={totals['rollbacks']} "
        f"requests={totals['requests']} restarts={totals['restarts']}"
    )
    group = result.get("group_commit") or {}
    if group.get("flushes"):
        print(
            f"  group commit: {group['records']} record(s) in "
            f"{group['flushes']} fsync batch(es) "
            f"({group['records'] / group['flushes']:.1f} records/fsync)"
        )
    if args.trace:
        print(f"  traced {len(result['traces'])} request(s)")
    if args.oracle:
        oracle = run_oracle(counters=args.counters, ops=args.ops)
        match = oracle["state"] == result["state"]
        print(
            f"oracle run: {oracle['seconds']:.3f}s -> "
            f"{oracle['throughput']:.0f} ops/s; merged state "
            f"{'identical' if match else 'DIVERGED'}"
        )
        if not match:
            return 1
    if args.metrics:
        text = render_shard_prometheus(result["export"])
        if args.metrics == "-":
            sys.stdout.write(text)
        else:
            with open(args.metrics, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote shard metrics to {args.metrics}")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.distributed.workload import run_oracle, run_sharded
    from repro.observability.export import render_shard_prometheus

    if args.clients > 1:
        return _cmd_workload_async(args)
    slow_threshold = args.slow_ms / 1e3 if args.slow_ms is not None else None
    result = run_sharded(
        args.shards,
        counters=args.counters,
        ops=args.ops,
        spool_dir=args.spool_dir,
        export=True,
        trace=args.trace,
        verify_traces=args.trace,
        slow_threshold=slow_threshold,
        storage=args.storage,
        hot_set=args.hot_set,
        txn_compile=False if args.no_txn_compile else None,
    )
    print(
        f"sharded run: {args.shards} shard(s), {result['counters']} "
        f"counters, {result['ops']} ops"
    )
    print(
        f"  {result['seconds']:.3f}s -> {result['throughput']:.0f} ops/s"
    )
    totals = result["export"]["totals"]
    print(
        f"  commits={totals['commits']} rollbacks={totals['rollbacks']} "
        f"requests={totals['requests']} restarts={totals['restarts']}"
    )
    if args.trace:
        problems = result["trace_problems"]
        verdict = (
            "all merged traces complete"
            if not problems
            else f"{len(problems)} incomplete trace(s)"
        )
        print(
            f"  traced {len(result['traces'])} request(s), "
            f"spans_dropped={totals.get('spans_dropped', 0)}: {verdict}"
        )
        if slow_threshold is not None:
            print(
                f"  slow requests (>= {args.slow_ms:.1f}ms): "
                f"{len(result['slow_requests'])}"
            )
        if problems:
            for tid, issues in sorted(problems.items()):
                for issue in issues:
                    print(f"    {tid}: {issue}")
            return 1
    if args.oracle:
        oracle = run_oracle(counters=args.counters, ops=args.ops)
        match = oracle["state"] == result["state"]
        print(
            f"oracle run: {oracle['seconds']:.3f}s -> "
            f"{oracle['throughput']:.0f} ops/s; merged state "
            f"{'identical' if match else 'DIVERGED'}"
        )
        if not match:
            return 1
    if args.metrics:
        text = render_shard_prometheus(result["export"])
        if args.metrics == "-":
            sys.stdout.write(text)
        else:
            with open(args.metrics, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote shard metrics to {args.metrics}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TROLL specification tools "
        "(Saake/Jungclaus/Ehrich 1991 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and statically check")
    check.add_argument("files", nargs="+", help="specification files ('-' for stdin)")
    check.set_defaults(func=_cmd_check)

    fmt = sub.add_parser("format", help="parse and pretty-print")
    fmt.add_argument("files", nargs="+", help="specification files ('-' for stdin)")
    fmt.set_defaults(func=_cmd_format)

    info = sub.add_parser("info", help="print the specification inventory")
    info.add_argument("files", nargs="+", help="specification files ('-' for stdin)")
    info.set_defaults(func=_cmd_info)

    dot = sub.add_parser("dot", help="emit a Graphviz class diagram")
    dot.add_argument("files", nargs="+", help="specification files ('-' for stdin)")
    dot.set_defaults(func=_cmd_dot)

    library = sub.add_parser("library", help="print a bundled paper listing")
    library.add_argument("name", help="spec constant name, or 'list'")
    library.set_defaults(func=_cmd_library)

    stats = sub.add_parser(
        "stats",
        help="animate a script under metrics instrumentation and print "
        "the counter/timing table",
    )
    stats.add_argument(
        "script", nargs="?", default=None,
        help="Python example script to animate (default: built-in demo)",
    )
    stats.add_argument(
        "--json", action="store_true", help="print the raw metrics snapshot"
    )
    stats.add_argument(
        "--verbose", action="store_true",
        help="interleave the script's own output",
    )
    _add_storage_flags(stats)
    stats.set_defaults(func=_cmd_stats)

    trace = sub.add_parser(
        "trace",
        help="animate a script under span tracing and print the last "
        "synchronization sets as nested trees",
    )
    trace.add_argument(
        "script", nargs="?", default=None,
        help="Python example script to animate (default: built-in demo)",
    )
    trace.add_argument(
        "--limit", type=int, default=5,
        help="number of synchronization sets to print (0 = all)",
    )
    trace.add_argument(
        "--jsonl", metavar="PATH", default=None,
        help="also write every root span to PATH as JSON lines",
    )
    trace.add_argument(
        "--verbose", action="store_true",
        help="interleave the script's own output",
    )
    trace.add_argument(
        "--distributed", nargs="?", const="last", metavar="REQ", default=None,
        help="render merged cross-process request trees from a traced "
        "sharded workload instead; optionally select one trace id "
        "(e.g. t7)",
    )
    trace.add_argument(
        "--shards", type=int, default=4,
        help="shard count for --distributed (default: 4)",
    )
    trace.add_argument(
        "--counters", type=int, default=12,
        help="workload population for --distributed (default: 12)",
    )
    trace.add_argument(
        "--ops", type=int, default=24,
        help="workload occurrences for --distributed (default: 24)",
    )
    trace.set_defaults(func=_cmd_trace)

    replay = sub.add_parser(
        "replay",
        help="animate a script under the event journal, replay each "
        "journal and verify the replayed state matches the live base",
    )
    replay.add_argument(
        "script", nargs="?", default=None,
        help="Python example script to animate (default: built-in demo)",
    )
    replay.add_argument(
        "--save", metavar="PATH", default=None,
        help="write the recorded journal(s) to PATH as JSON lines",
    )
    replay.add_argument(
        "--verbose", action="store_true",
        help="interleave the script's own output",
    )
    replay.set_defaults(func=_cmd_replay)

    why = sub.add_parser(
        "why",
        help="provenance query: which occurrence (and calling chain) "
        "wrote an attribute's value",
    )
    why.add_argument(
        "target",
        help="CLASS(KEY).attribute, e.g. \"DEPT('Research').manager\"",
    )
    why.add_argument(
        "script", nargs="?", default=None,
        help="Python example script to animate (default: built-in demo)",
    )
    why.add_argument(
        "--verbose", action="store_true",
        help="interleave the script's own output",
    )
    why.set_defaults(func=_cmd_why)

    export = sub.add_parser(
        "export",
        help="export metrics and journal gauges (Prometheus text "
        "format or JSON)",
    )
    export.add_argument(
        "script", nargs="?", default=None,
        help="Python example script to animate (default: built-in demo)",
    )
    export.add_argument(
        "--format", choices=["prometheus", "json"], default="prometheus",
        help="output format (default: prometheus)",
    )
    export.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the export to FILE instead of stdout",
    )
    export.add_argument(
        "--verbose", action="store_true",
        help="interleave the script's own output",
    )
    export.add_argument(
        "--fleet", action="store_true",
        help="export the merged fleet view of a sharded workload run "
        "(per-shard + aggregate) instead of animating a script",
    )
    export.add_argument(
        "--shards", type=int, default=4,
        help="shard count for --fleet (default: 4)",
    )
    export.add_argument(
        "--counters", type=int, default=24,
        help="workload population for --fleet (default: 24)",
    )
    export.add_argument(
        "--ops", type=int, default=96,
        help="workload occurrences for --fleet (default: 96)",
    )
    export.set_defaults(func=_cmd_export)

    serve = sub.add_parser(
        "serve",
        help="run a sharded object-community server over a "
        "specification, speaking JSON lines on stdin/stdout",
    )
    serve.add_argument(
        "files", nargs="+", help="specification files ('-' for stdin)"
    )
    serve.add_argument(
        "--shards", type=int, default=4,
        help="number of shard worker processes (default: 4)",
    )
    serve.add_argument(
        "--pin", action="append", metavar="CLASS=SHARD", default=None,
        help="pin a class (and its role views) to one shard; repeatable",
    )
    serve.add_argument(
        "--spool-dir", metavar="DIR", default=None,
        help="per-shard durability spool (journal + snapshots); "
        "enables crash recovery",
    )
    serve.add_argument(
        "--port", type=int, default=None,
        help="serve JSON lines over TCP on this port instead of "
        "stdin/stdout, accepting many concurrent clients against the "
        "pipelined community (0 picks an ephemeral port)",
    )
    _add_storage_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    workload = sub.add_parser(
        "workload",
        help="drive the built-in counter workload against a sharded "
        "community and report throughput",
    )
    workload.add_argument(
        "--shards", type=int, default=4,
        help="number of shard worker processes (default: 4)",
    )
    workload.add_argument(
        "--counters", type=int, default=120,
        help="population size (default: 120)",
    )
    workload.add_argument(
        "--ops", type=int, default=480,
        help="bump occurrences to drive (default: 480)",
    )
    workload.add_argument(
        "--spool-dir", metavar="DIR", default=None,
        help="per-shard durability spool (journal + snapshots)",
    )
    workload.add_argument(
        "--oracle", action="store_true",
        help="also run the single-process oracle and verify the merged "
        "final state is identical",
    )
    workload.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="write per-shard Prometheus gauges to FILE ('-' for stdout)",
    )
    workload.add_argument(
        "--trace", action="store_true",
        help="trace every request end to end and verify each merged "
        "cross-process tree is complete",
    )
    workload.add_argument(
        "--slow-ms", type=float, default=None, dest="slow_ms",
        help="with --trace: capture merged traces of requests slower "
        "than this many milliseconds",
    )
    workload.add_argument(
        "--clients", type=int, default=1,
        help="concurrent client coroutines; 2 or more drive the "
        "community from that many pipelined clients, whose group "
        "commits share fsyncs (default: 1, one blocking client)",
    )
    _add_storage_flags(workload)
    workload.set_defaults(func=_cmd_workload)

    top = sub.add_parser(
        "top",
        help="refreshing per-shard utilization/latency table over a "
        "live sharded community driving the built-in workload",
    )
    top.add_argument(
        "--shards", type=int, default=4,
        help="number of shard worker processes (default: 4)",
    )
    top.add_argument(
        "--counters", type=int, default=24,
        help="population size (default: 24)",
    )
    top.add_argument(
        "--ops-per-frame", type=int, default=48, dest="ops_per_frame",
        help="bump occurrences driven between refreshes (default: 48)",
    )
    top.add_argument(
        "--frames", type=int, default=3,
        help="number of refreshes before exiting (default: 3)",
    )
    top.add_argument(
        "--interval", type=float, default=0.0,
        help="seconds to sleep between frames (default: 0)",
    )
    top.add_argument(
        "--limit", type=int, default=0,
        help="show only the first N shard rows after sorting (0 = all)",
    )
    top.add_argument(
        "--sort",
        choices=[
            "shard", "reqs", "rate", "util", "commits", "rollbacks",
            "journal", "p50_ms", "p95_ms", "fsync95_ms",
        ],
        default="shard",
        help="sort column (default: shard index; others sort descending)",
    )
    top.add_argument(
        "--json", action="store_true",
        help="emit one JSON document per frame instead of the table",
    )
    top.set_defaults(func=_cmd_top)

    profile = sub.add_parser(
        "profile",
        help="spec-level profiler: attribute wall clock to classes, "
        "events, rules and pipeline phases; export speedscope / "
        "collapsed flamegraphs / Prometheus",
    )
    profile.add_argument(
        "script", nargs="?", default=None,
        help="Python example script to animate (default: built-in demo)",
    )
    profile.add_argument(
        "--mode", choices=["exact", "sampling"], default="exact",
        help="exact instruments every unit; sampling measures every "
        "N-th (default: exact)",
    )
    profile.add_argument(
        "--interval", type=int, default=16,
        help="sampling interval for --mode sampling (default: 16)",
    )
    profile.add_argument(
        "--top", type=int, default=20,
        help="rows (or tree-line budget) to print (default: 20)",
    )
    profile.add_argument(
        "--by", choices=["class", "event", "rule", "phase"], default=None,
        help="aggregate into a flat table instead of the construct tree",
    )
    profile.add_argument(
        "--speedscope", metavar="FILE", default=None,
        help="write the profile as a speedscope JSON file",
    )
    profile.add_argument(
        "--collapsed", metavar="FILE", default=None,
        help="write collapsed flamegraph stacks (flamegraph.pl input)",
    )
    profile.add_argument(
        "--prometheus", metavar="FILE", default=None,
        help="write per-construct Prometheus gauges ('-' for stdout)",
    )
    profile.add_argument(
        "--fleet", action="store_true",
        help="profile a sharded cross-shard workload run and merge the "
        "per-shard profiles (verifies 2PC phase coverage per shard)",
    )
    profile.add_argument(
        "--shards", type=int, default=4,
        help="shard count for --fleet (default: 4)",
    )
    profile.add_argument(
        "--counters", type=int, default=24,
        help="workload population for --fleet (default: 24)",
    )
    profile.add_argument(
        "--ops", type=int, default=96,
        help="workload occurrences for --fleet (default: 96)",
    )
    profile.add_argument(
        "--verbose", action="store_true",
        help="interleave the script's own output",
    )
    profile.set_defaults(func=_cmd_profile)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TrollError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
