"""Metric exporters: Prometheus text format and JSON.

Turns a :class:`~repro.observability.metrics.MetricsRegistry` plus the
journal sessions of a run into scrape-ready output:

* :func:`render_prometheus` -- the Prometheus text exposition format
  (``# TYPE`` lines, ``_total`` counters, cumulative ``_bucket{le=...}``
  histograms with ``_sum``/``_count``, journal-derived gauges);
* :func:`render_json` -- the same data as one JSON document.

Journal-derived gauges (when sessions are given): journal depth,
committed/rolled-back unit totals, rollback ratio, and live instances
per class across all captured object bases.

No dependency on any Prometheus client library -- the text format is a
stable, line-oriented contract (validated by the test suite's own
parser).
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.observability.metrics import MetricsRegistry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(namespace: str, name: str, suffix: str = "") -> str:
    return f"{namespace}_{_NAME_RE.sub('_', name)}{suffix}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def journal_stats(sessions: Sequence[Tuple[Any, Any]]) -> Dict[str, Any]:
    """Journal-derived gauges over captured (system, journal) sessions."""
    depth = sum(len(journal) for _, journal in sessions)
    commits = sum(len(journal.commits()) for _, journal in sessions)
    rollbacks = sum(len(journal.rollbacks()) for _, journal in sessions)
    live: Dict[str, int] = {}
    for system, _ in sessions:
        for class_name in system.instances:
            count = len(system.alive_instances(class_name))
            if count:
                live[class_name] = live.get(class_name, 0) + count
    total = commits + rollbacks
    return {
        "depth": depth,
        "commits": commits,
        "rollbacks": rollbacks,
        "rollback_ratio": rollbacks / total if total else 0.0,
        "live_instances": dict(sorted(live.items())),
        "sessions": len(sessions),
    }


def render_prometheus(
    metrics: MetricsRegistry,
    sessions: Optional[Sequence[Tuple[Any, Any]]] = None,
    namespace: str = "repro",
) -> str:
    """The registry (and optional journal sessions) in Prometheus text
    exposition format."""
    lines: List[str] = []

    for name, counter in sorted(metrics.counters.items()):
        metric = _metric_name(namespace, name, "_total")
        lines.append(f"# HELP {metric} Counter {name!r} of the animator run.")
        lines.append(f"# TYPE {metric} counter")
        if not counter.values:
            lines.append(f"{metric} 0")
        for labels, count in sorted(counter.values.items()):
            if labels:
                label = _escape_label("/".join(str(p) for p in labels))
                lines.append(f'{metric}{{label="{label}"}} {_format_value(count)}')
            else:
                lines.append(f"{metric} {_format_value(count)}")

    for name, hist in sorted(metrics.histograms.items()):
        suffix = "_seconds" if hist.unit == "s" else ""
        metric = _metric_name(namespace, name, suffix)
        lines.append(f"# HELP {metric} Histogram {name!r} of the animator run.")
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(hist.buckets, hist.bucket_counts):
            cumulative += count
            lines.append(
                f'{metric}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
            )
        lines.append(f"{metric}_sum {_format_value(float(hist.sum))}")
        lines.append(f"{metric}_count {hist.count}")

    if sessions is not None:
        stats = journal_stats(sessions)
        gauges = [
            ("journal_depth", "Records across all captured journals.",
             stats["depth"]),
            ("journal_commits", "Committed synchronization sets journaled.",
             stats["commits"]),
            ("journal_rollbacks", "Tombstones (rolled-back sets) journaled.",
             stats["rollbacks"]),
            ("journal_rollback_ratio", "Tombstones as a fraction of all records.",
             stats["rollback_ratio"]),
            ("journal_sessions", "Captured object bases.", stats["sessions"]),
        ]
        for name, help_text, value in gauges:
            metric = _metric_name(namespace, name)
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_value(float(value))}")
        metric = _metric_name(namespace, "live_instances")
        lines.append(f"# HELP {metric} Alive instances per class.")
        lines.append(f"# TYPE {metric} gauge")
        if not stats["live_instances"]:
            lines.append(f'{metric}{{class=""}} 0')
        for class_name, count in stats["live_instances"].items():
            lines.append(
                f'{metric}{{class="{_escape_label(class_name)}"}} {count}'
            )

    return "\n".join(lines) + "\n"


def render_json(
    metrics: MetricsRegistry,
    sessions: Optional[Sequence[Tuple[Any, Any]]] = None,
) -> Dict[str, Any]:
    """The registry snapshot (and optional journal gauges) as one JSON
    document."""
    document: Dict[str, Any] = {"metrics": metrics.snapshot()}
    if sessions is not None:
        document["journal"] = journal_stats(sessions)
    return document


_SHARD_GAUGES = (
    ("requests", "Requests handled by the shard worker."),
    ("commits", "Committed synchronization sets journaled on the shard."),
    ("rollbacks", "Tombstones (rolled-back sets) journaled on the shard."),
    ("journal_depth",
     "Journal records (commits and tombstones) the shard worker recorded."),
    ("in_flight", "Requests currently being handled by the shard worker."),
)

#: nested per-shard counter groups -> exported gauge name fragments
_SHARD_GROUP_GAUGES = (
    ("probe_cache", ("hits", "misses", "invalidations", "punts"),
     "Epoch-memoized permission probe cache"),
    ("term_compile", ("compiled", "fallbacks", "cache_hits"),
     "Closure-compiled rule body"),
)

#: per-shard latency histograms exported as quantile gauges
_SHARD_LATENCY = (
    ("request", "request_latency_ms", "Wire request handling latency"),
    ("phase.fsync", "fsync_latency_ms", "Durability spool fsync latency"),
)


def render_shard_prometheus(
    export: Dict[str, Any], namespace: str = "repro"
) -> str:
    """Per-shard counters of a sharded community
    (:meth:`~repro.distributed.ShardedCommunity.merged_export` output)
    as ``<namespace>_shard_*`` gauges labelled by shard index, plus the
    coordinator's restart count."""
    lines: List[str] = []
    shards = export.get("shards", [])
    for name, help_text in _SHARD_GAUGES:
        metric = _metric_name(namespace, f"shard_{name}")
        lines.append(f"# HELP {metric} {help_text}")
        lines.append(f"# TYPE {metric} gauge")
        if not shards:
            lines.append(f'{metric}{{shard=""}} 0')
        for shard in shards:
            lines.append(
                f'{metric}{{shard="{shard.get("shard")}"}} '
                f'{_format_value(float(shard.get(name, 0)))}'
            )
    totals = export.get("totals", {})
    metric = _metric_name(namespace, "shard_restarts")
    lines.append(
        f"# HELP {metric} Worker restarts performed by the coordinator."
    )
    lines.append(f"# TYPE {metric} gauge")
    lines.append(f"{metric} {_format_value(float(totals.get('restarts', 0)))}")
    return "\n".join(lines) + "\n"


_QUANTILES = ((0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99"))


def _fleet_shard_lines(
    shards: Sequence[Dict[str, Any]], namespace: str
) -> List[str]:
    """Per-shard gauge lines of the fleet export: nested counter groups
    (probe cache, term compiler) and latency quantiles reconstructed
    from each shard's shipped metrics dump."""
    lines: List[str] = []
    for group, keys, help_prefix in _SHARD_GROUP_GAUGES:
        for key in keys:
            metric = _metric_name(namespace, f"shard_{group}_{key}")
            lines.append(f"# HELP {metric} {help_prefix} {key} on the shard.")
            lines.append(f"# TYPE {metric} gauge")
            for shard in shards:
                value = (shard.get(group) or {}).get(key, 0)
                lines.append(
                    f'{metric}{{shard="{shard.get("shard")}"}} '
                    f"{_format_value(float(value))}"
                )
    registries = [
        (shard.get("shard"), MetricsRegistry.from_dumps(
            [shard["metrics_dump"]] if shard.get("metrics_dump") else []
        ))
        for shard in shards
    ]
    for hist_name, gauge, help_text in _SHARD_LATENCY:
        metric = _metric_name(namespace, f"shard_{gauge}")
        lines.append(f"# HELP {metric} {help_text} quantiles per shard.")
        lines.append(f"# TYPE {metric} gauge")
        for shard_index, registry in registries:
            hist = registry.histograms.get(hist_name)
            if hist is None or not hist.count:
                continue
            for q, label in _QUANTILES:
                lines.append(
                    f'{metric}{{shard="{shard_index}",quantile="{label}"}} '
                    f"{_format_value(hist.percentile(q) * 1e3)}"
                )
    return lines


def merge_fleet_registry(export: Dict[str, Any]) -> MetricsRegistry:
    """The fleet-wide merged registry of a
    :meth:`~repro.distributed.ShardedCommunity.merged_export` document:
    coordinator metrics plus every shard's shipped dump, histograms
    merged bucket-by-bucket (fleet percentiles are quantiles of the
    union of all samples, not averages of per-shard summaries)."""
    dumps = [(export.get("coordinator") or {}).get("metrics_dump")]
    dumps.extend(shard.get("metrics_dump") for shard in export.get("shards", []))
    return MetricsRegistry.from_dumps([dump for dump in dumps if dump])


def render_fleet_prometheus(
    export: Dict[str, Any], namespace: str = "repro"
) -> str:
    """The full fleet view in Prometheus text format: the per-shard
    gauges of :func:`render_shard_prometheus`, per-shard cache/latency
    gauges, coordinator counters, and the merged ``<namespace>_fleet_*``
    aggregate over every process's metrics."""
    lines = [render_shard_prometheus(export, namespace).rstrip("\n")]
    lines.extend(_fleet_shard_lines(export.get("shards", []), namespace))
    coordinator = export.get("coordinator") or {}
    for name, help_text in (
        ("in_flight", "Coordinator requests currently in flight."),
        ("spans_dropped", "Telemetry spans truncated from response frames."),
        ("slow_requests", "Requests that exceeded the slow-request threshold."),
    ):
        metric = _metric_name(namespace, f"coordinator_{name}")
        lines.append(f"# HELP {metric} {help_text}")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(
            f"{metric} {_format_value(float(coordinator.get(name, 0)))}"
        )
    fleet = merge_fleet_registry(export)
    lines.append(render_prometheus(fleet, namespace=f"{namespace}_fleet").rstrip("\n"))
    return "\n".join(lines) + "\n"


def render_fleet_json(export: Dict[str, Any]) -> Dict[str, Any]:
    """The fleet view as one JSON document: the raw per-shard exports,
    coordinator counters and totals, plus the merged fleet snapshot."""
    return {
        "shards": export.get("shards", []),
        "coordinator": export.get("coordinator"),
        "totals": export.get("totals", {}),
        "fleet": merge_fleet_registry(export).snapshot(),
    }
