"""``python -m benchmarks.e2e compare BASE NEW``: two sets of runs, judged
against the bounds in BENCHMARK.json.

BASE and NEW are files written with ``--out`` (one JSON line per run).
Traced runs count too: their end-to-end metrics come from the same
untraced servers as a plain run's.  Runs of a workload must all have the
same ``--seconds``, which fixes the request count and so the servers'
history; otherwise that workload is not compared.  For every workload x
end-to-end metric the report gives each side's median and quartiles and
a verdict:

* ``better`` / ``worse`` -- the new median moved past the bound (a share
  of the base median) in that direction;
* ``same`` -- it stayed within the bound;
* ``unresolved`` -- a side's spread (quartile distance over median)
  exceeds the bound, so the runs cannot tell.  Not when every run of one
  side beats every run of the other: then the medians decide.

Exit status 1 when any pairing is ``worse`` or any workload's runs
differ in length.
"""

from __future__ import annotations

import json
from statistics import median
from typing import Any, Dict, List, Tuple

from . import percentile


def load_runs(path: str) -> Dict[str, List[Dict[str, Any]]]:
    """Workload -> each run in ``path``: its ``seconds`` and metric
    ``values``."""
    runs: Dict[str, List[Dict[str, Any]]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            run = json.loads(line)
            values = {name: m["value"] for name, m in run["metrics"].items()}
            runs.setdefault(run["workload"], []).append(
                {"seconds": run["seconds"], "values": values}
            )
    return runs


def summary(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    return percentile(values, 25), median(values), percentile(values, 75)


def verdict(base: List[float], new: List[float], bound: float, higher_better: bool) -> Tuple[str, float, float]:
    """(verdict, relative change -- positive is worse --, larger spread)."""
    sign = -1.0 if higher_better else 1.0
    base_q1, base_med, base_q3 = summary(base)
    new_q1, new_med, new_q3 = summary(new)
    change = sign * (new_med - base_med) / base_med if base_med else 0.0
    spread = max(
        (base_q3 - base_q1) / base_med if base_med else 0.0,
        (new_q3 - new_q1) / new_med if new_med else 0.0,
    )
    new_wins = all(sign * n < sign * b for n in new for b in base)
    base_wins = all(sign * b < sign * n for n in new for b in base)
    if spread > bound and not (new_wins or base_wins):
        return "unresolved", change, spread
    if change > bound:
        return "worse", change, spread
    if change < -bound:
        return "better", change, spread
    return "same", change, spread


def compare(base_path: str, new_path: str, spec: dict) -> int:
    base, new = load_runs(base_path), load_runs(new_path)
    worse = mismatched = 0
    header = (
        f"{'workload':<13} {'metric':<19} {'base median [q1, q3]':>30} "
        f"{'new median [q1, q3]':>30} {'change':>8} {'spread':>7} {'bound':>6}  verdict"
    )
    print(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            print(f"{workload:<13} (no runs on {'both sides' if workload not in base and workload not in new else 'one side'})")
            continue
        lengths = {run["seconds"] for run in base[workload] + new[workload]}
        if len(lengths) > 1:
            print(f"{workload:<13} (runs of different lengths, {sorted(lengths)} s: not compared)")
            mismatched += 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["values"][name] for run in base[workload]]
            b = [run["values"][name] for run in new[workload]]
            outcome, change, spread = verdict(a, b, metric["bound"], metric["better"] == "higher")
            worse += outcome == "worse"
            aq1, amed, aq3 = summary(a)
            bq1, bmed, bq3 = summary(b)
            print(
                f"{workload:<13} {name:<19} "
                f"{f'{amed:.4g} [{aq1:.4g}, {aq3:.4g}]':>30} "
                f"{f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]':>30} "
                f"{change:>+8.1%} {spread:>7.1%} {metric['bound']:>6.0%}  {outcome}"
                f"  (n={len(a)}/{len(b)})"
            )
    return 1 if worse or mismatched else 0
