"""Command line of the end-to-end benchmark.

    python -m benchmarks.e2e [--workload NAME] [--seed N] [--seconds S]
                             [--trace [0|1]] [--out FILE]
    python -m benchmarks.e2e compare BASE NEW

The first form runs one workload (every workload without
``--workload``) and prints each metric with its unit and sample count:
the end-to-end metrics, and with ``--trace 1`` the per-layer metrics
after them, both from the same invocation.  It ends with one JSON line:
``correct``, ``attempted``, ``failed`` and the end-to-end metrics -- or,
with ``--trace 1``, the per-layer metrics.  ``--out`` appends both
families of every run to FILE as JSON lines, the input of ``compare``.
Exit status 1 when a run is not correct.

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json, whose
``command`` is run with ``--workload``, ``--seed``, ``--seconds`` and
``--trace``.  It fixes the request count, so ``compare`` refuses to set
runs of different lengths against each other.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import load_spec
from .compare import compare
from .layers import SELF_ROWS
from .runner import Result, run_workload
from .workloads import WORKLOADS


def _line(name: str, value: float, unit: str, samples: Optional[int]) -> str:
    count = f"(n={samples})" if samples is not None else ""
    return f"  {name:<28} {value:>14.4f} {unit:<9} {count}"


def _print_family(result: Result, spec: dict, family: str) -> dict:
    """Print one metric family of a run; returns it as result metrics."""
    values = result.per_layer if family == "per_layer" else result.end_to_end
    if not values:
        return {}
    if family == "per_layer":
        latency = values["trace.latency_us"]
        print(f"  per-layer, traced server: mean self time per request, "
              f"of {latency:.1f} us traced latency")
        for layer in SELF_ROWS:
            value = values[f"{layer}.self_us"]
            print(f"    {layer:<12} {value:>10.1f} us  {value / latency:>6.1%}")
        share = values["trace.unattributed_frac"]
        print(f"    {'unattributed':<12} {share * latency:>10.1f} us  {share:>6.1%}")
    else:
        print("  end-to-end, untraced servers:")
    metrics = {}
    for metric in spec[family]:
        name, unit = metric["name"], metric["unit"]
        print(_line(name, values[name], unit, result.samples.get(name)))
        metrics[name] = {"value": values[name], "unit": unit}
    counts = {k: v for k, v in result.samples.items() if k.startswith("trace.")}
    if family == "per_layer" and counts:
        print("  samples: " + ", ".join(f"{k[6:]}={v}" for k, v in counts.items()))
    return metrics


def report(result: Result, spec: dict) -> dict:
    """Print every metric of one run -- the end-to-end ones, then for a
    traced run the per-layer ones -- and return its result object, whose
    metrics are the end-to-end family, or the per-layer one when traced."""
    print(
        f"== {result.workload}  seed {result.seed}  {result.seconds:g} s  "
        f"{'traced' if result.trace else 'untraced'} =="
    )
    for problem in result.problems:
        print(f"  PROBLEM: {problem}")
    metrics = _print_family(result, spec, "end_to_end")
    if result.trace:
        metrics = _print_family(result, spec, "per_layer")
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def _append(path: str, result: Result, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    values = dict(result.end_to_end, **result.per_layer)
    record = {
        "workload": result.workload,
        "seed": result.seed,
        "seconds": result.seconds,
        "trace": result.trace,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": result.problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "samples": result.samples,
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    spec = load_spec()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
        parser.add_argument("base", help="--out file of the parent's runs")
        parser.add_argument("new", help="--out file of the change's runs")
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.new, spec)
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=1, help="chooses keys only")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="run length, which fixes the request count "
                        "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: also run a traced server and print the per-layer "
                        "metrics after the end-to-end ones")
    parser.add_argument("--out", default=None, help="append every metric as JSON lines")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    outcomes = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        outcomes.append(report(result, spec))
        if args.out:
            _append(args.out, result, spec)
    if len(outcomes) == 1:
        final = outcomes[0]
    else:
        final = {
            "correct": all(o["correct"] for o in outcomes),
            "attempted": sum(o["attempted"] for o in outcomes),
            "failed": sum(o["failed"] for o in outcomes),
            "metrics": {
                f"{name}.{metric}": value
                for name, o in zip(names, outcomes)
                for metric, value in o["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
