"""End-to-end benchmark of the ``repro serve --port`` stack.

Run ``python -m benchmarks.e2e --help`` from the repository root; see
README.md in this directory for the workloads, metrics and layer table.
"""

import json
import os
import sys
from statistics import quantiles
from typing import Sequence

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SRC = os.path.join(_ROOT, "src")
# The benchmark measures the checkout it sits in, never an installed copy.
if not os.path.isdir(os.path.join(_SRC, "repro")):
    raise ImportError(f"benchmarks.e2e needs the repository's src/repro next to it ({_SRC})")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def load_spec() -> dict:
    """BENCHMARK.json at the repository root: run length, workloads and
    every metric's unit, direction and bound."""
    with open(os.path.join(_ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: Sequence[float], p: int) -> float:
    """The ``p``-th percentile of ``values`` (``p`` a whole number from 1
    to 99), interpolated as ``statistics.quantiles`` does, so that
    percentiles 25 and 75 are the quartiles of ``quantiles(values, n=4)``.
    0 when ``values`` is empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return quantiles(values, n=100)[p - 1]
