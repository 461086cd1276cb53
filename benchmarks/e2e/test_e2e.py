"""Smoke test of the end-to-end benchmark: every workload at tiny sizes,
untraced and traced, through the same functions the command line uses.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (the default
pytest run collects ``tests/`` only).
"""

import contextlib
import io
import json

import pytest

from . import load_spec
from .__main__ import report
from .compare import compare, verdict
from .runner import run_workload
from .traced_serve import TARGETS, Recorder, install

TINY = {
    "bump-durable": {"counters": 8, "requests": 40, "servers": 2},
    "read-paged": {"members": 40, "hot_set": 8, "requests": 80, "servers": 2},
    "loan-2pc": {"members": 20, "requests": 40, "servers": 2},
    "bump-open": {"counters": 8, "rate": 100, "requests": 40, "servers": 2},
}


def _printed(result, spec):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        final = report(result, spec)
    return out.getvalue(), final


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_printed_and_state_matches_oracle(name):
    spec = load_spec()
    plain = run_workload(name, seed=3, seconds=1, trace=False, sizes=TINY[name])
    traced = run_workload(name, seed=3, seconds=1, trace=True, sizes=TINY[name])
    end_to_end = [metric["name"] for metric in spec["end_to_end"]]
    per_layer = [metric["name"] for metric in spec["per_layer"]]
    for result, printed, final_family in (
        (plain, end_to_end, end_to_end),
        (traced, end_to_end + per_layer, per_layer),
    ):
        # correct covers the oracle: every reply and the merged final state
        assert result.correct, result.problems
        assert result.failed == 0 and result.attempted > 0
        text, final = _printed(result, spec)
        assert sorted(final["metrics"]) == sorted(final_family)
        for metric in printed:
            assert metric in text
    assert all(value > 0 for value in plain.end_to_end.values())
    layers = traced.per_layer
    rows = sum(value for key, value in layers.items() if key.endswith(".self_us"))
    unattributed = layers["trace.unattributed_frac"] * layers["trace.latency_us"]
    assert rows + unattributed == pytest.approx(layers["trace.latency_us"], rel=1e-9)
    assert traced.samples["trace.unjoined_frames"] == 0


def test_traced_serve_refuses_a_missing_entry_point(tmp_path):
    missing = ("repro.distributed.worker", "ShardWorker.renamed_handle", "handle")
    with pytest.raises(LookupError, match="ShardWorker.renamed_handle"):
        install(Recorder(str(tmp_path)), TARGETS + (missing,))


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5]
    assert verdict(base, [100.2, 100.8, 99.5, 100.1], 0.10, False)[0] == "same"
    assert verdict(base, [130.0, 131.0, 129.0, 130.5], 0.10, False)[0] == "worse"
    assert verdict(base, [130.0, 131.0, 129.0, 130.5], 0.10, True)[0] == "better"
    noisy = [60.0, 100.0, 140.0, 180.0]
    assert verdict(base, noisy, 0.10, False)[0] == "unresolved"
    # wide spread, but every new run beats every base run
    assert verdict(base, [50.0, 70.0, 90.0, 60.0], 0.10, False)[0] == "better"


def _out_file(path, runs):
    spec = load_spec()
    with open(path, "w", encoding="utf-8") as handle:
        for seconds, trace, scale in runs:
            metrics = {
                m["name"]: {"value": scale, "unit": m["unit"]} for m in spec["end_to_end"]
            }
            record = {"workload": "bump-durable", "seconds": seconds, "trace": trace,
                      "metrics": metrics}
            handle.write(json.dumps(record) + "\n")
    return str(path)


def test_compare_reads_traced_runs_and_refuses_mixed_lengths(tmp_path):
    spec = load_spec()
    base = _out_file(tmp_path / "base.jsonl", [(12, False, 1.0), (12, True, 1.0)])
    same = _out_file(tmp_path / "same.jsonl", [(12, True, 1.0), (12, True, 1.01)])
    longer = _out_file(tmp_path / "longer.jsonl", [(20, False, 1.0)])
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert compare(base, same, spec) == 0
    assert "bump-durable  setup_s" in out.getvalue()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert compare(base, longer, spec) == 1
    assert "different lengths" in out.getvalue()
