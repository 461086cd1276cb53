"""Sharded-community throughput, and a bump whose cost does not grow
with the population.

``COUNTER.bump`` guards itself with ``for all(C: COUNTER : C.Value >=
0)``, a permission over the shard's whole population.  The object base
keeps that formula's violator set up to date
(:mod:`repro.runtime.verdicts`): a commit re-evaluates only the counters
it touched, and a check reads the set.  A bump therefore costs the same
on a shard of 120 counters as on one of 480.

Both sides of every comparison run the full wire protocol (fork,
frames, value coding), so the ratio isolates the population's effect.

``test_population_independence_guard`` is the CI regression guard: on
one shard, 480 bumps over 480 counters take at most 1.5x as long as
480 bumps over 120 counters, and both merged final states equal the
single-process oracle's.  When every check swept the population, the
larger shard took 2.9-3.8x as long; with the maintained set it takes
0.8-1.2x.  The 1-shard and 4-shard rows are report-only timings, each
checked against the oracle.
"""

import pytest

from repro.distributed.workload import (
    DEFAULT_COUNTERS,
    DEFAULT_OPS,
    run_oracle,
    run_sharded,
)

#: the population of the guard's larger shard (4x DEFAULT_COUNTERS)
LARGE_COUNTERS = 4 * DEFAULT_COUNTERS


@pytest.fixture(scope="module")
def oracle():
    return run_oracle(DEFAULT_COUNTERS, DEFAULT_OPS)


def test_bench_single_shard_baseline(benchmark, oracle):
    """The whole population behind one worker process."""
    results = []
    benchmark.pedantic(
        lambda: results.append(run_sharded(1, DEFAULT_COUNTERS, DEFAULT_OPS)),
        rounds=3,
    )
    for result in results:
        assert result["state"] == oracle["state"]


def test_bench_four_shards(benchmark, oracle):
    """The population split over 4 workers."""
    results = []
    benchmark.pedantic(
        lambda: results.append(run_sharded(4, DEFAULT_COUNTERS, DEFAULT_OPS)),
        rounds=3,
    )
    for result in results:
        assert result["state"] == oracle["state"]


def test_population_independence_guard(benchmark, oracle):
    """Regression guard: on one shard, bumps over 4x the counters take
    at most 1.5x as long, with both merged states equal to the oracle's."""
    states = {
        DEFAULT_COUNTERS: oracle["state"],
        LARGE_COUNTERS: run_oracle(LARGE_COUNTERS, DEFAULT_OPS)["state"],
    }
    seconds = {counters: [] for counters in states}

    def run():
        for counters, state in states.items():
            result = run_sharded(1, counters, DEFAULT_OPS)
            assert result["state"] == state, (
                "sharded community diverged from the single-process oracle"
            )
            seconds[counters].append(result["seconds"])

    benchmark.pedantic(run, rounds=5)

    small = min(seconds[DEFAULT_COUNTERS])
    large = min(seconds[LARGE_COUNTERS])
    ratio = large / small
    benchmark.extra_info["small_seconds"] = small
    benchmark.extra_info["large_seconds"] = large
    benchmark.extra_info["ratio"] = ratio
    assert ratio <= 1.5, (
        f"{DEFAULT_OPS} bumps over {LARGE_COUNTERS} counters took "
        f"{ratio:.2f}x as long as over {DEFAULT_COUNTERS} (target <= 1.5x): "
        f"{large:.3f}s vs {small:.3f}s"
    )
