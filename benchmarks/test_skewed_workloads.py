"""Skewed (Zipf) workload variants: the adaptive execution ablation.

The Figure 3 panels use uniform key distributions, where the adaptive
layer deliberately does nothing.  This module runs Zipf-skewed variants of
the key-grouping workloads twice on identical inputs -- adaptive off (the
static plan) and adaptive on -- and compares the two.

Assertions encode the adaptive layer's acceptance criteria:

* the skewed ``group_by_key`` (no map-side combiner statically, so every
  record crosses the shuffle) must shuffle at most half as many records
  with adaptive map-side grouping engaged, with bit-identical groups (the
  wall times are reported, not asserted: the rows are a few ms long);
* the skewed reduce must salt its hot keys (``salted_keys > 0``) and still
  produce bit-identical totals.
"""

from __future__ import annotations

import time

from benchmarks.conftest import BENCH_SIZE_SCALE
from repro.evaluation.harness import diablo_for, translated_outputs
from repro.programs import get_program
from repro.runtime.context import DistributedContext
from repro.workloads import skewed_pairs, skewed_workload_for_program

#: Enough records that shuffle volume dominates the wall clock, few enough
#: keys that the sampled duplication safely clears the map-side-grouping
#: threshold (uniform 50 keys already averages >1000 duplicates each here).
SKEW_SIZE = 60_000 * BENCH_SIZE_SCALE
SKEW_KEYS = 50

ROUNDS = 3


def _skewed_records() -> list[tuple[int, float]]:
    return [(row["K"], row["A"]) for row in skewed_pairs(SKEW_SIZE, num_keys=SKEW_KEYS)]


def _run_group_by_key(records, adaptive: bool):
    """Best-of-N wall time for a skewed group_by_key; returns (wall, groups, metrics)."""
    with DistributedContext(num_partitions=4, adaptive=adaptive) as context:
        dataset = context.parallelize(records)
        dataset.group_by_key().materialize()  # warm-up: exclude planning noise
        timings = []
        for _ in range(ROUNDS):
            context.metrics.reset()
            started = time.perf_counter()
            groups = dict(dataset.group_by_key().collect())
            timings.append(time.perf_counter() - started)
        return min(timings), groups, context.metrics.snapshot()


def test_skewed_group_by_key_adaptive_speedup():
    """Map-side grouping must halve the shuffle on Zipf-skewed groups.

    Statically, groupByKey has no combiner, so all ``SKEW_SIZE`` records
    cross the shuffle; the adaptive sampler detects the duplication and
    ships one partial group per (task, key) instead.
    """
    records = _skewed_records()
    static_wall, static_groups, static_metrics = _run_group_by_key(records, adaptive=False)
    adaptive_wall, adaptive_groups, adaptive_metrics = _run_group_by_key(records, adaptive=True)
    assert adaptive_metrics["adaptive_decisions"] >= 1, "adaptive sampler never engaged"
    assert adaptive_groups == static_groups, "adaptive grouping diverged"
    static_records = static_metrics["shuffled_records"]
    adaptive_records = adaptive_metrics["shuffled_records"]
    assert adaptive_records * 2 <= static_records, (
        f"adaptive skewed group_by_key shuffled {adaptive_records} records vs "
        f"{static_records} static ({adaptive_wall:.4f}s vs {static_wall:.4f}s)"
    )


def test_skewed_reduce_salts_hot_keys():
    """The Zipf head is hot enough to salt; totals stay bit-identical.

    ``reduce_by_key`` already runs a map-side combiner, so the win is
    structural (one partial per (task, hot key) instead of a single reducer
    owning the head key) -- asserted via the counters, not the wall clock.
    """
    records = _skewed_records()
    with DistributedContext(num_partitions=4, adaptive=False) as context:
        static_totals = dict(
            context.parallelize(records).reduce_by_key(lambda a, b: a + b).collect()
        )
    with DistributedContext(num_partitions=4, adaptive=True) as context:
        adaptive_totals = dict(
            context.parallelize(records).reduce_by_key(lambda a, b: a + b).collect()
        )
        assert context.metrics.salted_keys > 0, "no hot key was salted"
        assert context.metrics.adaptive_decisions >= 1
    assert adaptive_totals == static_totals, "salted reduce diverged"


def test_skewed_diablo_group_by_records_counters():
    """The translated Group By program on Zipf inputs, in both modes.

    ``C[v.K] += v.A`` lowers to a reduceByKey, so this tracks the salting
    path through the full DIABLO pipeline; the adaptive run must match the
    static run exactly.
    """
    size = 20_000 * BENCH_SIZE_SCALE
    inputs = skewed_workload_for_program("group_by", size)
    spec = get_program("group_by")
    outputs = {}
    for adaptive in (False, True):
        context = DistributedContext(num_partitions=4, adaptive=adaptive)
        compiled = diablo_for(spec, context).compile(spec.source)
        result = compiled.run(**inputs)
        outputs[adaptive] = translated_outputs("group_by", result)
        if not adaptive:
            assert context.metrics.adaptive_decisions == 0
            assert context.metrics.salted_keys == 0
    assert outputs[True] == outputs[False], "adaptive DIABLO group_by diverged"
