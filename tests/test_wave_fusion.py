"""One wave per wide boundary.

A join that broadcasts is pipelined into the task that consumes its output:
the probe over the built lookup table becomes the head of the consumer's
chain, so probe, fold and shuffle write run in one map task.  A merge of
co-partitioned datasets joins the task of the pending shuffle or narrow chain
that feeds it: task ``i`` reads partition ``i`` of the other side after its
bucket or chain.  These tests hold that to:

* PageRank's loop body runs two waves per iteration -- the broadcast
  table's collect, then probe→fold→merge→merge over the loop-invariant side
  placed by the fold key -- and, with ``plan_optimize=False``, the thirteen
  it ran before (its merges shuffle);
* every program's outputs are bit-identical with spill forced and without,
  adaptive on and off, at threshold 0 (joins shuffle) and at the default
  (they broadcast); with
  ``DIABLO_CLUSTER_TESTS=1`` a 2-worker cluster is held to the sequential
  executor as well;
* a salted ``reduceByKey`` folds its hot keys before a merge that would have
  joined its reduce task, and equals the unsalted result;
* merges over a pending narrow chain run in the chain's one task;
* a pending join two consumers read builds its table once;
* the adaptive sampler forces its input outside its guard: an upstream
  failure raises once, with its own error.
"""

from __future__ import annotations

import functools
import operator
import os

import pytest

from repro.errors import ExecutionError
from repro.evaluation.harness import diablo_for, translated_outputs
from repro.programs import PROGRAMS, get_program
from repro.runtime.cluster import ClusterContext
from repro.runtime.context import DistributedContext
from repro.runtime.dataset import DEFAULT_BROADCAST_JOIN_THRESHOLD
from repro.runtime.partitioner import HashPartitioner
from repro.runtime.stage import is_probe
from repro.workloads import workload_for_program

THRESHOLDS = {"shuffled": 0, "broadcast": DEFAULT_BROADCAST_JOIN_THRESHOLD}
SIZES = (6, 20)
#: Context settings each held to the default one's outputs.
CONFIGS = {
    "spill-1": {"spill_threshold_bytes": 1},
    "static": {"adaptive": False},
}
#: One PageRank iteration: P's keying run read for the broadcast table, then
#: the probe folding by key with both merges in its task (the reduceByKey runs
#: per partition: the probed side is placed by the fold key).
ITERATION = ["let→key (read)", "zipped_chain"]

cluster_only = pytest.mark.skipif(
    os.environ.get("DIABLO_CLUSTER_TESTS") != "1",
    reason="cluster legs are opt-in: set DIABLO_CLUSTER_TESTS=1",
)


def _label(stage) -> str:
    function = stage.function
    if is_probe(stage):
        return "probe"
    if isinstance(function, functools.partial):
        return function.func.__name__
    return getattr(function, "label", stage.kind)


def _record_waves(context) -> list[str]:
    """Label every ``run_tasks`` wave of ``context`` from here on."""
    waves: list[str] = []
    run_tasks = context.run_tasks

    def recorded(task, partitions, task_spec=None, read=False):
        waves.append("→".join(map(_label, task_spec or ())) + (" (read)" if read else ""))
        return run_tasks(task, partitions, task_spec, read)

    context.run_tasks = recorded
    return waves


def _pagerank_waves(steps: int, **settings) -> list[str]:
    spec = get_program("pagerank")
    inputs = workload_for_program("pagerank", 40, seed=7)
    inputs["num_steps"] = steps
    with DistributedContext(num_partitions=4, **settings) as context:
        compiled = diablo_for(spec, context).compile(spec.source)
        waves = _record_waves(context)
        compiled.run(**inputs)
    return waves


def test_a_pagerank_iteration_is_two_waves():
    two, three = _pagerank_waves(2), _pagerank_waves(3)
    assert three[: len(two)] == two
    assert three[len(two) :] == ITERATION
    assert two[-2:] == ITERATION


def test_plan_optimize_off_keeps_the_waves_of_before():
    two, three = _pagerank_waves(2, plan_optimize=False), _pagerank_waves(3, plan_optimize=False)
    assert len(three) - len(two) == 13
    assert "zipped_reduce" not in three
    assert not any(wave.startswith("probe→") for wave in three)


def _run(context, name: str, size: int) -> str:
    """The program's outputs as text that is equal exactly when they are
    bit-identical (``repr`` of a float round-trips)."""
    spec = get_program(name)
    result = diablo_for(spec, context).compile(spec.source).run(**workload_for_program(name, size, seed=7))
    return repr(translated_outputs(name, result))


@functools.lru_cache(maxsize=None)
def sequential(name: str, size: int, threshold: int, config: str | None = None) -> str:
    settings = CONFIGS[config] if config else {}
    with DistributedContext(num_partitions=4, broadcast_join_threshold=threshold, **settings) as context:
        return _run(context, name, size)


@pytest.mark.parametrize("threshold", THRESHOLDS.values(), ids=THRESHOLDS.keys())
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_program_keeps_its_bits(name, threshold):
    for size in SIZES:
        outputs = sequential(name, size, threshold)
        for config in CONFIGS:
            assert sequential(name, size, threshold, config) == outputs, f"{name} {size}: {config}"


@cluster_only
@pytest.mark.parametrize("spill", [None, 1], ids=["in-memory", "spill-1"])
@pytest.mark.parametrize("threshold", THRESHOLDS.values(), ids=THRESHOLDS.keys())
def test_cluster_outputs_are_those_of_the_sequential_executor(threshold, spill):
    with ClusterContext(
        cluster_workers=2, num_partitions=4, broadcast_join_threshold=threshold, spill_threshold_bytes=spill
    ) as context:
        for name in sorted(PROGRAMS):
            for size in SIZES:
                assert _run(context, name, size) == sequential(name, size, threshold), name
        assert context.metrics.cluster_fallbacks == 0
        assert context.metrics.driver_payload_bytes == 0


# ---------------------------------------------------------------------------
# Merges inside the reduce task
# ---------------------------------------------------------------------------


def _salted_then_merged(context):
    """A reduceByKey over one hot key (salted when adaptive), then two merges
    with co-partitioned sides."""
    placed = HashPartitioner(context.num_partitions)
    hot = [(0, 0.1 * i) for i in range(400)]
    cold = [(key, 0.3 * key) for key in range(1, 40)]
    reduced = context.parallelize(hot + cold).reduce_by_key(operator.add)
    base = context.parallelize_pairs({key: 0.7 * key for key in range(0, 60, 3)}).partition_by(placed)
    last = context.parallelize_pairs({key: -1.5 for key in range(0, 60, 7)}).partition_by(placed)
    merged = last.merge(base.merge_with(reduced, operator.add))
    waves = _record_waves(context)
    return merged.collect(), waves


def test_a_salted_reduce_folds_before_the_merges_it_feeds():
    with DistributedContext(num_partitions=4, adaptive=False) as context:
        expected, waves = _salted_then_merged(context)
    assert waves == ["shuffle_write", "zipped_reduce"]
    with DistributedContext(num_partitions=4) as context:
        merged, waves = _salted_then_merged(context)
        assert context.metrics.salted_keys == 1
    assert merged == expected
    # The salted partials are folded in the driver, then each merge runs as
    # its own wave.
    assert waves[-3:] == ["reduce_bucket", "zip_merge_partition", "zip_merge_partition"]


def _salted_side_merged(context):
    """A merge joining a reduce task with, as its other side, a salted
    reduceByKey's result: partitions the driver folded itself."""
    hot = [(0, 0.1 * i) for i in range(400)]
    salted = context.parallelize(hot + [(key, 0.3) for key in range(1, 40)]).reduce_by_key(operator.add)
    fresh = context.parallelize([(key % 50, 0.5 * key) for key in range(120)]).reduce_by_key(operator.add)
    merged = salted.materialize().merge_with(fresh, operator.mul)
    assert not merged.is_materialized
    return merged.collect()


@cluster_only
def test_a_driver_held_side_joins_a_reduce_task_on_the_cluster():
    with DistributedContext(num_partitions=4) as context:
        expected = _salted_side_merged(context)
    with ClusterContext(cluster_workers=2, num_partitions=4) as context:
        assert _salted_side_merged(context) == expected
        assert context.metrics.salted_keys == 1
        assert context.metrics.cluster_fallbacks == 0


def test_a_chained_merge_joins_the_same_reduce_task():
    with DistributedContext(num_partitions=4) as context:
        placed = HashPartitioner(4)
        reduced = context.parallelize([(i % 9, float(i)) for i in range(60)]).reduce_by_key(operator.add)
        side = context.parallelize_pairs({key: 10.0 for key in range(0, 12, 2)}).partition_by(placed)
        merged = side.merge(reduced).merge_with(side, operator.mul)
        assert not merged.is_materialized
        assert merged.partitioner == placed
        eliminated = context.metrics.shuffles_eliminated
        waves = _record_waves(context)
        fused = merged.collect()
        assert waves == ["shuffle_write", "zipped_reduce"]
        assert context.metrics.shuffles_eliminated == eliminated == 2
    with DistributedContext(num_partitions=4, plan_optimize=False) as context:
        reduced = context.parallelize([(i % 9, float(i)) for i in range(60)]).reduce_by_key(operator.add)
        side = context.parallelize_pairs({key: 10.0 for key in range(0, 12, 2)})
        assert sorted(side.merge(reduced).merge_with(side, operator.mul).collect()) == sorted(fused)


def _narrow_chain_merged(context, placed):
    """Two merges over a pending narrow chain that keeps its placement."""
    base = context.parallelize_pairs({key: float(key) for key in range(12)})
    side = context.parallelize_pairs({key: 10.0 for key in range(0, 12, 2)})
    if placed is not None:
        base, side = base.partition_by(placed), side.partition_by(placed)
    chain = base.map_values(lambda value: value * 2.0)
    return side.merge(chain).merge_with(side, operator.mul)


def test_merges_join_the_task_of_a_pending_narrow_chain():
    with DistributedContext(num_partitions=4) as context:
        placed = HashPartitioner(4)
        merged = _narrow_chain_merged(context, placed)
        assert not merged.is_materialized
        assert merged.partitioner == placed
        waves = _record_waves(context)
        fused = merged.collect()
        assert waves == ["zipped_chain (read)"]
        assert context.metrics.shuffles_eliminated == 2
    with DistributedContext(num_partitions=4, plan_optimize=False) as context:
        assert sorted(_narrow_chain_merged(context, None).collect()) == sorted(fused)


# ---------------------------------------------------------------------------
# A broadcast probe inside its consumer's task
# ---------------------------------------------------------------------------


def _two_consumers(context):
    left = context.parallelize([(i % 10, float(i)) for i in range(50)])
    right = context.parallelize([(key, 2.0 * key) for key in range(0, 10, 2)])
    joined = left.join(right)
    products = joined.map_values(lambda pair: pair[0] * pair[1])
    totals = products.reduce_by_key(operator.add)
    return totals.collect(), joined.map(lambda record: record[1][0]).collect()


def test_a_pending_join_two_consumers_read_builds_its_table_once():
    with DistributedContext(num_partitions=4, plan_optimize=False) as context:
        expected = _two_consumers(context)
    with DistributedContext(num_partitions=4) as context:
        waves = _record_waves(context)
        assert _two_consumers(context) == expected
        assert context.metrics.join_strategies == {"broadcast": 1}
        assert context.metrics.broadcasts == 1
    assert [wave for wave in waves if wave.startswith("probe")] == [
        "probe→map_values→shuffle_write",
        "probe→map (read)",
    ]


# ---------------------------------------------------------------------------
# The sampler and an upstream failure
# ---------------------------------------------------------------------------


def _boom(left, right):
    raise ValueError("boom from the user's reduce function")


def _failing_upstream(context):
    upstream = context.parallelize([(i % 50, i) for i in range(200)]).reduce_by_key(_boom)
    rekeyed = upstream.map(lambda record: (record[0] % 2, record[1]))
    waves = _record_waves(context)
    with pytest.raises((ValueError, ExecutionError), match="boom from the user's reduce function"):
        rekeyed.reduce_by_key(operator.add).collect()
    return waves


def test_an_upstream_failure_under_the_sampler_runs_once():
    with DistributedContext(num_partitions=4) as context:
        assert _failing_upstream(context) == ["shuffle_write", "reduce_bucket"]


@cluster_only
def test_an_upstream_failure_under_the_sampler_runs_once_on_the_cluster():
    with ClusterContext(cluster_workers=2, num_partitions=4) as context:
        assert _failing_upstream(context) == ["shuffle_write", "reduce_bucket"]
