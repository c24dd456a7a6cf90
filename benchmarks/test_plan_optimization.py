"""Plan-optimization benchmarks: loop-invariant caching on iterative loops.

The Figure 3.J/3.K panels measure a *single* step (as the paper does), so the
while-loop wins of the planner -- loop-invariant inputs shuffled exactly
once, iterations 2+ shuffling only the mutated side -- do not show up there.
This module runs PageRank for several steps and asserts the shape of the
per-iteration structural metrics, so CI fails if the planner stops
eliminating.
"""

from __future__ import annotations

from benchmarks.conftest import compiled_program
from repro.evaluation.harness import diablo_for
from repro.programs import get_program
from repro.runtime.context import DistributedContext
from repro.workloads import workload_for_program

PAGERANK_SIZE = 50
NUM_STEPS = 4


def test_pagerank_multistep_iteration_shuffles_drop():
    """Iterations 2+ shuffle strictly less than iteration 1 (the invariant
    edge/degree sides are served from the loop cache)."""
    inputs = workload_for_program("pagerank", PAGERANK_SIZE)
    inputs["num_steps"] = NUM_STEPS
    compiled, context = compiled_program("pagerank")
    result = compiled.run(**inputs)

    iterations = result.iteration_metrics
    assert len(iterations) == NUM_STEPS
    first, rest = iterations[0], iterations[1:]
    for entry in rest:
        assert entry["shuffled_bytes"] < first["shuffled_bytes"]
        assert entry["shuffles"] < first["shuffles"]
        assert entry["loop_invariant_reuses"] >= 1
    # Three placements across the whole run, each exactly once: the
    # invariant merge side, and the program-level placements of C and of P's
    # initial ranks (both assigned straight from a range into a fresh array,
    # so they arrive unplaced).
    assert context.metrics.shuffle_operations.get("partitionBy") == 3


def test_pagerank_multistep_planner_off_baseline():
    """The same multi-step run with the planner off: every iteration pays the
    full shuffle bill."""
    inputs = workload_for_program("pagerank", PAGERANK_SIZE)
    inputs["num_steps"] = NUM_STEPS
    spec = get_program("pagerank")
    context = DistributedContext(num_partitions=4, plan_optimize=False)
    diablo = diablo_for(spec, context)
    compiled = diablo.compile(spec.source)
    result = compiled.run(**inputs)

    iterations = result.iteration_metrics
    # Without the planner every iteration shuffles the same (full) volume.
    assert len({entry["shuffled_bytes"] for entry in iterations}) == 1
    assert context.metrics.loop_invariant_reuses == 0
