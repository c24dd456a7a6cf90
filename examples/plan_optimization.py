"""Partition-aware plan optimization: PageRank with loop-invariant caching.

Runs the Figure 3.J PageRank loop program for several steps and prints what
the partition-aware planner (PR 5) does to it:

* the while-loop's invariant variables (the edge list ``E``, the out-degree
  vector ``C``) are detected by the runner, and their derived join/merge
  sides are evaluated, materialized and hash-partitioned **once**;
* iterations 2+ reuse the cached sides (``loop_invariant_reuses``) and
  shuffle only the mutated rank data -- the per-iteration structural metrics
  show ``shuffled_bytes`` dropping after iteration 1 and staying flat;
* the cached edge side is placed by the vertex its consumer folds ranks
  by, so each iteration's reduceByKey runs per partition and the merges
  after it run in the same task;
* merges whose two sides end up co-partitioned run as narrow zip stages with
  zero ShuffleStages (``narrow_joins``), reported by ``explain_metrics``
  together with the reason for every eliminated shuffle.

The same program is then re-run with ``plan_optimize=False`` to show the
baseline the planner beats.  The ranks agree up to float rounding: the
placed fold sums each vertex's contributions in another order.

Usage::

    PYTHONPATH=src python examples/plan_optimization.py
"""

from __future__ import annotations

import math

from repro.algebra.explain import explain_metrics
from repro.evaluation.harness import diablo_for
from repro.programs import get_program
from repro.runtime.context import DistributedContext
from repro.workloads import workload_for_program

GRAPH_SIZE = 60
NUM_STEPS = 4


def run_pagerank(plan_optimize: bool):
    spec = get_program("pagerank")
    inputs = workload_for_program("pagerank", GRAPH_SIZE)
    inputs["num_steps"] = NUM_STEPS
    context = DistributedContext(num_partitions=4, plan_optimize=plan_optimize)
    with context:
        diablo = diablo_for(spec, context)
        result = diablo.compile(spec.source).run(**inputs)
        return result, context.metrics


def main() -> None:
    print(f"PageRank over a {GRAPH_SIZE}-node RMAT graph, {NUM_STEPS} steps\n")

    result, metrics = run_pagerank(plan_optimize=True)
    print("== per-iteration shuffle metrics (planner ON) ==")
    for entry in result.iteration_metrics:
        print(
            f"  iteration {entry['iteration']}: "
            f"{entry['shuffles']} shuffle(s), {entry['shuffled_bytes']} bytes, "
            f"{entry['loop_invariant_reuses']} loop-invariant reuse(s), "
            f"{entry['narrow_joins']} narrow join(s)"
        )
    first, second = result.iteration_metrics[0], result.iteration_metrics[1]
    assert second["shuffled_bytes"] < first["shuffled_bytes"], (
        "iteration 2+ must shuffle only the mutated side"
    )
    assert second["loop_invariant_reuses"] >= 1

    print("\n== explain_metrics report (planner ON) ==")
    for line in explain_metrics(metrics):
        print(f"  {line}")

    loop_lines = [line for line in result.trace if "loop-invariant" in line]
    print("\n== loop-invariant decisions from the run trace ==")
    for line in loop_lines[:6]:
        print(f"  {line}")

    baseline_result, baseline_metrics = run_pagerank(plan_optimize=False)
    print("\n== planner OFF (baseline) ==")
    print(
        f"  total: {baseline_metrics.shuffles} shuffle(s), "
        f"{baseline_metrics.shuffled_bytes} bytes shuffled"
    )
    print(
        f"  vs planner ON: {metrics.shuffles} shuffle(s), "
        f"{metrics.shuffled_bytes} bytes shuffled"
    )
    assert metrics.shuffled_bytes < baseline_metrics.shuffled_bytes
    ranks, baseline_ranks = result.array("P"), baseline_result.array("P")
    assert ranks.keys() == baseline_ranks.keys() and all(
        math.isclose(ranks[key], baseline_ranks[key], rel_tol=1e-12) for key in ranks
    ), "results must agree"
    print("\nresults agree with and without the planner ✓")


if __name__ == "__main__":
    main()
