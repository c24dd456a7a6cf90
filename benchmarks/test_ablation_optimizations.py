"""Ablation: the Section 3.6 / Section 4 comprehension optimizations.

Not a paper figure, but DESIGN.md calls these design choices out: loop-range
elimination (Section 3.6) removes the join between index ranges and arrays,
and the Rule 16/17 group-by eliminations turn per-key machinery into plain
aggregations.  The benchmark runs matrix multiplication and the vector-copy
kernel with the optimizer on and off; the assertions check the structural
effect (fewer rewrites means more work at run time).
"""

import pytest

from repro.evaluation.harness import diablo_for
from repro.programs import get_program
from repro.runtime.context import DistributedContext
from repro.workloads import skewed_workload_for_program, workload_for_program

MATMUL_SIZE = 8
VECTOR_SOURCE = "for i = 0, 499 do V[i] += W[i];"
SKEWED_GROUP_SIZE = 8_000
PAGERANK_SIZE = 40
PAGERANK_STEPS = 4


@pytest.mark.parametrize("optimized", [True, False], ids=["optimized", "unoptimized"])
def test_matrix_multiplication_with_and_without_optimizations(benchmark, optimized):
    spec = get_program("matrix_multiplication")
    inputs = workload_for_program("matrix_multiplication", MATMUL_SIZE)
    diablo = diablo_for(spec, DistributedContext(num_partitions=4), optimize=optimized)
    compiled = diablo.compile(spec.source)
    if optimized:
        assert diablo.compiler.optimize
    benchmark.pedantic(lambda: compiled.run(**inputs), rounds=2, iterations=1)
    benchmark.extra_info["optimized"] = optimized


@pytest.mark.parametrize("optimized", [True, False], ids=["optimized", "unoptimized"])
def test_vector_increment_with_and_without_group_by_elimination(benchmark, optimized):
    diablo = diablo_for(get_program("sum"), DistributedContext(num_partitions=4), optimize=optimized)
    compiled = diablo.compile(VECTOR_SOURCE)
    stats = compiled.translation.optimizer_stats
    if optimized:
        assert stats.unique_key_group_bys_removed >= 1
    else:
        assert stats.total() == 0
    inputs = {"V": {}, "W": {i: float(i) for i in range(500)}}
    result = benchmark.pedantic(lambda: compiled.run(**inputs), rounds=2, iterations=1)
    assert result.array("V")[499] == 499.0
    benchmark.extra_info["optimized"] = optimized


@pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive", "no-adaptive"])
def test_skewed_group_by_with_and_without_adaptive(benchmark, adaptive):
    """PR 7 ablation: the adaptive skew layer on the Zipf Group By workload.

    ``C[v.K] += v.A`` is a reduceByKey, so adaptive execution salts the Zipf
    head keys; with the knob off the counters must stay at zero.
    """
    spec = get_program("group_by")
    inputs = skewed_workload_for_program("group_by", SKEWED_GROUP_SIZE)
    context = DistributedContext(num_partitions=4, adaptive=adaptive)
    compiled = diablo_for(spec, context).compile(spec.source)
    benchmark.pedantic(lambda: compiled.run(**inputs), rounds=2, iterations=1)
    if adaptive:
        assert context.metrics.adaptive_decisions >= 1
    else:
        assert context.metrics.adaptive_decisions == 0
        assert context.metrics.salted_keys == 0
    benchmark.extra_info["adaptive"] = adaptive


def test_pagerank_multistep_reuses_stored_plans(benchmark):
    """Every comprehension plan is built on its first evaluation and kept
    with the program: later iterations and runs only bind and lower it."""
    spec = get_program("pagerank")
    inputs = workload_for_program("pagerank", PAGERANK_SIZE)
    inputs["num_steps"] = PAGERANK_STEPS
    context = DistributedContext(num_partitions=4)
    compiled = diablo_for(spec, context).compile(spec.source)
    benchmark.pedantic(lambda: compiled.run(**inputs), rounds=2, iterations=1)
    assert context.metrics.plan_cache_hits > 0
    benchmark.extra_info["stored_plans"] = len(compiled.translation.target.plans)
