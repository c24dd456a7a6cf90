"""Table 2: parallel (DISC runtime) vs sequential (interpreter) evaluation.

The paper compiles each loop program to parallel and sequential collections;
here the parallel column is the translated program on the local DISC runtime
and the sequential column is the reference loop interpreter (see DESIGN.md).

A third axis compares the runtime's executor modes (sequential / cluster) on a
CPU-heavy subset, exercising the fused-stage dispatch path of each executor
with identical plans.
"""

import pytest

from benchmarks.conftest import make_context
from repro.api.config import EXECUTOR_MODES
from repro.evaluation.harness import diablo_for
from repro.programs import get_program, table2_program_names
from repro.workloads import workload_for_program

#: Smaller sizes than the evaluation harness so the bench suite stays fast.
SIZES = {
    "conditional_sum": 4_000,
    "equal": 4_000,
    "string_match": 4_000,
    "word_count": 2_000,
    "histogram": 1_500,
    "linear_regression": 2_000,
    "group_by": 2_000,
    "matrix_addition": 16,
    "matrix_multiplication": 8,
    "pagerank": 60,
    "kmeans": 200,
    "matrix_factorization": 8,
}


@pytest.mark.parametrize("name", table2_program_names())
def test_parallel_translated_evaluation(benchmark, name):
    """The 'par' column: translated program on the DISC runtime."""
    spec = get_program(name)
    inputs = workload_for_program(name, SIZES[name])
    diablo = diablo_for(spec)
    compiled = diablo.compile(spec.source)
    benchmark.pedantic(lambda: compiled.run(**inputs), rounds=2, iterations=1)
    benchmark.extra_info["program"] = name
    benchmark.extra_info["mode"] = "parallel"


@pytest.mark.parametrize("name", table2_program_names())
def test_sequential_interpreter_evaluation(benchmark, name):
    """The 'seq' column: the original loop program, interpreted sequentially."""
    spec = get_program(name)
    inputs = workload_for_program(name, SIZES[name])
    diablo = diablo_for(spec)
    benchmark.pedantic(lambda: diablo.interpret(spec.source, dict(inputs)), rounds=2, iterations=1)
    benchmark.extra_info["program"] = name
    benchmark.extra_info["mode"] = "sequential"


#: CPU-heavy subset for the executor-mode comparison (kept small; the point
#: is exercising each executor's fused-stage and shuffle-stage execution
#: paths, not absolute numbers).  ``group_by`` and ``matrix_multiplication``
#: are the wide-stage workloads: their runtime is dominated by
#: groupBy/reduceByKey/join shuffles whose map and reduce sides now dispatch
#: through the executor.
EXECUTOR_COMPARISON_PROGRAMS = [
    "conditional_sum",
    "word_count",
    "group_by",
    "matrix_multiplication",
    "pagerank",
    "kmeans",
]


def _record_shuffle_metrics(benchmark, context):
    """Attach the shuffle/combiner metrics to the benchmark record so the CI
    smoke job can print them and regressions show up in logs."""
    metrics = context.metrics
    benchmark.extra_info["fused_stages"] = metrics.fused_stages
    benchmark.extra_info["shuffle_stages"] = metrics.shuffles
    benchmark.extra_info["shuffled_records"] = metrics.shuffled_records
    benchmark.extra_info["shuffled_bytes"] = metrics.shuffled_bytes
    benchmark.extra_info["shuffle_map_tasks"] = metrics.shuffle_map_tasks
    benchmark.extra_info["shuffle_reduce_tasks"] = metrics.shuffle_reduce_tasks
    benchmark.extra_info["combiner_hit_rate"] = round(metrics.combiner_hit_rate, 4)
    benchmark.extra_info["parallel_tasks"] = metrics.parallel_tasks
    benchmark.extra_info["join_strategies"] = dict(metrics.join_strategies)
    benchmark.extra_info["cluster_fallbacks"] = metrics.cluster_fallbacks
    benchmark.extra_info["driver_payload_bytes"] = metrics.driver_payload_bytes
    benchmark.extra_info["worker_payload_fetches"] = metrics.worker_payload_fetches
    benchmark.extra_info["worker_payload_local_reads"] = metrics.worker_payload_local_reads


@pytest.mark.parametrize("executor", EXECUTOR_MODES)
@pytest.mark.parametrize("name", EXECUTOR_COMPARISON_PROGRAMS)
def test_translated_evaluation_by_executor(benchmark, name, executor):
    """The same translated plan under each executor mode.

    ``"cluster"`` ships the closure-laden map sides to worker processes (the
    cluster wire pickles functions by value) and keeps shuffle payloads
    worker-to-worker; ``parallel_tasks`` records how many tasks crossed into
    a worker.
    """
    spec = get_program(name)
    inputs = workload_for_program(name, SIZES[name])
    with make_context(executor) as context:
        diablo = diablo_for(spec, context)
        compiled = diablo.compile(spec.source)
        benchmark.pedantic(lambda: compiled.run(**inputs), rounds=2, iterations=1)
        _record_shuffle_metrics(benchmark, context)
    benchmark.extra_info["program"] = name
    benchmark.extra_info["mode"] = "parallel"
    benchmark.extra_info["executor"] = executor


def _add(a, b):
    return a + b


@pytest.mark.parametrize("executor", EXECUTOR_MODES)
@pytest.mark.parametrize("name", ["group_by", "matrix_multiplication"])
def test_wide_stage_workloads_by_executor(benchmark, name, executor):
    """Hand-written wide-stage pipelines, so every executor runs the shuffle
    map/reduce sides itself."""
    from repro.baselines import get_baseline

    inputs = workload_for_program(name, SIZES[name])
    with make_context(executor) as context:
        module = get_baseline(name)
        benchmark.pedantic(lambda: module.distributed(context, inputs), rounds=2, iterations=1)
        _record_shuffle_metrics(benchmark, context)
        assert context.metrics.shuffles > 0, "wide-stage workload must shuffle"
    benchmark.extra_info["program"] = name
    benchmark.extra_info["mode"] = "baseline-wide"
    benchmark.extra_info["executor"] = executor


def _shift(value: float) -> float:
    return value + 1.0


def _positive(value: float) -> bool:
    return value > 0.0


def _bucket_pair(value: float) -> tuple[int, float]:
    return (int(value) % 64, value)


@pytest.mark.parametrize("executor", EXECUTOR_MODES)
def test_picklable_pipeline_by_executor(benchmark, executor):
    """A fused map→filter chain plus a reduceByKey shuffle of module-level
    functions: narrow map side, combiner, bucketing and the reduce side."""
    with make_context(executor) as context:
        records = [float(i - 25_000) for i in range(50_000)]

        def run_once():
            kept = context.parallelize(records).map(_shift).filter(_positive)
            return kept.map(_bucket_pair).reduce_by_key(_add).collect_as_map()

        benchmark.pedantic(run_once, rounds=2, iterations=1)
        _record_shuffle_metrics(benchmark, context)
    benchmark.extra_info["executor"] = executor
    benchmark.extra_info["mode"] = "picklable-pipeline"
