"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures at laptop
scale.  Wall-clock numbers are machine dependent; the assertions attached to
the benchmarks check the *shapes* the paper reports (who wins, where the
generated plans shuffle more) using the runtime's structural metrics.
The suite writes no results file; performance is measured and gated by
``python3 -m bench`` (see ``bench/README.md``).
"""

from __future__ import annotations

import os

import pytest

from repro.baselines import get_baseline
from repro.evaluation.harness import diablo_for
from repro.programs import get_program
from repro.runtime.cluster import ClusterContext
from repro.runtime.context import DistributedContext
from repro.workloads import workload_for_program

#: Worker count for cluster-mode benchmark contexts.
CLUSTER_BENCH_WORKERS = max(1, int(os.environ.get("DIABLO_CLUSTER_WORKERS", "2")))


def make_context(executor: str, num_partitions: int = 4) -> DistributedContext:
    """A context for one executor-comparison cell, cluster mode included."""
    if executor == "cluster":
        return ClusterContext(num_partitions=num_partitions, cluster_workers=CLUSTER_BENCH_WORKERS)
    return DistributedContext(num_partitions=num_partitions)


#: Multiplies every benchmark input size; per-PR CI runs at 1, the nightly
#: workflow sets BENCH_SIZE_SCALE=4 for the sizes too slow to gate on.
BENCH_SIZE_SCALE = max(1, int(os.environ.get("BENCH_SIZE_SCALE", "1")))

#: Input sizes per Figure 3 panel, kept small so the whole suite runs quickly.
FIGURE3_BENCH_SIZES: dict[str, list[int]] = {
    name: [size * BENCH_SIZE_SCALE for size in sizes]
    for name, sizes in {
        "conditional_sum": [2_000, 8_000],
        "equal": [2_000, 8_000],
        "string_match": [2_000, 8_000],
        "word_count": [1_000, 4_000],
        "histogram": [1_000, 3_000],
        "linear_regression": [1_000, 4_000],
        "group_by": [1_000, 4_000],
        "matrix_addition": [16, 32],
        "matrix_multiplication": [8, 12],
        "pagerank": [50, 100],
        "kmeans": [150, 300],
        "matrix_factorization": [8, 14],
    }.items()
}


def compiled_program(name: str):
    """A compiled DIABLO program plus its configured runner context."""
    spec = get_program(name)
    context = DistributedContext(num_partitions=4)
    diablo = diablo_for(spec, context)
    return diablo.compile(spec.source), context


def run_diablo(name: str, size: int):
    """Run the translated program once; returns (result, context)."""
    inputs = workload_for_program(name, size)
    compiled, context = compiled_program(name)
    return compiled.run(**inputs), context


def run_handwritten(name: str, size: int):
    """Run the hand-written baseline once; returns (result, context)."""
    inputs = workload_for_program(name, size)
    context = DistributedContext(num_partitions=4)
    return get_baseline(name).distributed(context, inputs), context


def figure3_panel_benchmark(benchmark, name: str, size: int, system: str):
    """Benchmark one (panel, size, system) point of Figure 3."""
    inputs = workload_for_program(name, size)
    if system == "diablo":
        compiled, _ = compiled_program(name)
        call = lambda: compiled.run(**inputs)  # noqa: E731
    else:
        module = get_baseline(name)
        context = DistributedContext(num_partitions=4)
        call = lambda: module.distributed(context, inputs)  # noqa: E731
    benchmark.pedantic(call, rounds=2, iterations=1)
    benchmark.extra_info["program"] = name
    benchmark.extra_info["size"] = size
    benchmark.extra_info["system"] = system


@pytest.fixture
def small_sizes():
    return FIGURE3_BENCH_SIZES
