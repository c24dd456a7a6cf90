"""Cluster-mode benchmark panel.

Runs a shuffle-heavy subset of the Figure 3 workloads on a multi-process
:class:`ClusterContext` and asserts the driver-bypass guarantee held
(``driver_payload_bytes == 0``, no batch fell back to the driver) for the
timed runs.  The worker-to-worker transfer counters ride along in the
pytest-benchmark ``extra_info``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import CLUSTER_BENCH_WORKERS
from repro.evaluation.harness import diablo_for
from repro.programs import get_program
from repro.runtime.cluster import ClusterContext
from repro.workloads import workload_for_program

#: Shuffle-heavy subset; sizes match the executor-comparison panels so the
#: cluster rows are directly comparable to the in-process ``diablo`` rows.
CLUSTER_BENCH_SIZES = {
    "word_count": 2_000,
    "group_by": 2_000,
    "matrix_multiplication": 8,
    "pagerank": 60,
}


@pytest.fixture(scope="module")
def cluster_context():
    with ClusterContext(num_partitions=4, cluster_workers=CLUSTER_BENCH_WORKERS) as context:
        yield context


@pytest.mark.parametrize("name", sorted(CLUSTER_BENCH_SIZES))
def test_cluster_executor_panel(benchmark, name, cluster_context):
    """One (workload, cluster) point: translated plan on live worker processes."""
    size = CLUSTER_BENCH_SIZES[name]
    spec = get_program(name)
    inputs = workload_for_program(name, size)
    compiled = diablo_for(spec, cluster_context).compile(spec.source)

    def one_round():
        # Reset per round so the counters below describe a single run.
        cluster_context.metrics.reset()
        return compiled.run(**inputs)

    benchmark.pedantic(one_round, rounds=2, iterations=1)
    metrics = cluster_context.metrics
    assert metrics.cluster_fallbacks == 0, f"{name}: task batches fell back to the driver"
    assert metrics.driver_payload_bytes == 0, f"{name}: payload bytes transited the driver"
    benchmark.extra_info["program"] = name
    benchmark.extra_info["size"] = size
    benchmark.extra_info["system"] = "cluster"
    benchmark.extra_info["cluster_workers"] = CLUSTER_BENCH_WORKERS
    benchmark.extra_info["worker_payload_fetches"] = metrics.worker_payload_fetches
    benchmark.extra_info["worker_payload_bytes"] = metrics.worker_payload_bytes
    benchmark.extra_info["worker_payload_local_reads"] = metrics.worker_payload_local_reads
