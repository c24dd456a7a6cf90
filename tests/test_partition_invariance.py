"""Partition-count invariance of the translated Figure 3 programs.

A translated plan must give the interpreter's answer however the runtime
splits its inputs: with everything in one partition (every shuffle is a
local regroup, every combiner sees all keys), with a prime count (hash
buckets that do not divide the key space evenly) and with far more
partitions than keys (most map and reduce tasks see empty input).  The
differential suites in ``test_executor_equivalence`` hold the count at
four; this file sweeps it on the default executor, in memory and under the
harshest spill budget, and on the cluster executor.
"""

from __future__ import annotations

import functools

import pytest

from test_executor_equivalence import (
    SPILLING_PROGRAMS,
    TINY_SPILL,
    _Outputs,
    interpreter_outputs,
    workload,
)
from test_soundness_programs import assert_same_outputs

from repro.evaluation.harness import diablo_for, translated_outputs
from repro.programs import get_program, table2_program_names
from repro.runtime.cluster import ClusterContext
from repro.runtime.context import DistributedContext

#: One partition, a prime count, and many more partitions than most inputs
#: have keys (matrix_addition's 6x6 input fills at most a few of 32).
PARTITION_COUNTS = (1, 7, 32)

#: The spilled and cluster sweeps skip the many-empty-partitions case: it
#: adds nothing there that the in-memory sweep does not already cover.
SMALL_PARTITION_COUNTS = (1, 7)


def run_at(
    name: str,
    num_partitions: int,
    spill_threshold_bytes: int | None = None,
) -> tuple[dict, DistributedContext]:
    """One Figure 3 workload at ``num_partitions``; outputs and the context."""
    spec = get_program(name)
    with DistributedContext(
        num_partitions=num_partitions, spill_threshold_bytes=spill_threshold_bytes
    ) as context:
        diablo = diablo_for(spec, context)
        result = diablo.compile(spec.source).run(**workload(name))
        return translated_outputs(name, result), context


@functools.lru_cache(maxsize=None)
def record_path_at(name: str, num_partitions: int) -> dict:
    """The in-memory outputs at ``num_partitions``, once per pair."""
    outputs, _context = run_at(name, num_partitions)
    return outputs


@pytest.mark.parametrize("num_partitions", PARTITION_COUNTS)
@pytest.mark.parametrize("name", table2_program_names())
def test_every_figure3_workload_matches_interpreter_at_any_partition_count(name, num_partitions):
    translated = record_path_at(name, num_partitions)
    assert_same_outputs(get_program(name), _Outputs(translated), interpreter_outputs(name))


@pytest.mark.parametrize("num_partitions", SMALL_PARTITION_COUNTS)
@pytest.mark.parametrize("name", SPILLING_PROGRAMS)
def test_figure3_wide_workloads_spilled_match_in_memory_at_any_partition_count(
    name, num_partitions
):
    """Spilling every shuffled record changes nothing at any partition count."""
    spilled, context = run_at(name, num_partitions, spill_threshold_bytes=TINY_SPILL)
    if context.metrics.shuffles > 0:
        assert context.metrics.spilled_bytes > 0, f"{name}: shuffled but never spilled"
    assert spilled == record_path_at(name, num_partitions)


@pytest.fixture(scope="module", params=SMALL_PARTITION_COUNTS, ids=lambda count: f"p{count}")
def cluster(request):
    """One two-worker cluster per partition count, shared by every program."""
    context = ClusterContext(num_partitions=request.param, cluster_workers=2)
    yield context
    context.shutdown()


@pytest.mark.parametrize("name", table2_program_names())
def test_every_figure3_workload_on_the_cluster_is_bit_identical_at_any_partition_count(name, cluster):
    """Worker tasks reproduce the sequential executor exactly, whatever the split."""
    spec = get_program(name)
    result = diablo_for(spec, cluster).compile(spec.source).run(**workload(name))
    assert translated_outputs(name, result) == record_path_at(name, cluster.num_partitions), (
        f"{name} at {cluster.num_partitions} partitions: cluster results differ from the sequential executor"
    )
