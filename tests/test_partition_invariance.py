"""Partition-count invariance of the translated Figure 3 programs.

A translated plan must give the interpreter's answer however the runtime
splits its inputs: with everything in one partition (every shuffle is a
local regroup, every combiner sees all keys), with a prime count (hash
buckets that do not divide the key space evenly) and with far more
partitions than keys (most map and reduce tasks see empty input).  The
differential suites in ``test_executor_equivalence`` and ``test_columnar``
hold the count at four; this file sweeps it on the default executor, on the
record path, under the harshest spill budget and under columnar batches.
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
from repro.runtime.context import DistributedContext

#: One partition, a prime count, and many more partitions than most inputs
#: have keys (matrix_addition's 6x6 input fills at most a few of 32).
PARTITION_COUNTS = (1, 7, 32)

#: The spilled and columnar sweeps skip the many-empty-partitions case: it
#: adds nothing there that the record-path sweep does not already cover.
SMALL_PARTITION_COUNTS = (1, 7)


def run_at(
    name: str,
    num_partitions: int,
    spill_threshold_bytes: int | None = None,
    columnar: bool = False,
) -> tuple[dict, DistributedContext]:
    """One Figure 3 workload at ``num_partitions``; outputs and the context."""
    spec = get_program(name)
    with DistributedContext(
        num_partitions=num_partitions,
        spill_threshold_bytes=spill_threshold_bytes,
        columnar=columnar,
    ) as context:
        diablo = diablo_for(spec, context)
        result = diablo.compile(spec.source).run(**workload(name))
        return translated_outputs(name, result), context


@functools.lru_cache(maxsize=None)
def record_path_at(name: str, num_partitions: int) -> dict:
    """The record-at-a-time outputs at ``num_partitions``, once per pair."""
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


@pytest.mark.parametrize("num_partitions", SMALL_PARTITION_COUNTS)
@pytest.mark.parametrize("name", table2_program_names())
def test_every_figure3_workload_is_bit_identical_under_columnar_at_any_partition_count(
    name, num_partitions
):
    """Batch kernels reproduce the record path exactly, whatever the split."""
    columnar, _context = run_at(name, num_partitions, columnar=True)
    assert columnar == record_path_at(name, num_partitions), (
        f"{name} at {num_partitions} partitions: columnar results differ from the record path"
    )
