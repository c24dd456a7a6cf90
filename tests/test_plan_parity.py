"""Plan parity: structural counters of every Figure-3 program, pinned.

Each program with a hand-written baseline runs once translated and once
hand-written, on the sequential executor with 4 partitions, at fixed small
sizes and seed 7.  Four counters describe the plan that ran: shuffles,
``shuffled_records``, ``records_processed`` and waves (calls to
``DistributedContext.run_tasks``).  They do not vary from run to run, so
unlike wall time they can pin a plan in seconds.

The test fails when any count rises.  A change that lowers one updates
``EXPECTED`` and says so in CHANGES.md.

The pins are of the in-memory plan, so ``DIABLO_SPILL_THRESHOLD_BYTES`` is
unset for this module.  A spilled shuffle moves and processes the same
records; it may only read its runs back in more waves, which the spill leg
checks against the in-memory run.
"""

from __future__ import annotations

import pytest

from repro.baselines import get_baseline
from repro.evaluation.harness import diablo_for
from repro.programs import figure3_program_names, get_program
from repro.runtime.context import DistributedContext
from repro.workloads import workload_for_program

SIZES = {
    "conditional_sum": 400,
    "equal": 400,
    "string_match": 400,
    "word_count": 400,
    "histogram": 300,
    "linear_regression": 300,
    "group_by": 300,
    "matrix_addition": 8,
    "matrix_multiplication": 6,
    "pagerank": 40,
    "kmeans": 120,
    "matrix_factorization": 6,
}

COUNTERS = ("shuffles", "shuffled_records", "records_processed", "waves")

#: (translated, hand-written) counts, in ``COUNTERS`` order.
EXPECTED = {
    "conditional_sum": ((0, 0, 400, 1), (0, 0, 400, 1)),
    "equal": ((0, 0, 400, 1), (0, 0, 400, 1)),
    "string_match": ((0, 0, 400, 1), (0, 0, 400, 1)),
    "word_count": ((1, 149, 149, 2), (1, 149, 400, 2)),
    "histogram": ((3, 782, 782, 6), (3, 782, 900, 6)),
    "linear_regression": ((0, 0, 600, 2), (0, 0, 1200, 4)),
    "group_by": ((1, 109, 109, 2), (1, 109, 300, 2)),
    "matrix_addition": ((0, 0, 192, 3), (0, 0, 64, 1)),
    "matrix_multiplication": ((2, 84, 198, 8), (1, 48, 288, 4)),
    "pagerank": ((5, 563, 1283, 15), (7, 610, 2000, 20)),
    "kmeans": ((4, 454, 914, 11), (1, 114, 220, 3)),
    "matrix_factorization": ((6, 131, 359, 28), (5, 93, 246, 20)),
}


def _inputs(name):
    inputs = workload_for_program(name, SIZES[name], seed=7)
    if name == "pagerank":
        inputs["num_steps"] = 3
    return inputs


@pytest.fixture(autouse=True)
def _in_memory_by_default(monkeypatch):
    monkeypatch.delenv("DIABLO_SPILL_THRESHOLD_BYTES", raising=False)


def _counts(run, **options) -> tuple[int, ...]:
    with DistributedContext(num_partitions=4, **options) as context:
        waves = 0
        run_tasks = context.run_tasks

        def counted(*args, **kwargs):
            nonlocal waves
            waves += 1
            return run_tasks(*args, **kwargs)

        context.run_tasks = counted
        run(context)
        metrics = context.metrics
        return (metrics.shuffles, metrics.shuffled_records, metrics.records_processed, waves)


def _translated(name, **options):
    spec = get_program(name)
    inputs = _inputs(name)

    def run(context):
        compiled = diablo_for(spec, context).compile(spec.source)
        context.metrics.reset()
        compiled.run(**inputs)

    return _counts(run, **options)


def _handwritten(name, **options):
    inputs = _inputs(name)
    return _counts(lambda context: get_baseline(name).distributed(context, inputs), **options)


def _risen(actual, expected):
    return [
        f"{counter} {was} -> {now}"
        for counter, now, was in zip(COUNTERS, actual, expected, strict=True)
        if now > was
    ]


def test_the_table_covers_every_figure3_program():
    assert sorted(EXPECTED) == sorted(figure3_program_names())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_translated_counts_do_not_rise(name):
    expected, _ = EXPECTED[name]
    assert _risen(_translated(name), expected) == []


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_handwritten_counts_do_not_rise(name):
    _, expected = EXPECTED[name]
    assert _risen(_handwritten(name), expected) == []


@pytest.mark.parametrize("plan", [_translated, _handwritten], ids=["translated", "hand-written"])
@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_spilling_moves_and_processes_the_same_records(name, plan):
    *moved, waves = plan(name)
    *spilled_moved, spilled_waves = plan(name, spill_threshold_bytes=1)
    assert spilled_moved == moved
    assert spilled_waves >= waves
