"""Columnar vectorized execution: batch kernels vs. the record path.

Runs numeric Figure 3 workloads twice on identical inputs -- with the default
record-at-a-time engine and with ``columnar=True``.  The result assertion is
the columnar contract: every vectorized run must be bit-identical to the
record path, with the batch kernels demonstrably engaged wherever the whole
narrow chain lowers to them.

The coverage panel additionally runs *every* Figure 3 program once under
``columnar=True`` and checks it against the record path.
"""

import pytest

from benchmarks.conftest import BENCH_SIZE_SCALE, FIGURE3_BENCH_SIZES
from repro.evaluation.harness import diablo_for, translated_outputs
from repro.programs import get_program
from repro.runtime.context import DistributedContext
from repro.workloads import workload_for_program

#: Numeric workloads whose narrow chains lower to batch kernels; sizes are
#: larger than the Figure 3 panels so the per-partition batches are wide.
COLUMNAR_SIZES = {
    "conditional_sum": 40_000 * BENCH_SIZE_SCALE,
    "histogram": 20_000 * BENCH_SIZE_SCALE,
    "group_by": 20_000 * BENCH_SIZE_SCALE,
    "word_count": 20_000 * BENCH_SIZE_SCALE,
}

#: Workloads whose whole narrow chain lowers to kernels, so ``columnar=True``
#: batches it.  On the others the chain is a generated loop that folds by key
#: itself: there is no separate map-side combiner left for a grouped-fold
#: kernel to replace.
KERNEL_WORKLOADS = {"conditional_sum", "word_count"}


def _run_once(name: str, size: int, columnar: bool):
    spec = get_program(name)
    inputs = workload_for_program(name, size)
    with DistributedContext(num_partitions=4, columnar=columnar) as context:
        compiled = diablo_for(spec, context).compile(spec.source)
        compiled.run(**inputs)  # warm-up: the checked run reuses warm batch caches
        context.metrics.reset()
        result = compiled.run(**inputs)
        return translated_outputs(name, result), context.metrics.vectorized_stages


@pytest.mark.parametrize("name", sorted(COLUMNAR_SIZES))
def test_columnar_matches_record_path_and_engages(name):
    size = COLUMNAR_SIZES[name]
    record_outputs, record_vectorized = _run_once(name, size, columnar=False)
    columnar_outputs, columnar_vectorized = _run_once(name, size, columnar=True)
    assert record_vectorized == 0, "columnar=False must never vectorize"
    assert (columnar_vectorized > 0) == (name in KERNEL_WORKLOADS), (
        f"{name}: columnar=True vectorized {columnar_vectorized} stage(s)"
    )
    assert columnar_outputs == record_outputs, f"{name}: columnar diverged"


@pytest.mark.parametrize("name", sorted(FIGURE3_BENCH_SIZES))
def test_columnar_coverage_panel(name):
    """One ``columnar=True`` run per Figure 3 panel, checked against the record path."""
    size = FIGURE3_BENCH_SIZES[name][0]
    spec = get_program(name)
    inputs = workload_for_program(name, size)
    with DistributedContext(num_partitions=4, columnar=True) as context:
        compiled = diablo_for(spec, context).compile(spec.source)
        outputs = translated_outputs(name, compiled.run(**inputs))
    with DistributedContext(num_partitions=4, columnar=False) as context:
        compiled = diablo_for(spec, context).compile(spec.source)
        reference = translated_outputs(name, compiled.run(**inputs))
    assert outputs == reference, f"{name}: columnar=True diverged from the record path"
