"""The cluster-mode differential oracle: every Figure 3 workload, bit-identical.

Each configuration (spill threshold 1 and default, adaptive on and off) gets
one shared multi-worker :class:`ClusterContext`; every Figure 3 program runs under it
and must produce

* the same outputs as the sequential loop-language interpreter (the
  correctness oracle, via ``assert_same_outputs``), and
* **bit-identical** outputs to the translated plan under the sequential
  executor with the same spill/adaptive settings (``==`` on the raw output
  dicts -- no tolerance).

Alongside correctness, the acceptance criterion of the cluster backend is
asserted per program: shuffle payloads move worker-to-worker (fetches or
local reads happen whenever the program shuffles) and **zero** payload bytes
pass through the driver.

Gated behind ``DIABLO_CLUSTER_TESTS=1`` (the CI ``cluster-equivalence`` job;
a plain ``pytest tests`` run skips it) because it spawns worker subprocesses
per configuration.  ``DIABLO_CLUSTER_WORKERS`` sets the cluster size
(default 3) and ``BENCH_SIZE_SCALE`` scales the workload sizes (the nightly
stress job uses 4 workers at 4x data with spill threshold 1).
"""

from __future__ import annotations

import functools
import gc
import os

import pytest

from test_cluster_runtime import _registered_tasks, _resident
from test_executor_equivalence import GENERATED_PROGRAMS, _Outputs, assert_folding_consumer
from test_soundness_programs import assert_same_outputs

from repro.evaluation.harness import diablo_for, translated_outputs
from repro.programs import get_program, table2_program_names
from repro.programs.sources import PROGRAMS
from repro.runtime.cluster import ClusterContext
from repro.runtime.cluster import context as context_mod
from repro.runtime.context import DistributedContext
from repro.workloads import workload_for_program

pytestmark = pytest.mark.skipif(
    os.environ.get("DIABLO_CLUSTER_TESTS") != "1",
    reason="cluster differential suite is opt-in: set DIABLO_CLUSTER_TESTS=1",
)

_SCALE = int(os.environ.get("BENCH_SIZE_SCALE", "1"))
_WORKERS = int(os.environ.get("DIABLO_CLUSTER_WORKERS", "3"))

#: Base sizes small enough for the tree-walking interpreter oracle.
SIZES = {
    "conditional_sum": 300,
    "equal": 200,
    "string_match": 200,
    "word_count": 400,
    "histogram": 200,
    "linear_regression": 200,
    "group_by": 300,
    "matrix_addition": 6,
    "matrix_multiplication": 5,
    "pagerank": 40,
    "kmeans": 220,
    "matrix_factorization": 6,
}

#: The six programs outside Figure 3, for the whole-suite leak check.
SUITE_SIZES = {
    **SIZES,
    "average": 300,
    "count": 300,
    "sum": 300,
    "conditional_count": 300,
    "equal_frequency": 300,
    "pca": 40,
}

#: (spill_threshold_bytes, adaptive) -- the full differential grid.
CONFIGS = [
    (None, True),
    (None, False),
    (1, True),
    (1, False),
]


def _size(name: str) -> int:
    return SIZES[name] * _SCALE


def workload(name: str) -> dict:
    return workload_for_program(name, _size(name))


@functools.lru_cache(maxsize=None)
def interpreter_outputs(name: str) -> dict:
    spec = get_program(name)
    return diablo_for(spec).interpret(spec.source, dict(workload(name)))


@functools.lru_cache(maxsize=None)
def sequential_outputs(name: str, spill: int | None, adaptive: bool) -> dict:
    """The translated plan under the sequential executor (bitwise reference)."""
    spec = get_program(name)
    with DistributedContext(
        num_partitions=4, spill_threshold_bytes=spill, adaptive=adaptive
    ) as context:
        result = diablo_for(spec, context).compile(spec.source).run(**workload(name))
        return translated_outputs(name, result)


@pytest.fixture(
    scope="module",
    params=CONFIGS,
    ids=lambda c: f"spill={c[0]}-adaptive={c[1]}",
)
def cluster(request):
    spill, adaptive = request.param
    context = ClusterContext(
        num_partitions=4,
        cluster_workers=_WORKERS,
        spill_threshold_bytes=spill,
        adaptive=adaptive,
    )
    context._equivalence_config = (spill, adaptive)
    yield context
    context.shutdown()


def assert_iterations_push_no_records(cluster):
    """A ``while`` iteration works on task outputs, which are resident: what
    it pushes in ``("records", ...)`` specs is bounded by what the driver read
    to build that iteration's broadcast tables -- never the edge list again.
    Per iteration = the difference between a 1-step and a 3-step run."""
    spec = get_program("pagerank")
    compiled = diablo_for(spec, cluster).compile(spec.source)
    traffic = {}
    for steps in (1, 3):
        before = cluster.metrics.snapshot()
        compiled.run(**{**workload("pagerank"), "num_steps": steps})
        after = cluster.metrics.snapshot()
        traffic[steps] = {
            counter: after[counter] - before[counter]
            for counter in ("driver_pushed_bytes", "driver_fetched_bytes")
        }
    pushed = (traffic[3]["driver_pushed_bytes"] - traffic[1]["driver_pushed_bytes"]) / 2
    built = (traffic[3]["driver_fetched_bytes"] - traffic[1]["driver_fetched_bytes"]) / 2
    assert traffic[1]["driver_pushed_bytes"] > 0, "the inputs are pushed once per run"
    assert built > 0, "each iteration's build sides come through the driver"
    assert pushed <= built, f"{pushed} record bytes pushed per iteration, {built} read"


@pytest.mark.parametrize("name", table2_program_names())
def test_cluster_matches_interpreter_and_sequential(name, cluster):
    spec = get_program(name)
    before = cluster.metrics.snapshot()
    result = diablo_for(spec, cluster).compile(spec.source).run(**workload(name))
    outputs = translated_outputs(name, result)
    after = cluster.metrics.snapshot()

    # Correctness: interpreter oracle (tolerant) and sequential translated
    # run (bit-identical).
    assert_same_outputs(spec, _Outputs(outputs), interpreter_outputs(name))
    spill, adaptive = cluster._equivalence_config
    assert outputs == sequential_outputs(name, spill, adaptive), (
        f"{name}: cluster outputs are not bit-identical to the sequential executor"
    )

    # Acceptance criteria: reduce inputs never transit the driver, and any
    # shuffling program actually moved its payloads between workers.
    assert after["driver_payload_bytes"] == before["driver_payload_bytes"] == 0, (
        f"{name}: shuffle payload bytes passed through the driver"
    )
    assert after["cluster_fallbacks"] == before["cluster_fallbacks"], (
        f"{name}: some task batches fell back to the driver"
    )
    if name in GENERATED_PROGRAMS:
        # ... so the generated row segments shipped by value and ran on the
        # workers (there is no other path for these plans' narrow chains).
        assert after["generated_segments"] > before["generated_segments"], (
            f"{name}: no generated row segment in the cluster run"
        )
        # ... and the join stages carried their folding consumers with them.
        assert_folding_consumer(name, result.trace)
    if name == "pagerank":
        assert_iterations_push_no_records(cluster)
    if after["shuffles"] > before["shuffles"]:
        moved = (after["worker_payload_fetches"] + after["worker_payload_local_reads"]) - (
            before["worker_payload_fetches"] + before["worker_payload_local_reads"]
        )
        assert moved > 0, f"{name}: shuffled but no worker read any payload"


#: The programs whose unoptimized plans aggregate a group's values or build a
#: singleton bag inside a generated segment: generated code (no evaluator
#: inside) that must run on the workers like any other segment.
UNOPTIMIZED = [
    "conditional_sum",
    "equal",
    "string_match",
    "linear_regression",
    "average",
    "count",
    "sum",
    "conditional_count",
    "equal_frequency",
]


@pytest.fixture(scope="module")
def default_cluster():
    with ClusterContext(num_partitions=4, cluster_workers=_WORKERS) as context:
        yield context


@pytest.mark.parametrize("name", UNOPTIMIZED)
def test_unoptimized_plans_match_on_the_cluster(name, default_cluster):
    spec = get_program(name)
    inputs = workload_for_program(name, SUITE_SIZES[name] * _SCALE)
    before = default_cluster.metrics.snapshot()
    program = diablo_for(spec, default_cluster, optimize=False).compile(spec.source)
    outputs = translated_outputs(name, program.run(**inputs))
    after = default_cluster.metrics.snapshot()
    with DistributedContext(num_partitions=4) as context:
        result = diablo_for(spec, context, optimize=False).compile(spec.source).run(**inputs)
        assert outputs == translated_outputs(name, result), f"{name}: not bit-identical"
    assert_same_outputs(spec, _Outputs(outputs), diablo_for(spec).interpret(spec.source, dict(inputs)))
    assert after["cluster_fallbacks"] == before["cluster_fallbacks"], f"{name}: fell back to the driver"
    assert after["generated_segments"] > before["generated_segments"]


def test_program_suite_leaves_nothing_resident():
    """Leak check over the real programs: all 18 on one long-lived context;
    once the last outputs are dropped the workers hold no captured payload,
    no partition but the driver lists the push cache still vouches for, and
    no more task specs than the registry's cap."""
    with ClusterContext(num_partitions=4, cluster_workers=_WORKERS) as context:
        for name in PROGRAMS:
            spec = get_program(name)
            inputs = workload_for_program(name, SUITE_SIZES[name] * _SCALE)
            result = diablo_for(spec, context).compile(spec.source).run(**inputs)
            assert translated_outputs(name, result)
        del result, inputs
        gc.collect()
        # One more wave per worker: the queued frees ride in it.
        assert context.parallelize(range(8)).map(str).collect()
        pinned = sum(len(held) for _, held in context._push_cache._entries.values())
        assert _resident(context) == (pinned, 0)
        assert context.metrics.cluster_fallbacks == 0
        assert max(_registered_tasks(context)) <= context_mod._TASK_CACHE_CAPACITY
