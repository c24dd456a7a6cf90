"""A loop-invariant join side placed by the key its consumer folds by.

When a ``while`` loop's hash join has a loop-invariant left side (cached
once per loop), a right side scanning an array small enough to broadcast
and no larger than the side, and a consumer folding by a variable of the
cached side other than its join key, the planner places the cached side by
that variable in the wave that materializes it (``Dataset.place_by_slot``).
Each iteration's broadcast probe then leaves the consumer's records placed
by their key, so the reduceByKey after the join runs per partition and the
merges after it run in the same task: PageRank's iterations move nothing.
These tests hold the rule to:

* firing on PageRank and on a hand rank update, and naming itself in the
  trace and in ``explain``;
* not firing at threshold 0, under ``plan_optimize=False``, when the loop
  assigns the side's inputs, or when the fold key is the join key's
  variable or no variable of the cached side (the join node cannot see
  that another variable equals its key: ``R[i] += …`` over ``M[i,j]``
  folds by M's ``i``, equal to the join key, and is placed by it);
* a partner that grows past the broadcast threshold mid-loop: the join then
  broadcasts the cached side, nothing claims the placement, and the outputs
  still equal the interpreter's;
* a side above the threshold keeping its join-key placement, so a partner
  that grows past the threshold still joins it without a shuffle;
* no dataset claiming a partitioner its records are not placed by;
* the program-level placement pass placing no input that no consumer can
  use it for (pca's matrix ``X``);
* with ``DIABLO_CLUSTER_TESTS=1``, a cluster running PageRank's placed side
  bit-identically to the sequential executor, its shuffles never through
  the driver.
"""

from __future__ import annotations

import os
import re
from types import SimpleNamespace

import pytest
from test_soundness_programs import values_match

from repro import Diablo
from repro.algebra import codegen
from repro.algebra.explain import explain_plan
from repro.algebra.planner import _fold_slot, _Pushdown
from repro.comprehension import ir
from repro.evaluation.harness import diablo_for, translated_outputs
from repro.programs import PROGRAMS, get_program
from repro.runtime.cluster import ClusterContext
from repro.runtime.context import DistributedContext
from repro.runtime.dataset import Dataset
from repro.runtime.partitioner import HashPartitioner, SlotPartitioner
from repro.workloads import workload_for_program

N = 8
INPUTS = {
    "V": {i: 0.5 + i for i in range(N)},
    "W": {i: 1.0 / (i + 1) for i in range(N)},
    "M": {(i, j): float((3 * i + j) % 4) for i in range(N) for j in range(N)},
    "n": N,
}

#: PageRank's loop body on other arrays: ``M ⋈ W`` is cached, joined with R
#: on ``i`` and folded by ``j``.  ``{weight}`` and ``{extra}`` make the
#: variants.
RANK_UPDATE = """
var R: vector[double] = vector();
var U: vector[double] = vector();
var k: int = 0;
for i = 0, n-1 do R[i] := 1.0;
for i = 0, n-1 do U[i] := W[i];
while (k < 3) {{
  var T: vector[double] = vector();
  k += 1;
  for i = 0, n-1 do T[i] := V[i] * R[i];
  for i = 0, n-1 do R[i] := 0.5;
  for i = 0, n-1 do
    for j = 0, n-1 do
      if (M[i,j] > 1.0)
        R[j] += T[i] * {weight}[i];
  {extra}
}};
"""

PLACED = re.compile(r"loop-invariant join side cached \(placed by (\S+), the key its consumer folds by\)")


def _rank_update(weight="W", extra="", threshold=100_000, plan_optimize=True):
    """The trace, R and the interpreter's R of one variant."""
    source = RANK_UPDATE.format(weight=weight, extra=extra)
    with DistributedContext(
        num_partitions=4, broadcast_join_threshold=threshold, plan_optimize=plan_optimize
    ) as context:
        diablo = Diablo(context, outputs=("R",))
        result = diablo.compile(source).run(**INPUTS)
        oracle = diablo.interpret(source, dict(INPUTS))["R"]
        return result.trace, result.array("R"), oracle, context.metrics


def _assert_equal(translated, oracle):
    assert set(translated) == set(oracle)
    assert all(values_match(translated[key], oracle[key]) for key in oracle)


def _fired(trace):
    return [match.group(1) for line in trace if (match := PLACED.search(line))]


# ---------------------------------------------------------------------------
# Where the rule fires
# ---------------------------------------------------------------------------


def test_pagerank_places_its_cached_side_by_the_fold_key_and_iterations_move_nothing():
    spec = get_program("pagerank")
    inputs = workload_for_program("pagerank", 40, seed=7)
    inputs["num_steps"] = 3
    with DistributedContext(num_partitions=4) as context:
        compiled = diablo_for(spec, context).compile(spec.source)
        result = compiled.run(**inputs)
        plans = compiled.translation.target.plans
        explained = "\n".join(explain_plan(plan.root) for key, plan in plans.items() if key[0] == "plan")
        metrics = context.metrics
    (key,) = _fired(result.trace)
    assert f"loop-invariant side cached (placed by {key}, the key its consumer folds by)" in explained
    iterations = [entry for entry in result.iteration_metrics if entry["loop"] == 1]
    assert [entry["shuffles"] for entry in iterations] == [2, 0, 0]
    assert metrics.shuffle_operations == {"partitionBy": 4, "reduceByKey": 1}
    oracle = Diablo().interpret(spec.source, dict(inputs))
    for name in spec.array_outputs:
        _assert_equal(result.array(name), oracle[name])


def test_a_rank_update_fires_and_equals_the_interpreter():
    trace, ranks, oracle, metrics = _rank_update()
    assert len(_fired(trace)) == 1
    assert "reduceByKey" not in metrics.shuffle_operations
    _assert_equal(ranks, oracle)


# ---------------------------------------------------------------------------
# Where it does not
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "variant",
    [
        {"threshold": 0},
        {"plan_optimize": False},
        # U, which the cached side reads, is assigned in the loop.
        {"weight": "U", "extra": "for i = 0, n-1 do U[i] := U[i] * 0.5;"},
    ],
    ids=["threshold-0", "plan-optimize-off", "loop-assigns-side"],
)
def test_the_rule_does_not_fire(variant):
    trace, ranks, oracle, _metrics = _rank_update(**variant)
    assert _fired(trace) == []
    _assert_equal(ranks, oracle)


def _segment(key, steps=()):
    exit_ = ("fold_by_key", key, ("value", "x"), "+", True)
    return codegen.Segment(("cogroup", ("a", "j"), ("v",)), steps, exit_)


@pytest.mark.parametrize(
    "key, steps, expected",
    [
        (ir.CVar("j"), (), (1, "j")),
        # The join key.
        (ir.CVar("a"), (), None),
        # A variable of the other side.
        (ir.CVar("v"), (), None),
        # Rebound by the consumer before the fold.
        (ir.CVar("j"), (("let", ir.PVar("j"), ir.CVar("v")),), None),
        # Not a variable.
        (ir.CTuple((ir.CVar("j"), ir.CVar("a"))), (), None),
    ],
    ids=["left-variable", "join-key", "right-variable", "rebound", "tuple"],
)
def test_the_fold_slot_is_a_variable_of_the_cached_side_other_than_its_join_key(key, steps, expected):
    join = SimpleNamespace(left_key_terms=(ir.CVar("a"),))
    pushdown = _Pushdown((), (), ("a", "j"), ("v",))
    assert _fold_slot(join, pushdown, _segment(key, steps)) == expected


def test_a_partner_that_grows_past_the_threshold_mid_loop_stays_exact():
    # The cached side (32 rows) fits the threshold, R (the partner, 8 keys)
    # too when the side is cached; R then gains 4n keys per iteration, so
    # iterations 2+ broadcast the cached side, and their fold shuffles.
    extra = "for i = 0, 4*n-1 do R[i + k*4*n] := 0.25;"
    trace, ranks, oracle, metrics = _rank_update(extra=extra, threshold=40)
    assert len(_fired(trace)) == 1
    assert metrics.join_strategies == {"broadcast": 5}
    assert metrics.shuffle_operations == {"partitionBy": 3, "coGroup": 3, "reduceByKey": 2}
    _assert_equal(ranks, oracle)


def test_a_side_above_the_threshold_keeps_its_join_key_placement():
    # The cached side (32 rows) is above the threshold: the placement by the
    # fold key is dropped for the join-key one (one partitionBy spent once
    # per loop), so the joins with R, which outgrows the threshold from
    # iteration 2, stay narrow as without the rule.
    extra = "for i = 0, n-1 do R[i + k*n] := 0.25;"
    trace, ranks, oracle, metrics = _rank_update(extra=extra, threshold=12)
    assert _fired(trace) == []
    assert "loop-invariant join side cached (hash-partitioned): build rows" in trace
    assert metrics.join_strategies == {"broadcast": 2, "narrow": 3}
    assert metrics.shuffle_operations == {"partitionBy": 4, "reduceByKey": 3, "coGroup": 3}
    assert metrics.shuffles == 10
    _assert_equal(ranks, oracle)


# ---------------------------------------------------------------------------
# Honest placement
# ---------------------------------------------------------------------------


@pytest.fixture
def checked_claims(monkeypatch):
    """Every forced dataset that claims a partitioner has each record's key
    in the partition the partitioner names (a claimed ``SlotPartitioner``
    fails here: it maps no key)."""
    force = Dataset._force
    checked = []

    def checking(self, read=False):
        force(self, read)
        if self.partitioner is not None:
            for index, partition in enumerate(self._materialized):
                assert all(self.partitioner.partition(record[0]) == index for record in partition)
            checked.append(self)

    monkeypatch.setattr(Dataset, "_force", checking)
    return checked


@pytest.mark.parametrize("threshold", [0, 12, 100_000])
def test_no_dataset_claims_a_placement_its_records_lack(checked_claims, threshold):
    for extra in ("", "for i = 0, n-1 do R[i + k*n] := 0.25;"):
        _trace, ranks, oracle, _metrics = _rank_update(extra=extra, threshold=threshold)
        _assert_equal(ranks, oracle)
    for name in sorted(PROGRAMS):
        spec = get_program(name)
        with DistributedContext(num_partitions=4, broadcast_join_threshold=threshold) as context:
            diablo_for(spec, context).compile(spec.source).run(**workload_for_program(name, 20, seed=7))
    assert checked_claims


def test_the_slot_partitioner_places_records_by_a_slot_and_maps_no_key():
    records = [(key, (key % 3, f"v{key}", key * 7)) for key in range(40)]
    buckets = [[] for _ in range(4)]
    SlotPartitioner(4, 2).place(records, [bucket.append for bucket in buckets], tagged=False)
    by_value = HashPartitioner(4)
    assert all(by_value.partition(record[1][2]) == index for index, bucket in enumerate(buckets) for record in bucket)
    assert sorted(record for bucket in buckets for record in bucket) == records
    with pytest.raises(TypeError):
        SlotPartitioner(4, 2).partition(5)
    assert SlotPartitioner(4, 2) == SlotPartitioner(4, 2)
    assert len({SlotPartitioner(4, 2), SlotPartitioner(4, 0), HashPartitioner(4)}) == 3
    assert SlotPartitioner(4, 0) != HashPartitioner(4)


# ---------------------------------------------------------------------------
# The program-level placement pass
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("threshold", [0, 100_000])
def test_pca_with_plan_optimize_runs_no_more_shuffles_than_without(threshold):
    spec = get_program("pca")
    counts = {}
    for plan_optimize in (True, False):
        with DistributedContext(
            num_partitions=4, broadcast_join_threshold=threshold, plan_optimize=plan_optimize
        ) as context:
            compiled = diablo_for(spec, context).compile(spec.source)
            result = compiled.run(**workload_for_program("pca", 20, seed=7))
            counts[plan_optimize] = (context.metrics.shuffles, context.metrics.shuffled_records)
        # X's key is a pair (i, k) that every join reads part of: no consumer
        # uses a placement by the whole key.
        assert not any(line.startswith("X: program-level placement") for line in result.trace)
    assert counts[True][0] <= counts[False][0]
    assert counts[True][1] <= counts[False][1]


# ---------------------------------------------------------------------------
# On the cluster
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    os.environ.get("DIABLO_CLUSTER_TESTS") != "1",
    reason="cluster legs are opt-in: set DIABLO_CLUSTER_TESTS=1",
)
@pytest.mark.parametrize("spill", [None, 1], ids=["in-memory", "spill-1"])
def test_the_cluster_runs_the_placed_side_bit_identically(spill):
    """The placed side and the probe task its merges run in stay on the
    workers: no fallback, no shuffle payload through the driver, the
    sequential executor's bits."""
    spec = get_program("pagerank")
    inputs = workload_for_program("pagerank", 40, seed=7)
    inputs["num_steps"] = 3
    outputs = []
    for cluster in (False, True):
        settings = {"num_partitions": 4, "spill_threshold_bytes": spill}
        context = ClusterContext(cluster_workers=2, **settings) if cluster else DistributedContext(**settings)
        with context:
            result = diablo_for(spec, context).compile(spec.source).run(**inputs)
            assert len(_fired(result.trace)) == 1
            outputs.append(repr(translated_outputs("pagerank", result)))
            if cluster:
                assert context.metrics.cluster_fallbacks == 0
                assert context.metrics.driver_payload_bytes == 0
    assert outputs[0] == outputs[1]
