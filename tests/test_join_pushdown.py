"""Steps below the join: each side of a hash join runs its own steps first.

The planner moves the ``filter``\\ s and one-variable ``let``\\ s right above
a hash join that read one side only (and stay in the fragment that cannot
raise or call out) into that side's keying run, so that they run once per
record of the side instead of once per joined pair.  The right side then
emits flat tuples of the values the join's consumer still reads.

Every case must equal the interpreter, and its outputs must be bit-identical
on every executor, with spill forced or not, under either join strategy: a
broadcast join pairs in another order than a shuffled one (so a float sum
may differ in its last bits between the two), each is compared with itself.  The
cases pin what moves (a right-only and a left-only step) and what must not:
a step reading both sides, a division an unpaired record could fail, a call
of a registered function, and onto a side the loop cache keeps, a step
reading a scalar the loop -- or only a loop nested in it -- reassigns.
"""

from __future__ import annotations

import pytest

from repro import Diablo
from repro.comprehension import ir
from repro.evaluation.harness import diablo_for
from repro.programs import PROGRAMS
from repro.runtime.cluster import ClusterContext
from repro.runtime.context import DistributedContext
from repro.runtime.dataset import Dataset
from repro.workloads import workload_for_program
from test_soundness_programs import values_match

n = 5
M = {(i, j): float((3 * i + j) % 4) for i in range(1, n + 1) for j in range(1, n + 1)}
E = {(i, j): (i * j) % 3 != 1 for i in range(1, n + 1) for j in range(1, n + 1)}
V = {j: 0.5 + j % 3 for j in range(1, n + 1)}
#: V with one more record that no row of M pairs with -- a zero.
V_UNPAIRED_ZERO = {**V, n + 1: 0.0}

#: name -> (source, inputs, the output array)
CASES = {
    # N's bounds check, inRange(j, 0, n-1), reads N's j only.
    "right_filter": (
        PROGRAMS["matrix_multiplication"].source,
        workload_for_program("matrix_multiplication", 6, seed=7),
        "R",
    ),
    # The row key and both bounds checks read E's (i, j) only.
    "left_filter": (
        """
var Q: matrix[double] = matrix();
for i = 1, n do
  for j = 1, n do
    if (E[i,j])
      Q[i,j] := V[i];
""",
        {"E": E, "V": V, "n": n},
        "Q",
    ),
    # The comparison reads M's value and V's.
    "both_sides": (
        """
var R: vector[double] = vector();
for i = 1, n do
  for j = 1, n do
    if (M[i,j] > V[j])
      R[i] += M[i,j];
""",
        {"M": M, "V": V, "n": n},
        "R",
    ),
    # 1.0 / V[j] reads V only, but V[n+1] = 0.0 pairs with no row of M.
    "division": (
        """
var R: vector[double] = vector();
for i = 1, n do
  for j = 1, n do
    R[i] += M[i,j] + 1.0 / V[j];
""",
        {"M": M, "V": V_UNPAIRED_ZERO, "n": n},
        "R",
    ),
    # f(V[j]) reads V only, but calls a registered function.
    "call": (
        """
var R: vector[double] = vector();
for i = 1, n do
  for j = 1, n do
    R[i] += M[i,j] * f(V[j]);
""",
        {"M": M, "V": V, "n": n},
        "R",
    ),
    # V[j] * 2.0 reads V only, then + t reads t, which the loop reassigns;
    # both sides are loop-invariant.
    "loop": (
        """
var R: vector[double] = vector();
var t: double = 0.0;
while (t < 3.0) {
  t += 1.0;
  for i = 1, n do
    for j = 1, n do
      R[i] += M[i,j] * (V[j] * 2.0 + t);
};
""",
        {"M": M, "V": V, "n": n},
        "R",
    ),
    # V[j] + t reads t, which only the inner loop reassigns: the outer
    # loop's cache is never invalidated for it.
    "nested_loop": (
        """
var R: vector[double] = vector();
var k: int = 0;
var t: double = 0.0;
while (k < 3) {
  k += 1;
  while (t < k) {
    t += 1.0;
  };
  for i = 1, n do
    for j = 1, n do
      R[i] += M[i,j] * (V[j] + t);
};
""",
        {"M": M, "V": V, "n": n},
        "R",
    ),
}

#: The registered function's arguments, one per call (sequential legs only:
#: a cluster worker calls its own copy).
CALLS: list = []


def shifted(value):
    CALLS.append(value)
    return value + 1.0


def _diablo(name, context):
    if name == "right_filter":
        return diablo_for(PROGRAMS["matrix_multiplication"], context)
    diablo = Diablo(context, outputs=(CASES[name][2],))
    diablo.register_function("f", shifted)
    return diablo


CONFIGS = [
    (executor, spill, threshold)
    for executor in ("sequential", "cluster")
    for spill in (None, 1)
    for threshold in (0, None)
]


@pytest.fixture(
    scope="module",
    params=CONFIGS,
    ids=[f"{e}-spill{s}-{'broadcast0' if t == 0 else 'default'}" for e, s, t in CONFIGS],
)
def ctx(request):
    """``(context, broadcast threshold)``: None is the default."""
    executor, spill, threshold = request.param
    options = {"num_partitions": 4, "spill_threshold_bytes": spill}
    if threshold is not None:
        options["broadcast_join_threshold"] = threshold
    if executor == "cluster":
        context = ClusterContext(cluster_workers=2, **options)
    else:
        context = DistributedContext(**options)
    yield context, threshold
    context.shutdown()


def _run(name, context):
    source, inputs, output = CASES[name]
    compiled = _diablo(name, context).compile(source)
    del CALLS[:]
    result = compiled.run(**inputs)
    return compiled, result, result.values[output]


def _bits(value):
    """An output by repr (bit-exact: -0.0, NaN), an array as sorted items."""
    return repr(sorted(value.collect_as_map().items()) if isinstance(value, Dataset) else value)


_REFERENCE: dict = {}


def reference(name, threshold):
    """The outputs on the sequential executor without spill, under the
    broadcast ``threshold``, and the interpreter's."""
    if (name, threshold) not in _REFERENCE:
        source, inputs, output = CASES[name]
        options = {} if threshold is None else {"broadcast_join_threshold": threshold}
        with DistributedContext(num_partitions=4, **options) as context:
            _, _, value = _run(name, context)
            interpreted = _diablo(name, context).interpret(source, dict(inputs))[output]
            _REFERENCE[name, threshold] = (_bits(value), value.collect_as_map(), interpreted)
    return _REFERENCE[name, threshold]


def _pushed(trace):
    """What the trace says moved below a join, one entry per join lowered."""
    marker = ": pushed below the join: "
    return [line.split(marker, 1)[1] for line in trace if marker in line]


@pytest.mark.parametrize("name", CASES)
def test_outputs_are_bit_identical_everywhere_and_match_the_interpreter(ctx, name):
    context, threshold = ctx
    bits, translated, interpreted = reference(name, threshold)
    assert set(translated) == set(interpreted)
    for key, expected in interpreted.items():
        assert values_match(translated[key], expected), key
    _, _, value = _run(name, context)
    assert _bits(value) == bits


def test_a_right_only_filter_moves_into_the_right_keying_run():
    with DistributedContext(num_partitions=4) as context:
        compiled, result, _ = _run("right_filter", context)
    assert _pushed(result.trace) == ["inRange(i$48, 0, hi$10) → right side"]
    consumer = "HashJoin[N on (i$47)]: consumer fused into the join task: cogroup→let×2→fold_by_key(+)"
    assert consumer in result.trace
    # N's keying run: the one binding N's j (both sides' keying runs emit slot rows).
    right_runs = [
        segment
        for segment in compiled.translation.target.segments
        if segment.entry[0] == "bind" and "i$48" in segment.entry[1].variables()
    ]
    assert [segment.steps for segment in right_runs] == [
        (("filter", ir.InRange(ir.CVar("i$48"), ir.CConst(0), ir.CVar("hi$10"))),)
    ]
    # The consumer reads N's j and value, not its i (the join key).
    assert right_runs[0].exit[2] == ("values", ("i$48", "v$49"))


def test_left_only_steps_move_into_the_left_keying_run():
    with DistributedContext(num_partitions=4) as context:
        _, result, _ = _run("left_filter", context)
    (pushed,) = _pushed(result.trace)
    assert pushed.count("→ left side") == 3 and "inRange(" in pushed and "→ right side" not in pushed
    assert any(line.endswith("consumer fused into the join task: cogroup→head") for line in result.trace)


def test_a_step_reading_both_sides_stays_in_the_consumer():
    with DistributedContext(num_partitions=4) as context:
        _, result, _ = _run("both_sides", context)
    # The comparison of M's value with V's is the first step over the M ⋈ V
    # pairs: nothing below it moves, not even what the outer join pushed.
    inner = [line for line in result.trace if line.startswith("HashJoin[V on")]
    label = "consumer fused into the join task: cogroup→let→filter×3→key"
    assert any(line.endswith(label) for line in inner)
    assert not any("pushed below the join" in line for line in inner)


def test_a_division_an_unpaired_record_would_fail_stays_in_the_consumer():
    with DistributedContext(num_partitions=4) as context:
        _, result, value = _run("division", context)
        assert value.collect_as_map()  # V[n+1] = 0.0 was never divided by
    assert _pushed(result.trace) == []


def test_a_registered_call_stays_in_the_consumer_once_per_pair():
    with DistributedContext(num_partitions=4) as context:
        _, result, _ = _run("call", context)
    assert _pushed(result.trace) == []
    assert len(CALLS) == len(M), "one call per (M, V) pair, not one per record of V"


def _consumer_steps(compiled):
    segments = compiled.translation.target.segments
    (consumer,) = [segment for segment in segments if segment.entry[0] == "cogroup"]
    return consumer.steps


def test_a_loop_reuses_its_invariant_side_and_keeps_a_reassigned_scalar_above_the_join():
    with DistributedContext(num_partitions=4) as context:
        compiled, result, _ = _run("loop", context)
    (pushed,) = set(_pushed(result.trace))
    assert pushed.startswith("let v$") and pushed.endswith(" * 2.0) → right side")
    # t is reassigned every iteration: the step reading it stays in the
    # consumer, so V's cached side (with its pushed let) is reused.
    assert "t" in ir.free_variables(_consumer_steps(compiled)[0][-1])
    assert result.trace.count("loop-invariant join side cached (materialized): V") == 1
    assert result.trace.count("loop-invariant join side reused: V") == 2
    assert result.trace.count("loop-invariant join side reused: build rows") == 2


def test_a_scalar_only_an_inner_loop_reassigns_stays_above_a_cached_side():
    with DistributedContext(num_partitions=4) as context:
        compiled, result, _ = _run("nested_loop", context)
    assert _pushed(result.trace) == []
    assert "t" in ir.free_variables(_consumer_steps(compiled)[0][-1])
    assert result.trace.count("loop-invariant join side reused: V") == 2
