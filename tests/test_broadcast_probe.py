"""Broadcast joins probe inside the generated consumer.

A join whose consumer is generated runs, when it becomes a broadcast hash
join, the consumer's ``probe`` twin: one loop over the probe records that
looks each key up in the broadcast table and runs the consumer's steps over
the matches, in probe-record order and then match order.  These tests hold
the whole path to the outputs it had, and the two smaller rewrites that ride
with it to exactly what they replace:

* every program's outputs are bit-identical with and without spill, both
  when its joins shuffle (threshold 0) and when they broadcast (the default
  threshold); with ``DIABLO_CLUSTER_TESTS=1`` the cluster executor is held
  to the sequential one as well;
* the inline spelling of ``/`` is :func:`repro.operators.divide`;
* the run ``(k, ⊕/v)`` over reduced pairs is skipped exactly when it
  rebuilds each pair unchanged.

The broadcast table maps each key to its one slot row when no build-side
key repeats (the twin's one-match form), and to its list of slot rows
otherwise: both layouts give the interpreter's outputs on every executor,
with and without spill and adaptive sizing.
"""

from __future__ import annotations

import functools
import os

import pytest

from repro import Diablo
from repro.algebra import codegen, planner
from repro.algebra.codegen import Segment
from repro.comprehension import ir
from repro.comprehension.monoids import MonoidRegistry
from repro.errors import ExecutionError
from repro.evaluation.harness import diablo_for, translated_outputs
from repro.functions import FunctionRegistry
from repro.operators import divide
from repro.programs import PROGRAMS, get_program
from repro.runtime import segments
from repro.runtime.cluster import ClusterContext
from repro.runtime.context import DistributedContext
from repro.runtime.dataset import DEFAULT_BROADCAST_JOIN_THRESHOLD
from repro.workloads import workload_for_program

THRESHOLDS = {"shuffled": 0, "broadcast": DEFAULT_BROADCAST_JOIN_THRESHOLD}
#: Workers of the cluster legs (the nightly differential step runs 4).
WORKERS = int(os.environ.get("DIABLO_CLUSTER_WORKERS", "2"))
SIZES = (6, 20)
#: Programs with a hash join whose consumer is generated.
JOIN_PROGRAMS = ("matrix_multiplication", "pagerank")
K, V = ir.CVar("k"), ir.CVar("v")


def _run(context, name: str, size: int) -> str:
    """The program's outputs under ``context``, as text that is equal
    exactly when they are bit-identical (``repr`` of a float round-trips)."""
    spec = get_program(name)
    result = diablo_for(spec, context).compile(spec.source).run(**workload_for_program(name, size, seed=7))
    return repr(translated_outputs(name, result))


@functools.lru_cache(maxsize=None)
def sequential(name: str, size: int, threshold: int, spill: int | None) -> tuple[str, int]:
    """Outputs and the number of broadcast joins on the sequential executor."""
    with DistributedContext(
        num_partitions=4, broadcast_join_threshold=threshold, spill_threshold_bytes=spill
    ) as context:
        return _run(context, name, size), context.metrics.join_strategies.get("broadcast", 0)


@pytest.mark.parametrize("threshold", THRESHOLDS.values(), ids=THRESHOLDS.keys())
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_outputs_are_bit_identical_with_and_without_spill(name, threshold):
    for size in SIZES:
        outputs, broadcasts = sequential(name, size, threshold, None)
        assert sequential(name, size, threshold, 1)[0] == outputs
        if threshold == 0:
            assert broadcasts == 0
        elif name in JOIN_PROGRAMS:
            assert broadcasts > 0, f"{name}: no join broadcast at the default threshold"


@pytest.mark.skipif(
    os.environ.get("DIABLO_CLUSTER_TESTS") != "1",
    reason="cluster legs are opt-in: set DIABLO_CLUSTER_TESTS=1",
)
@pytest.mark.parametrize("spill", [None, 1], ids=["in-memory", "spill-1"])
@pytest.mark.parametrize("threshold", THRESHOLDS.values(), ids=THRESHOLDS.keys())
def test_cluster_outputs_are_those_of_the_sequential_executor(threshold, spill):
    with ClusterContext(
        cluster_workers=WORKERS, num_partitions=4, broadcast_join_threshold=threshold, spill_threshold_bytes=spill
    ) as context:
        for name in sorted(PROGRAMS):
            for size in SIZES:
                assert _run(context, name, size) == sequential(name, size, threshold, spill)[0], name
        assert context.metrics.cluster_fallbacks == 0
        assert context.metrics.driver_payload_bytes == 0


# ---------------------------------------------------------------------------
# The probe twin
# ---------------------------------------------------------------------------


def _bindings():
    return codegen.Bindings({}, {}, FunctionRegistry(), MonoidRegistry())


@pytest.mark.parametrize("side", ["left", "right"])
def test_the_probe_twin_rebinds_a_variable_per_pair(side):
    """A let rebinding a probe-side variable inside the pair loop leaves the
    next pair reading the probe record's own value (the mirror form binds
    the right values once, outside the loop over the left matches)."""
    rows = [(1,), (2,), (3,)]  # slot rows of ("a",)
    elements = [(7, 10), (7, 20), (8, 30)]
    segment = Segment(
        ("cogroup", ("a",), ("k", "v")),
        (("let", ir.PVar("v"), ir.CBinOp("+", ir.CVar("v"), ir.CVar("a"))), ("let", ir.PVar("a"), V)),
        ("head", ir.CTuple((ir.CVar("a"), V, ir.CVar("k")))),
    )
    consumer = codegen.generate(segment, _bindings(), {})
    left = [(7, row) for row in rows] + [(9, (4,))]
    right = list(zip([7, 7, 8], elements))
    table: dict = {}
    for key, value in left if side == "left" else right:
        table.setdefault(key, []).append(value)
    probe = right if side == "left" else left
    if side == "left":
        groups = [(key, table[key], [value]) for key, value in probe if key in table]
    else:
        groups = [(key, [value], table[key]) for key, value in probe if key in table]
    assert consumer.probe(side)(probe, lookup=table) == consumer(groups)
    assert len(consumer(groups)) == 6


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("names, row", [((), ()), (("a",), (0,))], ids=["empty", "zero"])
def test_the_one_match_twin_matches_a_falsy_slot_row(side, names, row):
    """A unique table maps a key straight to its slot row: the twin tests
    the lookup against ``MISSING``, so a falsy row -- ``()`` when the
    consumer reads nothing of the build side -- still matches."""
    segment = Segment(
        ("cogroup", names, ("k", "v")) if side == "left" else ("cogroup", ("k", "v"), names),
        (),
        ("head", ir.CTuple((ir.CVar("k"), V, *(ir.CVar(name) for name in names)))),
    )
    consumer = codegen.generate(segment, _bindings(), {})
    probe = [(7, (1, 10)), (8, (2, 20)), (7, (3, 30))]
    table = {7: row, 9: row}
    groups = [
        (key, [row], [value]) if side == "left" else (key, [value], [row])
        for key, value in probe
        if key in table
    ]
    expected = consumer(groups)
    assert len(expected) == 2
    assert consumer.probe(side, unique=True)(probe, lookup=table) == expected
    assert consumer.probe(side)(probe, lookup={key: [value] for key, value in table.items()}) == expected


# ---------------------------------------------------------------------------
# The two table layouts
# ---------------------------------------------------------------------------

MATVEC = """
var R: vector[double] = vector();
for i = 0, n-1 do
  for j = 0, m-1 do
    R[i] += A[i,j]*X[j];
"""

#: ``(n, m, len(X))`` and whether the broadcast table is the one-match
#: layout.  X broadcasts when it is the smaller side (its keys are unique),
#: A otherwise: one row of A has unique keys ``j``, three rows repeat each.
BUILD_SIDES = {
    "unique-x": ((5, 4, 4), True),
    "unique-a": ((1, 4, 40), True),
    "repeated-a": ((3, 4, 40), False),
}


def _matvec_inputs(n: int, m: int, size: int) -> dict:
    # Integral floats: every sum is exact in any order.  X[0] is 0.0.
    return {
        "A": {(i, j): float(3 * i + j + 1) for i in range(n) for j in range(m)},
        "X": {j: float(j) for j in range(size)},
        "n": n,
        "m": m,
    }


def _layouts(monkeypatch) -> list[tuple[bool, dict]]:
    """Records each broadcast probe's (one-match layout?, table)."""
    layouts = []
    resolve = DistributedContext.resolve_join

    def recording(self, shuffle):
        resolved = resolve(self, shuffle)
        if isinstance(resolved, tuple):
            probe = resolved[1][0].function
            layouts.append((probe.func.segment.entry[2], probe.keywords["lookup"]))
        return resolved

    monkeypatch.setattr(DistributedContext, "resolve_join", recording)
    return layouts


CONTEXTS = [
    (executor, spill, adaptive)
    for executor in ("sequential", "cluster")
    for spill in (None, 1)
    for adaptive in (True, False)
]


@pytest.mark.parametrize(
    "executor, spill, adaptive", CONTEXTS, ids=[f"{e}-spill{s}-adaptive{a}" for e, s, a in CONTEXTS]
)
def test_both_table_layouts_give_the_interpreters_outputs(monkeypatch, executor, spill, adaptive):
    layouts = _layouts(monkeypatch)
    options = dict(num_partitions=4, spill_threshold_bytes=spill, adaptive=adaptive)
    if executor == "cluster":
        context = ClusterContext(cluster_workers=WORKERS, **options)
    else:
        context = DistributedContext(**options)
    with context:
        for name, (shape, unique) in BUILD_SIDES.items():
            inputs = _matvec_inputs(*shape)
            layouts.clear()
            result = Diablo(context, outputs=("R",)).compile(MATVEC).run(**inputs)
            ((chosen, table),) = layouts
            assert chosen == unique, name
            if not unique:  # the list layout only where a key repeats
                assert any(len(matches) > 1 for matches in table.values()), name
            outputs = repr(sorted(result.array("R").items()))
            expected = Diablo().interpret(MATVEC, dict(inputs))["R"]
            # Exact sums: equal to the oracle's is bit-identical across contexts.
            assert outputs == repr(sorted(expected.items())), name


CHAINS = {
    # Four source records become eight over the same four keys: as many
    # distinct keys as *source* records, yet every key repeats.
    "expanding": (lambda record: [record, (record[0], (record[1][0] + 1,))], False),
    # Eight source records over four keys, each key's second dropped:
    # repeated in the source, unique once chained.
    "dropping": (lambda record: [record] if record[1][0] < 4 else [], True),
}


@pytest.mark.parametrize("adaptive", [True, False])
@pytest.mark.parametrize("chain", CHAINS, ids=CHAINS.keys())
def test_the_layout_counts_the_build_records_after_their_chain(monkeypatch, chain, adaptive):
    """The one-match layout is chosen from the records the table is built
    from, after the build side's captured chain, also when the broadcast
    side is sized from the raw sources (adaptive off)."""
    expand, unique = CHAINS[chain]
    consumer = codegen.generate(
        Segment(("cogroup", ("a",), ("b",)), (), ("head", ir.CTuple((ir.CVar("a"), ir.CVar("b"))))),
        _bindings(),
        {},
    )
    build = [(j, (10 * j,)) for j in range(4)] if chain == "expanding" else [
        (j % 4, (j,)) for j in range(8)
    ]
    probe = [(j % 4, (j,)) for j in range(40)]
    with DistributedContext(num_partitions=4, adaptive=adaptive) as context:

        def joined(consumer):
            left = context.parallelize(build).flat_map(expand)
            return left.join(context.parallelize(probe), consumer=consumer).collect()

        pairs = sorted((left[0], right[0]) for _, (left, right) in joined(None))
        layouts = _layouts(monkeypatch)
        assert sorted(joined(consumer)) == pairs
    ((chosen, _),) = layouts
    assert chosen == unique
    assert len(pairs) == (80 if chain == "expanding" else 40)


# ---------------------------------------------------------------------------
# The inline ``/``
# ---------------------------------------------------------------------------

PAIR = ir.PTuple((ir.PVar("a"), ir.PVar("b")))


class Half(float):
    """A float subclass: ``type(x) is float`` is false for it."""


def _outcome(call):
    try:
        value = call()
    except (ArithmeticError, TypeError, ExecutionError) as error:
        return ("error", type(error), str(error))
    return ("value", type(value), repr(value))


def _divide_segment(right: ir.Term):
    segment = Segment(("bind", PAIR), (), ("head", ir.CBinOp("/", ir.CVar("a"), right)))
    return codegen.generate(segment, _bindings(), {})


@pytest.mark.parametrize(
    "a, b",
    [
        (6, 3), (7, 2), (True, 2), (True, 1), (1, 0.0), (1.0, 0), (1, 0),
        (6.0, 3), (Half(3.0), 2), (3, Half(2.0)), ("x", 2),
    ],
)
def test_division_of_two_locals_is_divide(a, b):
    function = _divide_segment(ir.CVar("b"))
    assert "/" in function.source and "divide(" in function.source
    assert _outcome(lambda: function([(a, b)])[0]) == _outcome(lambda: divide(a, b))


def test_exact_quotients_stay_int_and_zero_raises():
    function = _divide_segment(ir.CVar("b"))
    assert function([(6, 3), (7, 2)]) == [2, 3.5]
    assert type(function([(6, 3)])[0]) is int
    for a, b in [(1, 0.0), (1.0, 0)]:
        with pytest.raises(ZeroDivisionError):
            function([(a, b)])


def test_a_float_subclass_falls_through_to_divide(monkeypatch):
    calls = []

    def spy(left, right):
        calls.append((left, right))
        return divide(left, right)

    monkeypatch.setattr(segments, "divide", spy)
    function = _divide_segment(ir.CVar("b"))
    assert function([(Half(3.0), 2), (3.0, 2)]) == [1.5, 1.5]
    assert calls == [(Half(3.0), 2)]  # the plain float divides inline


@pytest.mark.parametrize("a", [1, True, 3.0, Half(3.0), -0.0, 7])
def test_division_by_a_float_literal_is_plain_division(a):
    function = _divide_segment(ir.CConst(2.0))
    assert "divide(" not in function.source
    assert _outcome(lambda: function([(a, None)])[0]) == _outcome(lambda: divide(a, 2.0))


def test_an_unresolved_scalar_fails_as_before():
    function = _divide_segment(ir.CVar("ghost"))
    with pytest.raises(ExecutionError, match="undefined variable 'ghost'"):
        function([(1, 2)])


# ---------------------------------------------------------------------------
# The identity run after a reduce
# ---------------------------------------------------------------------------

SUM_V = ir.Aggregate("+", V)


def _after_reduce(pattern=ir.PVar("k"), steps=(), head=ir.CTuple((K, SUM_V))) -> Segment:
    return Segment(("reduced", pattern, "v"), steps, ("head", head))


def test_the_identity_run_is_recognised():
    assert planner._identity(_after_reduce())
    assert planner._identity(_after_reduce(head=ir.CTuple((K, ir.Aggregate("max", V)))))


@pytest.mark.parametrize(
    "segment",
    [
        _after_reduce(steps=(("filter", ir.CBinOp(">", V, ir.CConst(0))),)),
        _after_reduce(head=ir.CTuple((K, ir.CBinOp("+", SUM_V, ir.CConst(1))))),
        _after_reduce(pattern=ir.PTuple((ir.PVar("k"), ir.PVar("j")))),
        _after_reduce(head=ir.CTuple((ir.CConst(0), SUM_V))),
        _after_reduce(head=ir.CTuple((SUM_V, K))),
    ],
    ids=["step", "aggregate-plus-one", "tuple-key", "constant-key", "swapped"],
)
def test_any_other_run_after_a_reduce_is_kept(segment):
    assert not planner._identity(segment)


@pytest.mark.parametrize("plan_optimize", [True, False])
def test_group_by_runs_no_identity_wave(plan_optimize):
    """The run is skipped where its stage would keep the reduce's
    partitioner claim; without partitioner propagation it would not."""
    spec = get_program("group_by")
    inputs = workload_for_program("group_by", 60, seed=7)
    with DistributedContext(num_partitions=4, plan_optimize=plan_optimize) as context:
        result = diablo_for(spec, context).compile(spec.source).run(**inputs)
        outputs = translated_outputs("group_by", result)
    expected = diablo_for(spec).interpret(spec.source, dict(inputs))
    assert outputs["C"] == pytest.approx(expected["C"])
    skipped = any(line.startswith("identity run after the reduce skipped: (") for line in result.trace)
    assert skipped == plan_optimize
