"""Row-segment code generation against its reference, ``evaluate_local``.

The generated per-partition functions must be observably the closure
composition they replaced: one map / filter per qualifier, each copying the
row dict, tree-walking its term through ``TermEvaluator.evaluate_local`` and
destructuring with ``_bind_pattern``.  :func:`reference` below *is* that
composition, kept here as the oracle: results must agree in type and bit
pattern, and failures in exception type and message.

The folding exits and the join consumer are held to the forms they replaced:
``fold_by_key`` to ``apply_combiner(("reduce", ⊕), keyed segment output)``,
``fold`` to ``Monoid.reduce(head segment output)``, and a ``cogroup``
consumer inside a physical join to that join's materialised pairs run
through the (reference-only) ``("join", ...)`` entry.
"""

from __future__ import annotations

import copy
import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Diablo
from repro.algebra import codegen
from repro.algebra.codegen import Segment
from repro.algebra.evaluator import EvaluationEnvironment, TermEvaluator, _bind_pattern
from repro.comprehension import ir
from repro.comprehension.monoids import Monoid, MonoidRegistry
from repro.errors import ExecutionError
from repro.evaluation.harness import diablo_for, translated_outputs
from repro.programs import get_program
from repro.runtime import stage
from repro.runtime.cluster import wire
from repro.runtime.context import DistributedContext
from repro.runtime.spill import BucketPayload
from repro.workloads import workload_for_program


@pytest.fixture(scope="module")
def context():
    with DistributedContext(num_partitions=2) as ctx:
        yield ctx


def _append(accumulator: list, value) -> list:
    accumulator.append(value)
    return accumulator


#: The built-ins plus a non-commutative concat (any order slip shows) and a
#: monoid whose combine mutates its left argument (any shared or re-used
#: accumulator shows).
MONOIDS = MonoidRegistry()
MONOIDS.register(Monoid("++", "", lambda a, b: f"{a}|{b}", commutative=False), verify=False)
MONOIDS.register(Monoid("append", list, _append, commutative=False), verify=False)
FOLD_OPS = ["+", "*", "min", "++", "append"]


def bindings_for(context, values=None, base=None, monoids=MONOIDS) -> codegen.Bindings:
    environment = EvaluationEnvironment(context, values if values is not None else {}, monoids=monoids)
    evaluator = TermEvaluator(environment)
    return codegen.Bindings(
        base or {},
        evaluator._scope_values,
        environment.functions,
        environment.monoids,
        evaluator.evaluate_local,
    )


def generated(segment: Segment, bindings: codegen.Bindings, records: list) -> list:
    result = codegen.generate(segment, bindings, {})(records)
    if segment.exit[0] == "fold_by_key":
        assert type(result) is stage.FoldedRecords
        return list(result)
    return result


def reference(segment: Segment, bindings: codegen.Bindings, records: list) -> list:
    """The per-qualifier closure composition the generator replaced.

    A folding exit is the ``keyed`` / ``head`` composition followed by the
    fold the runtime used to run over its output.  The ``("join", names,
    pattern)`` entry -- a materialised ``(key, (row, element))`` pair -- only
    exists here: it is what a ``cogroup`` consumer is compared against.
    """
    exit_ = segment.exit
    if exit_[0] == "fold_by_key":
        keyed = reference(segment._replace(exit=("keyed", *exit_[1:3])), bindings, records)
        return stage.apply_combiner(("reduce", bindings.monoids.get(exit_[3]).combine), keyed)
    if exit_[0] == "fold":
        heads = reference(segment._replace(exit=("head", exit_[1])), bindings, records)
        return [bindings.monoids.get(exit_[2]).reduce(heads)]
    evaluate, base = bindings.evaluate_local, bindings.base
    kind = segment.entry[0]
    out = []
    for record in records:
        if kind == "bind":
            row = {**_bind_pattern(segment.entry[1], record)}
        elif kind == "row":
            row = record
        elif kind == "join":
            row = {**record[1][0], **_bind_pattern(segment.entry[2], record[1][1])}
        elif kind == "reduced":
            key, value = record
            row = _bind_pattern(segment.entry[1], key)
            row[f"__aggregate_{segment.entry[2]}"] = value
            row[segment.entry[2]] = codegen.PreAggregated(value)
        else:
            key, members = record
            row = _bind_pattern(segment.entry[1], key)
            for name in segment.entry[2]:
                row[name] = [member.get(name) for member in members]
        kept = True
        for step in segment.steps:
            if step[0] == "let":
                row = {**row, **_bind_pattern(step[1], evaluate(step[2], {**base, **row}))}
            elif not bool(evaluate(step[1], {**base, **row})):
                kept = False
                break
        if not kept:
            continue
        if exit_[0] == "head":
            out.append(evaluate(exit_[1], {**base, **row}))
        elif exit_[0] == "row":
            out.append(row)
        else:
            key = evaluate(exit_[1], {**base, **row})
            payload = exit_[2]
            if payload == "row":
                out.append((key, row))
            elif payload == "element":
                out.append((key, record))
            else:
                out.append((key, row.get(payload[1])))
    return out


def canonical(value):
    """Type- and bit-exact form: floats by repr (-0.0, NaN), containers deep,
    dicts in insertion order."""
    if isinstance(value, dict):
        return ("dict", [(canonical(k), canonical(v)) for k, v in value.items()])
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, [canonical(element) for element in value])
    if isinstance(value, codegen.PreAggregated):
        return ("pre", canonical(value.value))
    return (type(value).__name__, repr(value))


def outcome(run, segment, bindings, records):
    try:
        # A copy per run: a combine may mutate the values it folds.
        return ("ok", canonical(run(segment, bindings, copy.deepcopy(records))))
    except Exception as error:
        return ("error", type(error).__name__, str(error))


def assert_same(segment, bindings, records, run=generated, against=reference):
    """``run`` must do what ``against`` does, down to the error raised.

    One allowance, for folding exits only: the fold now runs inside the loop,
    so where a *fold* fails on an early record and a *term* on a later one,
    the fold's error surfaces first.  It must then be the error the two-pass
    form raises on the shortest failing prefix of the records.
    """
    expected = outcome(against, segment, bindings, records)
    actual = outcome(run, segment, bindings, records)
    if actual != expected and expected[0] == "error" and segment.exit[0] in ("fold", "fold_by_key"):
        prefixes = (outcome(against, segment, bindings, records[:n]) for n in range(1, len(records)))
        expected = next((prefix for prefix in prefixes if prefix[0] == "error"), expected)
    assert actual == expected
    return expected


# ---------------------------------------------------------------------------
# The property: generated == evaluate_local on adversarial values
# ---------------------------------------------------------------------------

INT64 = 2**63
values = st.recursive(
    st.one_of(
        st.sampled_from(
            [0, 1, -1, 7, INT64 - 1, -INT64, INT64, 10**30, True, False, None, "", "ab", "7"]
        ),
        st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e308, math.inf, -math.inf, math.nan]),
        st.integers(-5, 5),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.tuples(inner, inner, inner),
        st.fixed_dictionaries({"_1": inner, "f": inner}),
    ),
    max_leaves=4,
)

#: ``a``/``b`` are bound by the entry, ``s`` is a driver scalar, ``base$1`` a
#: driver binding (with a ``$`` as the translator's fresh names have),
#: ``ghost`` resolves nowhere.
NAMES = ["a", "b", "s", "base$1"] * 3 + ["ghost"]
BINARY_OPS = ["+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||"] * 2 + ["^^"]


def terms(names=NAMES):
    leaves = st.one_of(
        st.sampled_from(names).map(ir.CVar),
        values.map(ir.CConst),
    )

    def extend(inner):
        return st.one_of(
            st.builds(ir.CBinOp, st.sampled_from(BINARY_OPS), inner, inner),
            st.builds(ir.CUnaryOp, st.sampled_from(["-", "!", "-", "!", "~"]), inner),
            st.builds(lambda a, b: ir.CTuple((a, b)), inner, inner),
            st.builds(lambda a, b: ir.CRecord((("_1", a), ("f", b))), inner, inner),
            st.builds(ir.CProject, inner, st.sampled_from(["_1", "_2", "_0", "_9", "f", "real"])),
            st.builds(
                lambda name, args: ir.CCall(name, tuple(args)),
                st.sampled_from(["abs", "min", "max"] * 3 + ["nope"]),
                st.lists(inner, min_size=1, max_size=2),
            ),
            st.builds(
                lambda record, attribute, value: ir.CCall(
                    "_update_field", (record, ir.CConst(attribute), value)
                ),
                inner,
                st.sampled_from(["_1", "_3", "f"]),
                inner,
            ),
            st.builds(ir.InRange, inner, inner, inner),
        )

    return st.recursive(leaves, extend, max_leaves=6)


patterns = st.sampled_from(
    [ir.PVar("c")] * 4
    + [
        ir.PVar("a"),  # shadows an entry variable
        ir.PWildcard(),
        ir.PTuple((ir.PVar("c"), ir.PVar("d"))),
        ir.PTuple((ir.PVar("c"), ir.PWildcard())),
        ir.PTuple((ir.PTuple((ir.PVar("c"), ir.PVar("d"))), ir.PVar("v$9"))),
    ]
)
steps = st.one_of(
    st.tuples(st.just("let"), patterns, terms()),
    st.tuples(st.just("filter"), terms()),
)
exits = st.one_of(
    st.tuples(st.just("head"), terms(NAMES + ["c", "v$9"])),
    st.just(("row",)),
    st.tuples(st.just("keyed"), terms(), st.sampled_from(["row", "element", ("value", "c")])),
)
#: Mostly small key terms over the entry variables, so that keys repeat.
fold_keys = st.one_of(
    st.sampled_from(
        [ir.CVar("a")] * 8
        + [ir.CTuple((ir.CVar("a"), ir.CVar("s"))), ir.CTuple((ir.CConst(0), ir.CVar("a")))] * 2
        + [ir.CVar("b"), ir.CVar("ghost")]
    ),
    terms(),
)
fold_payloads = st.sampled_from([("value", "b")] * 4 + [("value", "a"), ("value", "c")])
folding_exits = st.sampled_from(FOLD_OPS).flatmap(
    lambda op: st.one_of(
        st.tuples(
            st.just("fold_by_key"),
            fold_keys,
            fold_payloads,
            *map(st.just, codegen.fold_operator(op, MONOIDS)),
        ),
        st.tuples(
            st.just("fold"),
            st.one_of(st.just(ir.CVar("b")), terms(NAMES + ["c"])),
            *map(st.just, codegen.fold_operator(op, MONOIDS)),
        ),
    )
)


#: Entry patterns with records that mostly (not always) have their shape.
entries = st.sampled_from(
    [
        (ir.PTuple((ir.PVar("a"), ir.PVar("b"))), st.tuples(values, values)),
        (
            ir.PTuple((ir.PTuple((ir.PVar("a"), ir.PWildcard())), ir.PVar("b"))),
            st.tuples(st.tuples(values, values), values),
        ),
        (ir.PVar("a"), values),
    ]
).flatmap(
    lambda entry: st.tuples(
        st.just(entry[0]), st.lists(st.one_of(entry[1], entry[1], values), min_size=1, max_size=3)
    )
)


@settings(max_examples=300, deadline=None)
@given(entry=entries, step_list=st.lists(steps, max_size=3), exit_=exits, scalar=values)
def test_generated_segment_equals_evaluate_local(context, entry, step_list, exit_, scalar):
    bindings = bindings_for(context, {"s": scalar}, {"base$1": 3})
    entry_pattern, records = entry
    assert_same(Segment(("bind", entry_pattern), tuple(step_list), exit_), bindings, records)


#: Keys for the folds: few distinct values, so that keys repeat (skewed
#: towards 1), with the pairs Python's ``==`` / ``hash`` conflate (``1 == True
#: == 1.0``, ``0.0 == -0.0``) and the one it never matches (NaN).
fold_key_values = st.sampled_from(
    [1] * 4 + [True, 1.0, 0, False, 0.0, -0.0, math.nan, 2, INT64 - 1, -INT64, "x", None, (1, 2)]
)
#: Payloads, homogeneous per partition more often than not: numbers (every
#: monoid folds them), strings and lists (only some do).
fold_numbers = st.one_of(
    st.sampled_from(
        [1, True, 0, -0.0, 0.0, 2.5, -2.25, 1e308, math.nan, math.inf, INT64 - 1, -INT64, 10**30]
    ),
    st.integers(-5, 5),
)
fold_payload_values = st.one_of(
    fold_numbers, st.sampled_from(["x", "", None, (1, 2)]), st.lists(st.integers(0, 3), max_size=2)
)
fold_records = st.one_of(
    *[st.lists(st.tuples(fold_key_values, fold_numbers), max_size=8)] * 4,
    st.lists(st.tuples(fold_key_values, st.sampled_from(["x", "", "yz"])), max_size=6),
    st.lists(st.tuples(fold_key_values, st.lists(st.integers(0, 3), max_size=2)), max_size=6),
    st.lists(st.tuples(fold_key_values, fold_payload_values), max_size=6),
    st.lists(st.one_of(st.tuples(fold_key_values, fold_payload_values), values), max_size=4),
)
#: Half the segments have no steps: every record then reaches the fold.
fold_steps = st.one_of(
    st.just([]),
    st.lists(
        st.sampled_from(
            [
                ("filter", ir.CBinOp("!=", ir.CVar("a"), ir.CConst(2))),
                ("let", ir.PVar("c"), ir.CTuple((ir.CVar("b"), ir.CVar("s")))),
                ("let", ir.PVar("b"), ir.CBinOp("*", ir.CVar("b"), ir.CConst(2))),
            ]
            * 3
        )
        | steps,
        max_size=2,
    ),
)


@settings(max_examples=600, deadline=None)
@given(records=fold_records, step_list=fold_steps, exit_=folding_exits, scalar=fold_payload_values)
def test_folding_exits_equal_the_fold_over_the_appended_output(context, records, step_list, exit_, scalar):
    """``fold_by_key`` == ``apply_combiner(("reduce", ⊕), keyed output)`` and
    ``fold`` == ``[Monoid.reduce(head output)]``: key order, value bits and
    types, errors, nothing raised for an empty partition -- and ``consumed``
    counts the records that reached the fold."""
    bindings = bindings_for(context, {"s": scalar}, {"base$1": 3})
    pair = ir.PTuple((ir.PVar("a"), ir.PVar("b")))
    segment = Segment(("bind", pair), tuple(step_list), exit_)
    expected = assert_same(segment, bindings, records)
    if expected[0] == "ok" and exit_[0] == "fold_by_key":
        keyed = reference(segment._replace(exit=("keyed", *exit_[1:3])), bindings, copy.deepcopy(records))
        folded = codegen.generate(segment, bindings, {})(copy.deepcopy(records))
        assert folded.consumed == len(keyed)


# ---------------------------------------------------------------------------
# The join consumer: cogroup + nested loop == materialised pairs + flat loop
# ---------------------------------------------------------------------------

JOIN_NAMES = ("a", "b")
JOIN_PATTERN = ir.PTuple((ir.PVar("k"), ir.PVar("v")))


def _lookup(records):
    table = {}
    for key, value in records:
        table.setdefault(key, []).append(value)
    return table


def _tagged_bucket(left, right):
    tagged = [(0, record) for record in left] + [(1, record) for record in right]
    return [BucketPayload((), tuple(tagged))]


#: Every physical inner join as ``run(left, right, consumer)``; without a
#: consumer it returns the ``(key, (row, element))`` pairs it used to build.
PHYSICAL_JOINS = {
    "shuffle": lambda left, right, consumer: stage.join_bucket(
        "inner", _tagged_bucket(left, right), consumer=consumer
    ),
    "zip": lambda left, right, consumer: stage.zip_join_partition(
        "inner", [left, right], consumer=consumer
    ),
    "broadcast-right": lambda left, right, consumer: stage.broadcast_join_partition(
        "inner", "right", _lookup(right), left, consumer=consumer
    ),
    "broadcast-left": lambda left, right, consumer: stage.broadcast_join_partition(
        "inner", "left", _lookup(left), right, consumer=consumer
    ),
}


def assert_consumer_same(segment: Segment, bindings, left, right):
    """In every physical join, the ``cogroup`` consumer of ``segment`` does
    what the flat loop did over the pairs that join used to materialise."""
    flat = segment._replace(entry=("join", *segment.entry[1:]))
    outcomes = {}
    for name, join in PHYSICAL_JOINS.items():
        pairs = join(copy.deepcopy(left), copy.deepcopy(right), None)

        def fused(_segment, _bindings, _pairs, join=join):
            consumer = codegen.generate(segment, bindings, {})
            result = join(copy.deepcopy(left), copy.deepcopy(right), consumer)
            return list(result) if segment.exit[0] == "fold_by_key" else result

        outcomes[name] = assert_same(flat, bindings, pairs, run=fused)
    return outcomes


#: Join keys that mostly match (and sometimes only by ``==``: ``1 == True``).
join_keys = st.sampled_from([1] * 6 + [2] * 3 + [True, 0.0, -0.0, math.nan, "x", (1, 2), INT64 - 1])
group_keys = st.sampled_from([1] * 4 + [2, True, 0.0, -0.0, math.nan, "x"])
join_rows = st.fixed_dictionaries({"a": fold_payload_values, "b": group_keys})
join_elements = st.one_of(*[st.tuples(group_keys, fold_numbers)] * 5, values)
join_steps = st.one_of(
    st.just([]),
    st.lists(
        st.sampled_from(
            [
                ("filter", ir.CBinOp("!=", ir.CVar("k"), ir.CConst(2))),
                ("let", ir.PVar("c"), ir.CBinOp("*", ir.CVar("v"), ir.CConst(2))),
                ("let", ir.PVar("c"), ir.CTuple((ir.CVar("a"), ir.CVar("v")))),
            ]
            * 3
        )
        | steps,
        max_size=2,
    ),
)
join_exits = st.one_of(
    exits.filter(lambda exit_: exit_[-1] != "element"),
    st.sampled_from(FOLD_OPS).flatmap(
        lambda op: st.tuples(
            st.just("fold_by_key"),
            st.sampled_from(
                [ir.CTuple((ir.CVar("b"), ir.CVar("k"))), ir.CVar("k"), ir.CVar("b"), ir.CVar("ghost")]
            ),
            st.sampled_from([("value", "v")] * 3 + [("value", "c"), ("value", "a")]),
            *map(st.just, codegen.fold_operator(op, MONOIDS)),
        )
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    left=st.lists(st.tuples(join_keys, join_rows), min_size=1, max_size=6),
    right=st.lists(st.tuples(join_keys, join_elements), min_size=1, max_size=6),
    step_list=join_steps,
    exit_=join_exits,
    scalar=fold_numbers,
)
def test_cogroup_consumer_equals_the_join_it_replaces(context, left, right, step_list, exit_, scalar):
    """Shuffle bucket, co-partitioned zip and broadcast (either side): the
    consumer fused into the join task == ``_join_sides("inner", ...)``'s pairs
    through the flat ``("join", ...)`` loop -- same pair order, so the same
    rows, keys, left folds and first error."""
    bindings = bindings_for(context, {"s": scalar}, {"base$1": 3})
    segment = Segment(("cogroup", JOIN_NAMES, JOIN_PATTERN), tuple(step_list), exit_)
    assert_consumer_same(segment, bindings, left, right)


# ---------------------------------------------------------------------------
# Error and edge parity, pinned
# ---------------------------------------------------------------------------

PAIR = ir.PTuple((ir.PVar("i"), ir.PVar("v$1")))


def head(term: ir.Term, *step_list) -> Segment:
    return Segment(("bind", PAIR), tuple(step_list), ("head", term))


class TestErrorParity:
    @pytest.mark.parametrize("record", [(1, 2, 3), (1,), 5, "ab", {"i": 1, "v$1": 2}, None])
    def test_pattern_mismatch_is_the_bind_error(self, context, record):
        result = assert_same(head(ir.CVar("i")), bindings_for(context), [record])
        assert result[1] == "ExecutionError" and result[2].startswith("cannot bind pattern (i, v$1)")

    def test_lists_and_tuple_subclasses_bind_like_tuples(self, context):
        result = assert_same(head(ir.CVar("v$1")), bindings_for(context), [[1, 2], stage.SaltedKey(3, 4)])
        assert result == ("ok", canonical([2, 4]))

    def test_nested_mismatch_names_the_inner_pattern(self, context):
        nested = ir.PTuple((ir.PTuple((ir.PVar("i"), ir.PVar("j"))), ir.PVar("v")))
        segment = Segment(("bind", nested), (), ("head", ir.CVar("v")))
        result = assert_same(segment, bindings_for(context), [((1, 2, 3), 4)])
        assert result[2] == "cannot bind pattern (i, j) to value (1, 2, 3)"

    def test_undefined_variable(self, context):
        result = assert_same(head(ir.CVar("ghost")), bindings_for(context), [(1, 2)])
        assert result == ("error", "ExecutionError", "undefined variable 'ghost'")

    def test_unknown_function_raises_before_its_arguments(self, context):
        call = ir.CCall("nope", (ir.CBinOp("/", ir.CConst(1), ir.CConst(0)),))
        result = assert_same(head(call), bindings_for(context), [(1, 2)])
        assert result == ("error", "ExecutionError", "unknown function 'nope'")

    def test_zero_division_is_unchanged(self, context):
        for op in ("/", "%"):
            term = ir.CBinOp(op, ir.CVar("i"), ir.CConst(0))
            result = assert_same(head(term), bindings_for(context), [(1, 2)])
            assert result[1] == "ZeroDivisionError"

    def test_empty_partition_raises_nothing(self, context):
        term = ir.CCall("nope", (ir.CVar("ghost"),))
        assert generated(head(term), bindings_for(context), []) == []

    def test_unreached_undefined_names_raise_nothing(self, context):
        """Resolution is as lazy as a per-record lookup: a filter or a
        short-circuit in front of the use keeps the error away."""
        guard = ("filter", ir.CBinOp(">", ir.CVar("i"), ir.CConst(10)))
        short = ir.CBinOp("&&", ir.CConst(False), ir.CVar("ghost"))
        bindings = bindings_for(context)
        assert assert_same(head(ir.CVar("ghost"), guard), bindings, [(1, 2)]) == ("ok", canonical([]))
        assert assert_same(head(short), bindings, [(1, 2)]) == ("ok", canonical([False]))

    def test_dollar_names_shadowing_and_wildcards(self, context):
        steps_ = (
            ("let", ir.PVar("v$1"), ir.CBinOp("+", ir.CVar("v$1"), ir.CConst(1))),
            ("let", ir.PTuple((ir.PWildcard(), ir.PVar("i"))), ir.CTuple((ir.CVar("i"), ir.CVar("v$1")))),
        )
        segment = Segment(("bind", PAIR), steps_, ("row",))
        result = assert_same(segment, bindings_for(context), [(1, 2)])
        assert result == ("ok", canonical([{"i": 3, "v$1": 3}]))

    def test_row_variables_win_over_base_and_base_over_environment(self, context):
        bindings = bindings_for(context, {"i": "env", "x": "env", "y": "env"}, {"i": "base", "x": "base"})
        term = ir.CTuple((ir.CVar("i"), ir.CVar("x"), ir.CVar("y")))
        assert assert_same(head(term), bindings, [(1, 2)]) == ("ok", canonical([(1, "base", "env")]))

    def test_scalars_resolve_once_per_partition_and_late(self, context):
        """A cached function sees the environment of the run, not of its build."""
        live = {"s": 1}
        function = codegen.generate(head(ir.CVar("s")), bindings_for(context, live), {})
        assert function([(1, 2)]) == [1]
        live["s"] = 2
        assert function([(1, 2), (3, 4)]) == [2, 2]


class TestWideEntries:
    def test_cogroup_reduced_and_grouped_entries(self, context):
        bindings = bindings_for(context, {"s": 10})
        total = ir.CBinOp("+", ir.CVar("a"), ir.CVar("v"))
        cogroup = Segment(("cogroup", ("a", "b"), ir.PTuple((ir.PVar("k"), ir.PVar("v")))), (), ("row",))
        left = [(7, {"a": 1, "b": 2}), (7, {"a": 5, "b": 6}), (8, {"a": 0, "b": 0})]
        right = [(7, (7, 3)), (9, (9, 9)), (7, (7, 4))]
        rows = assert_consumer_same(cogroup, bindings, left, right)
        assert rows["shuffle"] == ("ok", canonical([
            {"a": 1, "b": 2, "k": 7, "v": 3}, {"a": 1, "b": 2, "k": 7, "v": 4},
            {"a": 5, "b": 6, "k": 7, "v": 3}, {"a": 5, "b": 6, "k": 7, "v": 4},
        ]))  # fmt: skip
        assert rows["broadcast-left"] != rows["shuffle"], "each join keeps its own pair order"
        assert_consumer_same(cogroup._replace(exit=("keyed", total, ("value", "v"))), bindings, left, right)
        reduced = Segment(
            ("reduced", ir.PVar("k"), "v"),
            (),
            ("head", ir.CTuple((ir.CVar("k"), ir.Aggregate("+", ir.CVar("v"))))),
        )
        assert assert_same(reduced, bindings, [(1, 2.5)]) == ("ok", canonical([(1, 2.5)]))
        assert_same(reduced._replace(exit=("row",)), bindings, [(1, 2.5)])
        grouped = Segment(
            ("grouped", ir.PVar("k"), ("a", "b")),
            (),
            ("head", ir.CTuple((ir.CVar("k"), ir.Aggregate("+", ir.CVar("a"))))),
        )
        members = [{"a": 1, "b": 2}, {"a": 3}]
        assert assert_same(grouped, bindings, [(1, members)]) == ("ok", canonical([(1, 4)]))
        assert_same(grouped._replace(exit=("row",)), bindings, [(1, members)])

    def test_terms_outside_the_inlined_fragment_call_evaluate_local(self, context):
        nested = ir.Comprehension(
            ir.CBinOp("*", ir.CVar("x"), ir.CVar("i")),
            (ir.Generator(ir.PVar("x"), ir.RangeTerm(ir.CConst(1), ir.CVar("v$1"))),),
        )
        term = ir.Aggregate("+", nested)
        function = codegen.generate(head(term), bindings_for(context), {})
        assert "evaluate_local(" in function.source
        assert assert_same(head(term), bindings_for(context), [(2, 3)]) == ("ok", canonical([12]))


def fold_by_key(op: str, *step_list, key=None, registry=MONOIDS) -> Segment:
    exit_ = ("fold_by_key", key or ir.CVar("i"), ("value", "v$1"), *codegen.fold_operator(op, registry))
    return Segment(("bind", PAIR), tuple(step_list), exit_)


class TestFoldingExits:
    def test_left_fold_order_per_key_and_first_occurrence_key_order(self, context):
        records = [(2, "a"), (1, "b"), (2, "c"), (1, "d"), (2, "e")]
        result = assert_same(fold_by_key("++"), bindings_for(context), records)
        assert result == ("ok", canonical([(2, "a|c|e"), (1, "b|d")]))
        unkeyed = Segment(("bind", PAIR), (), ("fold", ir.CVar("v$1"), *codegen.fold_operator("++", MONOIDS)))
        assert assert_same(unkeyed, bindings_for(context), records) == ("ok", canonical(["|a|b|c|d|e"]))

    def test_keys_python_conflates_keep_the_first_key_object(self, context):
        records = [(0.0, 1), (-0.0, 2), (True, 3), (1, 4), (math.nan, 5), (math.nan, 6), (float("nan"), 7)]
        result = assert_same(fold_by_key("+"), bindings_for(context), records)
        assert result == ("ok", canonical([(0.0, 3), (True, 7), (math.nan, 11), (math.nan, 7)]))
        bools = assert_same(fold_by_key("+"), bindings_for(context), [(1, True), (1, True), (2, False)])
        assert bools == ("ok", canonical([(1, 2), (2, False)])), "a lone value is not combined with anything"

    def test_a_mutating_combine_gets_its_own_accumulator_everywhere(self, context):
        keyed = fold_by_key("append")
        records = [(1, [10]), (2, [20]), (1, 11), (2, 21)]
        result = assert_same(keyed, bindings_for(context), records)
        assert result == ("ok", canonical([(1, [10, 11]), (2, [20, 21])]))
        exit_ = ("fold", ir.CVar("v$1"), *codegen.fold_operator("append", MONOIDS))
        unkeyed = Segment(("bind", PAIR), (), exit_)
        function = codegen.generate(unkeyed, bindings_for(context), {})
        assert function([(1, "a"), (2, "b")]) == [["a", "b"]]
        assert function([(3, "c")]) == [["c"]], "identity() is taken afresh for every partition"
        assert function([]) == [[]] and function([])[0] is not function([])[0]

    def test_empty_and_unreached_raise_nothing(self, context):
        ghost = ("let", ir.PVar("g"), ir.CCall("nope", (ir.CVar("ghost"),)))
        bindings = bindings_for(context)
        empty = codegen.generate(fold_by_key("+", ghost), bindings, {})([])
        assert (list(empty), empty.consumed) == ([], 0)
        guard = ("filter", ir.CBinOp(">", ir.CVar("i"), ir.CConst(10)))
        assert assert_same(fold_by_key("+", guard, ghost), bindings, [(1, 2)]) == ("ok", canonical([]))
        result = assert_same(fold_by_key("+", ghost), bindings, [(1, 2)])
        assert result == ("error", "ExecutionError", "unknown function 'nope'")
        late = assert_same(fold_by_key("+", key=ir.CVar("ghost")), bindings, [(1, 2)])
        assert late == ("error", "ExecutionError", "undefined variable 'ghost'")

    def test_consumed_counts_what_reached_the_fold(self, context):
        guard = ("filter", ir.CBinOp("!=", ir.CVar("v$1"), ir.CConst(0)))
        function = codegen.generate(fold_by_key("+", guard), bindings_for(context), {})
        folded = function([(1, 5), (1, 0), (2, 7), (1, 1)])
        assert (list(folded), folded.consumed) == ([(1, 6), (2, 7)], 3)

    def test_the_operator_is_inlined_only_when_the_registry_entry_is_the_builtin(self, context):
        assert "(held + " in codegen.generate(fold_by_key("+"), bindings_for(context), {}).source
        assert "combine(held, " in codegen.generate(fold_by_key("min"), bindings_for(context), {}).source
        registry = MonoidRegistry()
        registry.register(Monoid("+", 0, lambda a, b: a + b + 100), verify=False)
        bindings = bindings_for(context, monoids=registry)
        function = codegen.generate(fold_by_key("+", registry=registry), bindings, {})
        assert "combine(held, " in function.source
        assert list(function([(1, 1), (1, 2)])) == [(1, 103)]

    def test_the_unfolded_twin_is_the_keyed_segment_from_the_same_memo(self, context):
        memo: dict = {}
        segment = fold_by_key("+")
        function = codegen.generate(segment, bindings_for(context), memo)
        records = [(1, 2), (1, 3), (2, 4)]
        assert list(function(records)) == [(1, 5), (2, 4)]
        assert len(memo) == 1, "the twin is generated only when the sampler asks"
        assert function.unfolded()(records) == records
        keyed = segment._replace(exit=("keyed", ir.CVar("i"), ("value", "v$1")))
        assert set(memo) == {segment, keyed}
        assert function.retarget(keyed.exit)(records) == records and len(memo) == 2


# ---------------------------------------------------------------------------
# Shipping and memoisation
# ---------------------------------------------------------------------------


class TestShipping:
    def test_round_trips_by_value_with_a_snapshot_of_the_scalars_it_reads(self, context):
        live = {"s": 5, "unread": list(range(10_000))}
        term = ir.CBinOp("+", ir.CBinOp("*", ir.CVar("v$1"), ir.CVar("s")), ir.CVar("base$1"))
        function = codegen.generate(head(term), bindings_for(context, live, {"base$1": 1}), {})
        data = wire.cluster_dumps(function)
        assert b"TermEvaluator" not in data and len(data) < 4_000, "captured more than it reads"
        live["s"] = 6  # the shipped copy keeps the value at dispatch time
        shipped = wire.cluster_loads(data)
        assert shipped([(1, 2)]) == [11]
        assert function([(1, 2)]) == [13]

    def test_an_unresolved_scalar_still_fails_lazily_after_shipping(self, context):
        function = codegen.generate(head(ir.CVar("ghost")), bindings_for(context), {})
        shipped = wire.cluster_loads(wire.cluster_dumps(function))
        assert shipped([]) == []
        with pytest.raises(ExecutionError, match="undefined variable 'ghost'"):
            shipped([(1, 2)])

    def test_a_join_stage_ships_with_its_consumer(self, context):
        """What the cluster executor sends for a shuffle join's reduce side:
        the stage chain whose ``join_bucket`` carries the generated consumer."""
        shifted = ir.CBinOp("+", ir.CVar("v"), ir.CVar("s"))
        product = ("let", ir.PVar("p"), ir.CBinOp("*", ir.CVar("a"), shifted))
        exit_ = ("fold_by_key", ir.CVar("b"), ("value", "p"), *codegen.fold_operator("+", MONOIDS))
        segment = Segment(("cogroup", JOIN_NAMES, JOIN_PATTERN), (product,), exit_)
        live = {"s": 1, "unread": list(range(10_000))}
        consumer = codegen.generate(segment, bindings_for(context, live), {})
        join = functools.partial(stage.join_bucket, "inner", consumer=consumer)
        chain = (stage.NarrowStage(stage.PARTITIONS, join),)
        data = wire.cluster_dumps(chain)
        assert b"TermEvaluator" not in data and b"MonoidRegistry" not in data and len(data) < 4_000
        left = [(7, {"a": 2, "b": "x"}), (7, {"a": 3, "b": "y"})]
        right = [(7, (7, 10)), (7, (7, 20))]
        live["s"] = 5  # the shipped copy keeps the value at dispatch time
        shipped = stage.compose(wire.cluster_loads(data))(_tagged_bucket(left, right), 0)
        assert (list(shipped), shipped.consumed) == ([("x", 2 * 11 + 2 * 21), ("y", 3 * 11 + 3 * 21)], 4)
        assert type(wire.cluster_loads(wire.cluster_dumps(shipped))) is stage.FoldedRecords
        assert wire.cluster_loads(wire.cluster_dumps(shipped)).consumed == 4

    def test_generated_functions_do_not_pickle_for_the_process_pool(self, context):
        function = codegen.generate(head(ir.CVar("i")), bindings_for(context), {})
        assert not stage.is_picklable((stage.NarrowStage(stage.PARTITIONS, function),))


class TestMemo:
    def test_pagerank_compiles_each_distinct_segment_once(self, monkeypatch):
        compiled = []

        def counting_compile(source, *args, **kwargs):
            compiled.append(source)
            return compile(source, *args, **kwargs)

        monkeypatch.setattr(codegen, "compile", counting_compile, raising=False)
        spec = get_program("pagerank")
        inputs = workload_for_program("pagerank", 30)
        inputs["num_steps"] = 10
        with DistributedContext(num_partitions=4) as ctx:
            program = diablo_for(spec, ctx).compile(spec.source)
            first = translated_outputs("pagerank", program.run(**inputs))
            segments = program.translation.target.segments
            assert ctx.metrics.generated_segments > len(segments) > 0
            assert len(compiled) == len(segments), "one compile() per distinct segment"
            again = translated_outputs("pagerank", program.run(**inputs))
            assert len(compiled) == len(segments), "a second run compiles nothing"
            assert again == first


class TestObservability:
    def test_explain_names_the_operators_and_can_print_the_source(self):
        from repro.algebra.explain import explain_dataset, explain_metrics, explain_plan

        with DistributedContext(num_partitions=2) as ctx:
            values = {"P": ctx.indexed([(1.0, 2.0), (3.0, 4.0)]), "m": 2.0}
            evaluator = TermEvaluator(EvaluationEnvironment(ctx, values))
            distance = ir.CBinOp("-", ir.CProject(ir.CVar("p"), "_1"), ir.CVar("m"))
            comp = ir.Comprehension(
                ir.CVar("d"),
                (
                    ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("p"))), ir.CVar("P")),
                    ir.LetBinding(ir.PVar("d"), distance),
                    ir.Condition(ir.CBinOp(">", ir.CVar("d"), ir.CConst(0.0))),
                ),
            )
            dataset = evaluator.evaluate(comp)
            pending = explain_dataset(dataset)
            assert "NarrowChain(partitions)" in pending
            assert "generated: bind→let→filter→head" in pending
            assert "for rec in records:" in explain_dataset(dataset, sources=True)
            assert "* generated: bind→let→filter→head" in explain_plan(evaluator.last_plan)
            assert "for rec in records:" in explain_plan(evaluator.last_plan, sources=True)
            assert dataset.collect() == [1.0]
            assert "generated: bind→let→filter→head" in dataset.explain(), "kept once materialized"
            snapshot = ctx.metrics.snapshot()
            assert snapshot["generated_segments"] == 1
            assert (snapshot["fused_stages"], snapshot["fused_operators"]) == (1, 4)
            assert any("generated row segments: 1" in line for line in explain_metrics(ctx.metrics))

    def test_explain_shows_the_fused_join_consumer_and_the_folds(self):
        from repro.algebra.explain import explain_dataset, explain_plan

        spec = get_program("matrix_multiplication")
        label = "cogroup→filter→let×2→fold_by_key(+)"
        with DistributedContext(num_partitions=2, broadcast_join_threshold=0) as ctx:
            values = {
                # Join keys 0 and 2 meet in one of the two join buckets.
                "M": ctx.parallelize_pairs({(0, 0): 1.0, (0, 2): 2.0}),
                "N": ctx.parallelize_pairs({(0, 0): 3.0, (2, 0): 4.0}),
                "n": 1,
                "mm": 3,
            }
            evaluator = TermEvaluator(EvaluationEnvironment(ctx, values))
            program = diablo_for(spec, ctx).compile(spec.source).translation.target
            product = program.statements[-1].term.right  # R <|+ { ... group by ... }
            dataset = evaluator.evaluate(product)
            plan = explain_plan(evaluator.last_plan)
            assert f"* consumer fused into the join task: {label}" in plan
            assert f"* generated: {label}" in plan
            nested = explain_plan(evaluator.last_plan, sources=True)
            assert "for left in lefts:" in nested and "for element in rights:" in nested
            loop = nested.split("for left in lefts:")[1].split("return")[0]
            assert "acc[fold_key] = " in loop and "append(" not in loop
            pending = explain_dataset(dataset)
            assert "ShuffleStage(reduceByKey" in pending and "combiner=yes" in pending
            assert "ShuffleStage(join" in pending and f"generated: {label}" in pending
            assert "for left in lefts:" in explain_dataset(dataset, sources=True)
            assert dataset.collect() == [((0, 0), 11.0)]
            snapshot = ctx.metrics.snapshot()
            assert (snapshot["combiner_input_records"], snapshot["combiner_output_records"]) == (2, 1)
            assert snapshot["shuffle_joins"] == 1
            assert f"HashJoin[N on (i$47)]: consumer fused into the join task: {label}" in evaluator.trace

    def test_a_scalar_aggregate_folds_inside_the_generated_loop(self):
        with DistributedContext(num_partitions=4) as ctx:
            diablo = Diablo(ctx)
            result = diablo.compile("var s: double = 0.0; for v in V do if (v < 3.0) s += v * 2.0;").run(
                V=[1.0, 2.0, 5.0, 0.5]
            )
            assert result["s"] == 7.0
            assert "+/ folded inside the generated loop: bind→let→filter→let→fold(+)" in result.trace

    def test_a_chain_columnar_batches_keeps_its_kernel_stages(self):
        source = "var s: double = 0.0; for v in V do if (v < 3.0) s += v * 2.0;"
        for columnar, expect_generated in ((False, True), ("auto", False)):
            with DistributedContext(num_partitions=2, columnar=columnar) as ctx:
                result = Diablo(ctx).run(source, V=[1.0, 2.0, 5.0])
                assert result["s"] == 6.0
                assert (ctx.metrics.generated_segments > 0) == expect_generated
                assert (ctx.metrics.vectorized_stages > 0) == (not expect_generated)
