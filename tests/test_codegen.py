"""Row-segment code generation against its reference, ``evaluate_local``.

The generated per-partition functions must be observably the closure
composition they replaced: one map / filter per qualifier, each copying the
row dict, tree-walking its term through ``TermEvaluator.evaluate_local`` and
destructuring with ``_bind_pattern``.  :func:`reference` below *is* that
composition, kept here as the oracle: results must agree in type and bit
pattern, and failures in exception type and message.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Diablo
from repro.algebra import codegen
from repro.algebra.codegen import Segment
from repro.algebra.evaluator import EvaluationEnvironment, TermEvaluator, _bind_pattern
from repro.comprehension import ir
from repro.errors import ExecutionError
from repro.evaluation.harness import diablo_for, translated_outputs
from repro.programs import get_program
from repro.runtime.cluster import wire
from repro.runtime.context import DistributedContext
from repro.workloads import workload_for_program

@pytest.fixture(scope="module")
def context():
    with DistributedContext(num_partitions=2) as ctx:
        yield ctx


def bindings_for(context, values=None, base=None) -> codegen.Bindings:
    environment = EvaluationEnvironment(context, values if values is not None else {})
    evaluator = TermEvaluator(environment)
    return codegen.Bindings(
        base or {},
        evaluator._scope_values,
        environment.functions,
        environment.monoids,
        evaluator.evaluate_local,
    )


def generated(segment: Segment, bindings: codegen.Bindings, records: list) -> list:
    return codegen.generate(segment, bindings, {})(records)


def reference(segment: Segment, bindings: codegen.Bindings, records: list) -> list:
    """The per-qualifier closure composition the generator replaced."""
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
        exit_ = segment.exit
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
        return ("ok", canonical(run(segment, bindings, records)))
    except Exception as error:
        return ("error", type(error).__name__, str(error))


def assert_same(segment, bindings, records):
    expected = outcome(reference, segment, bindings, records)
    assert outcome(generated, segment, bindings, records) == expected
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


@settings(max_examples=150, deadline=None)
@given(step_list=st.lists(steps, max_size=3), exit_=exits, a=values, b=values, scalar=values)
def test_generated_dict_row_segment_equals_evaluate_local(context, step_list, exit_, a, b, scalar):
    """Dict-row entry: unread keys ride along, rebound keys keep their place."""
    bindings = bindings_for(context, {"s": scalar}, {"base$1": 3})
    records = [{"a": a, "unread": 0, "b": b}]
    segment = Segment(("row", ("a", "unread", "b")), tuple(step_list), exit_)
    assert_same(segment, bindings, records)


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
        from repro.runtime.stage import SaltedKey

        result = assert_same(head(ir.CVar("v$1")), bindings_for(context), [[1, 2], SaltedKey(3, 4)])
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
    def test_join_reduced_and_grouped_entries(self, context):
        bindings = bindings_for(context, {"s": 10})
        total = ir.CBinOp("+", ir.CVar("a"), ir.CVar("v"))
        join = Segment(("join", ("a", "b"), ir.PTuple((ir.PVar("k"), ir.PVar("v")))), (), ("row",))
        assert_same(join, bindings, [(7, ({"a": 1, "b": 2}, (7, 3)))])
        keyed = join._replace(exit=("keyed", total, ("value", "v")))
        assert_same(keyed, bindings, [(7, ({"a": 1, "b": 2}, (7, 3)))])
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

    def test_generated_functions_do_not_pickle_for_the_process_pool(self, context):
        from repro.runtime import stage

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

    def test_a_chain_columnar_batches_keeps_its_kernel_stages(self):
        source = "var s: double = 0.0; for v in V do if (v < 3.0) s += v * 2.0;"
        for columnar, expect_generated in ((False, True), ("auto", False)):
            with DistributedContext(num_partitions=2, columnar=columnar) as ctx:
                result = Diablo(ctx).run(source, V=[1.0, 2.0, 5.0])
                assert result["s"] == 6.0
                assert (ctx.metrics.generated_segments > 0) == expect_generated
                assert (ctx.metrics.vectorized_stages > 0) == (not expect_generated)
