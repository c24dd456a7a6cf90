"""Row-shape fast branches: a tuple row's shape is tested once per record.

A generated loop whose entry binds a variable whole and projects it at two
positions or more (linear_regression's ``p._1`` / ``p._2``) runs its body in
two branches under one test, ``type(v) is tuple and len(v) == K`` with K the
highest position projected.  The fast branch unpacks the tuple once and its
projections read the unpacked locals; the ``else`` branch is the one-branch
body.  So every row that is not an exact K-tuple -- a longer or shorter
tuple, a namedtuple, a list, a dict with ``_1`` keys -- gets the one-branch
results and errors, in the one-branch order.

The reference is ``evaluate_local`` through :func:`test_codegen.assert_same`,
down to the error raised.  A ``positional`` entry is held to the same
segment over the ``(position, element)`` pairs built on the driver.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_codegen import MONOIDS, assert_same, bindings_for, canonical

from repro.algebra import codegen
from repro.algebra.codegen import Segment
from repro.comprehension import ir
from repro.evaluation.harness import diablo_for
from repro.programs import get_program
from repro.runtime.cluster import wire
from repro.runtime.context import DistributedContext
from repro.workloads import workload_for_program


@pytest.fixture(scope="module")
def context():
    with DistributedContext(num_partitions=2) as ctx:
        yield ctx


V = ir.CVar("v")
X_BAR, Y_BAR = ir.CVar("x_bar"), ir.CVar("y_bar")
PAIR = ir.PTuple((ir.PVar("i"), ir.PVar("v")))
Point = collections.namedtuple("Point", ["x", "y"])

#: linear_regression's second loop: centred products of ``v._1`` and ``v._2``.
CENTRED = (
    ("let", ir.PVar("a"), ir.CProject(V, "_1")),
    ("let", ir.PVar("b"), ir.CBinOp("-", ir.CVar("a"), X_BAR)),
    ("let", ir.PVar("c"), ir.CProject(V, "_2")),
    ("let", ir.PVar("d"), ir.CBinOp("-", ir.CVar("c"), Y_BAR)),
    ("let", ir.PVar("e"), ir.CBinOp("*", ir.CVar("b"), ir.CVar("d"))),
)
#: Its first loop: one shared scan folding ``(v._1, v._2)``.
PLUS = codegen.fold_operator("+", MONOIDS)
PAIRED = ir.CTuple((ir.CProject(V, "_1"), ir.CProject(V, "_2")))
SUMS = ("fold", PAIRED, *codegen.fold_operator(("+", "+"), MONOIDS))
EXITS = {
    "sums": ((), SUMS),
    "centred fold": (CENTRED, ("fold", ir.CVar("e"), *PLUS)),
    "centred slots": (CENTRED, ("head", ir.CTuple(tuple(map(ir.CVar, "abcde"))))),
    "keyed by _2": (CENTRED, ("fold_by_key", ir.CProject(V, "_2"), ("value", "e"), *PLUS)),
    "filtered": (
        (("filter", ir.CBinOp("<", ir.CProject(V, "_1"), ir.CConst(3.0))), *CENTRED),
        ("head", ir.CTuple((ir.CVar("e"), ir.CProject(V, "_2")))),
    ),
}
#: Entries binding ``v``: whole, inside a pair, and as a positional element.
ENTRIES = ("bind", "pair", "positional")


def segment_for(entry: str, steps: tuple, exit_: tuple) -> Segment:
    """The segment over ``v`` as ``entry`` binds it (records are pairs but for ``bind``)."""
    if entry == "bind":
        return Segment(("bind", ir.PVar("v")), steps, exit_)
    return Segment((entry if entry == "positional" else "bind", PAIR), steps, exit_)


def positional(segment: Segment, bindings: codegen.Bindings, records: list) -> list:
    """The ``positional`` twin of a ``bind`` segment over ``(i, v)`` pairs,
    run over the plain elements with the first pair's position as offset."""
    twin = segment._replace(entry=("positional", segment.entry[1]))
    offsets = {codegen.OFFSETS: [records[0][0] if records else 0]}
    shifted = dataclasses.replace(bindings, base={**bindings.base, **offsets})
    function = codegen.generate(twin, shifted, {})
    elements = [element for _, element in records]
    result = function(elements, 0) if function.indexed else function(elements)
    return list(result) if segment.exit[0] == "fold_by_key" else result


def check(context, entry: str, steps: tuple, exit_: tuple, rows: list, scalars=(1.5, -0.5)):
    """``assert_same`` for ``rows`` under ``entry``; returns the outcome."""
    bindings = bindings_for(context, {"x_bar": scalars[0], "y_bar": scalars[1]})
    segment = segment_for(entry, steps, exit_)
    if entry == "bind":
        return assert_same(segment, bindings, rows)
    pairs = [(position + 3, row) for position, row in enumerate(rows)]
    if entry == "pair":
        return assert_same(segment, bindings, pairs)
    return assert_same(segment._replace(entry=("bind", PAIR)), bindings, pairs, run=positional)


def fast_branch(source: str) -> list[str]:
    """The lines of the fast branch of ``source`` (empty when it has none)."""
    lines = source.split("\n")
    for at, line in enumerate(lines):
        if re.fullmatch(r"( *)if type\((\w+)\) is tuple and len\(\2\) == \d+:", line):
            indent = len(line) - len(line.lstrip())
            end = lines.index(" " * indent + "else:", at)
            return lines[at + 1 : end]
    return []


class TestTheBranch:
    def test_two_projected_positions_get_one_test_and_one_unpacking(self, context):
        bindings = bindings_for(context, {"x_bar": 1.0, "y_bar": 2.0})
        for entry in ENTRIES:
            source = codegen.generate(segment_for(entry, *EXITS["centred fold"]), bindings, {}).source
            branch = fast_branch(source)
            assert len(re.findall(r"is tuple and len\(\w+\) == 2:", source)) == 1
            assert branch and re.fullmatch(r"\w+_1, \w+_2 = \w+", branch[0].strip())
            assert not any("project_value(" in line or "len(" in line for line in branch)

    def test_the_width_is_the_highest_position_and_gaps_unpack_to_wildcards(self, context):
        steps = (("let", ir.PVar("a"), ir.CProject(V, "_3")),)
        exit_ = ("head", ir.CTuple((ir.CVar("a"), ir.CProject(V, "_1"))))
        source = codegen.generate(segment_for("bind", steps, exit_), bindings_for(context), {}).source
        assert "if type(r1_v) is tuple and len(r1_v) == 3:" in source
        assert fast_branch(source)[0].strip() == "r1_v_1, _, r1_v_3 = r1_v"
        for rows in ([(1, 2, 3)], [(1, 2)], [(1, 2, 3, 4)], [{"_1": 1, "_3": 3}], [[1, 2, 3]]):
            check(context, "bind", steps, exit_, rows)

    def test_one_position_or_a_rebound_variable_keeps_one_branch(self, context):
        bindings = bindings_for(context, {"x_bar": 1.0})
        once = (("let", ir.PVar("a"), ir.CProject(V, "_1")), ("let", ir.PVar("b"), ir.CProject(V, "_1")))
        rebound = (("let", ir.PVar("v"), ir.CProject(V, "_2")),)
        exit_ = ("head", ir.CTuple((ir.CVar("a"), ir.CProject(V, "_2"))))
        for steps, exit_ in ((once, ("head", ir.CVar("b"))), (rebound, ("head", ir.CProject(V, "_1")))):
            source = codegen.generate(segment_for("bind", steps, exit_), bindings, {}).source
            assert not fast_branch(source) and "else:" not in source

    def test_a_projection_inside_a_nested_comprehension_reads_its_own_row(self, context):
        """A helper function has no unpacked locals: it projects as before."""
        inner = ir.Comprehension(
            ir.CBinOp("+", ir.CVar("w"), ir.CProject(V, "_1")),
            (ir.Generator(ir.PVar("w"), ir.CTuple((ir.CProject(V, "_2"), ir.CConst(1)))),),
        )
        steps = (("let", ir.PVar("a"), ir.CProject(V, "_1")),)
        exit_ = ("head", ir.CTuple((ir.CVar("a"), ir.CProject(V, "_2"), inner)))
        for rows in ([(1, 2), (3, 4)], [(1, 2, 3)], [{"_1": 1, "_2": 2}], [(1,)]):
            check(context, "bind", steps, exit_, rows)

    def test_an_alias_bound_at_another_depth_keeps_one_branch(self, context):
        """Rebinding ``a`` drops the one-branch body's memo of ``v._1``, so
        inside the generator its key part is bound there; the fast branch
        would alias the outer unpacked local and fold the key factorised.
        The branches must leave through one exit: the body stays one branch."""
        steps = (
            ("let", ir.PVar("a"), ir.CProject(V, "_1")),
            ("let", ir.PVar("a"), ir.CBinOp("+", ir.CVar("a"), ir.CConst(1))),
            ("expand", ir.PVar("x"), ir.RangeTerm(ir.CConst(1), ir.CConst(2))),
            ("let", ir.PVar("k"), ir.CProject(V, "_1")),
            ("let", ir.PVar("w"), ir.CBinOp("*", ir.CProject(V, "_2"), ir.CVar("x"))),
        )
        exit_ = ("fold_by_key", ir.CTuple((ir.CVar("k"), ir.CVar("x"))), ("value", "w"), *PLUS)
        source = codegen.generate(segment_for("bind", steps, exit_), bindings_for(context), {}).source
        assert not fast_branch(source) and "else:" not in source
        check(context, "bind", steps, exit_, [(1, 2), (1, 3), (2, 5)])

    def test_a_folded_key_inside_a_generator_takes_one_exit_in_both_branches(self, context):
        steps = (
            ("expand", ir.PVar("x"), ir.RangeTerm(ir.CConst(1), ir.CConst(2))),
            ("let", ir.PVar("k"), ir.CProject(V, "_1")),
            ("let", ir.PVar("w"), ir.CBinOp("*", ir.CProject(V, "_2"), ir.CVar("x"))),
        )
        exit_ = ("fold_by_key", ir.CTuple((ir.CVar("k"), ir.CVar("x"))), ("value", "w"), *PLUS)
        source = codegen.generate(segment_for("pair", steps, exit_), bindings_for(context), {}).source
        assert fast_branch(source)
        for rows in ([(1, 2), (1, 3), (2, 5)], [(1, 2), [1, 3], (1, 3, 4), {"_1": 2, "_2": 5}]):
            check(context, "pair", steps, exit_, rows)


ROWS = {
    "exact pairs": [(1.0, 2.0), (3.5, -1.25), (0, 7)],
    "triples": [(1.0, 2.0, 3.0)],
    "singles": [(1.0,)],
    "dicts": [{"_1": 1.0, "_2": 2.0}, {"_2": 4.0, "_1": 3.0, "z": 0}],
    "dict missing _2": [{"_1": 1.0}],
    "namedtuples": [Point(1.0, 2.0)],
    "lists": [[1.0, 2.0], [3.0, 4.0, 5.0]],
    "mixed": [(1.0, 2.0), {"_1": 3.0, "_2": 4.0}, [5.0, 6.0], (7.0, 8.0), Point(1.5, 2.5), (9.0, 10.0)],
    "pair then triple": [(1.0, 2.0), (3.0, 4.0), (1.0, 2.0, 3.0)],
    "pair then single": [(1.0, 2.0), (3.0,)],
    "strings": [("ab", "cd")],
    "scalar": [5.0],
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("exit_name", sorted(EXITS))
@pytest.mark.parametrize("rows", sorted(ROWS))
def test_every_row_shape_equals_evaluate_local(context, entry, exit_name, rows):
    check(context, entry, *EXITS[exit_name], ROWS[rows])


class TestErrors:
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_a_short_or_long_tuple_raises_the_one_branch_error(self, context, entry):
        short = check(context, entry, *EXITS["centred slots"], [(1.0, 2.0), (1.0,)])
        assert short == ("error", "ExecutionError", "tuple projection '_2' out of range for (1.0,)")
        long = check(context, entry, *EXITS["centred slots"], [(1.0, 2.0, 3.0)])
        assert long[0] == "ok"
        missing = check(context, entry, *EXITS["sums"], [{"_1": 1.0}])
        assert missing == ("error", "ExecutionError", "record has no field '_2': {'_1': 1.0}")

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_the_first_projection_s_error_comes_before_any_second_projection(self, context, entry):
        """``("a", 1.0)``: ``v._1 - x_bar`` raises before ``v._2`` is read,
        in the fast branch as in the one-branch body; ``("a",)`` too, before
        its missing ``_2`` could raise."""
        for rows in ([("a", 1.0)], [("a",)]):
            outcome = check(context, entry, *EXITS["centred slots"], rows)
            assert outcome[:2] == ("error", "TypeError") and "str" in outcome[2]

    def test_a_namedtuple_projects_through_project_value(self, context):
        """A tuple subclass fails the exact-type test: ``project_value``
        indexes it like a tuple."""
        outcome = check(context, "bind", *EXITS["centred slots"], [Point(2.5, 0.5)])
        assert outcome == ("ok", canonical([(2.5, 1.0, 0.5, 1.0, 1.0)]))


#: Row values: numbers that fold to exact bits, strings that fail arithmetic.
scalars = st.one_of(
    st.sampled_from([0, 1, -3, 0.5, -2.25, 1e300, math.inf, math.nan, True]),
    st.sampled_from(["a", None]),
)
#: Every row shape the branch test separates.
rows = st.one_of(
    *[st.tuples(scalars, scalars)] * 4,
    st.tuples(scalars),
    st.tuples(scalars, scalars, scalars),
    st.builds(lambda a, b: {"_1": a, "_2": b}, scalars, scalars),
    st.builds(lambda a: {"_1": a}, scalars),
    st.builds(Point, scalars, scalars),
    st.lists(scalars, min_size=1, max_size=3),
    scalars,
)


@settings(max_examples=300, deadline=None)
@given(
    entry=st.sampled_from(ENTRIES),
    exit_name=st.sampled_from(sorted(EXITS)),
    records=st.lists(rows, max_size=6),
    x_bar=st.sampled_from([1.5, 0, "s"]),
)
def test_any_mix_of_row_shapes_equals_evaluate_local(context, entry, exit_name, records, x_bar):
    check(context, entry, *EXITS[exit_name], records, scalars=(x_bar, -0.5))


class TestLinearRegression:
    def test_the_fold_loops_unpack_each_row_once(self):
        spec = get_program("linear_regression")
        with DistributedContext(num_partitions=3) as ctx:
            program = diablo_for(spec, ctx).compile(spec.source)
            program.run(**workload_for_program("linear_regression", 40, seed=5))
        folds = [
            entry[1]
            for segment, entry in program.translation.target.segments.items()
            if segment.exit[0] == "fold"
        ]
        assert len(folds) == 2
        for source in folds:
            branch = fast_branch(source)
            assert branch[0].strip() == "rec_1, rec_2 = rec"
            assert not any("project_value(" in line or "len(" in line for line in branch)


class TestShipping:
    def test_a_two_branch_fold_ships_by_value_and_runs_both_branches(self, context):
        bindings = bindings_for(context, {"x_bar": 1.0, "y_bar": 2.0})
        function = codegen.generate(segment_for("bind", *EXITS["centred fold"]), bindings, {})
        assert fast_branch(function.source)
        shipped = wire.cluster_loads(wire.cluster_dumps(function))
        records = [(2.0, 4.0), Point(3.0, 3.0), {"_1": 0.0, "_2": 1.0}, (1.0, 2.0, 9.0)]
        assert shipped(records) == function(records) == [2.0 + 2.0 + 1.0 + 0.0]
