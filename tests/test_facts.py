"""Target-program facts: def-use per program, plan shape per comprehension.

The def-use facts drive the runner (loop invariants, program-level
placement); the plan-shape classifiers are the one definition of "hash join
or product" and "reduceByKey or groupByKey" that the evaluator, ``explain_term``
and the plan lint all share.
"""

from __future__ import annotations

import pytest

from repro import Diablo
from repro.algebra.evaluator import EvaluationEnvironment, TermEvaluator
from repro.algebra.explain import explain_term
from repro.analysis.plan_lint import lint_target
from repro.comprehension import ir
from repro.evaluation.harness import diablo_for
from repro.programs import get_program
from repro.runtime.context import DistributedContext
from repro.translate import facts
from repro.translate.target import TargetAssign, TargetProgram, TargetWhile, VariableInfo

NESTED_WHILE = """
var s: double = 0.0;
var k: int = 0;
var j: int = 0;
var B: vector[double] = vector();
while (k < 3) {
  k += 1;
  j := 0;
  while (j < 2) {
    j += 1;
    for i = 0, 9 do
      B[i] += A[i] * W[i];
  };
  for i = 0, 9 do
    s += B[i] * A[i];
};
for i = 0, 9 do
  C[i] := A[i] + W[i];
"""


def _program(name: str) -> TargetProgram:
    spec = get_program(name)
    return diablo_for(spec).compile(spec.source).translation.target


def _loops(statements):
    for statement in statements:
        if isinstance(statement, TargetWhile):
            yield statement
            yield from _loops(statement.body)


class TestDefUse:
    def test_pagerank(self):
        target = _program("pagerank")
        program_facts = target.facts
        assert program_facts.assigned == {"C", "P", "Q", "b", "k"}
        assert program_facts.loop_assigned == {"P", "Q", "k"}
        (loop,) = _loops(target.statements)
        assert program_facts.assigned_in(loop) == {"P", "Q", "k"}
        # C: the degree merge and the in-loop join on C's key; P: the join
        # building Q and the two merges into P; Q: the join feeding the
        # rank update's group-by.  E's key is a pair the group-by only
        # half uses, so E is no keyed consumer.
        assert program_facts.keyed_demand == {"C": 2, "P": 3, "Q": 1}
        assert program_facts.top_level_demand == {"C": 1}

    def test_kmeans(self):
        program_facts = _program("kmeans").facts
        assert program_facts.assigned == {"C", "avg", "closest"}
        assert program_facts.loop_assigned == frozenset()
        # One clustering step, no loop: full and top-level demand agree.
        assert program_facts.keyed_demand == {"C": 1, "P": 2, "closest": 2}
        assert program_facts.top_level_demand == program_facts.keyed_demand

    def test_nested_while(self):
        target = Diablo().compile(NESTED_WHILE).translation.target
        program_facts = target.facts
        assert program_facts.assigned == {"B", "C", "j", "k", "s"}
        assert program_facts.loop_assigned == {"B", "j", "k", "s"}
        outer, inner = _loops(target.statements)
        assert program_facts.assigned_in(outer) == {"B", "j", "k", "s"}
        assert program_facts.assigned_in(inner) == {"B", "j"}
        assert program_facts.keyed_demand == {"A": 3, "B": 2, "C": 1, "W": 2}
        assert program_facts.top_level_demand == {"A": 1, "C": 1, "W": 1}
        assert facts.mentioned_names(inner) == {"A", "B", "W", "j"}
        assert facts.mentioned_names(outer) == {"A", "B", "W", "j", "k", "s"}

    def test_facts_are_computed_once_per_program(self):
        target = _program("pagerank")
        assert target.facts is target.facts


# { (k, +/k) | (i, v) <- V, group by k : i % 2 }: the aggregated variable is
# the group key, not a lifted one, so the group-by keeps its groups.
AGGREGATE_OF_THE_KEY = ir.Comprehension(
    ir.CTuple((ir.CVar("k"), ir.Aggregate("+", ir.CVar("k")))),
    (
        ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("v"))), ir.CVar("V")),
        ir.GroupBy(ir.PVar("k"), ir.CBinOp("%", ir.CVar("i"), ir.CConst(2))),
    ),
)

# { (i, v * w) | (i, v) <- V, (j, w) <- W, j == n } with n a program scalar:
# every row joins W on the key n.
JOIN_ON_A_SCALAR = ir.Comprehension(
    ir.CTuple((ir.CVar("i"), ir.CBinOp("*", ir.CVar("v"), ir.CVar("w")))),
    (
        ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("v"))), ir.CVar("V")),
        ir.Generator(ir.PTuple((ir.PVar("j"), ir.PVar("w"))), ir.CVar("W")),
        ir.Condition(ir.CBinOp("==", ir.CVar("j"), ir.CVar("n"))),
    ),
)


def _evaluator_trace(term: ir.Term) -> tuple[list, list[str]]:
    with DistributedContext(num_partitions=2) as context:
        values = {
            "V": context.parallelize_pairs({0: 1, 1: 2, 2: 3}),
            "W": context.parallelize_pairs({0: 1.0, 1: 5.0}),
            "n": 1,
        }
        evaluator = TermEvaluator(EvaluationEnvironment(context, values))
        return sorted(evaluator.evaluate_bag(term).collect()), evaluator.trace


class TestStaticShapeMatchesTheEvaluator:
    def test_aggregate_of_the_group_key_is_a_group_by_key(self):
        summary = explain_term(AGGREGATE_OF_THE_KEY, {"V"})
        assert (summary.group_bys, summary.reduce_by_keys) == (1, 0)
        rows, trace = _evaluator_trace(AGGREGATE_OF_THE_KEY)
        assert rows == [(0, 0), (1, 1)]
        assert "group-by on (i % 2) compiled to groupByKey" in trace

    def test_join_on_a_scalar_is_a_hash_join(self):
        summary = explain_term(JOIN_ON_A_SCALAR, {"V", "W"})
        assert (summary.hash_joins, summary.broadcast_joins) == (1, 0)
        rows, trace = _evaluator_trace(JOIN_ON_A_SCALAR)
        assert rows == [(0, 5.0), (1, 10.0), (2, 15.0)]
        assert "hash join on 1 key(s) with W" in trace

    def test_lint_reports_no_product_for_the_join_on_a_scalar(self):
        target = TargetProgram(
            (TargetAssign("X", JOIN_ON_A_SCALAR),),
            {
                "V": VariableInfo("V", "array", is_input=True),
                "W": VariableInfo("W", "array", is_input=True),
                "n": VariableInfo("n", "scalar", is_input=True),
                "X": VariableInfo("X", "array"),
            },
        )
        assert [d.code for d in lint_target(target) if d.code == "D501"] == []

    def test_plan_shape_per_qualifier(self):
        assert facts.plan_shape(JOIN_ON_A_SCALAR, {"V", "W"}) == {0: "scan", 1: "hash-join"}
        # Without n among the scalars (here: n is an array) no key is left.
        assert facts.plan_shape(JOIN_ON_A_SCALAR, {"V", "W", "n"}) == {0: "scan", 1: "product"}
        assert facts.plan_shape(AGGREGATE_OF_THE_KEY, {"V"}) == {0: "scan", 1: "groupByKey"}


class TestJoinKeys:
    def _comp(self, *conditions: ir.Term) -> tuple[ir.Qualifier, ...]:
        return (
            ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("v"))), ir.CVar("V")),
            ir.Generator(ir.PTuple((ir.PVar("j"), ir.PVar("w"))), ir.CVar("W")),
            *(ir.Condition(condition) for condition in conditions),
        )

    def test_either_orientation_keys_the_join(self):
        for condition in (
            ir.CBinOp("==", ir.CVar("i"), ir.CVar("j")),
            ir.CBinOp("==", ir.CVar("j"), ir.CVar("i")),
        ):
            (key,) = facts.join_keys(self._comp(condition), 1, {"i", "v"}, set())
            assert key == (2, ir.CVar("i"), ir.CVar("j"))

    def test_consumed_conditions_and_conditions_after_a_group_by_do_not_key(self):
        equal = ir.CBinOp("==", ir.CVar("i"), ir.CVar("j"))
        qualifiers = self._comp(equal)
        assert facts.join_keys(qualifiers, 1, {"i", "v"}, set(), consumed={2}) == []
        grouped = (*qualifiers[:2], ir.GroupBy(ir.PVar("g"), ir.CVar("i")), ir.Condition(equal))
        assert facts.join_keys(grouped, 1, {"i", "v"}, set()) == []

    def test_a_new_side_reading_earlier_rows_is_no_key(self):
        # j + i == v mixes the rows into the new generator's side: a filter.
        condition = ir.CBinOp(
            "==", ir.CBinOp("+", ir.CVar("j"), ir.CVar("i")), ir.CVar("v")
        )
        assert facts.join_keys(self._comp(condition), 1, {"i", "v"}, set()) == []

    @pytest.mark.parametrize(
        "head, expected",
        [
            (ir.CTuple((ir.CVar("k"), ir.Aggregate("+", ir.CVar("v")))), ("+", "v")),
            (ir.CTuple((ir.CVar("k"), ir.Aggregate("+", ir.CVar("k")))), None),
            (ir.CTuple((ir.CVar("i"), ir.Aggregate("+", ir.CVar("v")))), None),
            (ir.CTuple((ir.CVar("k"), ir.CVar("v"))), None),
        ],
    )
    def test_reduce_shape(self, head, expected):
        assert facts.reduce_shape(head, (), ["k"], ["i", "v"]) == expected
