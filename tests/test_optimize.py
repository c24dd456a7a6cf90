"""Tests for the Section 3.6 / Section 4 comprehension optimizations."""

from repro.comprehension import ir
from repro.comprehension.optimize import Optimizer
from repro.translate.translator import DiabloCompiler


def optimize(comp, arrays):
    return Optimizer(array_variables=arrays).optimize(comp)


class TestRangeElimination:
    def make_range_join(self):
        # { (i, w) | i <- range(1, 10), (j, w) <- W, j == i }
        return ir.Comprehension(
            ir.CTuple((ir.CVar("i"), ir.CVar("w"))),
            (
                ir.Generator(ir.PVar("i"), ir.RangeTerm(ir.CConst(1), ir.CConst(10))),
                ir.Generator(ir.PTuple((ir.PVar("j"), ir.PVar("w"))), ir.CVar("W")),
                ir.Condition(ir.CBinOp("==", ir.CVar("j"), ir.CVar("i"))),
            ),
        )

    def test_range_replaced_by_in_range_guard(self):
        result = optimize(self.make_range_join(), {"W"})
        assert not any(
            isinstance(q, ir.Generator) and isinstance(q.domain, ir.RangeTerm)
            for q in result.qualifiers
        )
        assert any(
            isinstance(q, ir.Condition) and isinstance(q.term, ir.InRange)
            for q in result.qualifiers
        )

    def test_head_is_rewritten_to_the_array_index(self):
        result = optimize(self.make_range_join(), {"W"})
        assert result.head == ir.CTuple((ir.CVar("j"), ir.CVar("w")))

    def test_affine_offset_is_inverted(self):
        # condition j == i - 1  =>  i = j + 1
        comp = ir.Comprehension(
            ir.CVar("i"),
            (
                ir.Generator(ir.PVar("i"), ir.RangeTerm(ir.CConst(0), ir.CConst(9))),
                ir.Generator(ir.PTuple((ir.PVar("j"), ir.PVar("w"))), ir.CVar("W")),
                ir.Condition(ir.CBinOp("==", ir.CVar("j"), ir.CBinOp("-", ir.CVar("i"), ir.CConst(1)))),
            ),
        )
        result = optimize(comp, {"W"})
        assert not any(
            isinstance(q, ir.Generator) and isinstance(q.domain, ir.RangeTerm)
            for q in result.qualifiers
        )
        assert result.head == ir.CBinOp("+", ir.CVar("j"), ir.CConst(1))

    def test_range_without_join_condition_is_kept(self):
        comp = ir.Comprehension(
            ir.CTuple((ir.CVar("i"), ir.CConst(0))),
            (ir.Generator(ir.PVar("i"), ir.RangeTerm(ir.CConst(1), ir.CVar("n"))),),
        )
        result = optimize(comp, set())
        assert any(
            isinstance(q, ir.Generator) and isinstance(q.domain, ir.RangeTerm)
            for q in result.qualifiers
        )

    def test_stats_count_rewrites(self):
        optimizer = Optimizer(array_variables={"W"})
        optimizer.optimize(self.make_range_join())
        assert optimizer.stats.ranges_eliminated == 1



class TestGroupByElimination:
    def test_constant_key_total_aggregation(self):
        # { (k, +/v) | (i, v) <- V, let k = (), group by k }  (Rule 16)
        comp = ir.Comprehension(
            ir.CTuple((ir.CVar("k"), ir.Aggregate("+", ir.CVar("v")))),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("v"))), ir.CVar("V")),
                ir.LetBinding(ir.PVar("k"), ir.CTuple(())),
                ir.GroupBy(ir.PVar("k"), None),
            ),
        )
        optimizer = Optimizer(array_variables={"V"})
        result = optimizer.optimize(comp)
        assert optimizer.stats.constant_key_group_bys_removed == 1
        assert not any(isinstance(q, ir.GroupBy) for q in result.qualifiers)
        # The lifted variable becomes a nested comprehension over V.
        assert any(
            isinstance(q, ir.LetBinding) and isinstance(q.term, ir.Comprehension)
            for q in result.qualifiers
        )

    def test_unique_key_removed(self):
        # { (k, +/w) | (i, w) <- W, let k = i, group by k }  (Rule 17)
        comp = ir.Comprehension(
            ir.CTuple((ir.CVar("k"), ir.Aggregate("+", ir.CVar("w")))),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("w"))), ir.CVar("W")),
                ir.LetBinding(ir.PVar("k"), ir.CVar("i")),
                ir.GroupBy(ir.PVar("k"), None),
            ),
        )
        optimizer = Optimizer(array_variables={"W"})
        result = optimizer.optimize(comp)
        assert optimizer.stats.unique_key_group_bys_removed == 1
        assert not any(isinstance(q, ir.GroupBy) for q in result.qualifiers)

    def test_non_unique_key_kept(self):
        # word count: key is the element value, not the index -> keep group-by.
        comp = ir.Comprehension(
            ir.CTuple((ir.CVar("k"), ir.Aggregate("+", ir.CVar("one")))),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("w"))), ir.CVar("words")),
                ir.LetBinding(ir.PVar("one"), ir.CConst(1)),
                ir.GroupBy(ir.PVar("k"), ir.CVar("w")),
            ),
        )
        optimizer = Optimizer(array_variables={"words"})
        result = optimizer.optimize(comp)
        assert any(isinstance(q, ir.GroupBy) for q in result.qualifiers)
        assert optimizer.stats.unique_key_group_bys_removed == 0

    def test_matrix_multiplication_group_by_is_kept(self):
        compiler = DiabloCompiler()
        result = compiler.compile(
            """
            var R: matrix[double] = matrix();
            for i = 0, n-1 do
              for j = 0, n-1 do
                for k = 0, n-1 do
                  R[i,j] += M[i,k]*N[k,j];
            """
        )
        update = result.target.statements[-1]
        # R is fresh, so the ⊳+ into it became the delta itself.
        delta = update.term
        assert isinstance(delta, ir.Comprehension)
        assert any(isinstance(q, ir.GroupBy) for q in delta.qualifiers)

    def test_vector_copy_group_by_is_removed(self):
        compiler = DiabloCompiler()
        result = compiler.compile("for i = 1, 10 do V[i] += W[i];")
        update = result.target.statements[-1]
        assert isinstance(update.term, ir.MergeWith)
        delta = update.term.right
        assert not any(isinstance(q, ir.GroupBy) for q in delta.qualifiers)
        assert result.optimizer_stats.unique_key_group_bys_removed == 1

    def test_scalar_sum_uses_rule_16(self):
        compiler = DiabloCompiler()
        result = compiler.compile("var s: double = 0.0; for v in V do s += v;")
        assert result.optimizer_stats.constant_key_group_bys_removed >= 1



class TestOptimizedTranslationShapes:
    def test_matrix_multiplication_ranges_are_eliminated(self):
        compiler = DiabloCompiler()
        result = compiler.compile(
            """
            var R: matrix[double] = matrix();
            for i = 0, n-1 do
              for j = 0, n-1 do {
                R[i,j] := 0.0;
                for k = 0, n-1 do
                  R[i,j] += M[i,k]*N[k,j];
              };
            """
        )
        assert result.optimizer_stats.ranges_eliminated >= 3
        final = result.target.statements[-1]
        delta = final.term.right
        # The delta scans M and N and joins them on the shared index.
        scanned = {
            q.domain.name
            for q in delta.qualifiers
            if isinstance(q, ir.Generator) and isinstance(q.domain, ir.CVar)
        }
        assert {"M", "N"} <= scanned

    def test_vector_init_keeps_range_generator(self):
        compiler = DiabloCompiler()
        result = compiler.compile("for i = 1, n do V[i] := 0;")
        assign = result.target.statements[-1]
        merged = assign.term
        assert isinstance(merged, ir.Merge)
        assert any(
            isinstance(q, ir.Generator) and isinstance(q.domain, ir.RangeTerm)
            for q in merged.right.qualifiers
        )
