"""Tests for the sequential reference interpreter."""

import pytest

from repro.comprehension.monoids import MonoidRegistry, argmin_monoid, avg_monoid
from repro.errors import InterpreterError
from repro.functions import FunctionRegistry
from repro.loop_lang.interpreter import Interpreter, interpret_program


class TestScalars:
    def test_declaration_and_assignment(self):
        state = interpret_program("var x: int = 1; x := x + 2;")
        assert state["x"] == 3

    def test_incremental_update(self):
        state = interpret_program("var x: int = 0; x += 5; x += 7;")
        assert state["x"] == 12

    def test_multiplicative_update(self):
        state = interpret_program("var x: int = 1; x *= 3; x *= 4;")
        assert state["x"] == 12

    def test_boolean_operators(self):
        state = interpret_program("var b: bool = true; b := b && false; var c: bool = false; c := c || true;")
        assert state["b"] is False
        assert state["c"] is True

    def test_comparisons(self):
        state = interpret_program("var b: bool = false; b := 3 < 5;")
        assert state["b"] is True

    def test_division_of_integers_gives_exact_result_when_divisible(self):
        state = interpret_program("var x: int = 10; x := x / 2;")
        assert state["x"] == 5

    def test_unary_minus_and_not(self):
        state = interpret_program("var x: int = 0; x := -5; var b: bool = true; b := !b;")
        assert state["x"] == -5
        assert state["b"] is False

    def test_undefined_variable_raises(self):
        with pytest.raises(InterpreterError):
            interpret_program("x := y + 1;")


class TestLoops:
    def test_for_range_is_inclusive(self):
        state = interpret_program("var s: int = 0; for i = 1, 4 do s += i;")
        assert state["s"] == 10

    def test_for_range_with_expression_bounds(self):
        state = interpret_program("var s: int = 0; for i = 0, n-1 do s += 1;", {"n": 5})
        assert state["s"] == 5

    def test_for_in_over_list(self):
        state = interpret_program("var s: double = 0.0; for v in V do s += v;", {"V": [1.0, 2.0, 3.0]})
        assert state["s"] == 6.0

    def test_for_in_over_dict_iterates_values(self):
        state = interpret_program("var s: int = 0; for v in V do s += v;", {"V": {10: 1, 20: 2}})
        assert state["s"] == 3

    def test_while_loop(self):
        state = interpret_program("var k: int = 0; while (k < 5) k += 1;")
        assert state["k"] == 5

    def test_nested_loops(self):
        state = interpret_program("var s: int = 0; for i = 1, 3 do for j = 1, 3 do s += 1;")
        assert state["s"] == 9

    def test_if_else(self):
        source = "var a: int = 0; var b: int = 0; for v in V do if (v < 10) a += 1; else b += 1;"
        state = interpret_program(source, {"V": [1, 20, 3, 30]})
        assert state["a"] == 2
        assert state["b"] == 2


class TestArrays:
    def test_vector_update_and_read(self):
        state = interpret_program("var V: vector[int] = vector(); V[3] := 7; V[3] += 1;")
        assert state["V"] == {3: 8}

    def test_matrix_update(self):
        state = interpret_program("var M: matrix[int] = matrix(); M[1,2] := 5;")
        assert state["M"] == {(1, 2): 5}

    def test_missing_entry_defaults_to_zero(self):
        state = interpret_program("var x: int = 0; x := V[99];", {"V": {1: 5}})
        assert state["x"] == 0

    def test_missing_entry_error_mode(self):
        with pytest.raises(InterpreterError):
            interpret_program("var x: int = 0; x := V[99];", {"V": {1: 5}}, missing_default=None)

    def test_an_absent_read_skips_that_statement_instance_only(self):
        source = """
var W: vector[int] = vector();
var n: int = 0;
var m: int = 0;
for i = 1, 3 do W[i] := V[i] * 10;
for i = 1, 3 do if (V[i] > 4) n += 1; else m += 1;
for i = 1, 3 do m += V[i];
"""
        state = interpret_program(source, {"V": {1: 5, 3: 4}})
        assert state["W"] == {1: 50, 3: 40}
        assert (state["n"], state["m"]) == (1, 1 + 9), "the If at i = 2 runs neither branch"

    def test_an_assignment_folding_its_destination_is_an_update(self):
        """``d := d ⊕ e`` runs as ``d ⊕= e``: an absent ``d`` is ⊕'s identity."""
        source = "var W: vector[int] = vector(); for i = 1, 2 do W[i] := W[i] * V[i];"
        assert interpret_program(source, {"V": {1: 3, 2: 4}})["W"] == {1: 3, 2: 4}

    @pytest.mark.parametrize(
        "source, where",
        [
            ("var x: int = V[9];", "VarDecl"),
            ("var x: int = 0; for i = 1, V[9] do x += i;", "ForRange"),
            ("var x: int = 0; while (V[9] > x) x += 1;", "While"),
        ],
    )
    def test_an_absent_read_outside_an_update_is_an_error_naming_it(self, source, where):
        with pytest.raises(InterpreterError, match=rf"absent entry V\[9\] read in a {where}$"):
            interpret_program(source, {"V": {1: 5}})

    def test_incremental_update_on_missing_entry_uses_identity(self):
        state = interpret_program(
            "var C: map[string,int] = map(); for w in words do C[w] += 1;", {"words": ["a", "a", "b"]}
        )
        assert state["C"] == {"a": 2, "b": 1}

    def test_list_inputs_are_indexed_by_position(self):
        state = interpret_program("var x: double = 0.0; x := P[1];", {"P": [10.0, 20.0]})
        assert state["x"] == 20.0

    def test_indexing_with_array_value(self):
        state = interpret_program(
            "var W: vector[int] = vector(); for i = 0, 2 do W[K[i]] += V[i];",
            {"K": {0: 5, 1: 5, 2: 6}, "V": {0: 1, 1: 2, 2: 3}},
        )
        assert state["W"] == {5: 3, 6: 3}

    def test_input_arrays_are_not_mutated(self):
        original = {0: 1}
        interpret_program("V[0] := 99;", {"V": original})
        assert original == {0: 1}


class TestRecordsAndFunctions:
    def test_record_projection(self):
        state = interpret_program("var x: int = 0; x := p.red;", {"p": {"red": 7}})
        assert state["x"] == 7

    def test_tuple_projection(self):
        state = interpret_program("var x: double = 0.0; x := p._2;", {"p": (1.0, 2.0)})
        assert state["x"] == 2.0

    def test_unknown_projection_raises(self):
        with pytest.raises(InterpreterError):
            interpret_program("var x: int = 0; x := p.green;", {"p": {"red": 7}})

    def test_builtin_function_call(self):
        state = interpret_program("var x: double = 0.0; x := sqrt(16.0);")
        assert state["x"] == 4.0

    def test_unknown_function_raises(self):
        with pytest.raises(InterpreterError):
            interpret_program("var x: int = 0; x := nosuch(1);")

    def test_custom_function_registration(self):
        functions = FunctionRegistry()
        functions.register("double_it", lambda v: v * 2)
        state = interpret_program("var x: int = 0; x := double_it(21);", functions=functions)
        assert state["x"] == 42

    def test_custom_monoid_operator(self):
        monoids = MonoidRegistry()
        monoids.register(argmin_monoid())
        monoids.register(avg_monoid())
        functions = FunctionRegistry()
        source = "var a: double = 0.0; a := ArgMin(1, 3.0) ^ ArgMin(2, 1.0);"
        state = interpret_program(source, functions=functions, monoids=monoids)
        assert state["a"].index == 2

    def test_record_construction_call(self):
        state = interpret_program("var a: double = 0.0; a := ArgMin(3, 1.5);")
        assert state["a"].index == 3
        assert state["a"].distance == 1.5


class TestInterpreterClass:
    def test_run_returns_fresh_state(self):
        interpreter = Interpreter()
        program_state = interpreter.run(
            __import__("repro.loop_lang.parser", fromlist=["parse_program"]).parse_program(
                "var x: int = 1;"
            ),
            {"y": 2},
        )
        assert program_state["x"] == 1
        assert program_state["y"] == 2
