"""Tests for the ``@diablo.jit`` API: typed signatures, value returns, caching.

The differential tests are the important ones: jit-decorated Python versions
of Figure 3 workloads (conditional sum, word count, matrix addition,
PageRank) must agree with the sequential reference interpreter running the
very same converted loop program.
"""

from __future__ import annotations

import pytest

import repro.api as diablo
from repro import Diablo
from repro.api import Bag, DiabloConfig, Matrix, Vector
from repro.loop_lang import ast
from repro.loop_lang.interpreter import interpret_program
from repro.runtime.context import DistributedContext
from repro.runtime.dataset import Dataset
from repro.translate.cache import CompilationCache
from repro.workloads import workload_for_program
from repro.workloads.generators import random_doubles, random_matrix

# ---------------------------------------------------------------------------
# jit-decorated Figure 3 workloads (module level, as users would write them)
# ---------------------------------------------------------------------------


@diablo.jit(cache=CompilationCache())
def conditional_sum(V):
    total: float = 0.0
    for v in V:
        if v < 100:
            total += v
    return total


@diablo.jit(cache=CompilationCache())
def word_count(words):
    C = {}
    for w in words:
        C[w] += 1
    return C


@diablo.jit(cache=CompilationCache())
def matrix_addition(M: Matrix, N2: Matrix, n: int):
    R: Matrix = Matrix()
    for i in range(n):
        for j in range(n):
            R[i, j] = M[i, j] + N2[i, j]
    return R


@diablo.jit  # on the shared global cache: exercised by the cache tests
def pagerank(E: Matrix, N: int, num_steps: int):
    P: Vector = Vector()
    C: Vector = Vector()
    b: float = 0.85
    for i in range(1, N + 1):
        C[i] = 0
        P[i] = 1.0 / N
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if E[i, j]:
                C[i] += 1
    k: int = 0
    while k < num_steps:
        Q: Matrix = Matrix()
        k += 1
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                if E[i, j]:
                    Q[i, j] = P[i]
        for i in range(1, N + 1):
            P[i] = (1 - b) / N
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                P[i] += b * Q[j, i] / C[j]
    return P


def assert_maps_close(actual: dict, expected: dict, tolerance: float = 1e-9) -> None:
    assert set(actual) == set(expected)
    for key, value in expected.items():
        assert abs(actual[key] - value) <= tolerance * max(1.0, abs(value)), key


# ---------------------------------------------------------------------------
# differential checks against the sequential interpreter
# ---------------------------------------------------------------------------


class TestDifferential:
    def test_conditional_sum_matches_interpreter(self):
        values = random_doubles(2_000, seed=11)
        result = conditional_sum(values)
        oracle = interpret_program(conditional_sum.program, {"V": values})
        assert abs(result - oracle["total"]) < 1e-9

    def test_word_count_matches_interpreter(self):
        words = [f"w{i % 37}" for i in range(1_500)]
        result = word_count(words)
        assert isinstance(result, Dataset)
        oracle = interpret_program(word_count.program, {"words": words})
        assert result.collect_as_map() == oracle["C"]

    def test_matrix_addition_matches_interpreter(self):
        n = 10
        left = random_matrix(n, n, seed=3)
        right = random_matrix(n, n, seed=4)
        result = matrix_addition(left, right, n)
        oracle = interpret_program(
            matrix_addition.program, {"M": left, "N2": right, "n": n}
        )
        assert_maps_close(result.collect_as_map(), oracle["R"])

    def test_pagerank_matches_interpreter(self):
        workload = workload_for_program("pagerank", 25)
        E, vertices = workload["E"], workload["N"]
        ranks = pagerank(E, vertices, 2)
        oracle = interpret_program(
            pagerank.program, {"E": E, "N": vertices, "num_steps": 2}
        )
        assert_maps_close(ranks.collect_as_map(), oracle["P"])


# ---------------------------------------------------------------------------
# the acceptance scenario: an iterative driver pays translation once
# ---------------------------------------------------------------------------


class TestCompilationCache:
    def test_pagerank_driver_returns_values_and_caches(self):
        diablo.cache_clear()
        workload = workload_for_program("pagerank", 25)
        E, vertices = workload["E"], workload["N"]
        # `return P` maps the result environment back to the returned name.
        ranks = pagerank(E, vertices, 1)
        assert isinstance(ranks, Dataset)
        # A repeated-call sweep (the k-means / PageRank driver pattern):
        for steps in (1, 2, 3):
            pagerank(E, vertices, steps)
        info = diablo.cache_info()
        assert info.misses == 1, "exactly one translation for the whole sweep"
        assert info.hits >= 3

    def test_private_cache_counts_per_function(self):
        values = [1.0, 2.0, 3.0]
        conditional_sum.cache_clear()
        assert conditional_sum(values) == 6.0
        assert conditional_sum(values) == 6.0
        info = conditional_sum.cache_info()
        assert info.misses == 1 and info.hits == 1

    def test_facade_compiler_caches_repeat_compiles(self):
        source = "var s: double = 0.0; for v in V do s += v;"
        with Diablo() as facade:
            first = facade.compile(source)
            second = facade.compile(source)
            assert first.translation is second.translation
            info = facade.cache_info()
            assert info.misses == 1 and info.hits == 1
            facade.cache_clear()
            assert facade.cache_info().misses == 0

    def test_different_options_do_not_share_entries(self):
        source = "var s: double = 0.0; for v in V do s += v;"
        cache = CompilationCache()
        from repro.translate.translator import DiabloCompiler

        optimized = DiabloCompiler(optimize=True, cache=cache).compile(source)
        unoptimized = DiabloCompiler(optimize=False, cache=cache).compile(source)
        assert optimized is not unoptimized
        assert cache.info().misses == 2

    def test_replacing_a_monoid_invalidates_cached_translations(self):
        from repro.comprehension.monoids import MonoidRegistry, argmin_monoid
        from repro.translate.translator import DiabloCompiler

        registry = MonoidRegistry()
        compiler = DiabloCompiler(monoids=registry, cache=CompilationCache())
        source = "var s: double = 0.0; for v in V do s += v;"
        first = compiler.compile(source)
        assert compiler.compile(source) is first
        registry.register(argmin_monoid())
        assert compiler.compile(source) is not first


# ---------------------------------------------------------------------------
# signature binding and value returns
# ---------------------------------------------------------------------------


class TestCallingConvention:
    def test_positional_keyword_and_default_binding(self):
        @diablo.jit(cache=CompilationCache())
        def scaled_sum(V, factor: float = 2.0):
            total: float = 0.0
            for v in V:
                total += v * factor
            return total

        assert scaled_sum([1.0, 2.0]) == 6.0
        assert scaled_sum([1.0, 2.0], 3.0) == 9.0
        assert scaled_sum(V=[1.0, 2.0], factor=0.5) == 1.5
        scaled_sum.close()

    def test_tuple_return(self):
        @diablo.jit(cache=CompilationCache())
        def stats(V):
            total: float = 0.0
            n: int = 0
            for v in V:
                total += v
                n += 1
            return total, n

        total, n = stats([2.0, 4.0, 6.0])
        assert total == 12.0 and n == 3
        stats.close()

    def test_single_element_tuple_return_stays_a_tuple(self):
        @diablo.jit(cache=CompilationCache())
        def only_total(V):
            total: float = 0.0
            for v in V:
                total += v
            return (total,)

        result = only_total([1.0, 2.0])
        assert result == (3.0,)
        only_total.close()

    def test_no_return_yields_program_result(self):
        @diablo.jit(cache=CompilationCache())
        def no_return(V):
            total: float = 0.0
            for v in V:
                total += v

        result = no_return([1.0, 2.0])
        assert result["total"] == 3.0
        no_return.close()

    def test_registered_scalar_functions(self):
        def square(x):
            return x * x

        @diablo.jit(cache=CompilationCache(), functions={"square": square})
        def sum_of_squares(V):
            total: float = 0.0
            for v in V:
                total += square(v)
            return total

        assert sum_of_squares([1.0, 2.0, 3.0]) == 14.0
        sum_of_squares.close()


# ---------------------------------------------------------------------------
# typed signatures
# ---------------------------------------------------------------------------


class TestTypedSignatures:
    def test_annotations_become_declared_variable_info(self):
        variables = matrix_addition.target().variables
        assert variables["M"].kind == "array"
        assert variables["M"].declared_type == ast.matrix_of(ast.DOUBLE)
        assert variables["n"].kind == "scalar"
        assert variables["n"].declared_type == ast.INT

    def test_vector_annotation_overrides_traversal_inference(self):
        @diablo.jit(cache=CompilationCache())
        def traversed(V: Vector):
            total: float = 0.0
            for v in V:
                total += v.A
            return total

        info = traversed.target().variables["V"]
        assert info.kind == "array"
        assert info.declared_type == ast.vector_of(ast.DOUBLE)
        traversed.close()

    def test_parameterized_and_collection_annotations(self):
        @diablo.jit(cache=CompilationCache())
        def typed(V: Vector[int], W: Bag, D: Dataset):
            total: float = 0.0
            for i in range(3):
                total += V[i]
            for w in W:
                total += w
            for d in D:
                total += d
            return total

        variables = typed.target().variables
        assert variables["V"].declared_type == ast.vector_of(ast.INT)
        assert variables["W"].kind == "collection"
        assert variables["D"].kind == "collection"
        typed.close()

    def test_dataset_inputs_pass_through(self, context):
        @diablo.jit(cache=CompilationCache())
        def total_of(V: Dataset):
            total: float = 0.0
            for v in V:
                total += v
            return total

        dataset = context.indexed([1.0, 2.0, 3.0])
        assert total_of(dataset) == 6.0
        total_of.close()


# ---------------------------------------------------------------------------
# unified configuration
# ---------------------------------------------------------------------------


class TestConfiguration:
    def test_options_scope_changes_the_runtime(self):
        base_partitions = pagerank.runtime().num_partitions
        with diablo.options(num_partitions=3, adaptive=False):
            scoped = pagerank.runtime()
            assert scoped.num_partitions == 3
            assert scoped.adaptive is False
        assert pagerank.runtime().num_partitions == base_partitions

    def test_options_nest_and_restore_on_error(self):
        with diablo.options(num_partitions=5):
            with diablo.options(adaptive=False):
                config = diablo.current_config()
                assert config.num_partitions == 5
                assert config.adaptive is False
            assert diablo.current_config().adaptive is True
        with pytest.raises(RuntimeError):
            with diablo.options(num_partitions=2):
                raise RuntimeError("boom")
        assert diablo.current_config().num_partitions == DiabloConfig().num_partitions

    def test_per_function_overrides_compose_with_ambient(self):
        @diablo.jit(cache=CompilationCache(), num_partitions=2)
        def pinned_partitions(V):
            total: float = 0.0
            for v in V:
                total += v
            return total

        assert pinned_partitions.runtime().num_partitions == 2
        with diablo.options(adaptive=False):
            runtime = pinned_partitions.runtime()
            assert runtime.num_partitions == 2
            assert runtime.adaptive is False
        pinned_partitions.close()

    def test_unknown_and_invalid_options_are_rejected(self):
        with pytest.raises(TypeError, match="unknown DiabloConfig option"):
            DiabloConfig().replace(num_partition=4)
        with pytest.raises(ValueError, match="executor_mode"):
            DiabloConfig(executor_mode="gpu")
        with pytest.raises(ValueError, match=r"\('sequential', 'cluster'\)"):
            DiabloConfig(executor_mode="threads")
        with pytest.raises(TypeError, match="unknown DiabloConfig option"):

            @diablo.jit(num_partitoins=2)
            def typo(V):
                total: float = 0.0
                for v in V:
                    total += v
                return total

    def test_executor_modes_agree(self):
        values = random_doubles(4_000, seed=9)
        expected = conditional_sum(values)
        with diablo.options(executor_mode="cluster"):
            assert abs(conditional_sum(values) - expected) < 1e-9
        conditional_sum.close()

    def test_the_processes_executor_is_gone(self):
        with pytest.raises(ValueError, match=r"\('sequential', 'cluster'\)"):
            DiabloConfig(executor_mode="processes")
        with pytest.raises(TypeError):
            DistributedContext(executor="processes")
        with pytest.raises(TypeError):
            DistributedContext(num_processes=2)

    def test_facade_picks_up_scoped_config(self):
        with diablo.options(num_partitions=3):
            with Diablo() as facade:
                assert facade.context.num_partitions == 3
        with Diablo(optimize=False) as facade:
            assert facade.config.optimize is False


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_jit_function_as_context_manager(self):
        @diablo.jit(cache=CompilationCache())
        def totals(V):
            total: float = 0.0
            for v in V:
                total += v
            return total

        with totals:
            assert totals([1.0, 2.0, 3.0]) == 6.0
        assert totals._contexts == {}
        # Still callable after close: a fresh context is created on demand.
        assert totals([1.0]) == 1.0
        totals.close()

    def test_context_cache_is_bounded(self):
        from repro.api.jit import MAX_LIVE_CONTEXTS

        @diablo.jit(cache=CompilationCache())
        def totals(V):
            total: float = 0.0
            for v in V:
                total += v
            return total

        for partitions in range(1, MAX_LIVE_CONTEXTS + 4):
            with diablo.options(num_partitions=partitions):
                assert totals([1.0, 2.0]) == 3.0
        assert len(totals._contexts) == MAX_LIVE_CONTEXTS
        totals.close()

    def test_facade_is_a_context_manager(self):
        with Diablo() as facade:
            result = facade.run("var s: double = 0.0; for v in V do s += v;", V=[1.0, 2.0])
            assert result["s"] == 3.0
