"""Executable soundness check (Theorem A.1): for every benchmark program the
distributed evaluation of the translated target code must agree with the
sequential reference interpreter on the same inputs."""

import pytest

from repro.comprehension.monoids import ArgMin
from repro.evaluation.harness import diablo_for
from repro.programs import PROGRAMS, get_program
from repro.workloads import workload_for_program

#: (program, workload size) pairs small enough for the tree-walking interpreter.
CASES = [
    ("conditional_sum", 300),
    ("equal", 200),
    ("string_match", 200),
    ("word_count", 400),
    ("histogram", 200),
    ("linear_regression", 200),
    ("group_by", 300),
    ("matrix_addition", 6),
    ("matrix_multiplication", 5),
    ("matrix_factorization", 6),
    ("pagerank", 40),
    ("kmeans", 220),
    ("pca", 15),
    ("average", 100),
    ("count", 100),
    ("sum", 100),
    ("conditional_count", 100),
    ("equal_frequency", 80),
]


def values_match(left, right, tolerance=1e-8):
    if isinstance(left, ArgMin) and isinstance(right, ArgMin):
        return left.index == right.index
    if isinstance(left, bool) or isinstance(right, bool):
        return bool(left) == bool(right)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return abs(left - right) <= tolerance * max(1.0, abs(left), abs(right))
    if isinstance(left, tuple) and isinstance(right, tuple):
        return len(left) == len(right) and all(values_match(a, b) for a, b in zip(left, right, strict=False))
    return left == right


def run_both(name, inputs):
    spec = get_program(name)
    diablo = diablo_for(spec)
    distributed = diablo.compile(spec.source).run(**inputs)
    sequential = diablo.interpret(spec.source, dict(inputs))
    return spec, distributed, sequential


def assert_same_outputs(spec, distributed, sequential):
    for scalar in spec.scalar_outputs:
        assert values_match(distributed[scalar], sequential[scalar]), (
            f"{spec.name}.{scalar}: {distributed[scalar]} != {sequential[scalar]}"
        )
    for array in spec.array_outputs:
        left = distributed.array(array)
        right = sequential[array]
        assert set(left.keys()) == set(right.keys()), f"{spec.name}.{array}: key sets differ"
        for key in right:
            assert values_match(left[key], right[key]), (
                f"{spec.name}.{array}[{key}]: {left[key]} != {right[key]}"
            )


@pytest.mark.parametrize("name,size", CASES, ids=[name for name, _ in CASES])
def test_translated_program_matches_interpreter(name, size):
    inputs = workload_for_program(name, size)
    spec, distributed, sequential = run_both(name, inputs)
    assert_same_outputs(spec, distributed, sequential)


@pytest.mark.parametrize("size", [6, 8, 20])
def test_matrix_factorization_matches_interpreter_on_sparse_ratings(size):
    # The interpreter skips an update that reads an absent rating, as the
    # translation's generators find no row for it.
    inputs = workload_for_program("matrix_factorization", size, seed=7)
    spec, distributed, sequential = run_both("matrix_factorization", inputs)
    assert_same_outputs(spec, distributed, sequential)


def test_pagerank_two_steps_matches_interpreter():
    inputs = workload_for_program("pagerank", 30)
    inputs["num_steps"] = 2
    spec, distributed, sequential = run_both("pagerank", inputs)
    assert_same_outputs(spec, distributed, sequential)


def test_every_benchmark_program_compiles():
    for name, spec in PROGRAMS.items():
        diablo = diablo_for(spec)
        compiled = diablo.compile(spec.source)
        assert compiled.target.statements, name


def test_unoptimized_translation_is_still_sound():
    inputs = workload_for_program("word_count", 200)
    spec = get_program("word_count")
    diablo = diablo_for(spec, optimize=False)
    distributed = diablo.compile(spec.source).run(**inputs)
    sequential = diablo.interpret(spec.source, dict(inputs))
    assert distributed.array("C") == sequential["C"]


def test_matrix_multiplication_matches_numpy():
    numpy = pytest.importorskip("numpy")
    size = 6
    inputs = workload_for_program("matrix_multiplication", size)
    spec = get_program("matrix_multiplication")
    diablo = diablo_for(spec)
    result = diablo.compile(spec.source).run(**inputs).array("R")
    left = numpy.array([[inputs["M"][(i, j)] for j in range(size)] for i in range(size)])
    right = numpy.array([[inputs["N"][(i, j)] for j in range(size)] for i in range(size)])
    expected = left @ right
    for i in range(size):
        for j in range(size):
            assert abs(result[(i, j)] - expected[i, j]) < 1e-9
