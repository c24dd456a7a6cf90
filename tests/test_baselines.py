"""Tests for the hand-written baselines: they must agree with their own
sequential reference and with the DIABLO-translated programs."""

import pytest

from repro.baselines import BASELINES, get_baseline
from repro.evaluation.harness import diablo_for
from repro.programs import get_program
from repro.runtime.context import DistributedContext
from repro.workloads import workload_for_program

SIZES = {
    "conditional_sum": 500,
    "equal": 300,
    "string_match": 300,
    "word_count": 500,
    "histogram": 300,
    "linear_regression": 300,
    "group_by": 400,
    "matrix_addition": 8,
    "matrix_multiplication": 6,
    "pagerank": 50,
    "kmeans": 250,
    "matrix_factorization": 10,
}


def close(a, b, tolerance=1e-8):
    if isinstance(a, bool) or isinstance(b, bool):
        return bool(a) == bool(b)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= tolerance * max(1.0, abs(a), abs(b))
    if isinstance(a, tuple) and isinstance(b, tuple):
        return all(close(x, y, tolerance) for x, y in zip(a, b, strict=False))
    return a == b


def dicts_close(a, b, tolerance=1e-8):
    assert set(a.keys()) == set(b.keys())
    for key in a:
        assert close(a[key], b[key], tolerance), f"{key}: {a[key]} != {b[key]}"


@pytest.mark.parametrize("name", sorted(BASELINES), ids=sorted(BASELINES))
def test_distributed_baseline_matches_sequential_baseline(name):
    inputs = workload_for_program(name, SIZES[name])
    module = get_baseline(name)
    context = DistributedContext(num_partitions=4)
    distributed = module.distributed(context, inputs)
    sequential = module.sequential(inputs)
    for key, value in sequential.items():
        if isinstance(value, dict):
            dicts_close(distributed[key], value, tolerance=1e-6)
        else:
            assert close(distributed[key], value, tolerance=1e-6), key


@pytest.mark.parametrize(
    "name",
    [
        "conditional_sum",
        "equal",
        "string_match",
        "word_count",
        "histogram",
        "linear_regression",
        "group_by",
        "matrix_addition",
        "matrix_multiplication",
    ],
)
def test_diablo_matches_handwritten_baseline(name):
    inputs = workload_for_program(name, SIZES[name])
    spec = get_program(name)
    diablo = diablo_for(spec)
    translated = diablo.compile(spec.source).run(**inputs)
    baseline = get_baseline(name).distributed(DistributedContext(num_partitions=4), inputs)
    for scalar in spec.scalar_outputs:
        assert close(translated[scalar], baseline[scalar], tolerance=1e-6), scalar
    for array in spec.array_outputs:
        dicts_close(translated.array(array), baseline[array], tolerance=1e-6)


def test_diablo_pagerank_matches_baseline_ranks():
    inputs = workload_for_program("pagerank", SIZES["pagerank"])
    spec = get_program("pagerank")
    diablo = diablo_for(spec)
    translated = diablo.compile(spec.source).run(**inputs)
    baseline = get_baseline("pagerank").distributed(DistributedContext(num_partitions=4), inputs)
    dicts_close(translated.array("P"), baseline["P"], tolerance=1e-6)
    # The DIABLO degree vector also contains explicit zeros for sink vertices.
    diablo_degrees = {k: v for k, v in translated.array("C").items() if v}
    dicts_close(diablo_degrees, baseline["C"])


def test_diablo_kmeans_matches_baseline_centroids():
    inputs = workload_for_program("kmeans", SIZES["kmeans"])
    spec = get_program("kmeans")
    diablo = diablo_for(spec)
    translated = diablo.compile(spec.source).run(**inputs)
    baseline = get_baseline("kmeans").distributed(DistributedContext(num_partitions=4), inputs)
    dicts_close(translated.array("C"), baseline["C"], tolerance=1e-9)


def test_diablo_matrix_factorization_matches_baseline_error_matrix():
    inputs = workload_for_program("matrix_factorization", SIZES["matrix_factorization"])
    spec = get_program("matrix_factorization")
    diablo = diablo_for(spec)
    translated = diablo.compile(spec.source).run(**inputs)
    baseline = get_baseline("matrix_factorization").distributed(
        DistributedContext(num_partitions=4), inputs
    )
    # Both regularize once per rating, so the factor updates agree as closely
    # as the error matrix (only the summation order of the terms may differ).
    for name in ("E", "P", "Q"):
        dicts_close(translated.array(name), baseline[name], tolerance=1e-9)
