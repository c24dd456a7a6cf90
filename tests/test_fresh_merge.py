"""Merging into a fresh array: ``X := X ⊳ S`` after ``X := vector()`` is ``X := S``.

``var X: ... = vector()`` empties X, so the first merge into it only has to
collapse S's duplicate keys.  When S's keys are provably unique the compiler
drops the merge (a coGroup against an empty side) and the dead constructor.
These tests pin where that fires on the benchmark programs, check that the
pass touches nothing else, and check interpreter == translated on the shapes
where it must not fire.  What it needs from the stored plans (an array
assigned straight from a comprehension can change placement between
iterations, which keys another plan) is tested at the end.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Diablo, DistributedContext
from repro.comprehension import ir
from repro.comprehension.monoids import MonoidRegistry
from repro.programs import PROGRAMS
from repro.translate import translator
from repro.translate.target import TargetAssign, TargetWhile
from test_soundness_programs import values_match

#: Every (program, array) whose first merge the pass rewrites.
FIRES = {
    ("word_count", "C"),
    ("histogram", "R"),
    ("histogram", "G"),
    ("histogram", "B"),
    ("group_by", "C"),
    ("matrix_addition", "R"),
    ("matrix_multiplication", "R"),
    ("pagerank", "C"),
    ("pagerank", "P"),
    ("pagerank", "Q"),
    ("kmeans", "closest"),
    ("kmeans", "avg"),
    ("matrix_factorization", "pq"),
    ("matrix_factorization", "E"),
    ("matrix_factorization", "P"),
    ("matrix_factorization", "Q"),
    ("equal_frequency", "C"),
    ("pca", "sum"),
    ("pca", "mean"),
    ("pca", "cov"),
}


def _assert_same(dataset, oracle):
    """No duplicate keys, the oracle's keys, values equal at the differential
    suites' tolerance."""
    records = dataset.collect()
    translated, oracle = dict(records), dict(oracle)
    assert len(records) == len(translated), "duplicate keys survived the merge"
    assert set(translated) == set(oracle)
    for key, value in oracle.items():
        assert values_match(translated[key], value), f"X[{key}]: {translated[key]} != {value}"


def _compile(name, **options):
    spec = PROGRAMS[name]
    monoids = MonoidRegistry()
    for monoid in spec.monoids:
        monoids.register(monoid)
    return translator.DiabloCompiler(monoids=monoids, **options).compile(spec.source)


def _flat(statements, depth=0):
    """``(depth, statement)`` for every assignment and while header, in order."""
    for statement in statements:
        yield depth, statement
        if isinstance(statement, TargetWhile):
            yield from _flat(statement.body, depth + 1)


def _text(depth, statement):
    if isinstance(statement, TargetWhile):
        return depth, f"while {statement.condition}"
    return depth, str(statement)


def _expected_after(statements, arrays):
    """The pre-pass target with the pinned rewrites applied by hand: each
    array's first constructor dropped and its first merge replaced by its
    right-hand side."""
    dropped, merged = set(), set()
    expected = []
    for depth, statement in _flat(statements):
        if isinstance(statement, TargetAssign) and statement.variable in arrays:
            name = statement.variable
            if statement.scalar and name not in dropped:
                dropped.add(name)
                continue
            if isinstance(statement.term, (ir.Merge, ir.MergeWith)) and name not in merged:
                merged.add(name)
                statement = TargetAssign(name, statement.term.right)
        expected.append(_text(depth, statement))
    assert dropped == merged == set(arrays)
    return expected


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_pass_fires_exactly_where_pinned(name, monkeypatch):
    # The loop-body fusion passes that run next rewrite what this pass
    # leaves; with them off, the comparison sees this pass alone.
    monkeypatch.setattr(translator, "fold_increments", lambda statements, _optimizer: statements)
    monkeypatch.setattr(translator, "inline_read_once", lambda statements, *_: statements)
    after = _compile(name)
    with monkeypatch.context() as patch:
        patch.setattr(translator, "merge_into_fresh", lambda statements, _optimizer: statements)
        before = _compile(name)
    arrays = {array for program, array in FIRES if program == name}
    assert [_text(*item) for item in _flat(after.target.statements)] == _expected_after(
        before.target.statements, arrays
    )
    assert after.optimizer_stats.fresh_merges == len(arrays)
    assert _compile(name, optimize=False).optimizer_stats.fresh_merges == 0


V = {i: 1.5 * i - 4.0 for i in range(10)}
W = [{"K": i % 3, "A": float(i)} for i in range(20)]
M = {(i, j): float(10 * i + j) for i in range(4) for j in range(4)}

#: Shapes the pass must leave alone: (source, inputs, Definition 3.1 holds).
NOT_FRESH = {
    "read_between": (
        "var X: vector[double] = vector();\n"
        "var n: int = 0;\n"
        "for x in X do n += 1;\n"
        "for i = 0, 9 do X[i] := V[i];",
        {"V": V},
        True,
    ),
    "loop_carried": (
        "var X: vector[double] = vector();\n"
        "var k: int = 0;\n"
        "while (k < 3) { k += 1; for i = 0, 4 do X[i] += V[i]; };",
        {"V": V},
        True,
    ),
    # ⊳ keeps the last value per key: S's duplicates must still collapse.
    "non_unique_key": (
        "var X: vector[double] = vector();\nfor w in W do X[w.K] := w.A;",
        {"W": W},
        False,
    ),
    "key_projects_the_index": (
        "var X: vector[double] = vector();\n"
        "for i = 0, 3 do for j = 0, 3 do X[i] := M[i, j];",
        {"M": M},
        False,
    ),
}


@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.parametrize("case", sorted(NOT_FRESH))
def test_pass_does_not_fire(case, optimize):
    source, inputs, restricted = NOT_FRESH[case]
    with DistributedContext(num_partitions=4) as context:
        diablo = Diablo(context, optimize=optimize, check_restrictions=restricted)
        compiled = diablo.compile(source)
        assert compiled.translation.optimizer_stats.fresh_merges == 0
        assert any(
            isinstance(s.term, (ir.Merge, ir.MergeWith)) for s in compiled.target.assignments()
        )
        translated = compiled.run(**inputs)["X"]
        _assert_same(translated, diablo.interpret(source, dict(inputs))["X"])


@settings(max_examples=30, deadline=None)
@given(
    index=st.sampled_from(["i", "i + 2", "n - 1 - i", "i % 3", "i / 4"]),
    op=st.sampled_from([":=", "+="]),
    value=st.sampled_from(["V[i]", "i * 1.5", "V[i] * V[i]"]),
    n=st.integers(0, 10),
    values=st.lists(st.floats(-1e3, 1e3), min_size=10, max_size=10),
)
def test_fresh_vector_update_matches_interpreter(index, op, value, n, values):
    """``var X = vector(); for i … X[f(i)] (:= | +=) g(i)`` with f injective
    or not: whether or not the pass fires, the result is the interpreter's."""
    source = f"var X: vector[double] = vector();\nfor i = 0, n-1 do X[{index}] {op} {value};"
    inputs = {"V": dict(enumerate(values)), "n": n}
    with DistributedContext(num_partitions=4) as context:
        diablo = Diablo(context, check_restrictions=False)
        translated = diablo.compile(source).run(**inputs)["X"]
        _assert_same(translated, diablo.interpret(source, dict(inputs))["X"])


GUARD_SOURCE = """
var X: vector[double] = vector();
for w in W do X[w.K] += w.A;
var k: int = 0;
while (k < 3) {
  var Z: vector[double] = vector();
  k += 1;
  for i = 0, n-1 do Z[i] := X[i] * 2.0;
  X := vector();
  for i = 0, n-1 do X[i] := V[i] + k;
};
"""


def test_a_scan_that_changes_placement_binds_another_plan():
    """Iteration 1 reads X out of a reduce (hash-placed); iterations 2+ read
    X straight from a range-keyed comprehension (unplaced).  Z's plan was
    annotated over the placed X, so iteration 2 builds another one, and
    iteration 3 binds that one: the plans are keyed by the scans' placement."""
    inputs = {"W": W, "V": {i: i / 3 for i in range(12)}, "n": 12}
    with DistributedContext(num_partitions=4) as context:
        diablo = Diablo(context)
        compiled = diablo.compile(GUARD_SOURCE)
        result = compiled.run(**inputs)
        _assert_same(result["Z"], diablo.interpret(GUARD_SOURCE, dict(inputs))["Z"])
        hits = [entry["plan_cache_hits"] for entry in result.iteration_metrics]
        assert hits == [0, 1, 2]
        outputs = (result["Z"].collect(), result["X"].collect())
        # A second run builds nothing: Z's and X's comprehensions bind a
        # stored plan on every iteration, Z's the one for its placement.
        again = compiled.run(**inputs)
        assert [entry["plan_cache_hits"] for entry in again.iteration_metrics] == [2, 2, 2]
        assert (again["Z"].collect(), again["X"].collect()) == outputs
