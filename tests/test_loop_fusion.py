"""Loop-body fusion: initialise-then-increment and read-once intermediates.

``translator.fold_increments`` rewrites ``A := A ⊳ S0; A := A ⊳⊕ S1`` to
``A := A ⊳ (S0 ⊳⊕ S1)`` when every key of S1 is a key of S0, and
``translator.inline_read_once`` substitutes an array a ``while`` body
assigns and reads once into its reader, loop-invariant generators first.
On PageRank the two turn the loop body into ``P := P ⊳ (S0 ⊳+ {E ⋈ C ⋈ P
group by j})``, with ``E ⋈ C`` joined once per loop.

The outputs must be bit-identical to the unfused program's on every
executor, with spill forced or not and adaptive execution on or off -- and
equal to the interpreter's.  Each precondition gets a program that violates
it, where the rule must not fire.  An array is only inlined when the caller
has named the outputs it reads and the array is not one of them.
"""

from __future__ import annotations

import functools
from unittest import mock

import pytest

import repro as diablo
from repro import Diablo
from repro.api import Matrix, Vector
from repro.comprehension.monoids import MonoidRegistry
from repro.evaluation.harness import diablo_for
from repro.programs import PROGRAMS
from repro.runtime.cluster import ClusterContext
from repro.runtime.context import DistributedContext
from repro.runtime.dataset import Dataset
from repro.translate import translator
from repro.translate.target import TargetWhile
from repro.workloads import workload_for_program
from test_soundness_programs import values_match

N = 8
V = {i: 0.5 + i for i in range(N)}
W = {i: 1.0 / (i + 1) for i in range(N)}
M = {(i, j): float((3 * i + j) % 4) for i in range(N) for j in range(N)}
INPUTS = {"V": V, "W": W, "M": M, "n": N}

HEAD = """
var R: vector[double] = vector();
var k: int = 0;
for i = 0, n-1 do R[i] := 1.0;
"""

#: PageRank's loop body on other arrays: T is read once, R is reset, then
#: incremented over a join of T with loop-invariant M and W.
RANK_UPDATE = (
    HEAD
    + """
while (k < 3) {
  var T: vector[double] = vector();
  k += 1;
  for i = 0, n-1 do T[i] := V[i] * R[i];
  for i = 0, n-1 do R[i] := 0.5;
  for i = 0, n-1 do
    for j = 0, n-1 do
      if (M[i,j] > 1.0)
        R[j] += T[i] * W[i];
};
"""
)

#: Every (program, array) where each rule fires.
FOLDED = {("pagerank", "P")}
INLINED = {("pagerank", "Q")}

CASES = ["pagerank", "rank_update"]


def _case(name):
    """``(diablo factory, source, inputs, the updated array, the inlined array)``."""
    if name == "rank_update":
        return functools.partial(Diablo, outputs=("R",)), RANK_UPDATE, INPUTS, "R", "T"
    spec = PROGRAMS[name]
    inputs = workload_for_program(name, 40, seed=7)
    inputs["num_steps"] = 3
    return functools.partial(diablo_for, spec), spec.source, inputs, "P", "Q"


def _unfused():
    """Both rules off."""
    return (
        mock.patch.object(translator, "fold_increments", lambda statements, _optimizer: statements),
        mock.patch.object(translator, "inline_read_once", lambda statements, *_: statements),
    )


def _outputs(result, inputs):
    """Every output by repr (bit-exact: -0.0, NaN), arrays as sorted items."""
    return {
        name: repr(sorted(value.collect_as_map().items()) if isinstance(value, Dataset) else value)
        for name, value in result.values.items()
        if name not in inputs
    }


def _assert_matches_interpreter(compiled, result, interpreted, inlined=None):
    """Every variable the program assigns is in ``result`` with the
    interpreter's value -- except ``inlined``, which is never materialised."""
    assert inlined not in result.values
    for name, info in compiled.target.variables.items():
        if info.is_input or name == inlined:
            continue
        value = result.values[name]
        if isinstance(value, Dataset):
            translated, oracle = result.array(name), interpreted[name]
            assert set(translated) == set(oracle), name
            for key, expected in oracle.items():
                assert values_match(translated[key], expected), f"{name}[{key}]"
        else:
            assert values_match(value, interpreted[name]), name


def _compile_unfused(diablo, source):
    first, second = _unfused()
    with first, second:
        return diablo.compile(source)


@functools.lru_cache(maxsize=None)
def reference(name):
    """The outputs of the program compiled without the rules, on the
    sequential executor, and the interpreter's."""
    make, source, inputs, *_ = _case(name)
    with DistributedContext(num_partitions=4) as context:
        diablo = make(context)
        compiled = _compile_unfused(diablo, source)
        stats = compiled.translation.optimizer_stats
        assert stats.folded_increments == stats.inlined_intermediates == 0
        result = compiled.run(**inputs)
        return _outputs(result, inputs), diablo.interpret(source, dict(inputs))


#: (executor, columnar): the record path and the batch path on both
#: executors.
LEGS = (("sequential", False), ("sequential", True), ("cluster", False), ("cluster", True))

CONFIGS = [
    (executor, columnar, spill, adaptive)
    for executor, columnar in LEGS
    for spill in (None, 1)
    for adaptive in (True, False)
]


@pytest.fixture(
    scope="module",
    params=CONFIGS,
    ids=[
        f"{e}{'-columnar' if c else ''}-spill{s}-{'adaptive' if a else 'static'}"
        for e, c, s, a in CONFIGS
    ],
)
def ctx(request):
    executor, columnar, spill, adaptive = request.param
    options = {
        "num_partitions": 4,
        "spill_threshold_bytes": spill,
        "adaptive": adaptive,
        "columnar": columnar,
    }
    if executor == "cluster":
        context = ClusterContext(cluster_workers=2, **options)
    else:
        context = DistributedContext(**options)
    yield context
    context.shutdown()


@pytest.mark.parametrize("name", CASES)
def test_fused_outputs_are_bit_identical_to_the_unfused_and_match_the_interpreter(ctx, name):
    make, source, inputs, updated, inlined = _case(name)
    compiled = make(ctx).compile(source)
    stats = compiled.translation.optimizer_stats
    assert (stats.folded_increments, stats.inlined_intermediates) == (1, 1)
    result = compiled.run(**inputs)
    rule = f"{updated}: increment folded into its initialisation (<|+); read-once {inlined} inlined"
    assert [line for line in result.trace if "folded" in line or "inlined" in line] == [rule] * 3
    # The inlined array is never materialised, so it is no output.
    expected, interpreted = reference(name)
    outputs = _outputs(result, inputs)
    assert set(expected) - set(outputs) == {inlined}
    assert outputs == {output: expected[output] for output in outputs}
    _assert_matches_interpreter(compiled, result, interpreted, inlined)


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_pagerank_at_bench_size_is_bit_identical_to_the_unfused_program(seed):
    spec = PROGRAMS["pagerank"]
    inputs = workload_for_program("pagerank", 300, seed=seed)
    inputs["num_steps"] = 10
    ranks = []
    for fused in (True, False):
        with DistributedContext(num_partitions=4) as context:
            diablo = diablo_for(spec, context)
            compiled = diablo.compile(spec.source) if fused else _compile_unfused(diablo, spec.source)
            ranks.append(repr(sorted(compiled.run(**inputs).array("P").items())))
    assert ranks[0] == ranks[1]


def _compile(name, **options):
    spec = PROGRAMS[name]
    monoids = MonoidRegistry()
    for monoid in spec.monoids:
        monoids.register(monoid)
    outputs = (*spec.scalar_outputs, *spec.array_outputs)
    return translator.DiabloCompiler(monoids=monoids, **options).compile(spec.source, outputs=outputs)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_the_rules_fire_exactly_where_pinned(name):
    translation = _compile(name)
    folded, inlined = set(), set()
    for statement in translation.target.assignments():
        for rule in (statement.rule or "").split("; "):
            if rule.startswith("increment folded"):
                folded.add((name, statement.variable))
            elif rule.startswith("read-once"):
                inlined.add((name, rule.split()[1]))
    assert folded == {pair for pair in FOLDED if pair[0] == name}
    assert inlined == {pair for pair in INLINED if pair[0] == name}
    assert translation.optimizer_stats.folded_increments == len(folded)
    assert translation.optimizer_stats.inlined_intermediates == len(inlined)


def test_the_pagerank_loop_body_is_one_rank_update():
    (loop,) = [s for s in _compile("pagerank").target.statements if isinstance(s, TargetWhile)]
    k, rank = loop.body
    assert k.variable == "k" and rank.variable == "P"
    text = str(rank.term)
    assert text.startswith("(P <| ({ (i, v$")
    # E and C are joined before P: the loop-invariant side comes first.
    assert text.index("<- E") < text.index("<- C") < text.index("<- P")
    assert "Q" not in text


def test_the_rules_run_under_the_optimize_option_only():
    translation = _compile("pagerank", optimize=False)
    stats = translation.optimizer_stats
    assert stats.folded_increments == stats.inlined_intermediates == 0
    assert not any(statement.rule for statement in translation.target.assignments())
    assert "Q" in {statement.variable for statement in translation.target.assignments()}


#: Shapes a rule must leave alone: (source, Definition 3.1 holds, the
#: optimizer counter that stays 0).
NOT_FUSED = {
    # (c): the increment reads the array the initialisation assigned.
    "increment_reads_the_array": (
        HEAD
        + """
while (k < 2) {
  k += 1;
  for i = 0, n-1 do R[i] := 0.5;
  for i = 0, n-1 do R[i] += R[i] * W[i];
};""",
        False,
        "folded_increments",
    ),
    # (c): the increment's key has no range: i % 3 is neither a range
    # variable nor guarded by inRange.
    "unguarded_key": (
        HEAD
        + """
while (k < 2) {
  k += 1;
  for i = 0, n-1 do R[i] := 0.5;
  for i = 0, n-1 do R[i % 3] += W[i];
};""",
        False,
        "folded_increments",
    ),
    # (c): the initialisation starts at 1, the increment at 0.
    "another_bound": (
        HEAD
        + """
while (k < 2) {
  k += 1;
  for i = 1, n-1 do R[i] := 0.5;
  for i = 0, n-1 do R[i] += W[i];
};""",
        True,
        "folded_increments",
    ),
    # (d): a second statement reads T.
    "read_twice": (
        RANK_UPDATE.replace(
            "        R[j] += T[i] * W[i];\n",
            "        R[j] += T[i] * W[i];\n  for i = 0, n-1 do S[i] := T[i] + 1.0;\n",
        ).replace("var k: int = 0;", "var k: int = 0;\nvar S: vector[double] = vector();"),
        True,
        "inlined_intermediates",
    ),
    # (d): a statement after the loop reads the last iteration's T.
    "read_after_the_loop": (
        RANK_UPDATE.replace("var k: int = 0;", "var k: int = 0;\nvar S: vector[double] = vector();")
        + "for i = 0, n-1 do S[i] := T[i] + 1.0;\n",
        True,
        "inlined_intermediates",
    ),
    # (d): the loop condition reads T.
    "read_by_the_condition": (
        HEAD
        + """
var T: vector[double] = vector();
for i = 0, n-1 do T[i] := 0.0;
while (k < 3 && T[0] < 1000.0) {
  k += 1;
  for i = 0, n-1 do T[i] := V[i] * R[i];
  for i = 0, n-1 do R[i] := 0.5;
  for i = 0, n-1 do
    for j = 0, n-1 do
      if (M[i,j] > 1.0)
        R[j] += T[i] * W[i];
};""",
        True,
        "inlined_intermediates",
    ),
    # (d): the update reads the T of the previous iteration.
    "carried_across_iterations": (
        HEAD
        + """
var T: vector[double] = vector();
for i = 0, n-1 do T[i] := 1.0;
while (k < 3) {
  k += 1;
  for i = 0, n-1 do R[i] := 0.5;
  for i = 0, n-1 do
    for j = 0, n-1 do
      if (M[i,j] > 1.0)
        R[j] += T[i] * W[i];
  for i = 0, n-1 do T[i] := V[i] * R[i];
};""",
        True,
        "inlined_intermediates",
    ),
    # (d): c, which T's definition reads, changes before T's reader runs.
    "free_variable_reassigned_between": (
        HEAD
        + """
var c: double = 1.0;
while (k < 3) {
  var T: vector[double] = vector();
  k += 1;
  for i = 0, n-1 do T[i] := V[i] * c;
  c := c + 1.0;
  for i = 0, n-1 do R[i] := 0.5;
  for i = 0, n-1 do
    for j = 0, n-1 do
      if (M[i,j] > 1.0)
        R[j] += T[i] * W[i];
};""",
        True,
        "inlined_intermediates",
    ),
}


@pytest.mark.parametrize("case", sorted(NOT_FUSED))
def test_a_rule_does_not_fire_when_its_precondition_fails(case):
    source, restricted, counter = NOT_FUSED[case]
    with DistributedContext(num_partitions=4) as context:
        diablo = Diablo(context, check_restrictions=restricted, outputs=("R", "S"))
        compiled = diablo.compile(source)
        assert getattr(compiled.translation.optimizer_stats, counter) == 0
        result = compiled.run(**INPUTS)
        _assert_matches_interpreter(compiled, result, diablo.interpret(source, dict(INPUTS)))


def test_each_rule_fires_alone_where_only_its_precondition_holds():
    # read_twice keeps T but still folds R's increment; another_bound keeps
    # both merges into R.
    with DistributedContext(num_partitions=4) as context:
        diablo = Diablo(context, outputs=("R", "S"))
        stats = diablo.compile(NOT_FUSED["read_twice"][0]).translation.optimizer_stats
        assert (stats.folded_increments, stats.inlined_intermediates) == (1, 0)
        stats = diablo.compile(NOT_FUSED["another_bound"][0]).translation.optimizer_stats
        assert (stats.folded_increments, stats.inlined_intermediates) == (0, 0)


@pytest.mark.parametrize("outputs", [None, ("R", "T")], ids=["every variable", "T named"])
def test_an_array_the_caller_reads_is_never_inlined(outputs):
    # Without declared outputs every variable stays in the result; a named
    # one stays whatever the loop does with it.
    with DistributedContext(num_partitions=4) as context:
        diablo = Diablo(context, outputs=outputs)
        compiled = diablo.compile(RANK_UPDATE)
        stats = compiled.translation.optimizer_stats
        assert (stats.folded_increments, stats.inlined_intermediates) == (1, 0)
        result = compiled.run(**INPUTS)
        _assert_matches_interpreter(compiled, result, diablo.interpret(RANK_UPDATE, dict(INPUTS)))


def test_pagerank_without_declared_outputs_still_returns_q():
    spec = PROGRAMS["pagerank"]
    inputs = workload_for_program("pagerank", 40, seed=7)
    inputs["num_steps"] = 3
    with DistributedContext(num_partitions=4) as context:
        diablo = Diablo(context)
        compiled = diablo.compile(spec.source)
        result = compiled.run(**inputs)
        _assert_matches_interpreter(compiled, result, diablo.interpret(spec.source, dict(inputs)))
    assert result.array("Q")


def _ranks(E: Matrix, N: int, num_steps: int):
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


def _ranks_and_edges(E: Matrix, N: int, num_steps: int):
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
    return P, Q


def test_a_jit_function_that_returns_the_loop_array_gets_it():
    spec = PROGRAMS["pagerank"]
    inputs = workload_for_program("pagerank", 40, seed=7)
    inputs["num_steps"] = 3
    oracle = Diablo().interpret(spec.source, dict(inputs))
    cache = translator.CompilationCache()
    calls = {}
    for function in (_ranks, _ranks_and_edges):
        with diablo.jit(function, cache=cache, num_partitions=4) as compiled:
            stats = compiled.compile().optimizer_stats
            calls[function] = (stats.inlined_intermediates, compiled(**inputs))
    # Returning Q keeps it; the two return sets compile separately.
    assert calls[_ranks][0] == 1 and calls[_ranks_and_edges][0] == 0
    ranks_only, (ranks, edges) = calls[_ranks][1], calls[_ranks_and_edges][1]
    assert repr(sorted(ranks_only.collect_as_map().items())) == repr(sorted(ranks.collect_as_map().items()))
    for name, value in (("P", ranks), ("Q", edges)):
        translated = value.collect_as_map()
        assert set(translated) == set(oracle[name])
        assert all(values_match(translated[key], oracle[name][key]) for key in translated)


def test_the_declared_outputs_are_part_of_the_cache_key():
    compiler = translator.DiabloCompiler()
    for outputs in (None, ("R",), ("R", "T"), ("T", "R")):
        compiler.compile(RANK_UPDATE, outputs=outputs)
    assert (compiler.cache_info().misses, compiler.cache_info().hits) == (3, 1)
