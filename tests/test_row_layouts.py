"""Slot rows between generated runs: flat tuples of the live variables.

A generated run that feeds another one -- a join side's keying run, a join
consumer feeding the next join, the run before a group-by, a product's left
rows -- emits *slot rows*: the flat tuple of the variables its consumer
reads, in a layout fixed when the plan is lowered.  The consumer unpacks it
positionally, with no shape check.  These tests hold that to:

* for every program at sizes 6 and 20, no generated source builds a dict
  (the fold accumulator ``acc = {}`` aside), ``check_bind`` appears only
  where user data enters a run (a ``bind`` or ``positional`` entry, a
  product's scanned elements), and every slot a consumer's entry names is
  one its run reads;
* no run reads a driver scalar first twice or builds a tuple no line
  reads (PageRank's E keying run did both);
* outputs bit-identical with spill forced and without, both when joins
  shuffle (threshold 0) and when they broadcast (the default); with
  ``DIABLO_CLUSTER_TESTS=1`` a 2-worker cluster is held to the sequential
  executor as well;
* hand-written comprehensions for each boundary: a consumer reading a subset
  of the left slots, a let pushed below a join that shadows a left
  variable, a join feeding a join, a group-by over slot rows and a
  product's left rows.
"""

from __future__ import annotations

import functools
import os
import re

import pytest

from repro.algebra import codegen
from repro.algebra.evaluator import EvaluationEnvironment, TermEvaluator
from repro.comprehension import ir
from repro.evaluation.harness import diablo_for, translated_outputs
from repro.programs import PROGRAMS, get_program
from repro.runtime.cluster import ClusterContext
from repro.runtime.context import DistributedContext
from repro.runtime.dataset import DEFAULT_BROADCAST_JOIN_THRESHOLD
from repro.workloads import workload_for_program

THRESHOLDS = {"shuffled": 0, "broadcast": DEFAULT_BROADCAST_JOIN_THRESHOLD}
SIZES = (6, 20)
#: Entries whose records (for a product, its right elements) are user data.
SCANNED = ("bind", "positional", "product")
#: A non-empty dict display: ``{'`` or ``{**``, never the empty accumulator.
DICT_DISPLAY = re.compile(r"\{(?!\})")


def entry_slots(entry: tuple) -> tuple[str, ...]:
    """The slot names a run's entry unpacks (none for a scanned entry)."""
    kind = entry[0]
    if kind in ("cogroup", "probe"):
        return (*entry[-2], *entry[-1])
    if kind in ("slots", "product"):
        return entry[1]
    if kind == "grouped":
        return entry[2]
    return ()


@functools.lru_cache(maxsize=None)
def program_run(name: str, size: int, threshold: int, spill: int | None) -> tuple[str, tuple]:
    """Outputs (as text equal exactly when bit-identical) and the program's
    generated ``(segment, source)`` pairs."""
    spec = get_program(name)
    with DistributedContext(
        num_partitions=4, broadcast_join_threshold=threshold, spill_threshold_bytes=spill
    ) as context:
        program = diablo_for(spec, context).compile(spec.source)
        result = program.run(**workload_for_program(name, size, seed=7))
        generated = tuple((segment, compiled[1]) for segment, compiled in program.target.segments.items())
        return repr(translated_outputs(name, result)), generated


@pytest.mark.parametrize("threshold", THRESHOLDS.values(), ids=THRESHOLDS.keys())
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_program_passes_slot_rows_and_keeps_its_outputs(name, threshold):
    for size in SIZES:
        outputs, generated = program_run(name, size, threshold, None)
        assert program_run(name, size, threshold, 1)[0] == outputs, f"{name} {size}: spill changed outputs"
        assert generated
        for segment, source in generated:
            assert not DICT_DISPLAY.search(source), source
            if "check_bind" in source:
                assert segment.entry[0] in SCANNED, source
            read = codegen.live(segment.steps, segment.exit)
            assert set(entry_slots(segment.entry)) <= read, f"a slot nobody reads: {segment.entry}"


#: An ``inRange`` chain reading a driver scalar first: ``s6_N is s6_N and``.
SCALAR_READ = re.compile(r"\b(\w+) is \1 and ")
#: A row local bound to a tuple display.
TUPLE_LET = re.compile(r"^\s*(r\d+_\w+) = \(", re.MULTILINE)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_no_run_reads_a_scalar_first_twice_or_builds_a_tuple_nobody_reads(name):
    for size in SIZES:
        for _, source in program_run(name, size, DEFAULT_BROADCAST_JOIN_THRESHOLD, None)[1]:
            reads = SCALAR_READ.findall(source)
            assert len(reads) == len(set(reads)), source
            for local in TUPLE_LET.findall(source):
                assert len(re.findall(rf"\b{local}\b", source)) > 1, source


@pytest.mark.skipif(
    os.environ.get("DIABLO_CLUSTER_TESTS") != "1",
    reason="cluster legs are opt-in: set DIABLO_CLUSTER_TESTS=1",
)
@pytest.mark.parametrize("threshold", THRESHOLDS.values(), ids=THRESHOLDS.keys())
def test_cluster_outputs_are_those_of_the_sequential_executor(threshold):
    with ClusterContext(cluster_workers=2, num_partitions=4, broadcast_join_threshold=threshold) as context:
        for name in sorted(PROGRAMS):
            spec = get_program(name)
            program = diablo_for(spec, context).compile(spec.source)
            for size in SIZES:
                result = program.run(**workload_for_program(name, size, seed=7))
                expected = program_run(name, size, threshold, None)[0]
                assert repr(translated_outputs(name, result)) == expected, name
        assert context.metrics.cluster_fallbacks == 0


# ---------------------------------------------------------------------------
# Hand-written boundaries
# ---------------------------------------------------------------------------

X = {i: (float(i), i * 10) for i in range(1, 9)}  # i -> (x, b); nothing reads b
Y = {j: j / 2 for j in range(1, 9) if j % 3}
Z = {k: 100.0 + k for k in range(1, 9)}
VAR = ir.CVar


def scan(key: str, value: ir.Pattern | str, domain: str) -> ir.Generator:
    pattern = ir.PVar(value) if isinstance(value, str) else value
    return ir.Generator(ir.PTuple((ir.PVar(key), pattern)), VAR(domain))


#: X's generator: ``(i, (x, b)) <- X``.
SCAN_X = scan("i", ir.PTuple((ir.PVar("x"), ir.PVar("b"))), "X")


def equal(left: str, right: str) -> ir.Condition:
    return ir.Condition(ir.CBinOp("==", VAR(left), VAR(right)))


def evaluate(comprehension: ir.Comprehension, threshold: int):
    """The comprehension's sorted result, the evaluator (trace, segments)
    and the context's metrics."""
    with DistributedContext(num_partitions=3, broadcast_join_threshold=threshold) as context:
        values = {name: context.parallelize_pairs(data) for name, data in (("X", X), ("Y", Y), ("Z", Z))}
        evaluator = TermEvaluator(EvaluationEnvironment(context, values))
        result = sorted(evaluator.evaluate(comprehension).collect())
        return result, evaluator, context.metrics


def entries(evaluator: TermEvaluator, *kinds: str) -> list[tuple]:
    return [segment.entry for segment in evaluator.segments if segment.entry[0] in kinds]


def payloads(evaluator: TermEvaluator) -> set[tuple]:
    """The payloads the evaluator's keying runs emit."""
    return {segment.exit[2] for segment in evaluator.segments if segment.exit[0] == "keyed"}


@pytest.mark.parametrize("threshold", THRESHOLDS.values(), ids=THRESHOLDS.keys())
def test_a_consumer_reading_a_subset_of_the_left_slots_gets_only_those(threshold):
    """``{ (j, x * y) | (i, (x, b)) <- X, (j, y) <- Y, i == j }``: the left
    keying run ships x alone (i is the key, b is never read)."""
    head = ir.CTuple((VAR("j"), ir.CBinOp("*", VAR("x"), VAR("y"))))
    comprehension = ir.Comprehension(head, (SCAN_X, scan("j", "y", "Y"), equal("i", "j")))
    result, evaluator, _ = evaluate(comprehension, threshold)
    assert result == sorted((j, X[j][0] * Y[j]) for j in Y)
    consumers = entries(evaluator, "cogroup", "probe")
    assert consumers and all(entry[-2:] == (("x",), ("j", "y")) for entry in consumers)
    assert ("values", ("x",)) in payloads(evaluator)


@pytest.mark.parametrize("threshold", THRESHOLDS.values(), ids=THRESHOLDS.keys())
def test_a_pushed_left_let_shadowing_a_left_variable_ships_the_new_value(threshold):
    """``let x = x * 2.0`` after the join reads X only: it runs in X's
    keying run, and the slot x carries the doubled value."""
    double = ir.LetBinding(ir.PVar("x"), ir.CBinOp("*", VAR("x"), ir.CConst(2.0)))
    comprehension = ir.Comprehension(
        ir.CTuple((VAR("i"), ir.CBinOp("+", VAR("x"), VAR("y")))),
        (SCAN_X, scan("j", "y", "Y"), equal("i", "j"), double),
    )
    result, evaluator, _ = evaluate(comprehension, threshold)
    assert result == sorted((j, X[j][0] * 2.0 + Y[j]) for j in Y)
    pushed = "pushed below the join: let x = (x * 2.0) → left side"
    assert any(line.endswith(pushed) for line in evaluator.trace)
    (left_run,) = [segment for segment in evaluator.segments if segment.entry == ("bind", SCAN_X.pattern)]
    assert left_run.steps == (("let", double.pattern, double.term),)
    assert left_run.exit[2] == ("values", ("i", "x"))


@pytest.mark.parametrize("threshold", THRESHOLDS.values(), ids=THRESHOLDS.keys())
def test_a_join_feeding_a_join_emits_what_the_outer_consumer_reads(threshold):
    """X ⋈ Y ⋈ Z: the inner consumer is the outer join's left keying run,
    so it emits the slot rows the outer consumer unpacks, and each right
    side ships only what its consumer reads (Z's key k is not shipped)."""
    comprehension = ir.Comprehension(
        ir.CTuple((VAR("i"), ir.CBinOp("*", VAR("x"), VAR("z")))),
        (
            SCAN_X,
            scan("j", "y", "Y"),
            equal("i", "j"),
            ir.LetBinding(ir.PVar("x"), ir.CBinOp("+", VAR("x"), VAR("y"))),
            scan("k", "z", "Z"),
            equal("j", "k"),
        ),
    )
    result, evaluator, _ = evaluate(comprehension, threshold)
    assert result == sorted((j, (X[j][0] + Y[j]) * Z[j]) for j in Y)
    # The consumer and, when the join broadcasts, its probe twin.
    consumers = [segment for segment in evaluator.segments if segment.entry[0] in ("cogroup", "probe")]
    outer = {segment.entry[-2] for segment in consumers if segment.entry[-1] == ("z",)}
    assert outer == {("i", "x")}
    inner = {segment.exit for segment in consumers if segment.entry[-1] == ("j", "y")}
    assert inner == {("keyed", VAR("j"), ("values", ("i", "x")))}


def test_a_group_by_over_slot_rows_lifts_only_what_it_reads():
    """``{ (g, (+/x, max/b)) | (i, (x, b)) <- X, let g = i % 3, group by g }``:
    the groups hold slot rows of x and b, never i."""
    head = ir.CTuple((VAR("g"), ir.CTuple((ir.Aggregate("+", VAR("x")), ir.Aggregate("max", VAR("b"))))))
    comprehension = ir.Comprehension(
        head,
        (
            SCAN_X,
            ir.LetBinding(ir.PVar("g"), ir.CBinOp("%", VAR("i"), ir.CConst(3))),
            ir.GroupBy(ir.PVar("g"), VAR("g")),
        ),
    )
    result, evaluator, _ = evaluate(comprehension, DEFAULT_BROADCAST_JOIN_THRESHOLD)
    groups: dict = {}
    for i, (x, b) in X.items():
        groups.setdefault(i % 3, []).append((x, b))
    expected = [(g, (sum(x for x, _ in rows), max(b for _, b in rows))) for g, rows in groups.items()]
    assert result == sorted(expected)
    assert entries(evaluator, "grouped") == [("grouped", ir.PVar("g"), ("x", "b"))]
    assert ("values", ("x", "b")) in payloads(evaluator)


@pytest.mark.parametrize("threshold", THRESHOLDS.values(), ids=THRESHOLDS.keys())
def test_a_product_is_fed_slot_rows(threshold):
    """With no join key, X × Y is a product: its left rows reach it as slot
    rows of the live names."""
    comprehension = ir.Comprehension(
        ir.CTuple((VAR("i"), VAR("j"), ir.CBinOp("*", VAR("x"), VAR("y")))), (SCAN_X, scan("j", "y", "Y"))
    )
    record_path, evaluator, _ = evaluate(comprehension, threshold)
    assert record_path == sorted((i, j, x * y) for i, (x, _) in X.items() for j, y in Y.items())
    consumers = entries(evaluator, "product", "slots")
    assert consumers and all(entry[1] == ("i", "x") for entry in consumers)
