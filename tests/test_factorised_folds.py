"""Factorised ``fold_by_key`` exits.

Where a fold key is made of row variables and some of them are bound
outside the innermost generated loop, the exit does not build and hash the
whole key per product: a key split across loop depths folds into one row
dict per value of its outer part, keyed on its inner part (shape B, matrix
multiplication), and a key fixed across the inner loops folds into a local
stored once after them (shape A, kmeans' closest centroid).  Either way the
result must be what the flat fold made of the same products: the segment's
``keyed`` twin through ``apply_combiner(("reduce", ⊕))`` -- keys, their
first-occurrence order and objects, value bits and types, ``consumed`` and
the first error.
"""

from __future__ import annotations

import copy
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_codegen import canonical
from test_soundness_programs import assert_same_outputs

from repro.algebra import codegen
from repro.algebra.codegen import Segment
from repro.comprehension import ir
from repro.comprehension.monoids import Monoid, MonoidRegistry
from repro.evaluation.harness import diablo_for
from repro.programs import get_program
from repro.runtime import stage
from repro.runtime.context import DistributedContext
from repro.workloads import workload_for_program


def _append(accumulator, value):
    accumulator.append(value)
    return accumulator


def _picky(left, right):
    if right == 3:
        raise ValueError(f"picky combine refuses {right!r}")
    return left + right


#: Built-ins plus a non-commutative concat (an order slip shows), a combine
#: that mutates its left argument (a shared accumulator shows) and one that
#: raises on some values.
MONOIDS = MonoidRegistry()
MONOIDS.register(Monoid("++", "", lambda a, b: f"{a}|{b}", commutative=False), verify=False)
MONOIDS.register(Monoid("append", list, _append, commutative=False), verify=False)
MONOIDS.register(Monoid("picky", 0, _picky), verify=False)
FOLD_OPS = ["+", "*", "min", "++", "append", "picky"]

NAN = math.nan
#: Key parts that hash alike but differ (1 / 1.0 / True, 0.0 / -0.0), NaNs
#: (one shared object and fresh ones), and two unhashable types, so that
#: which part of a key is hashed first shows in the error.
key_values = st.one_of(
    st.sampled_from([1, 1.0, True, 2, 0.0, -0.0, NAN, "x", (1, 2)]),
    st.just(None).map(lambda _: float("nan")),
    st.just(None).map(lambda _: [1]),
    st.just(None).map(lambda _: {}),
)
payload_values = st.one_of(
    st.sampled_from([1, 2, 3, 2.5, -0.0, NAN, "s", True]), st.just(None).map(lambda _: [0])
)
#: The outer row binds ``i``/``v``, the inner loop ``j``/``w``.
outer_rows = st.tuples(key_values, payload_values)
inner_rows = st.tuples(key_values, payload_values)

I, V, J, W = map(ir.CVar, "ivjw")
#: Inner steps that never raise: a filter that rejects some products, one
#: that rejects all of them, and lets of key tuples split or not.
inner_steps = st.lists(
    st.sampled_from(
        [
            ("filter", ir.CBinOp("!=", W, ir.CConst(2))),
            ("filter", ir.CBinOp("!=", J, ir.CConst("x"))),
            ("filter", ir.CConst(False)),
            ("let", ir.PVar("p"), ir.CTuple((I, J))),
            ("let", ir.PVar("q"), ir.CTuple((V, I))),
        ]
    ),
    max_size=3,
)
keys = st.sampled_from(
    [
        ir.CTuple((I, J)),  # split, outer part first
        ir.CTuple((J, I)),  # split, inner part first
        ir.CTuple((I, V, J)),  # a two-variable outer part
        ir.CVar("p"),  # a let of a split tuple
        I,  # whole key outside the inner loop
        ir.CTuple((I, V)),
        ir.CVar("q"),  # a let of an outer tuple
        J,  # all inner: the flat fold
    ]
)
#: The inner loop: each ``(j, w)`` of the driver bag.
EXPAND = ("expand", ir.PTuple((ir.PVar("j"), ir.PVar("w"))), ir.CVar("bag"))
#: It, or each element whole as ``j`` (``w`` is then unbound).
expands = st.sampled_from([EXPAND, ("expand", ir.PVar("j"), ir.CVar("bag"))])
#: Steps before it, at the outer loop's depth.
outer_steps = st.lists(
    st.sampled_from([("filter", ir.CBinOp("!=", V, ir.CConst(2))), ("let", ir.PVar("q"), ir.CTuple((V, I)))]),
    max_size=2,
)
payloads = st.sampled_from([("value", "v"), ("value", "w"), ("value", "p")])
folds = st.sampled_from(FOLD_OPS).map(lambda op: codegen.fold_operator(op, MONOIDS))


def bindings(bag=()) -> codegen.Bindings:
    return codegen.Bindings({"bag": list(bag)}, {}, {}, MONOIDS)


def outcome(run, segment, bag, records, *lookup):
    """``run``'s folded records, bit-exact, and ``consumed``; or its error."""
    try:
        # A copy per run, the driver bag's too: a combine may mutate the values it folds.
        bag, records, lookup = copy.deepcopy((bag, records, lookup))
        result = run(segment, bindings(bag), records, *lookup)
        return ("ok", canonical(list(result)), result.consumed)
    except Exception as error:
        return ("error", type(error).__name__, str(error))


def folded(segment, bindings, records, *lookup):
    return codegen.generate(segment, bindings, {})(records, *lookup)


def combined(segment, bindings, records, *lookup):
    """The ``keyed`` twin's pairs through the map-side combiner."""
    pairs = codegen.generate(segment, bindings, {}).unfolded()(records, *lookup)
    combine = MONOIDS.get(segment.exit[3]).combine
    return stage.FoldedRecords(stage.apply_combiner(("reduce", combine), pairs), len(pairs))


def assert_factorised_same(segment: Segment, bag, records, *lookup):
    """``segment``'s fold == its ``keyed`` twin through ``apply_combiner``."""
    expected = outcome(combined, segment, bag, records, *lookup)
    assert outcome(folded, segment, bag, records, *lookup) == expected
    return codegen.generate(segment, bindings(bag), {}).source


def fold_exit(key, payload, fold):
    return ("fold_by_key", key, payload, *fold)


@settings(max_examples=400, deadline=None)
@given(
    records=st.lists(outer_rows, min_size=1, max_size=4),
    bag=st.lists(inner_rows, max_size=4),
    outer=outer_steps,
    expand=expands,
    inner=inner_steps,
    key=keys,
    payload=payloads,
    fold=folds,
)
@example(  # an unhashable outer part under an all-rejecting filter raises nothing
    records=[([1], 1)],
    bag=[(1, 1)],
    outer=[],
    expand=EXPAND,
    inner=[("filter", ir.CConst(False))],
    key=ir.CTuple((I, J)),
    payload=("value", "w"),
    fold=codegen.fold_operator("+", MONOIDS),
)
@example(  # (j, i), both unhashable: the inner part j is hashed first, as in the flat fold
    records=[({}, 1)],
    bag=[([1], 1)],
    outer=[],
    expand=EXPAND,
    inner=[],
    key=ir.CTuple((J, I)),
    payload=("value", "w"),
    fold=codegen.fold_operator("+", MONOIDS),
)
def test_expand_fold_equals_the_keyed_twin_combined(records, bag, outer, expand, inner, key, payload, fold):
    """An inner loop over a driver bag, the key split or fixed across it."""
    segment = Segment(("slots", ("i", "v")), (*outer, expand, *inner), fold_exit(key, payload, fold))
    assert_factorised_same(segment, bag, records)


join_keys = st.sampled_from([1, 1, 2, True, "k", NAN])


@settings(max_examples=300, deadline=None)
@given(
    groups=st.lists(
        st.tuples(join_keys, st.lists(outer_rows, max_size=3), st.lists(inner_rows, max_size=3)),
        min_size=1,
        max_size=3,
    ),
    inner=inner_steps,
    key=keys,
    payload=payloads,
    fold=folds,
)
def test_join_consumer_fold_equals_the_keyed_twin_combined(groups, inner, key, payload, fold):
    """The join consumer, co-grouped and as a broadcast probe over a table
    of the same right rows: each left row, then each of its matches."""
    segment = Segment(("cogroup", ("i", "v"), ("j", "w")), tuple(inner), fold_exit(key, payload, fold))
    assert_factorised_same(segment, (), groups)
    table: dict = {}
    for join_key, _, rights in groups:
        table.setdefault(join_key, []).extend(rights)
    probes = [(join_key, left) for join_key, lefts, _ in groups for left in lefts]
    probe = segment._replace(entry=("probe", "right", False, ("i", "v"), ("j", "w")))
    if probes:
        assert_factorised_same(probe, (), probes, table)


def test_the_shapes_fire_where_the_key_parts_are_bound():
    """(i, j) split across depths folds through rows; i alone folds into a
    local; j alone, bound in the innermost loop, and (j, i), whose inner part
    is hashed first, keep the flat fold."""

    def source(key, *lets):
        segment = Segment(("slots", ("i", "v")), (EXPAND, *lets), fold_exit(key, ("value", "w"), ("+", True)))
        bag, records = [(1, 2.0), (2, 3.0), (1, 4.0)], [(0, 1.0), (0.0, 2.0), (7, 3.0)]
        return assert_factorised_same(segment, bag, records)

    split = source(ir.CTuple((I, J)))
    assert "row = rows_get(r1_i)" in split and "fold_key" not in split
    # A let of the split key that nothing else reads is not emitted: the
    # tuple is built once per key, in the first-sight branch.
    let = source(ir.CVar("p"), ("let", ir.PVar("p"), ir.CTuple((I, J))))
    assert let.count("(r1_i, r5_j, )") == 1 and "push(((r1_i, r5_j, ), row, r5_j))" in let
    whole = source(I)
    assert "folding = True" in whole and "acc[fold_key] = held" in whole
    flat = source(J)
    assert "acc[fold_key] = " in flat and "rows_get" not in flat and "folding" not in flat
    inner_first = source(ir.CTuple((J, I)))
    assert "acc[fold_key] = " in inner_first and "rows_get" not in inner_first


def test_a_variable_a_generator_binds_is_bound_in_the_loop_it_opens():
    """``j <- bag`` binds ``j`` one loop below ``i``: the key ``(i, j)`` is
    split across the depths, not folded as if fixed across ``j``'s loop."""
    segment = Segment(
        ("slots", ("i", "v")),
        (("expand", ir.PVar("j"), ir.CVar("bag")),),
        fold_exit(ir.CTuple((I, J)), ("value", "v"), ("+", True)),
    )
    source = assert_factorised_same(segment, [1, 2, 1], [(0, 1.0), (7, 3.0), (0, 5.0)])
    assert "row = rows_get(r1_i)" in source and "folding" not in source


def test_a_filter_rejecting_every_product_fetches_no_row():
    """No product reaches the fold: no key is hashed, so an unhashable outer
    part raises nothing, and nothing is folded."""
    for key in (ir.CTuple((I, J)), I):
        segment = Segment(
            ("slots", ("i", "v")),
            (EXPAND, ("filter", ir.CConst(False))),
            fold_exit(key, ("value", "w"), ("+", True)),
        )
        result = codegen.generate(segment, bindings([(1, 2.0)]), {})([([1], 1.0), ((2,), 2.0)])
        assert list(result) == [] and result.consumed == 0


SHAPES = [
    ("matrix_multiplication", 12, "rows_get("),
    ("matrix_factorization", 8, "rows_get("),
    ("kmeans", 600, "folding = True"),
]


@pytest.mark.parametrize("name, size, marker", SHAPES)
def test_the_programs_fold_factorised_and_agree_with_the_interpreter(name, size, marker):
    spec = get_program(name)
    inputs = workload_for_program(name, size, seed=3)
    with DistributedContext(num_partitions=2) as ctx:
        diablo = diablo_for(spec, ctx)
        compiled = diablo.compile(spec.source)
        distributed = compiled.run(**copy.deepcopy(inputs))
        sources = [entry[1] for entry in compiled.translation.target.segments.values()]
        assert any(marker in source for source in sources)
        assert_same_outputs(spec, distributed, diablo.interpret(spec.source, copy.deepcopy(inputs)))


def test_a_positional_element_key_folds_inside_its_record_loop():
    """word_count folds by the list element itself, which the record loop
    binds (depth 1, like every record variable): its key is read inside
    that loop, never hoisted before it into a fold of every word into one."""
    spec = get_program("word_count")
    with DistributedContext(num_partitions=2) as ctx:
        compiled = diablo_for(spec, ctx).compile(spec.source)
        compiled.run(**workload_for_program("word_count", 20, seed=7))
    (fold,) = [entry[1] for entry in compiled.translation.target.segments.values() if "fold_key" in entry[1]]
    lines = fold.splitlines()
    loop = lines.index(next(line for line in lines if line.strip() == "for rec in records:"))
    key = lines.index(next(line for line in lines if line.strip() == "fold_key = rec"))

    def indent(line):
        return len(line) - len(line.lstrip())

    assert key > loop and indent(lines[key]) > indent(lines[loop])
    assert "folding" not in fold and "rows_get" not in fold
