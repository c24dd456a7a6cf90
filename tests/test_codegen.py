"""Row-segment code generation against its reference, ``evaluate_local``.

The generated per-partition functions must be observably the closure
composition they replaced: one map / filter per qualifier, each copying the
row dict, tree-walking its term through ``TermEvaluator.evaluate_local`` and
destructuring with ``_bind_pattern``.  :func:`reference` below *is* that
composition, kept here as the oracle: results must agree in type and bit
pattern, and failures in exception type and message.

The folding exits and the join consumer are held to the forms they replaced:
``fold_by_key`` to ``apply_combiner(("reduce", ⊕), keyed segment output)``,
``fold`` to ``Monoid.reduce(head segment output)``, and a ``cogroup``
consumer inside a physical join (a broadcast join's through the consumer's
``probe`` twin), over both sides' keyed slot rows, to that join's
materialised pairs run through the (reference-only) ``("join", ...)``
entry.  Where a generated run passes a slot row (a flat tuple of its live
variables) the closures passed the dict row of the same names: the
reference reads one as the other.  The ``expand`` step
and the ``product`` entry are held to the record closures generators used
to run as -- the per-row ``expand`` / driver-bag ``expand_local`` closures
and the product's broadcast and cartesian lambdas -- kept below.
"""

from __future__ import annotations

import copy
import functools
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Diablo
from repro.algebra import codegen
from repro.algebra.codegen import Segment
from repro.algebra.evaluator import EvaluationEnvironment, TermEvaluator, _bind_pattern
from repro.comprehension import ir
from repro.comprehension.monoids import Monoid, MonoidRegistry
from repro.errors import CompilationError, ExecutionError
from repro.evaluation.harness import diablo_for, translated_outputs
from repro.functions import FunctionRegistry
from repro.programs import get_program
from repro.runtime import segments, stage
from repro.runtime.cluster import wire
from repro.runtime.context import DistributedContext
from repro.runtime.spill import BucketPayload
from repro.workloads import workload_for_program


@pytest.fixture(scope="module")
def context():
    with DistributedContext(num_partitions=2) as ctx:
        yield ctx


def _append(accumulator: list, value) -> list:
    accumulator.append(value)
    return accumulator


#: The built-ins plus a non-commutative concat (any order slip shows) and a
#: monoid whose combine mutates its left argument (any shared or re-used
#: accumulator shows).
MONOIDS = MonoidRegistry()
MONOIDS.register(Monoid("++", "", lambda a, b: f"{a}|{b}", commutative=False), verify=False)
MONOIDS.register(Monoid("append", list, _append, commutative=False), verify=False)
FOLD_OPS = ["+", "*", "min", "++", "append"]


def bindings_for(context, values=None, base=None, monoids=MONOIDS) -> codegen.Bindings:
    environment = EvaluationEnvironment(context, values if values is not None else {}, monoids=monoids)
    return codegen.Bindings(base or {}, environment.values, environment.functions, environment.monoids)


def oracle(bindings: codegen.Bindings) -> TermEvaluator:
    """The evaluator whose ``evaluate_local`` is the reference under
    ``bindings`` (local evaluation never reaches the context)."""
    environment = EvaluationEnvironment(None, bindings.values, bindings.functions, bindings.monoids)
    return TermEvaluator(environment)


def generated(segment: Segment, bindings: codegen.Bindings, records: list) -> list:
    result = codegen.generate(segment, bindings, {})(records)
    if segment.exit[0] == "fold_by_key":
        assert type(result) is stage.FoldedRecords
        return list(result)
    return result


def expand_closure(pattern, domain, base, evaluator):
    """A generator over a row-dependent domain, as the evaluator built it."""

    def expand(row):
        local = {**base, **row}
        bag = segments.local_bag(evaluator.evaluate_local(domain, local))
        out = []
        for element in bag:
            binding = _bind_pattern(pattern, element)
            out.append({**row, **binding})
        return out

    return expand


def expand_local_closure(pattern, bag):
    """A generator over a driver-side bag (a local bag, a product's broadcast
    elements), as the evaluator and planner built it."""

    def expand_local(row):
        return [{**row, **_bind_pattern(pattern, element)} for element in bag]

    return expand_local


def slot_row(names: tuple[str, ...], values: tuple) -> dict:
    """A slot row as the dict row the closures passed on."""
    return dict(zip(names, values, strict=True))


def slots(*names: str) -> tuple:
    """The head emitting the slot row of ``names``."""
    return ("head", ir.CTuple(tuple(map(ir.CVar, names))))


def reference(segment: Segment, bindings: codegen.Bindings, records: list) -> list:
    """The per-qualifier closure composition the generator replaced.

    A folding exit is the ``keyed`` / ``head`` composition followed by the
    fold the runtime used to run over its output.  The closures passed dict
    rows where generated runs pass slot rows: a slot row enters here as the
    dict row of its names.  The ``("join", names, pattern)`` entry -- a
    materialised ``(key, (left slot row, element))`` pair -- only exists
    here: it is what a ``cogroup`` consumer is compared against.
    """
    exit_ = segment.exit
    if exit_[0] == "fold_by_key":
        keyed = reference(segment._replace(exit=("keyed", *exit_[1:3])), bindings, records)
        return stage.apply_combiner(("reduce", bindings.monoids.get(exit_[3]).combine), keyed)
    if exit_[0] == "fold":
        heads = reference(segment._replace(exit=("head", exit_[1])), bindings, records)
        return [bindings.monoids.get(exit_[2]).reduce(heads)]
    evaluator, base = oracle(bindings), bindings.base
    evaluate = evaluator.evaluate_local
    scope = segments.ScalarScope(base, bindings.values)
    kind = segment.entry[0]
    out = []

    def run(row, steps, record):
        for position, step in enumerate(steps):
            if step[0] == "let":
                row = {**row, **_bind_pattern(step[1], evaluate(step[2], {**base, **row}))}
            elif step[0] == "filter":
                if not bool(evaluate(step[1], {**base, **row})):
                    return
            else:
                source = step[2]
                if isinstance(source, ir.CVar) and source.name not in row:
                    expand = expand_local_closure(step[1], scope.resolve(source.name))
                else:
                    expand = expand_closure(step[1], source, base, evaluator)
                for extended in expand(row):
                    run(extended, steps[position + 1 :], record)
                return
        if exit_[0] == "head":
            out.append(evaluate(exit_[1], {**base, **row}))
        else:
            key = evaluate(exit_[1], {**base, **row})
            payload = exit_[2]
            if payload[0] == "values":
                out.append((key, tuple(row.get(name) for name in payload[1])))
            else:
                out.append((key, row.get(payload[1])))

    for record in records:
        if kind == "bind":
            rows = [{**_bind_pattern(segment.entry[1], record)}]
        elif kind == "slots":
            rows = [slot_row(segment.entry[1], record)]
        elif kind == "join":
            left = slot_row(segment.entry[1], record[1][0])
            rows = [{**left, **_bind_pattern(segment.entry[2], record[1][1])}]
        elif kind == "product" and segment.entry[3] is None:  # the cartesian pairs' map
            left = slot_row(segment.entry[1], record[0])
            rows = [{**left, **_bind_pattern(segment.entry[2], record[1])}]
        elif kind == "product":  # the broadcast-left flat_map
            pattern, lefts = segment.entry[2], scope.resolve(segment.entry[3])
            rows = [{**slot_row(segment.entry[1], row), **_bind_pattern(pattern, record)} for row in lefts]
        elif kind == "reduced":
            key, value = record
            row = _bind_pattern(segment.entry[1], key)
            row[f"__aggregate_{segment.entry[2]}"] = value
            row[segment.entry[2]] = segments.PreAggregated(value)
            rows = [row]
        else:
            key, members = record
            row = _bind_pattern(segment.entry[1], key)
            for position, name in enumerate(segment.entry[2]):
                row[name] = [member[position] for member in members]
            rows = [row]
        for row in rows:
            run(row, segment.steps, record)
    return out


def canonical(value, enclosing=()):
    """Type- and bit-exact form: floats by repr (-0.0, NaN), containers deep,
    dicts in insertion order.  A container inside itself (an ``append`` fold
    of one list object into itself) is ``("cycle", depth)``."""
    if isinstance(value, (dict, tuple, list)):
        if id(value) in enclosing:
            return ("cycle", enclosing.index(id(value)))
        enclosing = (*enclosing, id(value))
    if isinstance(value, dict):
        return ("dict", [(canonical(k, enclosing), canonical(v, enclosing)) for k, v in value.items()])
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, [canonical(element, enclosing) for element in value])
    if isinstance(value, segments.PreAggregated):
        return ("pre", canonical(value.value, enclosing))
    return (type(value).__name__, repr(value))


def outcome(run, segment, bindings, records):
    try:
        # A copy per run: a combine may mutate the values it folds.
        return ("ok", canonical(run(segment, bindings, copy.deepcopy(records))))
    except Exception as error:
        return ("error", type(error).__name__, str(error))


def assert_same(segment, bindings, records, run=generated, against=reference):
    """``run`` must do what ``against`` does, down to the error raised.

    Two allowances.  For folding exits: the fold now runs inside the loop,
    so where a *fold* fails on an early record and a *term* on a later one,
    the fold's error surfaces first.  It must then be the error the two-pass
    form raises on the shortest failing prefix of the records -- for a
    product over a driver bag of left rows, of the (left row, element) pairs
    its loop folds, in their order.  For a segment with a comparison literal
    typed like the data (see :class:`codegen.Segment`): an int literal read
    as a float fails to compare with a string on the same record, with the
    same ``TypeError``, whose message names ``float`` where it named ``int``.
    """
    expected = outcome(against, segment, bindings, records)
    actual = outcome(run, segment, bindings, records)
    if actual != expected and expected[0] == "error" and segment.exit[0] in ("fold", "fold_by_key"):
        if segment.entry[0] == "product" and segment.entry[3] is not None:
            lefts = segments.ScalarScope(bindings.base, bindings.values).resolve(segment.entry[3])
            records = [(left, element) for element in records for left in lefts]
            segment = segment._replace(entry=(*segment.entry[:3], None))  # the same pairs, as cartesian ones
        prefixes = (outcome(against, segment, bindings, records[:n]) for n in range(1, len(records)))
        expected = next((prefix for prefix in prefixes if prefix[0] == "error"), expected)
    if (
        actual != expected
        and expected[:2] == actual[:2] == ("error", "TypeError")
        and actual[2] == expected[2].replace("'int'", "'float'")
        and re.search(r"^ +k\d+ = ", codegen.generate(segment, bindings, {}).source, re.M)
    ):
        expected = actual
    assert actual == expected
    return expected


# ---------------------------------------------------------------------------
# The property: generated == evaluate_local on adversarial values
# ---------------------------------------------------------------------------

INT64 = 2**63
values = st.recursive(
    st.one_of(
        st.sampled_from(
            [0, 1, -1, 7, INT64 - 1, -INT64, INT64, 10**30, True, False, None, "", "ab", "7"]
        ),
        st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e308, math.inf, -math.inf, math.nan]),
        st.integers(-5, 5),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.tuples(inner, inner, inner),
        st.fixed_dictionaries({"_1": inner, "f": inner}),
    ),
    max_leaves=4,
)

#: ``a``/``b`` are bound by the entry, ``s`` is a driver scalar, ``base$1`` a
#: driver binding (with a ``$`` as the translator's fresh names have),
#: ``ghost`` resolves nowhere.
NAMES = ["a", "b", "s", "base$1"] * 3 + ["ghost"]
BINARY_OPS = ["+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||"] * 2 + ["^^"]


def terms(names=NAMES):
    leaves = st.one_of(
        st.sampled_from(names).map(ir.CVar),
        values.map(ir.CConst),
    )

    def extend(inner):
        return st.one_of(
            st.builds(ir.CBinOp, st.sampled_from(BINARY_OPS), inner, inner),
            st.builds(ir.CUnaryOp, st.sampled_from(["-", "!", "-", "!", "~"]), inner),
            st.builds(lambda a, b: ir.CTuple((a, b)), inner, inner),
            st.builds(lambda a, b: ir.CRecord((("_1", a), ("f", b))), inner, inner),
            st.builds(ir.CProject, inner, st.sampled_from(["_1", "_2", "_0", "_9", "f", "real"])),
            st.builds(
                lambda name, args: ir.CCall(name, tuple(args)),
                st.sampled_from(["abs", "min", "max"] * 3 + ["nope"]),
                st.lists(inner, min_size=1, max_size=2),
            ),
            st.builds(
                lambda record, attribute, value: ir.CCall(
                    "_update_field", (record, ir.CConst(attribute), value)
                ),
                inner,
                st.sampled_from(["_1", "_3", "f"]),
                inner,
            ),
            st.builds(ir.InRange, inner, inner, inner),
        )

    return st.recursive(leaves, extend, max_leaves=6)


patterns = st.sampled_from(
    [ir.PVar("c")] * 4
    + [
        ir.PVar("a"),  # shadows an entry variable
        ir.PWildcard(),
        ir.PTuple((ir.PVar("c"), ir.PVar("d"))),
        ir.PTuple((ir.PVar("c"), ir.PWildcard())),
        ir.PTuple((ir.PTuple((ir.PVar("c"), ir.PVar("d"))), ir.PVar("v$9"))),
    ]
)
steps = st.one_of(
    st.tuples(st.just("let"), patterns, terms()),
    st.tuples(st.just("filter"), terms()),
)
exits = st.one_of(
    st.tuples(st.just("head"), terms(NAMES + ["c", "v$9"])),
    st.just(slots("a", "c")),
    # Every entry binds ``a``: a ``values`` payload names bound variables only.
    st.tuples(st.just("keyed"), terms(), st.sampled_from([("values", ("a",)), ("value", "c")])),
)
#: Mostly small key terms over the entry variables, so that keys repeat.
fold_keys = st.one_of(
    st.sampled_from(
        [ir.CVar("a")] * 8
        + [ir.CTuple((ir.CVar("a"), ir.CVar("s"))), ir.CTuple((ir.CConst(0), ir.CVar("a")))] * 2
        + [ir.CVar("b"), ir.CVar("ghost")]
    ),
    terms(),
)
fold_payloads = st.sampled_from([("value", "b")] * 4 + [("value", "a"), ("value", "c")])
fold_terms = st.one_of(st.just(ir.CVar("b")), terms(NAMES + ["c"]))
folding_exits = st.one_of(
    st.sampled_from(FOLD_OPS).flatmap(
        lambda op: st.one_of(
            st.tuples(
                st.just("fold_by_key"),
                fold_keys,
                fold_payloads,
                *map(st.just, codegen.fold_operator(op, MONOIDS)),
            ),
            st.tuples(st.just("fold"), fold_terms, *map(st.just, codegen.fold_operator(op, MONOIDS))),
        )
    ),
    # The product form: a shared scan's (⊕1,…,⊕n)/ over a head tuple.
    st.lists(st.sampled_from(FOLD_OPS), min_size=2, max_size=3).flatmap(
        lambda ops: st.tuples(
            st.just("fold"),
            st.lists(fold_terms, min_size=len(ops), max_size=len(ops)).map(
                lambda parts: ir.CTuple(tuple(parts))
            ),
            *map(st.just, codegen.fold_operator(tuple(ops), MONOIDS)),
        )
    ),
)


#: Entry patterns with records that mostly (not always) have their shape.
entries = st.sampled_from(
    [
        (ir.PTuple((ir.PVar("a"), ir.PVar("b"))), st.tuples(values, values)),
        (
            ir.PTuple((ir.PTuple((ir.PVar("a"), ir.PWildcard())), ir.PVar("b"))),
            st.tuples(st.tuples(values, values), values),
        ),
        (ir.PVar("a"), values),
    ]
).flatmap(
    lambda entry: st.tuples(
        st.just(entry[0]), st.lists(st.one_of(entry[1], entry[1], values), min_size=1, max_size=3)
    )
)


@settings(max_examples=300, deadline=None)
@given(entry=entries, step_list=st.lists(steps, max_size=3), exit_=exits, scalar=values)
def test_generated_segment_equals_evaluate_local(context, entry, step_list, exit_, scalar):
    bindings = bindings_for(context, {"s": scalar}, {"base$1": 3})
    entry_pattern, records = entry
    assert_same(Segment(("bind", entry_pattern), tuple(step_list), exit_), bindings, records)


#: Keys for the folds: few distinct values, so that keys repeat (skewed
#: towards 1), with the pairs Python's ``==`` / ``hash`` conflate (``1 == True
#: == 1.0``, ``0.0 == -0.0``) and the one it never matches (NaN).
fold_key_values = st.sampled_from(
    [1] * 4 + [True, 1.0, 0, False, 0.0, -0.0, math.nan, 2, INT64 - 1, -INT64, "x", None, (1, 2)]
)
#: Payloads, homogeneous per partition more often than not: numbers (every
#: monoid folds them), strings and lists (only some do).
fold_numbers = st.one_of(
    st.sampled_from(
        [1, True, 0, -0.0, 0.0, 2.5, -2.25, 1e308, math.nan, math.inf, INT64 - 1, -INT64, 10**30]
    ),
    st.integers(-5, 5),
)
fold_payload_values = st.one_of(
    fold_numbers, st.sampled_from(["x", "", None, (1, 2)]), st.lists(st.integers(0, 3), max_size=2)
)
fold_records = st.one_of(
    *[st.lists(st.tuples(fold_key_values, fold_numbers), max_size=8)] * 4,
    st.lists(st.tuples(fold_key_values, st.sampled_from(["x", "", "yz"])), max_size=6),
    st.lists(st.tuples(fold_key_values, st.lists(st.integers(0, 3), max_size=2)), max_size=6),
    st.lists(st.tuples(fold_key_values, fold_payload_values), max_size=6),
    st.lists(st.one_of(st.tuples(fold_key_values, fold_payload_values), values), max_size=4),
)
#: Generators over a bag the row gives (a range, its own value, a pair of
#: its variables, nothing): the fold runs in their inner loop.
row_expands = st.deferred(
    lambda: st.tuples(
        st.just("expand"),
        expand_patterns,
        st.one_of(
            st.builds(ir.RangeTerm, bounds, bounds),
            st.sampled_from([ir.CVar("b"), ir.CTuple((ir.CVar("a"), ir.CVar("b"))), ir.EmptyBag()]),
        ),
    )
)
#: Half the segments have no steps: every record then reaches the fold.
fold_steps = st.one_of(
    st.just([]),
    st.lists(
        st.sampled_from(
            [
                ("filter", ir.CBinOp("!=", ir.CVar("a"), ir.CConst(2))),
                ("let", ir.PVar("c"), ir.CTuple((ir.CVar("b"), ir.CVar("s")))),
                ("let", ir.PVar("b"), ir.CBinOp("*", ir.CVar("b"), ir.CConst(2))),
            ]
            * 3
        )
        | steps
        | row_expands,
        max_size=2,
    ),
)


@settings(max_examples=600, deadline=None)
@given(records=fold_records, step_list=fold_steps, exit_=folding_exits, scalar=fold_payload_values)
def test_folding_exits_equal_the_fold_over_the_appended_output(context, records, step_list, exit_, scalar):
    """``fold_by_key`` == ``apply_combiner(("reduce", ⊕), keyed output)`` and
    ``fold`` == ``[Monoid.reduce(head output)]``: key order, value bits and
    types, errors, nothing raised for an empty partition -- and ``consumed``
    counts the records that reached the fold."""
    bindings = bindings_for(context, {"s": scalar}, {"base$1": 3})
    pair = ir.PTuple((ir.PVar("a"), ir.PVar("b")))
    segment = Segment(("bind", pair), tuple(step_list), exit_)
    expected = assert_same(segment, bindings, records)
    if expected[0] == "ok" and exit_[0] == "fold_by_key":
        keyed = reference(segment._replace(exit=("keyed", *exit_[1:3])), bindings, copy.deepcopy(records))
        folded = codegen.generate(segment, bindings, {})(copy.deepcopy(records))
        assert folded.consumed == len(keyed)


# ---------------------------------------------------------------------------
# Generators as nested loops: the expand step and the product entries
# ---------------------------------------------------------------------------

#: Nested, wildcard and rebinding (``a``) patterns.
expand_patterns = st.sampled_from(
    [ir.PVar("c")] * 3
    + [
        ir.PVar("a"),
        ir.PWildcard(),
        ir.PTuple((ir.PVar("c"), ir.PVar("d"))),
        ir.PTuple((ir.PTuple((ir.PVar("c"), ir.PWildcard())), ir.PVar("a"))),
    ]
)
#: Range bounds: small numbers, floats, a string, NaN / inf and ``a % 3``.
bounds = st.one_of(
    *[st.integers(-1, 3).map(ir.CConst)] * 3,
    st.sampled_from([1.5, -0.5, 2.5, True, "2", None, math.nan, math.inf]).map(ir.CConst),
    st.just(ir.CBinOp("%", ir.CVar("a"), ir.CConst(3))),
)
#: A bag in the first position of a pair: the environment's Dataset ``D``.
DATASET_DOMAIN = ir.CProject(ir.CTuple((ir.CVar("D"), ir.CVar("a"))), "_1")
sources = st.one_of(
    st.builds(ir.RangeTerm, bounds, bounds),
    st.sampled_from(
        [
            ir.CVar("b"),  # the row's own value: a tuple, a dict, a scalar...
            ir.CTuple((ir.CVar("a"), ir.CVar("b"))),
            ir.EmptyBag(),
            DATASET_DOMAIN,
            ir.Comprehension(  # through evaluate_local
                ir.CTuple((ir.CVar("x"), ir.CVar("a"))),
                (ir.Generator(ir.PVar("x"), ir.RangeTerm(ir.CConst(0), ir.CConst(1))),),
            ),
        ]
    ),
    st.just(ir.CVar("bag#0")),  # a driver bag
)
expand_steps = st.tuples(st.just("expand"), expand_patterns, sources)
#: Steps after a generator that keep most rows alive: a filter, a let of a
#: pair, a let that fails on non-numbers, a let that rebinds ``c``.
after_steps = st.sampled_from(
    [
        ("filter", ir.CBinOp("!=", ir.CVar("c"), ir.CConst(2))),
        ("let", ir.PVar("z"), ir.CTuple((ir.CVar("c"), ir.CVar("a")))),
        ("let", ir.PVar("z"), ir.CBinOp("+", ir.CVar("c"), ir.CConst(1))),
        ("let", ir.PVar("c"), ir.CBinOp("*", ir.CVar("a"), ir.CConst(2))),
    ]
)
small = st.one_of(st.integers(-3, 3), st.sampled_from([0.5, -0.0, math.nan, "x", None]))
#: Elements that mostly fit the tuple patterns (and sometimes do not).
element_values = st.one_of(
    *[st.tuples(small, small)] * 3, st.tuples(st.tuples(small, small), small), small, values
)
#: Slot rows of ``("a", "b")``.
rows_ab = st.tuples(
    st.one_of(small, small, values), st.one_of(st.lists(element_values, max_size=3).map(tuple), small, values)
)
#: Every way records enter a run with a generator in it.
expand_entries = st.one_of(
    entries,
    st.tuples(st.just(("slots", ("a", "b"))), st.lists(rows_ab, min_size=1, max_size=3)),
    st.tuples(
        st.builds(lambda pattern: ("product", ("a", "b"), pattern, None), expand_patterns),
        st.lists(st.tuples(rows_ab, element_values), min_size=1, max_size=3),
    ),
    st.tuples(
        st.builds(lambda pattern: ("product", ("a", "b"), pattern, "bag#rows"), expand_patterns),
        st.lists(element_values, min_size=1, max_size=3),
    ),
)


@settings(max_examples=400, deadline=None)
@example(  # a cartesian product's pair leaves as the flat tuple of its values
    entry=(("product", ("a", "b"), ir.PVar("c"), None), [((2, 0), 1)]),
    step_list=[("filter", ir.CBinOp("!=", ir.CVar("c"), ir.CConst(2)))],
    exit_=("keyed", ir.CVar("a"), ("values", ("c", "a"))),
    scalar=False,
    bag=[],
    lefts=[],
)
@example(  # a let inside the generated loop rebinds a variable from outside it
    entry=(ir.PTuple((ir.PVar("a"), ir.PVar("b"))), [(0, 0)]),
    step_list=[
        ("expand", ir.PVar("c"), ir.RangeTerm(ir.CBinOp("%", ir.CVar("a"), ir.CConst(3)), ir.CConst(1))),
        ("let", ir.PVar("a"), ir.CUnaryOp("!", ir.CVar("a"))),
    ],
    exit_=slots("a", "b", "c"),
    scalar=0,
    bag=[],
    lefts=[(0, ())],
)
@given(
    entry=expand_entries,
    step_list=st.lists(
        st.one_of(expand_steps, expand_steps, after_steps, after_steps, steps), min_size=1, max_size=4
    ),
    exit_=st.one_of(
        st.just(slots("a", "b", "c")), st.just(slots("c", "a")), exits, folding_exits
    ),
    scalar=values,
    bag=st.lists(element_values, max_size=3),
    lefts=st.one_of(*[st.lists(rows_ab, min_size=1, max_size=3)] * 4, st.just([])),
)
def test_generators_run_as_nested_loops_like_the_closures_they_replaced(
    context, entry, step_list, exit_, scalar, bag, lefts
):
    """Per-row domains (ranges with float and string bounds, a row value, a
    Dataset, a nested comprehension, empty bags), driver bags and the three
    product lowerings: same rows, key order, bits, types and record order as
    the closures, and the same first error -- also for elements that do not
    fit the pattern.  A driver bag is bound whole on the driver before any
    run (the evaluator and planner do that), so it is here too."""
    values_ = {"s": scalar, "D": context.parallelize([(1, 2), 3, (4, (5, 6))])}
    bindings = bindings_for(context, values_, {"base$1": 3, "bag#0": bag, "bag#rows": lefts})
    entry_spec, records = entry
    if isinstance(entry_spec, ir.Pattern):
        entry_spec = ("bind", entry_spec)
    segment = Segment(entry_spec, tuple(step_list), exit_)
    patterns = [step[1] for step in step_list if step[0] == "expand" and step[2] == ir.CVar("bag#0")]

    def on_the_driver(run):
        def bound_first(segment, bindings, records):
            for pattern in patterns:
                for element in bag:
                    _bind_pattern(pattern, element)
            return run(segment, bindings, records)

        return bound_first

    assert_same(segment, bindings, records, run=on_the_driver(generated), against=on_the_driver(reference))


# ---------------------------------------------------------------------------
# The join consumer: cogroup + nested loop == materialised pairs + flat loop
# ---------------------------------------------------------------------------

JOIN_NAMES = ("a", "b")
JOIN_PATTERN = ir.PTuple((ir.PVar("k"), ir.PVar("v")))


def _lookup(records):
    table = {}
    for key, value in records:
        table.setdefault(key, []).append(value)
    return table


def _tagged_bucket(left, right):
    tagged = [(0, record) for record in left] + [(1, record) for record in right]
    return [BucketPayload((), tuple(tagged))]


def _broadcast(side, probe, build, consumer):
    """A broadcast join's probe task, as the runtime builds it: the
    consumer's ``probe`` twin when there is a consumer."""
    if consumer is None:
        return stage.broadcast_join_partition(side, _lookup(build), probe)
    return consumer.probe(side)(probe, lookup=_lookup(build))


#: Every physical inner join as ``run(left, right, consumer)``; without a
#: consumer it returns the ``(key, (row, element))`` pairs it used to build.
PHYSICAL_JOINS = {
    "shuffle": lambda left, right, consumer: stage.join_bucket(_tagged_bucket(left, right), consumer=consumer),
    "zip": lambda left, right, consumer: stage.zip_join_partition([left, right], consumer=consumer),
    "broadcast-right": lambda left, right, consumer: _broadcast("right", left, right, consumer),
    "broadcast-left": lambda left, right, consumer: _broadcast("left", right, left, consumer),
}


def assert_consumer_same(segment: Segment, bindings, left, right, pushed=()):
    """In every physical join, the ``cogroup`` consumer of ``segment`` does
    what the flat loop did over the pairs that join used to materialise.

    ``left`` holds keyed slot rows of the entry's left names.
    ``segment``'s entry names the right side by its pattern, as a hash join
    node does, and is lowered as the planner lowers it: the right side's
    keying run binds each element once (a malformed one fails there, with
    the error the pair's bind raised), runs the ``pushed`` steps and emits
    the flat tuple of the pattern's and pushed lets' variables, which the
    consumer unpacks.  The flat loop runs the ``pushed`` steps first on
    every pair."""
    _, left_names, pattern = segment.entry
    lets = [step[1].name for step in pushed if step[0] == "let"]
    names = tuple(dict.fromkeys([*pattern.variables(), *lets]))
    keying = Segment(
        ("bind", ir.PTuple((ir.PVar("key#"), pattern))),
        tuple(pushed),
        ("keyed", ir.CVar("key#"), ("values", names)),
    )
    keyed = assert_same(keying, bindings, right)
    if keyed[0] == "error":
        return dict.fromkeys(PHYSICAL_JOINS, keyed)
    flat_right = codegen.generate(keying, bindings, {})(right)
    flat = segment._replace(entry=("join", left_names, pattern), steps=(*pushed, *segment.steps))
    consumer_segment = segment._replace(entry=("cogroup", left_names, names))
    outcomes = {}
    for name, join in PHYSICAL_JOINS.items():
        pairs = join(copy.deepcopy(left), copy.deepcopy(right), None)

        def fused(_segment, _bindings, _pairs, join=join):
            consumer = codegen.generate(consumer_segment, bindings, {})
            result = join(copy.deepcopy(left), copy.deepcopy(flat_right), consumer)
            return list(result) if segment.exit[0] == "fold_by_key" else result

        outcomes[name] = assert_same(flat, bindings, pairs, run=fused)
    return outcomes


#: Join keys that mostly match (and sometimes only by ``==``: ``1 == True``).
join_keys = st.sampled_from([1] * 6 + [2] * 3 + [True, 0.0, -0.0, math.nan, "x", (1, 2), INT64 - 1])
group_keys = st.sampled_from([1] * 4 + [2, True, 0.0, -0.0, math.nan, "x"])
join_rows = st.tuples(fold_payload_values, group_keys)  # slot rows of JOIN_NAMES
join_elements = st.one_of(*[st.tuples(group_keys, fold_numbers)] * 5, values)
join_sides = st.one_of(
    st.lists(st.tuples(join_keys, join_elements), min_size=1, max_size=6),
    st.lists(st.tuples(join_keys, st.tuples(group_keys, fold_numbers)), min_size=1, max_size=6),
)
#: Right-only steps in the fragment the planner pushes into the keying run;
#: over well-formed elements they never raise.
pushed_steps = st.lists(
    st.sampled_from(
        [
            ("filter", ir.CBinOp("!=", ir.CVar("k"), ir.CConst(2))),
            ("filter", ir.CBinOp("<=", ir.CVar("v"), ir.CVar("s"))),
            ("let", ir.PVar("w"), ir.CBinOp("-", ir.CVar("v"), ir.CConst(1))),
        ]
    ),
    max_size=2,
)
join_steps = st.one_of(
    st.just([]),
    st.lists(
        st.sampled_from(
            [
                ("filter", ir.CBinOp("!=", ir.CVar("k"), ir.CConst(2))),
                ("let", ir.PVar("c"), ir.CBinOp("*", ir.CVar("v"), ir.CConst(2))),
                ("let", ir.PVar("c"), ir.CTuple((ir.CVar("a"), ir.CVar("v")))),
            ]
            * 3
        )
        | steps,
        max_size=2,
    ),
)
join_exits = st.one_of(
    exits,
    st.tuples(st.just("keyed"), terms(), st.just(("values", ("v", "a", "k")))),
    st.sampled_from(FOLD_OPS).flatmap(
        lambda op: st.tuples(
            st.just("fold_by_key"),
            st.sampled_from(
                [ir.CTuple((ir.CVar("b"), ir.CVar("k"))), ir.CVar("k"), ir.CVar("b"), ir.CVar("ghost")]
            ),
            st.sampled_from([("value", "v")] * 3 + [("value", "c"), ("value", "a")]),
            *map(st.just, codegen.fold_operator(op, MONOIDS)),
        )
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    left=st.lists(st.tuples(join_keys, join_rows), min_size=1, max_size=6),
    right=join_sides,
    pushed=pushed_steps,
    step_list=join_steps,
    exit_=join_exits,
    scalar=fold_numbers,
)
def test_cogroup_consumer_equals_the_join_it_replaces(context, left, right, pushed, step_list, exit_, scalar):
    """Shuffle bucket, co-partitioned zip and broadcast (either side): the
    consumer fused into the join task, over the flat right tuples the keying
    run emits after its pushed steps, == ``_join_sides(...)``'s
    pairs through the flat ``("join", ...)`` loop that runs those steps per
    pair -- same pair order, so the same rows, keys, left folds and first
    error."""
    bindings = bindings_for(context, {"s": scalar}, {"base$1": 3})
    segment = Segment(("cogroup", JOIN_NAMES, JOIN_PATTERN), tuple(step_list), exit_)
    assert_consumer_same(segment, bindings, left, right, pushed)


# ---------------------------------------------------------------------------
# Nested comprehensions: generated helpers == _local_comprehension
# ---------------------------------------------------------------------------

#: A nested comprehension reads the entry's ``a``/``b``, the scalars and its
#: own ``x``/``y``; ``a`` may be rebound inside it.
NESTED_NAMES = ["a", "b", "s", "base$1", "x", "y"] * 2 + ["ghost"]
nested_patterns = st.sampled_from(
    [ir.PVar("x")] * 3
    + [ir.PVar("y"), ir.PVar("a"), ir.PWildcard(), ir.PTuple((ir.PVar("x"), ir.PVar("y")))]
)
#: Mostly terms that evaluate (so rows survive to the head and conditions
#: really filter), some adversarial ones.
nested_terms = st.one_of(
    *[
        st.sampled_from(
            [
                ir.CVar("x"),
                ir.CVar("a"),
                ir.CTuple((ir.CVar("x"), ir.CVar("a"))),
                ir.CBinOp("+", ir.CVar("x"), ir.CConst(1)),
                ir.CBinOp("!=", ir.CVar("x"), ir.CConst(2)),
                ir.CBinOp("<", ir.CVar("x"), ir.CVar("y")),
                ir.CBinOp("==", ir.CBinOp("%", ir.CVar("x"), ir.CConst(2)), ir.CConst(0)),
            ]
        )
    ]
    * 3,
    terms(NESTED_NAMES),
)


def comprehensions(domains):
    qualifiers = st.one_of(
        st.builds(ir.Generator, nested_patterns, domains),
        st.builds(ir.LetBinding, nested_patterns, nested_terms),
        st.builds(ir.Condition, nested_terms),
    )
    return st.builds(ir.Comprehension, nested_terms, st.lists(qualifiers, max_size=3).map(tuple))


nested_domains = st.one_of(
    st.builds(ir.RangeTerm, bounds, bounds),
    st.sampled_from([ir.CVar("b"), ir.CTuple((ir.CVar("a"), ir.CVar("s"))), ir.EmptyBag(), ir.CVar("ghost")]),
)
#: Two levels: a generator of the outer comprehension may range over another.
nested = comprehensions(st.one_of(nested_domains, comprehensions(nested_domains)))
nested_uses = st.one_of(
    nested,
    st.builds(ir.Aggregate, st.sampled_from(["+", "min", "++"]), nested),
    # Lazy on the right of && / ||: a falsy (truthy) ``a`` never runs it.
    st.builds(ir.CBinOp, st.sampled_from(["&&", "||"]), st.just(ir.CVar("a")), nested),
    st.builds(lambda comprehension: ir.CTuple((comprehension, ir.CVar("a"))), nested),
)


@settings(max_examples=300, deadline=None)
@given(
    records=st.lists(st.tuples(small, values), min_size=1, max_size=3),
    step_list=st.lists(
        st.one_of(
            st.tuples(st.just("let"), patterns, nested_uses),
            st.tuples(st.just("filter"), nested_uses),
        ),
        max_size=1,
    ),
    term=nested_uses,
    scalar=values,
)
def test_nested_comprehensions_equal_the_local_comprehension(context, records, step_list, term, scalar):
    """Qualifier by qualifier over all rows, as ``_local_comprehension``
    runs them: same rows in the same order, and the same first error."""
    bindings = bindings_for(context, {"s": scalar}, {"base$1": 3})
    segment = Segment(("bind", ir.PTuple((ir.PVar("a"), ir.PVar("b")))), tuple(step_list), ("head", term))
    assert_same(segment, bindings, records)


class TestNestedComprehensions:
    def test_a_group_by_is_rejected_on_the_driver_and_the_generated_path(self, context):
        nested = ir.Comprehension(
            ir.CVar("k"),
            (
                ir.Generator(ir.PVar("x"), ir.RangeTerm(ir.CConst(1), ir.CVar("v$1"))),
                ir.GroupBy(ir.PVar("k"), ir.CBinOp("%", ir.CVar("x"), ir.CConst(2))),
            ),
        )
        term = ir.Aggregate("+", nested)
        bindings = bindings_for(context)
        message = f"group-by inside a locally evaluated comprehension: {nested}"
        with pytest.raises(CompilationError) as generated_error:
            codegen.generate(head(term), bindings, {})
        with pytest.raises(CompilationError) as driver_error:
            oracle(bindings).evaluate_local(term, {"i": 0, "v$1": 4})
        assert str(generated_error.value) == str(driver_error.value) == message

    def test_breadth_first_the_first_error_is_the_condition_s(self, context):
        """``{ x.f | x <- range(1, 2), 10 / (2 - x) > 0 }``: the condition
        runs over both rows (and fails on the second) before the head runs
        over any (and would fail on the first)."""
        ten_over = ir.CBinOp("/", ir.CConst(10), ir.CBinOp("-", ir.CConst(2), ir.CVar("x")))
        nested = ir.Comprehension(
            ir.CProject(ir.CVar("x"), "f"),
            (
                ir.Generator(ir.PVar("x"), ir.RangeTerm(ir.CConst(1), ir.CConst(2))),
                ir.Condition(ir.CBinOp(">", ten_over, ir.CConst(0))),
            ),
        )
        result = assert_same(head(nested), bindings_for(context), [(0, 0)])
        assert result[0] == "error" and "zero" in result[2]

    def test_an_unresolved_scalar_inside_fails_lazily_after_shipping(self, context):
        nested = ir.Comprehension(
            ir.CVar("ghost"), (ir.Generator(ir.PVar("x"), ir.RangeTerm(ir.CConst(1), ir.CVar("v$1"))),)
        )
        function = codegen.generate(head(nested), bindings_for(context), {})
        assert "def n" in function.source
        shipped = wire.cluster_loads(wire.cluster_dumps(function))
        assert shipped([(1, 0)]) == [[]]
        with pytest.raises(ExecutionError, match="undefined variable 'ghost'"):
            shipped([(1, 1)])


# ---------------------------------------------------------------------------
# Error and edge parity, pinned
# ---------------------------------------------------------------------------

PAIR = ir.PTuple((ir.PVar("i"), ir.PVar("v$1")))


def head(term: ir.Term, *step_list) -> Segment:
    return Segment(("bind", PAIR), tuple(step_list), ("head", term))


class TestErrorParity:
    @pytest.mark.parametrize("record", [(1, 2, 3), (1,), 5, "ab", {"i": 1, "v$1": 2}, None])
    def test_pattern_mismatch_is_the_bind_error(self, context, record):
        result = assert_same(head(ir.CVar("i")), bindings_for(context), [record])
        assert result[1] == "ExecutionError" and result[2].startswith("cannot bind pattern (i, v$1)")

    def test_lists_and_tuple_subclasses_bind_like_tuples(self, context):
        result = assert_same(head(ir.CVar("v$1")), bindings_for(context), [[1, 2], stage.SaltedKey(3, 4)])
        assert result == ("ok", canonical([2, 4]))

    def test_nested_mismatch_names_the_inner_pattern(self, context):
        nested = ir.PTuple((ir.PTuple((ir.PVar("i"), ir.PVar("j"))), ir.PVar("v")))
        segment = Segment(("bind", nested), (), ("head", ir.CVar("v")))
        result = assert_same(segment, bindings_for(context), [((1, 2, 3), 4)])
        assert result[2] == "cannot bind pattern (i, j) to value (1, 2, 3)"

    def test_undefined_variable(self, context):
        result = assert_same(head(ir.CVar("ghost")), bindings_for(context), [(1, 2)])
        assert result == ("error", "ExecutionError", "undefined variable 'ghost'")

    def test_unknown_function_raises_before_its_arguments(self, context):
        call = ir.CCall("nope", (ir.CBinOp("/", ir.CConst(1), ir.CConst(0)),))
        result = assert_same(head(call), bindings_for(context), [(1, 2)])
        assert result == ("error", "ExecutionError", "unknown function 'nope'")

    def test_zero_division_is_unchanged(self, context):
        for op in ("/", "%"):
            term = ir.CBinOp(op, ir.CVar("i"), ir.CConst(0))
            result = assert_same(head(term), bindings_for(context), [(1, 2)])
            assert result[1] == "ZeroDivisionError"

    def test_empty_partition_raises_nothing(self, context):
        term = ir.CCall("nope", (ir.CVar("ghost"),))
        assert generated(head(term), bindings_for(context), []) == []

    def test_unreached_undefined_names_raise_nothing(self, context):
        """Resolution is as lazy as a per-record lookup: a filter or a
        short-circuit in front of the use keeps the error away."""
        guard = ("filter", ir.CBinOp(">", ir.CVar("i"), ir.CConst(10)))
        short = ir.CBinOp("&&", ir.CConst(False), ir.CVar("ghost"))
        bindings = bindings_for(context)
        assert assert_same(head(ir.CVar("ghost"), guard), bindings, [(1, 2)]) == ("ok", canonical([]))
        assert assert_same(head(short), bindings, [(1, 2)]) == ("ok", canonical([False]))

    def test_dollar_names_shadowing_and_wildcards(self, context):
        steps_ = (
            ("let", ir.PVar("v$1"), ir.CBinOp("+", ir.CVar("v$1"), ir.CConst(1))),
            ("let", ir.PTuple((ir.PWildcard(), ir.PVar("i"))), ir.CTuple((ir.CVar("i"), ir.CVar("v$1")))),
        )
        segment = Segment(("bind", PAIR), steps_, slots("i", "v$1"))
        result = assert_same(segment, bindings_for(context), [(1, 2)])
        assert result == ("ok", canonical([(3, 3)]))

    def test_row_variables_win_over_base_and_base_over_environment(self, context):
        bindings = bindings_for(context, {"i": "env", "x": "env", "y": "env"}, {"i": "base", "x": "base"})
        term = ir.CTuple((ir.CVar("i"), ir.CVar("x"), ir.CVar("y")))
        assert assert_same(head(term), bindings, [(1, 2)]) == ("ok", canonical([(1, "base", "env")]))

    def test_scalars_resolve_once_per_partition_and_late(self, context):
        """A cached function sees the environment of the run, not of its build."""
        live = {"s": 1}
        function = codegen.generate(head(ir.CVar("s")), bindings_for(context, live), {})
        assert function([(1, 2)]) == [1]
        live["s"] = 2
        assert function([(1, 2), (3, 4)]) == [2, 2]


class TestWideEntries:
    def test_cogroup_reduced_and_grouped_entries(self, context):
        bindings = bindings_for(context, {"s": 10})
        total = ir.CBinOp("+", ir.CVar("a"), ir.CVar("v"))
        pattern = ir.PTuple((ir.PVar("k"), ir.PVar("v")))
        cogroup = Segment(("cogroup", ("a", "b"), pattern), (), slots("a", "b", "k", "v"))
        left = [(7, (1, 2)), (7, (5, 6)), (8, (0, 0))]
        right = [(7, (7, 3)), (9, (9, 9)), (7, (7, 4))]
        rows = assert_consumer_same(cogroup, bindings, left, right)
        assert rows["shuffle"] == ("ok", canonical([(1, 2, 7, 3), (1, 2, 7, 4), (5, 6, 7, 3), (5, 6, 7, 4)]))
        assert rows["broadcast-left"] != rows["shuffle"], "each join keeps its own pair order"
        assert_consumer_same(cogroup._replace(exit=("keyed", total, ("value", "v"))), bindings, left, right)
        reduced = Segment(
            ("reduced", ir.PVar("k"), "v"),
            (),
            ("head", ir.CTuple((ir.CVar("k"), ir.Aggregate("+", ir.CVar("v"))))),
        )
        assert assert_same(reduced, bindings, [(1, 2.5)]) == ("ok", canonical([(1, 2.5)]))
        assert_same(reduced._replace(exit=slots("k", "v")), bindings, [(1, 2.5)])
        grouped = Segment(
            ("grouped", ir.PVar("k"), ("a", "b")),
            (),
            ("head", ir.CTuple((ir.CVar("k"), ir.Aggregate("+", ir.CVar("a"))))),
        )
        members = [(1, 2), (3, None)]  # slot rows of ("a", "b")
        assert assert_same(grouped, bindings, [(1, members)]) == ("ok", canonical([(1, 4)]))
        result = assert_same(grouped._replace(exit=slots("k", "a", "b")), bindings, [(1, members)])
        assert result == ("ok", canonical([(1, [1, 3], [2, None])]))

    def test_terms_outside_the_inlined_fragment_are_generated(self, context):
        """An aggregation over a nested comprehension, a singleton bag and a
        range are generated code that closes over no evaluator."""
        nested = ir.Comprehension(
            ir.CBinOp("*", ir.CVar("x"), ir.CVar("i")),
            (ir.Generator(ir.PVar("x"), ir.RangeTerm(ir.CConst(1), ir.CVar("v$1"))),),
        )
        term = ir.CTuple(
            (
                ir.Aggregate("+", nested),
                ir.Comprehension(ir.CVar("i")),
                ir.RangeTerm(ir.CVar("i"), ir.CConst(3)),
            )
        )
        bindings = bindings_for(context)
        function = codegen.generate(head(term), bindings, {})
        assert "evaluate_local" not in function.source and "TermEvaluator" not in function.source
        assert "aggregate('+', " in function.source and "[r1_i]" in function.source
        assert b"TermEvaluator" not in wire.cluster_dumps(function)
        result = assert_same(head(term), bindings, [(2, 3)])
        assert result == ("ok", canonical([(12, [2], [2, 3])]))


class TestGenerators:
    ROWS = ("a", "b")

    def test_a_per_row_bag_is_bound_whole_before_its_first_element_goes_on(self, context):
        """``(c, d) <- b`` over ``((1, "x"), 5)``: the closure raised the bind
        error for ``5`` before ``"x" + 1`` was ever evaluated."""
        expand = ("expand", ir.PTuple((ir.PVar("c"), ir.PVar("d"))), ir.CVar("b"))
        let = ("let", ir.PVar("z"), ir.CBinOp("+", ir.CVar("d"), ir.CConst(1)))
        segment = Segment(("slots", self.ROWS), (expand, let), slots("a", "b", "c", "d", "z"))
        result = assert_same(segment, bindings_for(context), [(0, ((1, "x"), 5))])
        assert result == ("error", "ExecutionError", "cannot bind pattern (c, d) to value 5")

    def test_ranges_and_local_bags_per_row(self, context):
        bindings = bindings_for(context)
        upper = ir.CBinOp("+", ir.CVar("a"), ir.CConst(0.5))
        step = ("expand", ir.PVar("j"), ir.RangeTerm(ir.CConst(1), upper))
        span = Segment(("slots", self.ROWS), (step,), slots("a", "b", "j"))
        function = codegen.generate(span, bindings, {})
        assert "range(int(" in function.source and "local_bag(" not in function.source
        result = assert_same(span, bindings, [(2, 0), (0, 0)])
        assert result == ("ok", canonical([(2, 0, 1), (2, 0, 2)]))
        items = Segment(("slots", self.ROWS), (("expand", ir.PVar("b"), ir.CVar("b")),), slots("a", "b"))
        result = assert_same(items, bindings, [(1, {"k": 7}), (2, 3.5)])
        assert result == ("ok", canonical([(1, ("k", 7)), (2, 3.5)])), "rebound in place"

    def test_a_driver_bag_is_read_once_per_partition_and_iterated_as_it_is(self, context):
        bindings = bindings_for(context, base={"bag#0": [(1, 2), (3, 4)]})
        step = ("expand", ir.PTuple((ir.PVar("c"), ir.PWildcard())), ir.CVar("bag#0"))
        segment = Segment(("slots", self.ROWS), (step,), slots("a", "c"))
        function = codegen.generate(segment, bindings, {})
        assert function.source.count("scope.resolve('bag#0')") == 1 and "local_bag(" not in function.source
        assert assert_same(segment, bindings, [(0, 0), (9, 0)]) == ("ok", canonical([
            (0, 1), (0, 3), (9, 1), (9, 3),
        ]))  # fmt: skip

    def test_product_entries_keep_the_order_of_the_lowering_they_replace(self, context):
        """Broadcast rows: element-major; cartesian: one pair per record.  A
        rebound left name (``a``) keeps its key position and takes the
        element's value."""
        lefts = [(1, "L1"), (2, "L2")]
        bindings = bindings_for(context, base={"bag#0": lefts})
        broadcast = Segment(("product", self.ROWS, ir.PVar("a"), "bag#0"), (), slots("a", "b"))
        assert assert_same(broadcast, bindings, ["x", "y"]) == ("ok", canonical([
            ("x", "L1"), ("x", "L2"), ("y", "L1"), ("y", "L2"),
        ]))  # fmt: skip
        cartesian = Segment(("product", self.ROWS, ir.PVar("c"), None), (), slots("a", "b", "c"))
        pairs = [(lefts[0], "x"), (lefts[1], "x")]
        assert assert_same(cartesian, bindings, pairs) == ("ok", canonical([(1, "L1", "x"), (2, "L2", "x")]))


def fold_by_key(op: str, *step_list, key=None, registry=MONOIDS) -> Segment:
    exit_ = ("fold_by_key", key or ir.CVar("i"), ("value", "v$1"), *codegen.fold_operator(op, registry))
    return Segment(("bind", PAIR), tuple(step_list), exit_)


class TestFoldingExits:
    def test_left_fold_order_per_key_and_first_occurrence_key_order(self, context):
        records = [(2, "a"), (1, "b"), (2, "c"), (1, "d"), (2, "e")]
        result = assert_same(fold_by_key("++"), bindings_for(context), records)
        assert result == ("ok", canonical([(2, "a|c|e"), (1, "b|d")]))
        unkeyed = Segment(("bind", PAIR), (), ("fold", ir.CVar("v$1"), *codegen.fold_operator("++", MONOIDS)))
        assert assert_same(unkeyed, bindings_for(context), records) == ("ok", canonical(["|a|b|c|d|e"]))

    def test_keys_python_conflates_keep_the_first_key_object(self, context):
        records = [(0.0, 1), (-0.0, 2), (True, 3), (1, 4), (math.nan, 5), (math.nan, 6), (float("nan"), 7)]
        result = assert_same(fold_by_key("+"), bindings_for(context), records)
        assert result == ("ok", canonical([(0.0, 3), (True, 7), (math.nan, 11), (math.nan, 7)]))
        bools = assert_same(fold_by_key("+"), bindings_for(context), [(1, True), (1, True), (2, False)])
        assert bools == ("ok", canonical([(1, 2), (2, False)])), "a lone value is not combined with anything"

    def test_a_mutating_combine_gets_its_own_accumulator_everywhere(self, context):
        keyed = fold_by_key("append")
        records = [(1, [10]), (2, [20]), (1, 11), (2, 21)]
        result = assert_same(keyed, bindings_for(context), records)
        assert result == ("ok", canonical([(1, [10, 11]), (2, [20, 21])]))
        exit_ = ("fold", ir.CVar("v$1"), *codegen.fold_operator("append", MONOIDS))
        unkeyed = Segment(("bind", PAIR), (), exit_)
        function = codegen.generate(unkeyed, bindings_for(context), {})
        assert function([(1, "a"), (2, "b")]) == [["a", "b"]]
        assert function([(3, "c")]) == [["c"]], "identity() is taken afresh for every partition"
        assert function([]) == [[]] and function([])[0] is not function([])[0]

    def test_empty_and_unreached_raise_nothing(self, context):
        ghost = ("let", ir.PVar("g"), ir.CCall("nope", (ir.CVar("ghost"),)))
        bindings = bindings_for(context)
        empty = codegen.generate(fold_by_key("+", ghost), bindings, {})([])
        assert (list(empty), empty.consumed) == ([], 0)
        guard = ("filter", ir.CBinOp(">", ir.CVar("i"), ir.CConst(10)))
        assert assert_same(fold_by_key("+", guard, ghost), bindings, [(1, 2)]) == ("ok", canonical([]))
        result = assert_same(fold_by_key("+", ghost), bindings, [(1, 2)])
        assert result == ("error", "ExecutionError", "unknown function 'nope'")
        late = assert_same(fold_by_key("+", key=ir.CVar("ghost")), bindings, [(1, 2)])
        assert late == ("error", "ExecutionError", "undefined variable 'ghost'")

    def test_consumed_counts_what_reached_the_fold(self, context):
        guard = ("filter", ir.CBinOp("!=", ir.CVar("v$1"), ir.CConst(0)))
        function = codegen.generate(fold_by_key("+", guard), bindings_for(context), {})
        folded = function([(1, 5), (1, 0), (2, 7), (1, 1)])
        assert (list(folded), folded.consumed) == ([(1, 6), (2, 7)], 3)

    def test_the_operator_is_inlined_only_when_the_registry_entry_is_the_builtin(self, context):
        assert "(held + " in codegen.generate(fold_by_key("+"), bindings_for(context), {}).source
        assert "combine(held, " in codegen.generate(fold_by_key("min"), bindings_for(context), {}).source
        registry = MonoidRegistry()
        registry.register(Monoid("+", 0, lambda a, b: a + b + 100), verify=False)
        bindings = bindings_for(context, monoids=registry)
        function = codegen.generate(fold_by_key("+", registry=registry), bindings, {})
        assert "combine(held, " in function.source
        assert list(function([(1, 1), (1, 2)])) == [(1, 103)]

    def test_logical_folds_are_inlined_and_still_evaluate_their_term(self, context):
        """``&&`` / ``||`` spell the registry's ``_logical_and`` / ``_logical_or``
        inline; the term is evaluated before the short-circuit, as the
        combine's argument was, so its error still surfaces."""
        for op in ("&&", "||"):
            exit_ = ("fold", ir.CProject(ir.CVar("v$1"), "_1"), *codegen.fold_operator(op, MONOIDS))
            segment = Segment(("bind", PAIR), (), exit_)
            function = codegen.generate(segment, bindings_for(context), {})
            assert "combine(" not in function.source and "bool(acc)" in function.source
            for records in ([(1, (0,)), (2, (5,))], [(1, (5,)), (2, (0,))], [(1, (1,)), (2, 7)]):
                assert_same(segment, bindings_for(context), records)

    @pytest.mark.parametrize("name", ["string_match", "equal"])
    def test_logical_programs_fold_without_calling_combine(self, name):
        """string_match's ``||/`` and equal's ``&&/``: no ``combine(`` per
        record, and the outputs of the registry's own combine."""
        spec = get_program(name)
        inputs = workload_for_program(name, 60)
        op = "||" if name == "string_match" else "&&"
        outputs = []
        for logical in (None, Monoid(op, op == "&&", lambda a, b: MONOIDS.get(op).combine(a, b))):
            with DistributedContext(num_partitions=3) as ctx:
                diablo = diablo_for(spec, ctx)
                if logical is not None:
                    diablo.monoids.register(logical, verify=False)
                program = diablo.compile(spec.source)
                outputs.append(translated_outputs(name, program.run(**inputs)))
                sources = [compiled[1] for compiled in program.target.segments.values()]
                assert any(f"monoids.get({op!r}).identity()" in source for source in sources)
                assert any("combine(" in source for source in sources) == (logical is not None)
        assert outputs[0] == outputs[1]
        assert outputs[0] == {key: diablo.interpret(spec.source, dict(inputs))[key] for key in outputs[0]}

    def test_a_product_fold_keeps_one_accumulator_per_component(self, context):
        ops = ("+", "min", "++")
        term = ir.CTuple((ir.CVar("v$1"), ir.CVar("i"), ir.CConst("x")))
        segment = Segment(("bind", PAIR), (), ("fold", term, *codegen.fold_operator(ops, MONOIDS)))
        function = codegen.generate(segment, bindings_for(context), {})
        assert "acc0 = (acc0 + " in function.source and "acc1 = combine1(acc1, " in function.source
        assert "combine2 = monoids.get('++').combine" in function.source
        assert function.source.count("return [(acc0, acc1, acc2, )]") == 2
        result = assert_same(segment, bindings_for(context), [(3, 1.5), (1, 2.5)])
        assert result == ("ok", canonical([(4.0, 1, "|x|x")]))
        assert function([]) == [(0, float("inf"), "")]

    def test_the_unfolded_twin_is_the_keyed_segment_from_the_same_memo(self, context):
        memo: dict = {}
        segment = fold_by_key("+")
        function = codegen.generate(segment, bindings_for(context), memo)
        records = [(1, 2), (1, 3), (2, 4)]
        assert list(function(records)) == [(1, 5), (2, 4)]
        assert len(memo) == 1, "the twin is generated only when the sampler asks"
        assert function.unfolded()(records) == records
        keyed = segment._replace(exit=("keyed", ir.CVar("i"), ("value", "v$1")))
        assert set(memo) == {segment, keyed}
        assert function.retarget(keyed.exit)(records) == records and len(memo) == 2


def _count_calls(counter):
    def tick(value):
        counter.append(value)
        return value * 2

    return tick


class TestLetReuse:
    X_BAR = ir.CVar("x_bar")

    def test_the_centred_product_projects_once(self, context):
        """linear_regression's ``(p._1 - x_bar) * (p._1 - x_bar)``, as Figure 2
        spells it: two projections, two differences, one product."""
        p = ir.CVar("v$1")
        steps = (
            ("let", ir.PVar("a"), ir.CProject(p, "_1")),
            ("let", ir.PVar("b"), ir.CBinOp("-", ir.CVar("a"), self.X_BAR)),
            ("let", ir.PVar("c"), ir.CProject(p, "_1")),
            ("let", ir.PVar("d"), ir.CBinOp("-", ir.CVar("c"), self.X_BAR)),
            ("let", ir.PVar("e"), ir.CBinOp("*", ir.CVar("b"), ir.CVar("d"))),
        )
        segment = head(ir.CVar("e"), *steps)
        bindings = bindings_for(context, {"x_bar": 1.5})
        source = codegen.generate(segment, bindings, {}).source
        assert source.count("project_value(") == 1 and source.count(" - ") == 1
        result = assert_same(segment, bindings, [(0, (3.5, 0)), (1, (1.0, 0))])
        assert result == ("ok", canonical([4.0, 0.25]))
        row = segment._replace(exit=slots("i", "v$1", "a", "b", "c", "d", "e"))
        assert_same(row, bindings, [(0, (3.5, 0)), (1, {"_1": 2.0})])

    def test_a_function_called_twice_is_called_twice(self, context):
        calls: list = []
        functions = FunctionRegistry()
        functions.register("tick", _count_calls(calls))
        bindings = codegen.Bindings({}, {}, functions, MONOIDS)
        call = ir.CCall("tick", (ir.CVar("v$1"),))
        pair = ir.CTuple((ir.CVar("a"), ir.CVar("b")))
        segment = head(pair, ("let", ir.PVar("a"), call), ("let", ir.PVar("b"), call))
        function = codegen.generate(segment, bindings, {})
        assert function([(0, 1), (1, 2)]) == [(2, 2), (4, 4)]
        assert calls == [1, 1, 2, 2]

    def test_a_let_inside_an_expand_loop_reads_its_own_depth(self, context):
        """``a + 1`` before and after ``a`` is rebound by a generator: the
        inner let computes from the inner ``a``.  After a generator that
        leaves ``a`` alone the outer value is still the one to reuse."""
        plus = ir.CBinOp("+", ir.CVar("a"), ir.CConst(1))
        outer = ("let", ir.PVar("c"), plus)
        inner = ("let", ir.PVar("d"), plus)
        pair = ir.CTuple((ir.CVar("c"), ir.CVar("d")))
        bindings = bindings_for(context)
        records = [(1, (10, 20)), (2, (30,))]
        rows = ("slots", ("a", "b"))
        rebound = Segment(rows, (outer, ("expand", ir.PVar("a"), ir.CVar("b")), inner), ("head", pair))
        assert assert_same(rebound, bindings, records) == ("ok", canonical([(2, 11), (2, 21), (3, 31)]))
        kept = Segment(rows, (outer, ("expand", ir.PVar("e"), ir.CVar("b")), inner), ("head", pair))
        assert codegen.generate(kept, bindings, {}).source.count(" + (1)") == 1
        assert assert_same(kept, bindings, records) == ("ok", canonical([(2, 2), (2, 2), (3, 3)]))
        let_rebound = Segment(
            rows,
            (outer, ("expand", ir.PVar("e"), ir.CVar("b")), ("let", ir.PVar("a"), ir.CVar("e")), inner),
            ("head", pair),
        )
        assert assert_same(let_rebound, bindings, records) == ("ok", canonical([(2, 11), (2, 21), (3, 31)]))

    def test_a_text_is_not_reused_once_a_local_it_reads_is_rebound(self, context):
        """``i + 1`` before and after ``i`` is rebound in place."""
        plus = ir.CBinOp("+", ir.CVar("i"), ir.CConst(1))
        steps = (
            ("let", ir.PVar("c"), plus),
            ("let", ir.PVar("i"), ir.CBinOp("*", ir.CVar("i"), ir.CConst(10))),
            ("let", ir.PVar("d"), plus),
        )
        segment = head(ir.CTuple((ir.CVar("c"), ir.CVar("d"))), *steps)
        assert assert_same(segment, bindings_for(context), [(2, 0)]) == ("ok", canonical([(3, 21)]))

    def test_a_shared_local_is_not_overwritten_by_a_rebinding(self, context):
        """``b`` aliases ``a``'s local; rebinding ``a`` must leave ``b`` alone."""
        project = ir.CProject(ir.CVar("v$1"), "_1")
        steps = (
            ("let", ir.PVar("a"), project),
            ("let", ir.PVar("b"), project),
            ("let", ir.PVar("a"), ir.CBinOp("*", ir.CVar("a"), ir.CConst(10))),
            ("let", ir.PVar("c"), project),
        )
        segment = head(ir.CTuple((ir.CVar("a"), ir.CVar("b"), ir.CVar("c"))), *steps)
        assert assert_same(segment, bindings_for(context), [(0, (2,))]) == ("ok", canonical([(20, 2, 2)]))

    def test_a_tuple_let_over_a_held_tuple_aliases_and_its_filters_run_once(self, context):
        """PageRank's E keying run: ``k = (i, v$1)``, range checks, ``(p, q)
        = k`` and the same checks on p and q: no shape check for k, and each
        range check is emitted once."""
        names = ("i", "v$1", "q", "p")
        in_range = [("filter", ir.InRange(ir.CVar(name), ir.CConst(0), ir.CVar("s"))) for name in names]
        steps = (
            ("let", ir.PVar("k"), ir.CTuple((ir.CVar("i"), ir.CVar("v$1")))),
            *in_range[:2],
            ("let", ir.PTuple((ir.PVar("p"), ir.PVar("q"))), ir.CVar("k")),
            *in_range[2:],
        )
        segment = head(ir.CTuple((ir.CVar("p"), ir.CVar("q"))), *steps)
        bindings = bindings_for(context, {"s": 3})
        source = codegen.generate(segment, bindings, {}).source
        assert source.count("check_bind(") == 1 and source.count(" <= ") == 2 * 2
        result = assert_same(segment, bindings, [(0, 3), (1, 4), (-1, 2), (2, 2)])
        assert result == ("ok", canonical([(0, 3), (2, 2)]))

    def test_the_dead_tuple_let_is_dropped_and_the_scalar_read_first_once(self, context):
        """The same run builds no tuple for ``k`` (nothing reads it once p
        and q alias its parts), and only its first range check reads ``s``
        first; an unassigned ``s`` still fails at the first record."""
        in_range = [("filter", ir.InRange(ir.CVar(name), ir.CConst(0), ir.CVar("s"))) for name in "iv"]
        steps = (
            ("let", ir.PVar("k"), ir.CTuple((ir.CVar("i"), ir.CVar("v")))),
            *in_range,
            ("let", ir.PTuple((ir.PVar("p"), ir.PVar("q"))), ir.CVar("k")),
        )
        segment = Segment(("bind", ir.PTuple((ir.PVar("i"), ir.PVar("v")))), steps, slots("q", "p"))
        records = [(3, 0), (0, 2), (5, 1)]
        source = codegen.generate(segment, bindings_for(context, {"s": 2}), {}).source
        assert not re.search(r"\br\d+_k = ", source)
        assert len(re.findall(r"\b(\w+) is \1 and ", source)) == 1
        assert assert_same(segment, bindings_for(context, {"s": 2}), records) == ("ok", canonical([(2, 0)]))
        missing = assert_same(segment, bindings_for(context), records)
        assert missing == ("error", "ExecutionError", "undefined variable 's'")


#: Steps that build a tuple of row variables (``k``), alias its parts, test
#: them, and rebind a part in place or inside a generated loop in between.
ALIAS_STEPS = [
    ("let", ir.PVar("k"), ir.CTuple((ir.CVar("a"), ir.CVar("b")))),
    ("let", ir.PVar("k"), ir.CTuple((ir.CVar("c"), ir.CVar("a")))),
    ("let", ir.PTuple((ir.PVar("c"), ir.PVar("d"))), ir.CVar("k")),
    ("let", ir.PTuple((ir.PVar("c"), ir.PWildcard())), ir.CVar("k")),
    ("let", ir.PTuple((ir.PVar("a"), ir.PVar("c"))), ir.CVar("k")),
    ("let", ir.PTuple((ir.PVar("c"), ir.PVar("d"), ir.PVar("e"))), ir.CVar("k")),
    ("let", ir.PVar("a"), ir.CBinOp("+", ir.CVar("a"), ir.CConst(1))),
    ("let", ir.PVar("b"), ir.CVar("c")),
    ("filter", ir.InRange(ir.CVar("c"), ir.CConst(0), ir.CVar("s"))),
    ("filter", ir.InRange(ir.CVar("a"), ir.CConst(0), ir.CVar("s"))),
    ("filter", ir.CBinOp("<", ir.CVar("c"), ir.CVar("d"))),
    ("expand", ir.PVar("e"), ir.RangeTerm(ir.CConst(0), ir.CBinOp("%", ir.CVar("a"), ir.CConst(3)))),
    ("expand", ir.PVar("a"), ir.CVar("bag#0")),
]


@settings(max_examples=300, deadline=None)
@given(
    step_list=st.lists(st.sampled_from(ALIAS_STEPS), max_size=6),
    exit_=st.sampled_from([slots("a", "b", "c", "d", "k"), slots("c", "d", "e"), slots("k", "a")]),
    records=st.lists(st.tuples(small, small), min_size=1, max_size=4),
    scalar=st.one_of(st.none(), st.integers(-1, 4)),
    bag=st.lists(st.integers(-1, 3), max_size=3),
)
def test_tuple_aliases_and_repeated_filters_equal_evaluate_local(
    context, step_list, exit_, records, scalar, bag
):
    """A tuple let's alias, a dropped dead let and a filter not tested (or a
    scalar not read) again stay exact across rebindings of the parts, in
    place and inside a generated loop; ``None`` leaves ``s`` unassigned."""
    segment = Segment(("bind", ir.PTuple((ir.PVar("a"), ir.PVar("b")))), tuple(step_list), exit_)
    scalars = {} if scalar is None else {"s": scalar}
    assert_same(segment, bindings_for(context, scalars, {"bag#0": bag}), records)


# ---------------------------------------------------------------------------
# Shipping and memoisation
# ---------------------------------------------------------------------------


class TestShipping:
    def test_round_trips_by_value_with_a_snapshot_of_the_scalars_it_reads(self, context):
        live = {"s": 5, "unread": list(range(10_000))}
        term = ir.CBinOp("+", ir.CBinOp("*", ir.CVar("v$1"), ir.CVar("s")), ir.CVar("base$1"))
        function = codegen.generate(head(term), bindings_for(context, live, {"base$1": 1}), {})
        data = wire.cluster_dumps(function)
        assert b"TermEvaluator" not in data and len(data) < 4_000, "captured more than it reads"
        live["s"] = 6  # the shipped copy keeps the value at dispatch time
        shipped = wire.cluster_loads(data)
        assert shipped([(1, 2)]) == [11]
        assert function([(1, 2)]) == [13]

    def test_an_unresolved_scalar_still_fails_lazily_after_shipping(self, context):
        function = codegen.generate(head(ir.CVar("ghost")), bindings_for(context), {})
        shipped = wire.cluster_loads(wire.cluster_dumps(function))
        assert shipped([]) == []
        with pytest.raises(ExecutionError, match="undefined variable 'ghost'"):
            shipped([(1, 2)])

    def test_a_join_stage_ships_with_its_consumer(self, context):
        """What the cluster executor sends for a shuffle join's reduce side:
        the stage chain whose ``join_bucket`` carries the generated consumer."""
        shifted = ir.CBinOp("+", ir.CVar("v"), ir.CVar("s"))
        product = ("let", ir.PVar("p"), ir.CBinOp("*", ir.CVar("a"), shifted))
        exit_ = ("fold_by_key", ir.CVar("b"), ("value", "p"), *codegen.fold_operator("+", MONOIDS))
        segment = Segment(("cogroup", JOIN_NAMES, JOIN_PATTERN.variables()), (product,), exit_)
        live = {"s": 1, "unread": list(range(10_000))}
        consumer = codegen.generate(segment, bindings_for(context, live), {})
        join = functools.partial(stage.join_bucket, consumer=consumer)
        chain = (stage.NarrowStage(stage.PARTITIONS, join),)
        data = wire.cluster_dumps(chain)
        assert b"TermEvaluator" not in data and b"MonoidRegistry" not in data and len(data) < 4_000
        left = [(7, (2, "x")), (7, (3, "y"))]
        right = [(7, (7, 10)), (7, (7, 20))]
        live["s"] = 5  # the shipped copy keeps the value at dispatch time
        shipped = stage.compose(wire.cluster_loads(data))(_tagged_bucket(left, right), 0)
        assert (list(shipped), shipped.consumed) == ([("x", 2 * 11 + 2 * 21), ("y", 3 * 11 + 3 * 21)], 4)
        assert type(wire.cluster_loads(wire.cluster_dumps(shipped))) is stage.FoldedRecords
        assert wire.cluster_loads(wire.cluster_dumps(shipped)).consumed == 4


class TestMemo:
    def test_pagerank_compiles_each_distinct_segment_once(self, monkeypatch):
        compiled = []

        def counting_compile(source, *args, **kwargs):
            compiled.append(source)
            return compile(source, *args, **kwargs)

        monkeypatch.setattr(codegen, "compile", counting_compile, raising=False)
        spec = get_program("pagerank")
        inputs = workload_for_program("pagerank", 30)
        inputs["num_steps"] = 10
        with DistributedContext(num_partitions=4) as ctx:
            program = diablo_for(spec, ctx).compile(spec.source)
            first = translated_outputs("pagerank", program.run(**inputs))
            segments = program.translation.target.segments
            assert ctx.metrics.generated_segments > len(segments) > 0
            assert len(compiled) == len(segments), "one compile() per distinct segment"
            again = translated_outputs("pagerank", program.run(**inputs))
            assert len(compiled) == len(segments), "a second run compiles nothing"
            assert again == first


class TestObservability:
    def test_explain_names_the_operators_and_can_print_the_source(self):
        from repro.algebra.explain import explain_dataset, explain_metrics, explain_plan

        with DistributedContext(num_partitions=2) as ctx:
            values = {"P": ctx.indexed([(1.0, 2.0), (3.0, 4.0)]), "m": 2.0}
            evaluator = TermEvaluator(EvaluationEnvironment(ctx, values))
            distance = ir.CBinOp("-", ir.CProject(ir.CVar("p"), "_1"), ir.CVar("m"))
            comp = ir.Comprehension(
                ir.CVar("d"),
                (
                    ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("p"))), ir.CVar("P")),
                    ir.LetBinding(ir.PVar("d"), distance),
                    ir.Condition(ir.CBinOp(">", ir.CVar("d"), ir.CConst(0.0))),
                ),
            )
            dataset = evaluator.evaluate(comp)
            pending = explain_dataset(dataset)
            assert "NarrowChain(partitions)" in pending
            assert "generated: bind→let→filter→head" in pending
            assert "for rec in records:" in explain_dataset(dataset, sources=True)
            assert "* generated: bind→let→filter→head" in explain_plan(evaluator.last_plan)
            assert "for rec in records:" in explain_plan(evaluator.last_plan, sources=True)
            assert dataset.collect() == [1.0]
            assert "generated: bind→let→filter→head" in dataset.explain(), "kept once materialized"
            snapshot = ctx.metrics.snapshot()
            assert snapshot["generated_segments"] == 1
            assert (snapshot["fused_stages"], snapshot["fused_operators"]) == (1, 4)
            assert any("generated row segments: 1" in line for line in explain_metrics(ctx.metrics))

    def test_explain_shows_the_fused_join_consumer_and_the_folds(self):
        from repro.algebra.explain import explain_dataset, explain_plan

        spec = get_program("matrix_multiplication")
        label = "cogroup→let×2→fold_by_key(+)"
        with DistributedContext(num_partitions=2, broadcast_join_threshold=0) as ctx:
            values = {
                # Join keys 0 and 2 meet in one of the two join buckets.
                "M": ctx.parallelize_pairs({(0, 0): 1.0, (0, 2): 2.0}),
                "N": ctx.parallelize_pairs({(0, 0): 3.0, (2, 0): 4.0}),
                "n": 1,
                "mm": 3,
            }
            evaluator = TermEvaluator(EvaluationEnvironment(ctx, values))
            program = diablo_for(spec, ctx).compile(spec.source).translation.target
            product = program.statements[-1].term.right  # R <|+ { ... group by ... }
            dataset = evaluator.evaluate(product)
            plan = explain_plan(evaluator.last_plan)
            assert f"* consumer fused into the join task: {label}" in plan
            assert f"* generated: {label}" in plan
            # N's bounds check moved into N's keying run, before the join.
            assert "* generated: filter→key" in plan
            assert "* pushed below the join: inRange(i$48, 0, hi$10) → right side" in plan
            nested = explain_plan(evaluator.last_plan, sources=True)
            # Both sides arrive as slot rows, unpacked in the pair loops' headers.
            assert "for (r1_i_44, r2_v_46,) in lefts:" in nested
            assert "for (r3_i_48, r4_v_49,) in rights:" in nested
            loop = nested.split(" in lefts:")[1].split("return")[0]
            # The fold is factorised: i's row is fetched once per left row,
            # and the (i, j) key is built only when the row first sees j.
            reset, rights = loop.split(" in rights:")
            assert "row = None" in reset and "row = rows_get(r1_i_44)" in rights
            first_sight, combined = rights.split("if held is MISSING:")[1].split("else:")
            assert "push(((r1_i_44, r3_i_48, ), row, r3_i_48))" in first_sight
            assert "(r1_i_44, r3_i_48, )" not in reset + combined + rights.split("if held is MISSING:")[0]
            assert "append(" not in loop
            pending = explain_dataset(dataset)
            assert "ShuffleStage(reduceByKey" in pending and "combiner=yes" in pending
            assert "ShuffleStage(join" in pending and f"generated: {label}" in pending
            assert "for (r1_i_44, r2_v_46,) in lefts:" in explain_dataset(dataset, sources=True)
            assert dataset.collect() == [((0, 0), 11.0)]
            snapshot = ctx.metrics.snapshot()
            assert (snapshot["combiner_input_records"], snapshot["combiner_output_records"]) == (2, 1)
            assert snapshot["shuffle_joins"] == 1
            assert f"HashJoin[N on (i$47)]: consumer fused into the join task: {label}" in evaluator.trace

    def test_a_scalar_aggregate_folds_inside_the_generated_loop(self):
        with DistributedContext(num_partitions=4) as ctx:
            diablo = Diablo(ctx)
            result = diablo.compile("var s: double = 0.0; for v in V do if (v < 3.0) s += v * 2.0;").run(
                V=[1.0, 2.0, 5.0, 0.5]
            )
            assert result["s"] == 7.0
            assert "+/ folded inside the generated loop: bind→let→filter→let→fold(+)" in result.trace

    def test_a_chain_runs_as_a_generated_stage(self):
        source = "var s: double = 0.0; for v in V do if (v < 3.0) s += v * 2.0;"
        with DistributedContext(num_partitions=2) as ctx:
            result = Diablo(ctx).run(source, V=[1.0, 2.0, 5.0])
            assert result["s"] == 6.0
            assert ctx.metrics.generated_segments > 0

    def test_a_run_with_a_builtin_call_is_one_generated_stage(self):
        source = "var s: double = 0.0; for v in V do if (v < 4.5) s += sqrt(v);"
        with DistributedContext(num_partitions=2) as ctx:
            result = Diablo(ctx).run(source, V=[1.0, 4.0, 5.0])
            assert result["s"] == 3.0
            assert ctx.metrics.generated_segments == 1
