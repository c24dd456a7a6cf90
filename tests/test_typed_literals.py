"""Generated comparisons on CPython's float fast path.

Two code-generation rules (see :class:`repro.algebra.codegen.Segment`):

* a ``let`` that only the ``filter`` right after it reads is that filter's
  own test, ``if not (rec < k0): continue``, with no local stored;
* an int literal ``c``, |c| < 2**53, compared with a variable the ``bind`` /
  ``positional`` entry binds from the record is a local set once per call,
  ``float(c)`` when that variable is a float in ``records[0]``, else ``c``.

Python compares ints, floats, Decimals and Fractions exactly and
``float(c) == c`` below 2**53, so every record keeps the bool plain Python's
``x OP c`` gives it, whatever the first record guessed.  At 2**53 a NumPy
int64 rounds when compared with a float, so that literal stays an int.
"""

from __future__ import annotations

import math
import operator
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_codegen import canonical

from repro.algebra import codegen
from repro.algebra.codegen import Segment
from repro.comprehension import ir
from repro.comprehension.monoids import MonoidRegistry
from repro.errors import ExecutionError
from repro.evaluation.harness import diablo_for, translated_outputs
from repro.programs import get_program
from repro.runtime.cluster import ClusterContext, wire
from repro.runtime.context import DistributedContext
from repro.workloads import workload_for_program

MONOIDS = MonoidRegistry()
BINDINGS = codegen.Bindings({}, {}, {}, MONOIDS)
V, P = ir.CVar("v"), ir.CVar("p")
PAIR = ir.PTuple((ir.PVar("i"), ir.PVar("v")))
OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}
SUM = ("fold", V, *codegen.fold_operator("+", MONOIDS))
EDGE = 2**53
LITERALS = [0, 1, -1, 100, EDGE - 1, -(EDGE - 1), EDGE, -EDGE]
#: How a record enters: whole, as a pair's component, a positional element.
ENTRIES = ("bind", "pair", "positional")


def comparison(op: str, literal: int, flipped: bool) -> ir.CBinOp:
    const = ir.CConst(literal)
    return ir.CBinOp(op, const, V) if flipped else ir.CBinOp(op, V, const)


def predicate(op: str, literal: int, flipped: bool = False, exit_=("head", V)) -> tuple:
    """The steps and exit of ``if (v OP c)`` then ``exit_``."""
    return (("let", ir.PVar("p"), comparison(op, literal, flipped)), ("filter", P)), exit_


def run(entry: str, steps: tuple, exit_: tuple, values: list):
    """The generated segment over ``values`` as ``entry`` brings them in."""
    if entry == "bind":
        function = codegen.generate(Segment(("bind", ir.PVar("v")), steps, exit_), BINDINGS, {})
        return function, function(values)
    if entry == "pair":
        function = codegen.generate(Segment(("bind", PAIR), steps, exit_), BINDINGS, {})
        return function, function(list(enumerate(values)))
    function = codegen.generate(Segment(("positional", PAIR), steps, exit_), BINDINGS, {})
    return function, function(values)


def hoisted(source: str) -> list[str]:
    return re.findall(r"^ *k\d+ = .*$", source, re.M)


#: Values a later record may hold: ints about ±2**53, signed zeros, NaN, the
#: infinities, bools, and exact non-float numbers.
later = st.one_of(
    st.sampled_from(
        [
            EDGE - 1,
            EDGE,
            EDGE + 1,
            -(EDGE - 1),
            -EDGE,
            -(EDGE + 1),
            2**64,
            -(10**30),
            0,
            1,
            -1,
            99,
            100,
            101,
            0.0,
            -0.0,
            math.nan,
            math.inf,
            -math.inf,
            99.5,
            100.0,
            float(EDGE),
            True,
            False,
            Decimal("100"),
            Fraction(201, 2),
        ]
    ),
    st.integers(),
    st.floats(),
)


@settings(max_examples=400, deadline=None)
@given(
    entry=st.sampled_from(ENTRIES),
    op=st.sampled_from(sorted(OPS)),
    literal=st.sampled_from(LITERALS),
    flipped=st.booleans(),
    first=st.floats(),
    rest=st.lists(later, max_size=8),
)
@example(entry="bind", op=">", literal=EDGE - 1, flipped=False, first=0.5, rest=[EDGE, EDGE + 1])
def test_the_kept_records_are_plain_python_s(entry, op, literal, flipped, first, rest):
    values = [first, *rest]
    function, kept = run(entry, *predicate(op, literal, flipped), values)
    test = OPS[op]
    expected = [value for value in values if (test(literal, value) if flipped else test(value, literal))]
    assert canonical(kept) == canonical(expected)
    # A float first record reads the literal as a float, unless it is too large.
    lines = hoisted(function.source)
    assert len(lines) == (abs(literal) < EDGE)
    if lines:
        assert lines[0].strip().startswith(f"k0 = {float(literal)!r} if ")


class TestTheSource:
    def test_a_let_only_its_filter_reads_is_the_filter_s_test(self):
        source = codegen.generate(Segment(("bind", ir.PVar("v")), *predicate("<", 100)), BINDINGS, {}).source
        assert "k0 = 100.0 if type(records[0]) is float else 100" in source
        assert "if not (r1_v < k0):" in source
        assert not re.search(r"r\d+_p", source)

    def test_a_predicate_read_again_is_stored(self):
        """The exit reads ``p``, or a later filter does: the let stays."""
        steps, _ = predicate("<", 100)
        for steps, exit_ in (
            (steps, ("head", ir.CTuple((V, P)))),
            ((*steps, ("filter", ir.CBinOp("==", P, ir.CConst(True)))), ("head", V)),
            ((steps[0], ("filter", ir.CConst(True)), steps[1]), ("head", V)),
        ):
            source = codegen.generate(Segment(("bind", ir.PVar("v")), steps, exit_), BINDINGS, {}).source
            assert re.search(r"r\d+_p = \(r1_v < k0\)", source)

    def test_a_predicate_rebound_before_it_is_read_again_is_fused(self):
        steps, exit_ = predicate("<", 100)
        rebound = (*steps, ("let", ir.PVar("p"), ir.CConst(7)))
        source = codegen.generate(Segment(("bind", ir.PVar("v")), rebound, ("head", P)), BINDINGS, {}).source
        assert "if not (r1_v < k0):" in source

    def test_each_component_is_sniffed_behind_the_entry_s_shape_tests(self):
        pattern = ir.PTuple((ir.PTuple((ir.PVar("a"), ir.PWildcard())), ir.PVar("v")))
        steps = (
            ("filter", ir.CBinOp(">=", ir.CVar("a"), ir.CConst(3))),
            ("filter", ir.CBinOp("<", V, ir.CConst(3))),
        )
        source = codegen.generate(Segment(("bind", pattern), steps, ("head", V)), BINDINGS, {}).source
        outer = "type(records[0]) is tuple and len(records[0]) == 2"
        inner = "type(records[0][0]) is tuple and len(records[0][0]) == 2"
        assert f"k0 = 3.0 if {outer} and {inner} and type(records[0][0][0]) is float else 3" in source
        assert f"k1 = 3.0 if {outer} and type(records[0][1]) is float else 3" in source
        # The sniff never raises: a record of the wrong shape meets the entry's check.
        function = codegen.generate(Segment(("bind", pattern), steps, ("head", V)), BINDINGS, {})
        for first in ([], 5, "ab", (1,), ((1.0,), 2.0)):
            with pytest.raises(ExecutionError, match="cannot bind pattern"):
                function([first, ((4.0, 0), 2.5)])
        assert function([[(1.0, 2), 0.5], ((4.0, 0), 2.5), ((2, 0), 1)]) == [2.5]

    @pytest.mark.parametrize(
        "term",
        [
            ir.CBinOp("<", ir.CVar("w"), ir.CConst(100)),  # a let, not the record
            ir.CBinOp("<", ir.CVar("s"), ir.CConst(100)),  # a driver scalar
            ir.CBinOp("<", V, ir.CConst(100.0)),  # already a float
            ir.CBinOp("<", V, ir.CConst(True)),  # a bool
            ir.CBinOp("<", ir.CProject(V, "_1"), ir.CConst(1)),  # a projection
            ir.CBinOp("<", ir.CBinOp("+", V, ir.CConst(1)), ir.CConst(100)),  # arithmetic
            ir.CBinOp("<", V, ir.CConst(EDGE)),  # too large
        ],
    )
    def test_other_comparisons_keep_their_literal(self, term):
        steps = (("let", ir.PVar("w"), ir.CBinOp("*", V, ir.CConst(2))), ("filter", term))
        source = codegen.generate(Segment(("bind", ir.PVar("v")), steps, ("head", V)), BINDINGS, {}).source
        assert not hoisted(source)

    def test_a_rebound_entry_variable_keeps_its_literal(self):
        steps = (
            ("let", ir.PVar("v"), ir.CBinOp("+", V, ir.CConst(1))),
            ("filter", ir.CBinOp("<", V, ir.CConst(3))),
        )
        source = codegen.generate(Segment(("bind", ir.PVar("v")), steps, ("head", V)), BINDINGS, {}).source
        assert not hoisted(source) and "< (3))" in source

    def test_one_literal_compared_twice_is_one_local(self):
        steps = (
            ("filter", ir.CBinOp("<", V, ir.CConst(3))),
            ("filter", ir.CBinOp("!=", ir.CConst(3), V)),
            ("filter", ir.CBinOp(">", V, ir.CConst(-3))),
        )
        source = codegen.generate(Segment(("bind", ir.PVar("v")), steps, ("head", V)), BINDINGS, {}).source
        assert len(hoisted(source)) == 2 and "(k0 != r1_v)" in source and "(r1_v > k1)" in source


class TestErrors:
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_a_string_still_raises_type_error_naming_the_literal_s_type(self, entry):
        steps, exit_ = predicate("<", 100)
        with pytest.raises(TypeError, match="'<' not supported between instances of 'str' and 'float'"):
            run(entry, steps, exit_, [1.5, "a"])
        with pytest.raises(TypeError, match="'<' not supported between instances of 'str' and 'int'"):
            run(entry, steps, exit_, [1, "a"])

    def test_an_empty_partition_sniffs_nothing(self):
        assert run("bind", *predicate("<", 100), [])[1] == []
        assert run("positional", *predicate("<", 100, exit_=SUM), [])[1] == [0]


def test_numpy_int64_past_2_53_is_compared_exactly():
    """``np.int64(2**53 + 1)`` rounds to ``2**53`` against a float: below
    2**53 that cannot change a comparison, at 2**53 it would."""
    numpy = pytest.importorskip("numpy")
    big = [numpy.int64(EDGE + 1), numpy.int64(EDGE), numpy.int64(-(EDGE + 1)), numpy.int64(EDGE - 1)]
    for entry in ENTRIES:
        for literal in LITERALS:
            for op, test in OPS.items():
                for flipped in (False, True):
                    values = [0.5, *big]
                    kept = run(entry, *predicate(op, literal, flipped), values)[1]
                    expected = [v for v in values if (test(literal, v) if flipped else test(v, literal))]
                    assert list(map(repr, kept)) == list(map(repr, expected)), (op, literal)


# ---------------------------------------------------------------------------
# The programs
# ---------------------------------------------------------------------------

CONDITIONAL = ("conditional_sum", "conditional_count")


@pytest.mark.parametrize("name", CONDITIONAL)
def test_the_conditional_programs_test_their_predicate_in_line(name):
    spec = get_program(name)
    with DistributedContext(num_partitions=3) as ctx:
        program = diablo_for(spec, ctx).compile(spec.source)
        result = program.run(**workload_for_program(name, 40, seed=5))
        oracle = diablo_for(spec, ctx).interpret(spec.source, workload_for_program(name, 40, seed=5))
    sources = [entry[1] for entry in program.translation.target.segments.values()]
    assert sources
    for source in sources:
        assert re.search(r"if not \(rec < k\d+\):", source)
        assert "k0 = 100.0 if type(records[0]) is float else 100" in source
        assert not re.search(r"r\d+_p\w* = ", source)
    assert repr(translated_outputs(name, result)) == repr({key: oracle[key] for key in spec.scalar_outputs})


@pytest.mark.parametrize("name", CONDITIONAL)
@pytest.mark.parametrize("data", ["floats", "ints", "mixed"])
def test_the_cluster_equals_the_sequential_executor(name, data):
    spec = get_program(name)
    values = workload_for_program(name, 60, seed=11)["V"]
    if data == "ints":
        values = [int(value) for value in values]
    elif data == "mixed":
        values = [int(value) if position % 3 else value for position, value in enumerate(values)]
    outputs = []
    for cluster in (False, True):
        options = {"num_partitions": 4}
        context = ClusterContext(cluster_workers=2, **options) if cluster else DistributedContext(**options)
        with context:
            result = diablo_for(spec, context).compile(spec.source).run(V=list(values))
            outputs.append(repr(translated_outputs(name, result)))
            if cluster:
                assert context.metrics.cluster_fallbacks == 0
    assert outputs[0] == outputs[1]


def test_a_fused_segment_ships_by_value():
    function = codegen.generate(Segment(("positional", PAIR), *predicate("<", 100, exit_=SUM)), BINDINGS, {})
    shipped = wire.cluster_loads(wire.cluster_dumps(function))
    for records in ([150.0, 2.5, 99.0, 100.0], [3, 100, 250, 99]):
        assert shipped(records) == function(records) == [sum(value for value in records if value < 100)]
