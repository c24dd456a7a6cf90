"""Shared scans: consecutive scalar folds over one source run as one pass.

``translator.share_scans`` rewrites a run of independent scalar folds
``x1 ⊕1= h1; …; xn ⊕n= hn`` over one source into one scan folding the
tuple ``(h1, …, hn)`` with the product monoid ``(⊕1, …, ⊕n)``, which each
statement then reads its component of.  Each component is the same left
fold over the same records in the same order, so the outputs must be
bit-identical to the unshared program's on every executor, with spill
forced or not and adaptive execution on or off -- and equal to the
interpreter's.  The shapes the pass must leave alone are pinned by their
target text.
"""

from __future__ import annotations

import functools
from unittest import mock

import pytest

from repro import Diablo
from repro.comprehension.monoids import Monoid, MonoidRegistry
from repro.evaluation.harness import diablo_for
from repro.programs import PROGRAMS
from repro.runtime.cluster import ClusterContext
from repro.runtime.context import DistributedContext
from repro.runtime.dataset import Dataset
from repro.translate import translator
from repro.workloads import workload_for_program
from test_soundness_programs import values_match


def add_pairs(a, b):
    return (a[0] + b[0], a[1] + b[1])


#: ``max`` spelled ``^`` (the loop language's syntax for a registered
#: operator) and a custom (sum, count) monoid spelled ``^^``.
MAX = Monoid("^", float("-inf"), max, samples=(1.0, -2.0, 3.5))
PAIR = Monoid("^^", (0.0, 0), add_pairs, samples=((1.0, 1), (2.5, 2), (-0.5, 1)))

V = [0.5 + (k % 7) * 0.25 for k in range(60)]
P = [(0.25 * (k % 9), 1.0 - 0.125 * (k % 5)) for k in range(60)]

#: Hand-written groups: (source, inputs, the trace lines of the shared scans).
GROUPS = {
    "two": (
        """
var s: double = 0.0;
var m: double = 0.0;
for v in V do { s += v; m ^= v; };
""",
        {"V": V},
        ["shared scan of V: s, m (+,^)"],
    ),
    "three": (
        """
var p: double = 1.0;
var m: double = 0.0;
var a: (double, int) = (0.0, 0);
for v in V do { p *= v; m ^= v * v; a ^^= (v, 1); };
""",
        {"V": V},
        ["shared scan of V: p, m, a (*,^,^^)"],
    ),
    "four": (
        """
var sx: double = 0.0;
var q: double = 1.0;
var m: double = 0.0;
var a: (double, int) = (0.0, 0);
for p in P do { sx += p._1; q *= p._1 - p._2 + 1.0; m ^= p._2; a ^^= (p._1 * p._2, 1); };
""",
        {"P": P},
        ["shared scan of P: sx, q, m, a (+,*,^,^^)"],
    ),
    "in_a_loop": (
        """
var k: int = 0;
var s: double = 0.0;
var m: double = 0.0;
while (k < 3) {
  k += 1;
  for v in V do { s += v * k; m ^= v - k; };
};
""",
        {"V": V},
        ["shared scan of V: s, m (+,^)"] * 3,
    ),
}

#: Every program the pass rewrites, with its shared scans.
FIRES = {
    "linear_regression": [
        "shared scan of P: sum_x, sum_y (+,+)",
        "shared scan of P: xx_bar, yy_bar, xy_bar (+,+,+)",
    ],
    "average": ["shared scan of V: s, cnt (+,+)"],
    "equal_frequency": ["shared scan of C: total, distinctWords (+,+)"],
}

CASES = sorted(FIRES) + sorted(GROUPS)


def _case(name):
    """``(diablo factory, source, inputs, expected trace lines)``."""
    if name in GROUPS:
        source, inputs, rules = GROUPS[name]

        def make(context):
            diablo = Diablo(context)
            diablo.register_monoid(MAX)
            diablo.register_monoid(PAIR)
            return diablo

        return make, source, inputs, rules
    spec = PROGRAMS[name]
    return functools.partial(diablo_for, spec), spec.source, workload_for_program(name, 150), FIRES[name]


def _unshared(statements, optimizer, fresh):
    return statements


def _outputs(result, inputs):
    """Every output by repr (bit-exact: -0.0, NaN), arrays as sorted items."""
    return {
        name: repr(sorted(value.collect_as_map().items()) if isinstance(value, Dataset) else value)
        for name, value in result.values.items()
        if name not in inputs
    }


@functools.lru_cache(maxsize=None)
def reference(name):
    """The outputs of the program compiled without the pass, on the
    sequential executor, and the interpreter's."""
    make, source, inputs, _ = _case(name)
    with DistributedContext(num_partitions=4) as context:
        diablo = make(context)
        with mock.patch.object(translator, "share_scans", _unshared):
            compiled = diablo.compile(source)
        assert compiled.translation.optimizer_stats.shared_scans == 0
        result = compiled.run(**inputs)
        interpreted = diablo.interpret(source, dict(inputs))
        scalars = {n: v for n, v in result.values.items() if n not in inputs and not isinstance(v, Dataset)}
        return _outputs(result, inputs), scalars, interpreted


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
def test_shared_outputs_are_bit_identical_to_the_unshared_and_match_the_interpreter(ctx, name):
    make, source, inputs, rules = _case(name)
    compiled = make(ctx).compile(source)
    assert compiled.translation.optimizer_stats.shared_scans == len(set(rules))
    result = compiled.run(**inputs)
    assert [line.split(": ", 1)[1] for line in result.trace if "shared scan" in line] == rules
    expected, scalars, interpreted = reference(name)
    assert _outputs(result, inputs) == expected
    for output, value in scalars.items():
        assert values_match(value, interpreted[output]), output


def test_a_tuple_of_symbols_is_the_product_monoid_and_registers_nothing():
    registry = MonoidRegistry()
    registry.register(PAIR)
    before = (registry.fingerprint(), registry.symbols())
    product = registry.get(("+", "max", "^^"))
    assert product.symbol == "(+,max,^^)" and product.commutative
    assert product.identity() == (0, float("-inf"), (0.0, 0))
    assert product.combine((1, 2.0, (1.0, 1)), (2, 0.5, (2.0, 3))) == (3, 2.0, (3.0, 4))
    assert ("+", "^^") in registry and ("+", "nope") not in registry
    assert (registry.fingerprint(), registry.symbols()) == before


def _compile(name, **options):
    spec = PROGRAMS[name]
    monoids = MonoidRegistry()
    for monoid in spec.monoids:
        monoids.register(monoid)
    return translator.DiabloCompiler(monoids=monoids, **options).compile(spec.source)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_the_pass_fires_exactly_where_pinned(name):
    translation = _compile(name)
    rules = [
        statement.rule
        for statement in translation.target.assignments()
        if statement.rule and statement.rule.startswith("shared scan")
    ]
    assert rules == FIRES.get(name, [])
    assert translation.optimizer_stats.shared_scans == len(rules)


def test_members_read_their_component_and_temporaries_are_no_output():
    spec = PROGRAMS["average"]
    with DistributedContext(num_partitions=4) as context:
        compiled = diablo_for(spec, context).compile(spec.source)
        text = str(compiled.target)
        assert "let z$56 = (+,+)/w$55" in text
        assert "let z$43 = scan$54._1" in text
        assert "let z$52 = scan$54._2" in text
        result = compiled.run(V=[1.0, 2.0, 4.5])
    assert result["avg"] == 2.5
    assert not any("$" in name for name in result.values)


#: Shapes the pass must leave alone: (source, inputs).
NOT_SHARED = {
    # The second fold reads the first one's result.
    "reads_a_member": (
        "var x: double = 0.0;\nvar y: double = 0.0;\nfor v in V do x += v;\nfor w in V do y += w * x;",
        {"V": V},
    ),
    "different_sources": (
        "var s: double = 0.0;\nvar t: double = 0.0;\nfor v in V do s += v;\nfor w in W do t += w;",
        {"V": V, "W": V[:10]},
    ),
    # conditional_sum's filtered fold next to a plain sum.
    "a_filter_in_one_body": (
        "var s: double = 0.0;\nvar c: double = 0.0;\n"
        "for v in V do { s += v; if (v < 1.0) c += v; };",
        {"V": V},
    ),
    "not_consecutive": (
        "var s: double = 0.0;\nvar t: double = 0.0;\nvar z: double = 0.0;\n"
        "for v in V do s += v;\nz := 1.5;\nfor v in V do t += v * z;",
        {"V": V},
    ),
}


@pytest.mark.parametrize("case", sorted(NOT_SHARED))
def test_the_pass_does_not_fire(case):
    source, inputs = NOT_SHARED[case]
    with DistributedContext(num_partitions=4) as context:
        diablo = Diablo(context)
        compiled = diablo.compile(source)
        assert compiled.translation.optimizer_stats.shared_scans == 0
        assert "scan$" not in str(compiled.target)
        result = compiled.run(**inputs)
        interpreted = diablo.interpret(source, dict(inputs))
    for name, value in result.values.items():
        if name not in inputs:
            assert values_match(value, interpreted[name]), name


def test_the_pass_runs_under_the_optimize_option_only():
    translation = _compile("linear_regression", optimize=False)
    assert translation.optimizer_stats.shared_scans == 0
    assert "scan$" not in str(translation.target)
