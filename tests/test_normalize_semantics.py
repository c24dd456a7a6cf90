"""Normalization preserves meaning and is idempotent (hypothesis).

Terms are drawn over two literal bags held in the environment -- ``W``, a bag
of ints, and ``V``, a bag of ``(key, value)`` pairs -- and cover nested
comprehensions, singleton generators, tuple / alias / constant lets,
``&&`` / ``true`` / ``false`` / ``x == x`` conditions, group-bys with and
without a key, and binders that shadow outer ones.  For every term:

* the raw term and its normal form evaluate to the same bag, and
* normalizing the normal form again gives it back unchanged without
  drawing a single fresh name.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.evaluator import EvaluationEnvironment, TermEvaluator
from repro.comprehension import ir
from repro.comprehension.normalize import normalize
from repro.runtime.context import DistributedContext

BAGS = {"W": [1, 2, 2], "V": [(1, 10), (2, 20), (2, 30)]}
#: A small pool, so binders often shadow one another.
NAMES = ("a", "b", "c", "d")
SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck))


class CountingNames(ir.NameGenerator):
    def __init__(self) -> None:
        super().__init__()
        self.drawn = 0

    def fresh(self, hint: str = "") -> str:
        self.drawn += 1
        return super().fresh(hint)


@st.composite
def scalars(draw, scope: tuple[str, ...], bags: tuple[str, ...], depth: int) -> ir.Term:
    """An int-valued term over the int variables ``scope``; ``bags`` are
    lifted (bag-valued) variables, read through ``+/``.  ``depth`` bounds
    the nesting of operators and comprehensions."""
    options = ["const"]
    if scope:
        options += ["var", "var"]
    if bags:
        options.append("lifted")
    if depth > 0:
        options += ["plus", "nested"]
    kind = draw(st.sampled_from(options))
    if kind == "const":
        return ir.CConst(draw(st.integers(0, 3)))
    if kind == "var":
        return ir.CVar(draw(st.sampled_from(scope)))
    if kind == "lifted":
        return ir.Aggregate("+", ir.CVar(draw(st.sampled_from(bags))))
    if kind == "plus":
        return ir.CBinOp("+", draw(scalars(scope, bags, depth - 1)), draw(scalars(scope, bags, depth - 1)))
    return ir.Aggregate("+", draw(comprehensions(scope, depth - 1, group_by=False)))


@st.composite
def conditions(draw, scope: tuple[str, ...], depth: int) -> ir.Term:
    options = ["true", "false", "compare", "compare"]
    if scope:
        options.append("reflexive")
    if depth > 0:
        options += ["and", "and"]
    kind = draw(st.sampled_from(options))
    if kind in ("true", "false"):
        return ir.CConst(kind == "true")
    if kind == "reflexive":
        return ir.CBinOp("==", ir.CVar(draw(st.sampled_from(scope))), ir.CVar(draw(st.sampled_from(scope))))
    if kind == "compare":
        op = draw(st.sampled_from(["==", "<=", "!="]))
        return ir.CBinOp(op, draw(scalars(scope, (), depth - 1)), draw(scalars(scope, (), depth - 1)))
    return ir.CBinOp("&&", draw(conditions(scope, depth - 1)), draw(conditions(scope, depth - 1)))


@st.composite
def comprehensions(
    draw, scope: tuple[str, ...] = (), depth: int = 2, group_by: bool = True
) -> ir.Comprehension:
    """``{ head | qualifiers }`` producing ints: at most one group-by and at
    most two generators over a bag, so evaluation stays small."""
    qualifiers: list[ir.Qualifier] = []
    names = list(scope)
    before: list[str] = []  # bound since the start (the candidates for lifting)
    lifted: tuple[str, ...] = ()
    scans = 0
    for _ in range(draw(st.integers(0, 5))):
        choices = ["singleton", "alias", "const", "tuple", "let", "condition"]
        if scans < 2:
            choices += ["bag", "pairs"] + (["nested"] if depth > 0 else [])
        if group_by and not lifted and before:
            choices.append("group")
        kind = draw(st.sampled_from(choices))
        current = tuple(dict.fromkeys(names))
        binder = draw(st.sampled_from(NAMES))
        scans += kind in ("bag", "pairs", "nested")
        if kind == "bag":
            qualifiers.append(ir.Generator(ir.PVar(binder), ir.CVar("W")))
            bound = [binder]
        elif kind == "pairs":
            other = draw(st.sampled_from(NAMES))
            # (k, k) is not a pattern: then the value goes unbound.
            value = ir.PVar(other) if other != binder else ir.PWildcard()
            qualifiers.append(ir.Generator(ir.PTuple((ir.PVar(binder), value)), ir.CVar("V")))
            bound = [binder, other]
        elif kind == "singleton":
            element = draw(scalars(current, lifted, depth))
            qualifiers.append(ir.Generator(ir.PVar(binder), ir.singleton(element)))
            bound = [binder]
        elif kind == "nested":
            inner = draw(comprehensions(current, depth - 1, group_by=group_by and not lifted))
            qualifiers.append(ir.Generator(ir.PVar(binder), inner))
            bound = [binder]
        elif kind == "alias" and current:
            qualifiers.append(ir.LetBinding(ir.PVar(binder), ir.CVar(draw(st.sampled_from(current)))))
            bound = [binder]
        elif kind == "const":
            qualifiers.append(ir.LetBinding(ir.PVar(binder), ir.CConst(draw(st.integers(0, 3)))))
            bound = [binder]
        elif kind == "tuple":
            other = draw(st.sampled_from([n for n in NAMES if n != binder]))
            terms = (draw(scalars(current, lifted, depth)), draw(scalars(current, lifted, depth)))
            qualifiers.append(ir.LetBinding(ir.PTuple((ir.PVar(binder), ir.PVar(other))), ir.CTuple(terms)))
            bound = [binder, other]
        elif kind == "let":
            qualifiers.append(ir.LetBinding(ir.PVar(binder), draw(scalars(current, lifted, depth))))
            bound = [binder]
        elif kind == "condition":
            qualifiers.append(ir.Condition(draw(conditions(current, depth))))
            bound = []
        elif kind == "group":
            keys = draw(st.lists(st.sampled_from(before), min_size=1, max_size=2, unique=True))
            pattern = ir.pattern_from_names(*keys)
            if draw(st.booleans()):
                qualifiers.append(ir.GroupBy(pattern))
            else:
                key = ir.CTuple(tuple(ir.CVar(k) for k in keys)) if len(keys) > 1 else ir.CVar(keys[0])
                qualifiers.append(ir.GroupBy(pattern, key))
            lifted = tuple(n for n in dict.fromkeys(before) if n not in keys)
            names = [n for n in names if n not in before] + keys
            continue
        else:
            continue
        names.extend(bound)
        before.extend(bound)
        lifted = tuple(n for n in lifted if n not in bound)
    head = draw(scalars(tuple(dict.fromkeys(names)), lifted, depth))
    return ir.Comprehension(head, tuple(qualifiers))


def evaluate(term: ir.Term) -> Counter:
    with DistributedContext(num_partitions=2) as context:
        evaluator = TermEvaluator(EvaluationEnvironment(context, values=dict(BAGS)))
        return Counter(_evaluate(evaluator, term, {}))


def _evaluate(evaluator: TermEvaluator, term: ir.Term, row: dict) -> object:
    """``evaluator.evaluate_local``, except that a comprehension with a
    group-by inside (which runs as a dataset plan, never locally) is walked
    here, row by row: a group-by binds its pattern to each key and lifts
    every other variable the comprehension bound before it to the bag of
    its values in the group."""
    if not any(type(t) is ir.GroupBy for t in _qualifiers(term)):
        return evaluator.evaluate_local(term, row)
    rows, bound = [row], []
    for qualifier in term.qualifiers:
        if type(qualifier) is ir.Generator:
            rows = [
                {**r, **_bind(qualifier.pattern, element)}
                for r in rows
                for element in _evaluate(evaluator, qualifier.domain, r)
            ]
        elif type(qualifier) is ir.LetBinding:
            rows = [{**r, **_bind(qualifier.pattern, _evaluate(evaluator, qualifier.term, r))} for r in rows]
        elif type(qualifier) is ir.Condition:
            rows = [r for r in rows if _evaluate(evaluator, qualifier.term, r)]
        else:
            keys = qualifier.pattern.variables()
            groups: dict = {}
            for r in rows:
                groups.setdefault(_evaluate(evaluator, qualifier.key_term(), r), []).append(r)
            lifted = [name for name in dict.fromkeys(bound) if name not in keys]
            rows = [
                {**row, **{n: [r[n] for r in group] for n in lifted}, **_bind(qualifier.pattern, key)}
                for key, group in groups.items()
            ]
            bound = []
        bound.extend(qualifier.bound_variables())
    return [_evaluate(evaluator, term.head, r) for r in rows]


def _qualifiers(term: ir.Term):
    """The qualifiers of ``term`` and of every comprehension inside it."""
    for sub in ir.walk_terms(term):
        if type(sub) is ir.Comprehension:
            yield from sub.qualifiers


def _bind(pattern: ir.Pattern, value: object) -> dict:
    if type(pattern) is ir.PVar:
        return {pattern.name: value}
    if type(pattern) is ir.PTuple:
        bindings: dict = {}
        for element, component in zip(pattern.elements, value, strict=True):
            bindings.update(_bind(element, component))
        return bindings
    return {}


@SETTINGS
@given(term=comprehensions())
def test_normal_form_evaluates_to_the_same_bag(term):
    assert evaluate(normalize(term)) == evaluate(term)


@SETTINGS
@given(term=comprehensions())
def test_normalize_is_idempotent_and_draws_no_names(term):
    once = normalize(term)
    names = CountingNames()
    assert normalize(once, names) == once
    assert names.drawn == 0
