"""Tests for comprehension normalization (Rule 2 and friends)."""

from repro.comprehension import ir
from repro.comprehension.normalize import normalize


def generators_of(comp):
    return [q for q in comp.qualifiers if isinstance(q, ir.Generator)]


class TestUnnesting:
    def test_singleton_generator_becomes_binding(self):
        comp = ir.Comprehension(
            ir.CVar("x"), (ir.Generator(ir.PVar("x"), ir.singleton(ir.CConst(5))),)
        )
        result = normalize(comp)
        assert isinstance(result, ir.Comprehension)
        assert result.head == ir.CConst(5)
        assert not generators_of(result)

    def test_nested_comprehension_is_unnested(self):
        # { x * 2 | x <- { v | (i, v) <- V, i == 1 } }
        inner = ir.Comprehension(
            ir.CVar("v"),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("v"))), ir.CVar("V")),
                ir.Condition(ir.CBinOp("==", ir.CVar("i"), ir.CConst(1))),
            ),
        )
        outer = ir.Comprehension(
            ir.CBinOp("*", ir.CVar("x"), ir.CConst(2)),
            (ir.Generator(ir.PVar("x"), inner),),
        )
        result = normalize(outer)
        assert len(generators_of(result)) == 1
        assert generators_of(result)[0].domain == ir.CVar("V")

    def test_unnesting_renames_to_avoid_capture(self):
        # Outer already binds 'v'; the inner 'v' must be renamed.
        inner = ir.Comprehension(
            ir.CVar("v"),
            (ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("v"))), ir.CVar("W")),),
        )
        outer = ir.Comprehension(
            ir.CTuple((ir.CVar("v"), ir.CVar("x"))),
            (
                ir.Generator(ir.PTuple((ir.PVar("j"), ir.PVar("v"))), ir.CVar("V")),
                ir.Generator(ir.PVar("x"), inner),
            ),
        )
        result = normalize(outer)
        bound = ir.qualifier_variables(result.qualifiers)
        assert len(bound) == len(set(bound)), "inner binders must be renamed apart"

    def test_group_by_inner_comprehension_not_unnested_in_middle(self):
        inner = ir.Comprehension(
            ir.CTuple((ir.CVar("k"), ir.Aggregate("+", ir.CVar("v")))),
            (
                ir.Generator(ir.PTuple((ir.PVar("k"), ir.PVar("v"))), ir.CVar("V")),
                ir.GroupBy(ir.PVar("k"), ir.CVar("k")),
            ),
        )
        outer = ir.Comprehension(
            ir.CVar("y"),
            (
                ir.Generator(ir.PTuple((ir.PVar("a"), ir.PVar("b"))), ir.CVar("W")),
                ir.Generator(ir.PVar("y"), inner),
            ),
        )
        result = normalize(outer)
        # The inner group-by comprehension stays as a generator domain.
        assert any(
            isinstance(q, ir.Generator) and isinstance(q.domain, ir.Comprehension)
            for q in result.qualifiers
        )


class TestConditions:
    def test_conjunction_is_split(self):
        comp = ir.Comprehension(
            ir.CVar("v"),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("v"))), ir.CVar("V")),
                ir.Condition(
                    ir.CBinOp(
                        "&&",
                        ir.CBinOp("==", ir.CVar("i"), ir.CConst(1)),
                        ir.CBinOp(">", ir.CVar("v"), ir.CConst(0)),
                    )
                ),
            ),
        )
        result = normalize(comp)
        conditions = [q for q in result.qualifiers if isinstance(q, ir.Condition)]
        assert len(conditions) == 2

    def test_true_condition_dropped(self):
        comp = ir.Comprehension(
            ir.CVar("v"),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("v"))), ir.CVar("V")),
                ir.Condition(ir.CConst(True)),
            ),
        )
        result = normalize(comp)
        assert not [q for q in result.qualifiers if isinstance(q, ir.Condition)]

    def test_false_condition_gives_empty_bag(self):
        comp = ir.Comprehension(
            ir.CVar("v"),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("v"))), ir.CVar("V")),
                ir.Condition(ir.CConst(False)),
            ),
        )
        assert isinstance(normalize(comp), ir.EmptyBag)

    def test_trivial_equality_dropped(self):
        comp = ir.Comprehension(
            ir.CVar("v"),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("v"))), ir.CVar("V")),
                ir.Condition(ir.CBinOp("==", ir.CVar("i"), ir.CVar("i"))),
            ),
        )
        result = normalize(comp)
        assert not [q for q in result.qualifiers if isinstance(q, ir.Condition)]


class TestLetInlining:
    def test_alias_let_is_inlined(self):
        comp = ir.Comprehension(
            ir.CVar("y"),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("v"))), ir.CVar("V")),
                ir.LetBinding(ir.PVar("y"), ir.CVar("v")),
            ),
        )
        result = normalize(comp)
        assert result.head == ir.CVar("v")
        assert not [q for q in result.qualifiers if isinstance(q, ir.LetBinding)]

    def test_let_used_after_group_by_is_not_inlined(self):
        comp = ir.Comprehension(
            ir.CTuple((ir.CVar("k"), ir.Aggregate("+", ir.CVar("one")))),
            (
                ir.Generator(ir.PTuple((ir.PVar("w"), ir.PVar("v"))), ir.CVar("words")),
                ir.LetBinding(ir.PVar("one"), ir.CConst(1)),
                ir.LetBinding(ir.PVar("k"), ir.CVar("w")),
                ir.GroupBy(ir.PVar("k"), None),
            ),
        )
        result = normalize(comp)
        lets = [q for q in result.qualifiers if isinstance(q, ir.LetBinding)]
        assert any(q.pattern == ir.PVar("one") for q in lets), "lifted binding must survive"

    def test_dead_let_removed(self):
        comp = ir.Comprehension(
            ir.CVar("v"),
            (
                ir.Generator(ir.PTuple((ir.PVar("i"), ir.PVar("v"))), ir.CVar("V")),
                ir.LetBinding(ir.PVar("unused"), ir.CBinOp("+", ir.CVar("v"), ir.CConst(1))),
            ),
        )
        result = normalize(comp)
        assert not [q for q in result.qualifiers if isinstance(q, ir.LetBinding)]

    def test_normalization_is_idempotent(self):
        comp = ir.Comprehension(
            ir.CBinOp("*", ir.CVar("x"), ir.CVar("y")),
            (
                ir.Generator(ir.PVar("x"), ir.singleton(ir.CVar("a"))),
                ir.Generator(ir.PVar("y"), ir.singleton(ir.CVar("b"))),
            ),
        )
        once = normalize(comp)
        twice = normalize(once)
        assert once == twice


def _lets(comp):
    return [q for q in comp.qualifiers if isinstance(q, ir.LetBinding)]


def _pair_generator(key, value, domain):
    return ir.Generator(ir.PTuple((key, value)), ir.CVar(domain))


class TestTupleLetSplitting:
    # The let Rule 2 leaves when it unnests a generator over a join:
    # let ((i, j), w) = (k, v), with k = (a, b) and v read from another side.
    def _unnested_join(self):
        return ir.Comprehension(
            ir.CTuple((ir.CVar("j"), ir.CBinOp("*", ir.CVar("w"), ir.CVar("c")))),
            (
                _pair_generator(ir.PTuple((ir.PVar("a"), ir.PVar("b"))), ir.PVar("e"), "E"),
                _pair_generator(ir.PVar("p"), ir.PVar("v"), "P"),
                ir.LetBinding(ir.PVar("k"), ir.CTuple((ir.CVar("a"), ir.CVar("b")))),
                ir.LetBinding(
                    ir.PTuple((ir.PTuple((ir.PVar("i"), ir.PVar("j"))), ir.PVar("w"))),
                    ir.CTuple((ir.CVar("k"), ir.CVar("v"))),
                ),
                _pair_generator(ir.PVar("x"), ir.PVar("c"), "C"),
                ir.Condition(ir.CBinOp("==", ir.CVar("x"), ir.CVar("i"))),
            ),
        )

    def test_a_tuple_let_becomes_component_lets(self):
        result = normalize(self._unnested_join())
        assert ir.LetBinding(ir.PTuple((ir.PVar("i"), ir.PVar("j"))), ir.CVar("k")) in _lets(result)
        # let w = v is an alias, inlined: the key i no longer reads P's value.
        assert not any("w" in q.pattern.variables() for q in _lets(result))
        assert result.head == ir.CTuple((ir.CVar("j"), ir.CBinOp("*", ir.CVar("v"), ir.CVar("c"))))

    def test_a_nested_tuple_of_both_shapes_splits_all_the_way(self):
        comp = ir.Comprehension(
            ir.CBinOp("+", ir.CVar("i"), ir.CBinOp("+", ir.CVar("j"), ir.CVar("w"))),
            (
                _pair_generator(ir.PVar("p"), ir.PVar("v"), "P"),
                ir.LetBinding(
                    ir.PTuple((ir.PTuple((ir.PVar("i"), ir.PVar("j"))), ir.PVar("w"))),
                    ir.CTuple(
                        (
                            ir.CTuple((ir.CBinOp("+", ir.CVar("p"), ir.CConst(1)), ir.CVar("p"))),
                            ir.CBinOp("*", ir.CVar("v"), ir.CConst(2)),
                        )
                    ),
                ),
            ),
        )
        lets = _lets(normalize(comp))
        assert all(isinstance(q.pattern, ir.PVar) for q in lets)
        assert [q.pattern.name for q in lets] == ["i", "w"]  # j = p is an alias, inlined

    def test_wildcard_components_are_dropped(self):
        comp = ir.Comprehension(
            ir.CVar("z"),
            (
                _pair_generator(ir.PVar("p"), ir.PVar("v"), "P"),
                ir.LetBinding(
                    ir.PTuple((ir.PWildcard(), ir.PVar("z"))),
                    ir.CTuple((ir.CVar("p"), ir.CBinOp("*", ir.CVar("v"), ir.CVar("v")))),
                ),
            ),
        )
        assert _lets(normalize(comp)) == [
            ir.LetBinding(ir.PVar("z"), ir.CBinOp("*", ir.CVar("v"), ir.CVar("v")))
        ]

    def test_a_component_reading_an_earlier_component_keeps_the_tuple(self):
        # let (a, b) = (b, a) swaps: split, b would read the new a.
        swap = ir.LetBinding(
            ir.PTuple((ir.PVar("a"), ir.PVar("b"))),
            ir.CTuple(
                (ir.CBinOp("+", ir.CVar("b"), ir.CConst(1)), ir.CBinOp("+", ir.CVar("a"), ir.CConst(1)))
            ),
        )
        comp = ir.Comprehension(
            ir.CTuple((ir.CVar("a"), ir.CVar("b"))),
            (_pair_generator(ir.PVar("a"), ir.PVar("b"), "P"), swap),
        )
        assert _lets(normalize(comp)) == [swap]

    def test_shapes_that_differ_keep_the_tuple(self):
        unpack = ir.LetBinding(ir.PTuple((ir.PVar("i"), ir.PVar("j"))), ir.CVar("k"))
        short = ir.LetBinding(
            ir.PTuple((ir.PVar("x"), ir.PVar("y"))),
            ir.CTuple((ir.CVar("i"), ir.CVar("j"), ir.CVar("v"))),
        )
        comp = ir.Comprehension(
            ir.CTuple((ir.CBinOp("+", ir.CVar("i"), ir.CVar("j")), ir.CVar("x"))),
            (_pair_generator(ir.PVar("k"), ir.PVar("v"), "M"), unpack, short),
        )
        assert _lets(normalize(comp)) == [unpack, short]

    def test_splitting_is_idempotent(self):
        once = normalize(self._unnested_join())
        assert normalize(once) == once
