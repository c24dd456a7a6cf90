"""Comprehension optimizations (Sections 3.6 and 4 of the paper).

Three rewrites are implemented, in the order the paper applies them:

1. **Loop-iteration elimination** (Section 3.6).  A generator
   ``i ← range(lo, hi)`` joined with an array traversal through an equality
   ``idx == f(i)`` with ``f`` an invertible affine function is replaced by the
   array traversal alone plus the predicate ``inRange(F(idx), lo, hi)`` where
   ``F`` is the right inverse of ``f``.  This removes the join between the
   index range and the array.
2. **Rule (16)** -- group-by elimination for *constant* keys.  Used for total
   aggregations such as ``n += W[i]``: the group-by over the unit key is
   removed and every lifted variable becomes a nested comprehension over the
   pre-group-by qualifiers.
3. **Rule (17)** -- group-by elimination for *unique* (injective) keys.  When
   the group-by key covers every index variable of the generators before it,
   each group is a singleton, so the group-by is removed and lifted variables
   become singleton bags.

The optimizer re-normalizes after each rewrite, so callers get a fully
normalized term back.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comprehension import ir
from repro.comprehension.normalize import normalize


@dataclass
class OptimizerStats:
    """Counts of rewrites applied; benchmarks use these for ablation reporting."""

    ranges_eliminated: int = 0
    constant_key_group_bys_removed: int = 0
    unique_key_group_bys_removed: int = 0
    #: ``X := X ⊳ S`` into a freshly emptied X rewritten to ``X := S``
    #: (see :func:`repro.translate.translator.merge_into_fresh`).
    fresh_merges: int = 0
    #: Runs of scalar folds over one source merged into one scan
    #: (see :func:`repro.translate.translator.share_scans`).
    shared_scans: int = 0

    def total(self) -> int:
        return (
            self.ranges_eliminated
            + self.constant_key_group_bys_removed
            + self.unique_key_group_bys_removed
            + self.fresh_merges
            + self.shared_scans
        )


class Optimizer:
    """Applies the Section 3.6 / Section 4 rewrites to comprehension terms.

    Args:
        array_variables: names of variables known to hold sparse arrays
            (key-value datasets).  Generators over these are "array
            traversals" for the purposes of the rewrites.
        enable_range_elimination: turn Section 3.6 on/off (ablation hook).
        enable_group_by_elimination: turn Rules 16/17 on/off (ablation hook).
    """

    def __init__(
        self,
        array_variables: set[str] | None = None,
        enable_range_elimination: bool = True,
        enable_group_by_elimination: bool = True,
    ):
        self.array_variables = set(array_variables or set())
        self.enable_range_elimination = enable_range_elimination
        self.enable_group_by_elimination = enable_group_by_elimination
        self.stats = OptimizerStats()

    # -- entry points ---------------------------------------------------------

    def optimize(self, term: ir.Term, fresh: ir.NameGenerator | None = None) -> ir.Term:
        """Optimize ``term`` (descending into nested comprehensions)."""
        fresh = fresh or ir.NameGenerator()
        term = normalize(term, fresh)
        return self._optimize_term(term, fresh)

    def _optimize_term(self, term: ir.Term, fresh: ir.NameGenerator) -> ir.Term:
        if isinstance(term, ir.Comprehension):
            return self._optimize_comprehension(term, fresh)
        if not term.children():
            return term
        rebuilt = self._rebuild(term, tuple(self._optimize_term(c, fresh) for c in term.children()))
        return rebuilt

    @staticmethod
    def _rebuild(term: ir.Term, children: tuple[ir.Term, ...]) -> ir.Term:
        """Rebuild a non-comprehension term with new children."""
        if isinstance(term, ir.CTuple):
            return ir.CTuple(children)
        if isinstance(term, ir.CRecord):
            return ir.CRecord(tuple((n, c) for (n, _), c in zip(term.fields, children, strict=False)))
        if isinstance(term, ir.CProject):
            return ir.CProject(children[0], term.attribute)
        if isinstance(term, ir.CBinOp):
            return ir.CBinOp(term.op, children[0], children[1])
        if isinstance(term, ir.CUnaryOp):
            return ir.CUnaryOp(term.op, children[0])
        if isinstance(term, ir.CCall):
            return ir.CCall(term.function, children)
        if isinstance(term, ir.Aggregate):
            return ir.Aggregate(term.op, children[0])
        if isinstance(term, ir.Merge):
            return ir.Merge(children[0], children[1])
        if isinstance(term, ir.MergeWith):
            return ir.MergeWith(term.op, children[0], children[1])
        if isinstance(term, ir.RangeTerm):
            return ir.RangeTerm(children[0], children[1])
        if isinstance(term, ir.InRange):
            return ir.InRange(children[0], children[1], children[2])
        return term

    def _optimize_comprehension(self, comp: ir.Comprehension, fresh: ir.NameGenerator) -> ir.Term:
        # Optimize nested comprehensions inside qualifier domains / head first.
        head = self._optimize_term(comp.head, fresh)
        qualifiers: list[ir.Qualifier] = []
        for qualifier in comp.qualifiers:
            if isinstance(qualifier, ir.Generator):
                qualifiers.append(
                    ir.Generator(qualifier.pattern, self._optimize_term(qualifier.domain, fresh))
                )
            elif isinstance(qualifier, ir.LetBinding):
                qualifiers.append(
                    ir.LetBinding(qualifier.pattern, self._optimize_term(qualifier.term, fresh))
                )
            elif isinstance(qualifier, ir.Condition):
                qualifiers.append(ir.Condition(self._optimize_term(qualifier.term, fresh)))
            elif isinstance(qualifier, ir.GroupBy):
                qualifiers.append(
                    ir.GroupBy(qualifier.pattern, self._optimize_term(qualifier.key_term(), fresh))
                )
            else:
                raise TypeError(f"unknown qualifier: {qualifier!r}")
        current = ir.Comprehension(head, tuple(qualifiers))

        if self.enable_range_elimination:
            current = self._eliminate_ranges(current)
        if self.enable_group_by_elimination:
            current = self._eliminate_group_bys(current, fresh)
        result = normalize(current, fresh)
        return result

    # -- Section 3.6: loop-iteration elimination -------------------------------

    def _eliminate_ranges(self, comp: ir.Comprehension) -> ir.Comprehension:
        changed = True
        while changed:
            changed = False
            qualifiers = list(comp.qualifiers)
            for position, qualifier in enumerate(qualifiers):
                if not isinstance(qualifier, ir.Generator):
                    continue
                if not isinstance(qualifier.domain, ir.RangeTerm):
                    continue
                if not isinstance(qualifier.pattern, ir.PVar):
                    continue
                rewrite = self._try_eliminate_range(comp, position)
                if rewrite is not None:
                    comp = rewrite
                    self.stats.ranges_eliminated += 1
                    changed = True
                    break
        return comp

    def _try_eliminate_range(
        self, comp: ir.Comprehension, range_position: int
    ) -> ir.Comprehension | None:
        qualifiers = list(comp.qualifiers)
        range_generator = qualifiers[range_position]
        assert isinstance(range_generator, ir.Generator)
        assert isinstance(range_generator.domain, ir.RangeTerm)
        assert isinstance(range_generator.pattern, ir.PVar)
        index_name = range_generator.pattern.name
        lower = range_generator.domain.lower
        upper = range_generator.domain.upper

        # Find an equality condition "v == f(index)" (or symmetric) where v is
        # bound by an array generator and f is invertible affine in the index.
        for condition_position, qualifier in enumerate(qualifiers):
            if condition_position <= range_position or not isinstance(qualifier, ir.Condition):
                continue
            term = qualifier.term
            if not (isinstance(term, ir.CBinOp) and term.op == "=="):
                continue
            for this_side, other_side in ((term.left, term.right), (term.right, term.left)):
                inverse = _invert_affine(other_side, index_name, this_side)
                if inverse is None:
                    continue
                if index_name in ir.free_variables(this_side):
                    continue
                anchor = self._binding_position(qualifiers, this_side)
                if anchor is None:
                    continue
                if not self._substitution_is_safe(qualifiers, range_position, anchor, index_name):
                    continue
                # Perform the rewrite: drop the range generator and the
                # condition, substitute the inverse for the index everywhere,
                # and guard with inRange.
                mapping = {index_name: inverse}
                new_qualifiers: list[ir.Qualifier] = []
                for position, existing in enumerate(qualifiers):
                    if position == range_position or position == condition_position:
                        continue
                    new_qualifiers.append(ir.substitute_qualifier(existing, mapping))
                guard = ir.Condition(
                    ir.InRange(
                        ir.substitute_term(inverse, {}),
                        ir.substitute_term(lower, mapping),
                        ir.substitute_term(upper, mapping),
                    )
                )
                insert_at = self._guard_insert_position(new_qualifiers, guard)
                new_qualifiers.insert(insert_at, guard)
                new_head = ir.substitute_term(comp.head, mapping)
                return ir.Comprehension(new_head, tuple(new_qualifiers))
        return None

    def _binding_position(self, qualifiers: list[ir.Qualifier], term: ir.Term) -> int | None:
        """Position after which every free variable of ``term`` is bound."""
        needed = ir.free_variables(term)
        if not needed:
            return 0
        bound: set[str] = set()
        for position, qualifier in enumerate(qualifiers):
            bound.update(qualifier.bound_variables())
            if needed <= bound:
                return position
        return None

    @staticmethod
    def _substitution_is_safe(
        qualifiers: list[ir.Qualifier], range_position: int, anchor: int, index_name: str
    ) -> bool:
        """The index may be replaced only if all its uses occur at or after the
        position where the replacement term's variables are bound."""
        for position, qualifier in enumerate(qualifiers):
            if position == range_position:
                continue
            for term in qualifier.terms():
                if index_name in ir.free_variables(term) and position < anchor:
                    return False
        return True

    @staticmethod
    def _guard_insert_position(qualifiers: list[ir.Qualifier], guard: ir.Condition) -> int:
        """Insert the inRange guard right after its variables become bound."""
        needed = ir.free_variables(guard.term)
        bound: set[str] = set()
        for position, qualifier in enumerate(qualifiers):
            if needed <= bound:
                return position
            bound.update(qualifier.bound_variables())
            if isinstance(qualifier, ir.GroupBy):
                # Never push a guard past a group-by.
                return position
        return len(qualifiers)

    # -- Rules 16 and 17: group-by elimination ----------------------------------

    def _eliminate_group_bys(
        self, comp: ir.Comprehension, fresh: ir.NameGenerator
    ) -> ir.Comprehension:
        qualifiers = list(comp.qualifiers)
        for position, qualifier in enumerate(qualifiers):
            if not isinstance(qualifier, ir.GroupBy):
                continue
            before = qualifiers[:position]
            after = qualifiers[position + 1 :]
            key = qualifier.key_term()
            bound_before = set(ir.qualifier_variables(tuple(before)))
            key_variables = ir.free_variables(key)

            if not (key_variables & bound_before):
                rewritten = self._apply_rule_16(comp, before, qualifier, after)
                self.stats.constant_key_group_bys_removed += 1
                return self._eliminate_group_bys(rewritten, fresh)

            if self._key_is_unique(before, key):
                rewritten = self._apply_rule_17(comp, before, qualifier, after)
                self.stats.unique_key_group_bys_removed += 1
                return self._eliminate_group_bys(rewritten, fresh)
        return comp

    def _lifted_variables(
        self,
        before: list[ir.Qualifier],
        group_by: ir.GroupBy,
        after: list[ir.Qualifier],
        head: ir.Term,
    ) -> list[str]:
        """Variables bound before the group-by that are used after it."""
        used: set[str] = set(ir.free_variables(head))
        for qualifier in after:
            for term in qualifier.terms():
                used |= ir.free_variables(term)
        bound_before = ir.qualifier_variables(tuple(before))
        group_pattern = set(group_by.pattern.variables())
        lifted: list[str] = []
        for name in bound_before:
            if name in group_pattern or name in lifted:
                continue
            if name in used:
                lifted.append(name)
        return lifted

    def _apply_rule_16(
        self,
        comp: ir.Comprehension,
        before: list[ir.Qualifier],
        group_by: ir.GroupBy,
        after: list[ir.Qualifier],
    ) -> ir.Comprehension:
        """Rule (16): constant group-by key -> total aggregation without group-by."""
        lifted = self._lifted_variables(before, group_by, after, comp.head)
        new_qualifiers: list[ir.Qualifier] = [ir.LetBinding(group_by.pattern, group_by.key_term())]
        for name in lifted:
            nested = ir.Comprehension(ir.CVar(name), tuple(before))
            new_qualifiers.append(ir.LetBinding(ir.PVar(name), nested))
        new_qualifiers.extend(after)
        return ir.Comprehension(comp.head, tuple(new_qualifiers))

    def _apply_rule_17(
        self,
        comp: ir.Comprehension,
        before: list[ir.Qualifier],
        group_by: ir.GroupBy,
        after: list[ir.Qualifier],
    ) -> ir.Comprehension:
        """Rule (17): unique group-by key -> singleton groups, drop the group-by."""
        lifted = self._lifted_variables(before, group_by, after, comp.head)
        new_qualifiers: list[ir.Qualifier] = list(before)
        new_qualifiers.append(ir.LetBinding(group_by.pattern, group_by.key_term()))
        for name in lifted:
            new_qualifiers.append(ir.LetBinding(ir.PVar(name), ir.singleton(ir.CVar(name))))
        new_qualifiers.extend(after)
        return ir.Comprehension(comp.head, tuple(new_qualifiers))

    def _key_is_unique(self, before: list[ir.Qualifier], key: ir.Term) -> bool:
        """The key is unique when it covers every index variable of the
        generators before the group-by, and those generators are all array
        traversals or ranges (Section 4)."""
        index_variables = self._index_variables(before)
        key_variables = _affine_key_variables(key)
        return bool(index_variables) and key_variables is not None and index_variables <= key_variables

    def _index_variables(self, qualifiers: list[ir.Qualifier]) -> set[str] | None:
        """The index variables of the generators, or None when one of them is
        neither a range nor an array traversal (conservative)."""
        index_variables: set[str] = set()
        for qualifier in qualifiers:
            if not isinstance(qualifier, ir.Generator):
                continue
            domain = qualifier.domain
            if isinstance(domain, ir.RangeTerm):
                index_variables.update(qualifier.pattern.variables())
            elif isinstance(domain, ir.CVar) and domain.name in self.array_variables:
                index = _array_index_pattern(qualifier.pattern)
                if index is None:
                    return None
                index_variables.update(index)
            else:
                return None
        return index_variables

    def keys_are_unique(self, term: ir.Term) -> bool:
        """Whether the ``(key, value)`` pairs ``term`` produces have distinct keys.

        Conservative: true only for (i) a group-by comprehension whose head
        key is the group-by pattern, with no generator after the group-by, or
        (ii) a comprehension over ranges and array traversals alone whose head
        key -- a variable or tuple of variables once let aliases are resolved
        -- covers every generator's index variables, directly or through a
        ``v == w`` condition with a covered variable.  Arrays are assumed to
        have unique keys, as Rule 17 assumes."""
        if not (
            isinstance(term, ir.Comprehension)
            and isinstance(term.head, ir.CTuple)
            and len(term.head.elements) == 2
        ):
            return False
        key, qualifiers = term.head.elements[0], list(term.qualifiers)
        groups = [p for p, q in enumerate(qualifiers) if isinstance(q, ir.GroupBy)]
        if groups:
            pattern = qualifiers[groups[-1]].pattern
            return key == ir.pattern_to_term(pattern) and not any(
                isinstance(q, ir.Generator) or set(q.bound_variables()) & set(pattern.variables())
                for q in qualifiers[groups[-1] + 1 :]
            )
        names = ir.qualifier_variables(tuple(qualifiers))
        index_variables = self._index_variables(qualifiers)
        if index_variables is None or len(names) != len(set(names)):
            return False
        aliases = {
            q.pattern.name: q.term
            for q in qualifiers
            if isinstance(q, ir.LetBinding) and isinstance(q.pattern, ir.PVar)
        }
        covered = _key_variables(key, aliases)
        if covered is None:
            return False
        links = [
            {q.term.left.name, q.term.right.name}
            for q in qualifiers
            if isinstance(q, ir.Condition)
            and isinstance(q.term, ir.CBinOp)
            and q.term.op == "=="
            and isinstance(q.term.left, ir.CVar)
            and isinstance(q.term.right, ir.CVar)
        ]
        for _ in links:  # each pass that changes anything covers one more link
            for link in links:
                if link & covered:
                    covered |= link
        return index_variables <= covered


def _key_variables(key: ir.Term, aliases: dict[str, ir.Term]) -> set[str] | None:
    """The variables of a key built from variables and tuples only (let
    aliases resolved), or None for any other key."""
    while isinstance(key, ir.CVar) and key.name in aliases:
        key = aliases.pop(key.name)
    if isinstance(key, ir.CVar):
        return {key.name}
    if isinstance(key, ir.CTuple):
        parts = [_key_variables(element, dict(aliases)) for element in key.elements]
        return None if None in parts else set().union(*parts)
    return None


def _array_index_pattern(pattern: ir.Pattern) -> set[str] | None:
    """The index variables of a key-value generator pattern ``(k, v)``.

    Sparse arrays are bags of ``(key, value)`` pairs, so the pattern must be a
    2-tuple; the key component may itself be a variable or a tuple of
    variables (matrices).
    """
    if not isinstance(pattern, ir.PTuple) or len(pattern.elements) != 2:
        return None
    index = pattern.elements[0]
    if isinstance(index, ir.PVar):
        return {index.name}
    if isinstance(index, ir.PTuple) and all(isinstance(p, ir.PVar) for p in index.elements):
        return {p.name for p in index.elements if isinstance(p, ir.PVar)}
    return None


def _affine_key_variables(key: ir.Term) -> set[str] | None:
    """Variables of a group-by key made of variables / affine components.

    Returns None when the key contains components that are not affine in the
    bound variables (e.g. a projection or a function call), in which case the
    uniqueness test must fail.
    """
    if isinstance(key, ir.CVar):
        return {key.name}
    if isinstance(key, ir.CConst):
        return set()
    if isinstance(key, ir.CTuple):
        names: set[str] = set()
        for element in key.elements:
            sub = _affine_key_variables(element)
            if sub is None:
                return None
            names |= sub
        return names
    if isinstance(key, ir.CBinOp) and key.op in ("+", "-"):
        left = _affine_key_variables(key.left)
        right = _affine_key_variables(key.right)
        if left is None or right is None:
            return None
        return left | right
    if isinstance(key, ir.CBinOp) and key.op == "*":
        # affine only when one side is a constant
        if isinstance(key.left, ir.CConst):
            return _affine_key_variables(key.right)
        if isinstance(key.right, ir.CConst):
            return _affine_key_variables(key.left)
        return None
    return None


def _invert_affine(term: ir.Term, index_name: str, value: ir.Term) -> ir.Term | None:
    """Solve ``term == value`` for the variable ``index_name``.

    Supports the affine forms ``i``, ``i + c``, ``c + i``, ``i - c`` and
    ``c - i`` where ``c`` does not mention ``i``.  Returns the inverse
    expression (in terms of ``value``) or None when ``term`` is not of that
    shape.
    """
    if isinstance(term, ir.CVar) and term.name == index_name:
        return value
    if isinstance(term, ir.CBinOp) and term.op in ("+", "-"):
        left_has = index_name in ir.free_variables(term.left)
        right_has = index_name in ir.free_variables(term.right)
        if left_has and not right_has:
            # (f(i) op c) == value  =>  f(i) == value inv-op c
            inverse_op = "-" if term.op == "+" else "+"
            return _invert_affine(term.left, index_name, ir.CBinOp(inverse_op, value, term.right))
        if right_has and not left_has:
            if term.op == "+":
                # (c + f(i)) == value  =>  f(i) == value - c
                return _invert_affine(term.right, index_name, ir.CBinOp("-", value, term.left))
            # (c - f(i)) == value  =>  f(i) == c - value
            return _invert_affine(term.right, index_name, ir.CBinOp("-", term.left, value))
    return None
