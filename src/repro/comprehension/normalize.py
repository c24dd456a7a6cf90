"""Comprehension normalization (Section 3.3, Rule 2 and friends).

Normalization turns the raw comprehensions produced by the Figure 2
translation rules into a flat form that the optimizer and the DISC algebra
compiler can work with:

* **Unnesting (Rule 2).**  A generator whose domain is itself a comprehension
  ``p ← { e2 | q3 }`` is replaced by the inner qualifiers followed by
  ``let p = e2`` (after alpha-renaming the inner binders so they cannot
  capture outer variables).  The rule applies when the inner comprehension has
  no group-by, or when it is the first qualifier.
* **Singleton generators.**  ``p ← { e }`` becomes ``let p = e``.
* **Condition splitting.**  ``e1 && e2`` conditions become two conditions;
  ``true`` conditions are dropped; a ``false`` condition turns the whole
  comprehension into the empty bag.
* **Tuple-let splitting.**  ``let (p1, …, pn) = (t1, …, tn)`` becomes n
  component lets, so each is inlined or dropped on its own.
* **Let inlining.**  ``let x = y`` (alias) and ``let x = c`` (constant) are
  substituted into the remaining qualifiers, unless the variable is used after
  a later group-by (those uses see the *lifted* bag and must keep the binding).
* **Trivial conditions.**  ``x == x`` is dropped.
* **Dead lets.**  Let-bindings whose variables are never used are removed.

``normalize`` is idempotent: running it twice yields the same term.
"""

from __future__ import annotations

from repro.comprehension import ir

#: Upper bound on rewriting passes; normalization converges long before this.
_MAX_PASSES = 50


def normalize(term: ir.Term, fresh: ir.NameGenerator | None = None) -> ir.Term:
    """Normalize a comprehension term (recursively through sub-terms)."""
    fresh = fresh or ir.NameGenerator()
    return _normalize_term(term, fresh)


def _normalize_term(term: ir.Term, fresh: ir.NameGenerator) -> ir.Term:
    if isinstance(term, ir.Comprehension):
        return _normalize_comprehension(term, fresh)
    if isinstance(term, ir.CVar) or isinstance(term, ir.CConst) or isinstance(term, ir.EmptyBag):
        return term
    if isinstance(term, ir.CTuple):
        return ir.CTuple(tuple(_normalize_term(e, fresh) for e in term.elements))
    if isinstance(term, ir.CRecord):
        return ir.CRecord(tuple((n, _normalize_term(e, fresh)) for n, e in term.fields))
    if isinstance(term, ir.CProject):
        return ir.CProject(_normalize_term(term.base, fresh), term.attribute)
    if isinstance(term, ir.CBinOp):
        return ir.CBinOp(term.op, _normalize_term(term.left, fresh), _normalize_term(term.right, fresh))
    if isinstance(term, ir.CUnaryOp):
        return ir.CUnaryOp(term.op, _normalize_term(term.operand, fresh))
    if isinstance(term, ir.CCall):
        return ir.CCall(term.function, tuple(_normalize_term(a, fresh) for a in term.arguments))
    if isinstance(term, ir.Aggregate):
        return ir.Aggregate(term.op, _normalize_term(term.operand, fresh))
    if isinstance(term, ir.Merge):
        return ir.Merge(_normalize_term(term.left, fresh), _normalize_term(term.right, fresh))
    if isinstance(term, ir.MergeWith):
        return ir.MergeWith(
            term.op, _normalize_term(term.left, fresh), _normalize_term(term.right, fresh)
        )
    if isinstance(term, ir.RangeTerm):
        return ir.RangeTerm(_normalize_term(term.lower, fresh), _normalize_term(term.upper, fresh))
    if isinstance(term, ir.InRange):
        return ir.InRange(
            _normalize_term(term.value, fresh),
            _normalize_term(term.lower, fresh),
            _normalize_term(term.upper, fresh),
        )
    raise TypeError(f"unknown term node: {term!r}")


def _normalize_comprehension(comp: ir.Comprehension, fresh: ir.NameGenerator) -> ir.Term:
    # Normalize sub-terms first (bottom-up), then rewrite the qualifier list
    # until no rule applies.
    head = _normalize_term(comp.head, fresh)
    qualifiers = tuple(_normalize_qualifier(q, fresh) for q in comp.qualifiers)
    current = ir.Comprehension(head, qualifiers)
    for _ in range(_MAX_PASSES):
        rewritten, changed = _rewrite_once(current, fresh)
        if isinstance(rewritten, ir.EmptyBag):
            return rewritten
        current = rewritten
        if not changed:
            break
    return current


def _normalize_qualifier(qualifier: ir.Qualifier, fresh: ir.NameGenerator) -> ir.Qualifier:
    if isinstance(qualifier, ir.Generator):
        return ir.Generator(qualifier.pattern, _normalize_term(qualifier.domain, fresh))
    if isinstance(qualifier, ir.LetBinding):
        return ir.LetBinding(qualifier.pattern, _normalize_term(qualifier.term, fresh))
    if isinstance(qualifier, ir.Condition):
        return ir.Condition(_normalize_term(qualifier.term, fresh))
    if isinstance(qualifier, ir.GroupBy):
        # Materialize an omitted key so later passes can rely on it.
        return ir.GroupBy(qualifier.pattern, _normalize_term(qualifier.key_term(), fresh))
    raise TypeError(f"unknown qualifier: {qualifier!r}")


def _rewrite_once(comp: ir.Comprehension, fresh: ir.NameGenerator) -> tuple[ir.Term, bool]:
    """Apply at most one round of qualifier rewrites; report whether anything changed."""
    qualifiers = list(comp.qualifiers)
    changed = False

    # -- Rule 2: unnest generators over comprehensions ------------------------
    unnested: list[ir.Qualifier] = []
    for position, qualifier in enumerate(qualifiers):
        if isinstance(qualifier, ir.Generator) and isinstance(qualifier.domain, ir.Comprehension):
            inner = qualifier.domain
            has_group_by = any(isinstance(q, ir.GroupBy) for q in inner.qualifiers)
            if not has_group_by or position == 0:
                renamed = ir.rename_bound_variables(inner, fresh)
                unnested.extend(renamed.qualifiers)
                unnested.append(ir.LetBinding(qualifier.pattern, renamed.head))
                changed = True
                continue
        unnested.append(qualifier)
    qualifiers = unnested

    # -- split conjunctions, drop 'true', detect 'false' ----------------------
    split: list[ir.Qualifier] = []
    for qualifier in qualifiers:
        if isinstance(qualifier, ir.Condition):
            for conjunct in ir.conjuncts(qualifier.term):
                if isinstance(conjunct, ir.CConst) and conjunct.value is True:
                    changed = True
                    continue
                if isinstance(conjunct, ir.CConst) and conjunct.value is False:
                    return ir.EmptyBag(), True
                if _is_trivial_equality(conjunct):
                    changed = True
                    continue
                if conjunct is not qualifier.term:
                    changed = True
                split.append(ir.Condition(conjunct))
        else:
            split.append(qualifier)
    qualifiers = split

    # -- split tuple lets into component lets -------------------------------------
    qualifiers, split_changed = _split_tuple_lets(qualifiers)
    changed = changed or split_changed

    # -- inline alias / constant lets ------------------------------------------
    inlined, inline_changed = _inline_lets(qualifiers, comp.head)
    qualifiers, head = inlined
    changed = changed or inline_changed

    # -- drop dead lets ---------------------------------------------------------
    qualifiers, dead_changed = _drop_dead_lets(qualifiers, head)
    changed = changed or dead_changed

    return ir.Comprehension(head, tuple(qualifiers)), changed


def _split_tuple_lets(qualifiers: list[ir.Qualifier]) -> tuple[list[ir.Qualifier], bool]:
    """``let (p1, …, pn) = (t1, …, tn)`` becomes ``let p1 = t1, …, let pn = tn``.

    The components bind one after another, so the split applies only when
    no ``tj`` reads a variable an earlier ``pi`` binds (``let (a, b) = (b,
    a)`` swaps).  Wildcard components bind nothing and are dropped, as dead
    lets are.  Each component let is then open to inlining and dead-let
    removal on its own: after Rule 2, ``let ((i, j), v) = (k, w)`` no
    longer ties ``i`` and ``j`` to ``w``.
    """
    changed = False
    result: list[ir.Qualifier] = []
    for qualifier in qualifiers:
        match qualifier:
            case ir.LetBinding(ir.PTuple(patterns), ir.CTuple(terms)) if len(patterns) == len(terms):
                bound: set[str] = set()
                components: list[ir.Qualifier] = []
                for pattern, term in zip(patterns, terms, strict=True):
                    if ir.free_variables(term) & bound:
                        break
                    if not isinstance(pattern, ir.PWildcard):
                        components.append(ir.LetBinding(pattern, term))
                    bound.update(pattern.variables())
                else:
                    result.extend(components)
                    changed = True
                    continue
        result.append(qualifier)
    return result, changed


def _is_trivial_equality(term: ir.Term) -> bool:
    return isinstance(term, ir.CBinOp) and term.op == "==" and term.left == term.right


def _inline_lets(
    qualifiers: list[ir.Qualifier], head: ir.Term
) -> tuple[tuple[list[ir.Qualifier], ir.Term], bool]:
    """Inline ``let x = y`` / ``let x = c`` bindings that are safe to inline.

    A binding is *not* inlined when its variable is used after a later
    group-by: the group-by lifts the variable to a bag, so substituting the
    unlifted term would change the meaning.
    """
    changed = False
    index = 0
    while index < len(qualifiers):
        qualifier = qualifiers[index]
        if (
            isinstance(qualifier, ir.LetBinding)
            and isinstance(qualifier.pattern, ir.PVar)
            and _is_inlinable(qualifier.term)
        ):
            name = qualifier.pattern.name
            if isinstance(qualifier.term, ir.CVar) and qualifier.term.name == name:
                index += 1
                continue
            later = qualifiers[index + 1 :]
            if _used_after_group_by(name, later, head):
                index += 1
                continue
            # A later binder for the same name shadows it; restrict the
            # substitution to the qualifiers before that binder.
            mapping = {name: qualifier.term}
            new_later: list[ir.Qualifier] = []
            shadowed = False
            for later_qualifier in later:
                if shadowed:
                    new_later.append(later_qualifier)
                    continue
                new_later.append(ir.substitute_qualifier(later_qualifier, mapping))
                if name in later_qualifier.bound_variables():
                    shadowed = True
            new_head = head if shadowed else ir.substitute_term(head, mapping)
            qualifiers = qualifiers[:index] + new_later
            head = new_head
            changed = True
            continue
        index += 1
    return (qualifiers, head), changed


def _is_inlinable(term: ir.Term) -> bool:
    """Terms cheap and safe to duplicate at every use: variables, constants and
    closed tuples of those (e.g. the unit key ``()``)."""
    if isinstance(term, (ir.CVar, ir.CConst)):
        return True
    if isinstance(term, ir.CTuple):
        return all(isinstance(e, (ir.CConst, ir.CTuple)) and _is_inlinable(e) for e in term.elements)
    return False


def _used_after_group_by(name: str, later: list[ir.Qualifier], head: ir.Term) -> bool:
    """True when ``name`` is referenced after a group-by in ``later`` (or in the
    head, if any group-by appears in ``later``)."""
    seen_group_by = False
    for qualifier in later:
        if seen_group_by:
            for term in qualifier.terms():
                if name in ir.free_variables(term):
                    return True
        if name in qualifier.bound_variables():
            # Rebound: later uses refer to the new binding.
            return False
        if isinstance(qualifier, ir.GroupBy):
            seen_group_by = True
    if seen_group_by and name in ir.free_variables(head):
        return True
    return False


def _drop_dead_lets(
    qualifiers: list[ir.Qualifier], head: ir.Term
) -> tuple[list[ir.Qualifier], bool]:
    """Remove let-bindings whose variables are never used downstream."""
    changed = False
    result: list[ir.Qualifier] = []
    for index, qualifier in enumerate(qualifiers):
        if isinstance(qualifier, ir.LetBinding):
            names = set(qualifier.pattern.variables())
            used = set(ir.free_variables(head))
            for later in qualifiers[index + 1 :]:
                for term in later.terms():
                    used |= ir.free_variables(term)
                if isinstance(later, ir.GroupBy):
                    # Lifted variables may be consumed implicitly by the
                    # group-by machinery; be conservative and keep bindings
                    # whose names are also group-by pattern variables.
                    used |= set(later.bound_variables())
            if names and not (names & used):
                changed = True
                continue
        result.append(qualifier)
    return result, changed
