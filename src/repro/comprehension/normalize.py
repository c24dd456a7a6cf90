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
  ``true`` and ``x == x`` conditions are dropped; a ``false`` condition turns
  the whole comprehension into the empty bag.
* **Tuple-let splitting.**  ``let (p1, …, pn) = (t1, …, tn)`` becomes n
  component lets, so each is inlined or dropped on its own.
* **Let inlining.**  ``let x = y`` (alias) and ``let x = c`` (constant) are
  substituted into the remaining qualifiers, unless the variable is used after
  a later group-by (those uses see the *lifted* bag and must keep the binding).
* **Dead lets.**  Let-bindings whose variables are never used are removed.

Sub-terms first (bottom-up); then passes over the qualifier list, each
applying the rules in the order above, until one changes nothing.  Traversals
are identity-preserving (an untouched node comes back as itself), so
"unchanged" is an ``is`` test.  ``normalize`` is idempotent: an inlining that
would move a variable under a binder of its name is not done, and a nested
comprehension an inlining changes is rewritten again.
"""

from __future__ import annotations

import operator

from repro.comprehension import ir

#: Upper bound on rewriting passes; normalization converges long before this.
_MAX_PASSES = 50


def normalize(term: ir.Term, fresh: ir.NameGenerator | None = None) -> ir.Term:
    """Normalize a comprehension term (recursively through sub-terms)."""
    fresh = fresh or ir.NameGenerator()

    def visit(node: ir.Term) -> ir.Term:
        if type(node) is ir.CVar or type(node) is ir.CConst:
            return node
        # Bottom-up; materializes omitted group-by keys (Qualifier.map_terms),
        # so later passes can rely on them.
        node = node.map_children(visit)
        if type(node) is ir.Comprehension and node.qualifiers:
            return _rewrite(node, fresh)
        return node

    return visit(term)


def _rewrite(comp: ir.Comprehension, fresh: ir.NameGenerator) -> ir.Term:
    """Rewrite ``comp``, whose sub-terms are normal, until a pass changes
    nothing -- or until :func:`_settled` shows that none could."""
    for _ in range(_MAX_PASSES):
        rewritten = _rewrite_once(comp, fresh)
        if rewritten is comp or type(rewritten) is ir.EmptyBag or _settled(rewritten.qualifiers):
            return rewritten
        comp = rewritten
    return comp


def _settled(qualifiers: tuple[ir.Qualifier, ...]) -> bool:
    """Whether a pass over the output of a pass would change nothing.

    Conservative: no generator ranges over a comprehension that Rule 2 would
    unnest, no condition is a conjunction, a constant or ``x == x``, no let
    splits or could be inlined.  A pass leaves no dead let behind, so that
    rule needs no check.
    """
    for position, qualifier in enumerate(qualifiers):
        kind = type(qualifier)
        if kind is ir.Generator:
            domain = qualifier.domain
            if type(domain) is ir.Comprehension and (
                position == 0 or not any(type(q) is ir.GroupBy for q in domain.qualifiers)
            ):
                return False
        elif kind is ir.Condition:
            term = qualifier.term
            if type(term) is ir.CConst or (
                type(term) is ir.CBinOp and (term.op == "&&" or _is_trivial_equality(term))
            ):
                return False
        elif kind is ir.LetBinding:
            if type(qualifier.term) is ir.CTuple and type(qualifier.pattern) is ir.PTuple:
                return False
            if _inlinable_name(qualifier) is not None:
                return False
    return True


def _rewrite_once(comp: ir.Comprehension, fresh: ir.NameGenerator) -> ir.Term:
    """One round of qualifier rewrites; ``comp`` itself when nothing applies."""
    qualifiers = list(comp.qualifiers)
    changed = False

    # -- Rule 2: unnest generators over comprehensions ------------------------
    if any(type(q) is ir.Generator and type(q.domain) is ir.Comprehension for q in qualifiers):
        qualifiers, changed = _unnest(qualifiers, fresh)

    # -- split conjunctions, drop 'true' and 'x == x', detect 'false'; split
    # -- tuple lets into component lets ---------------------------------------
    split: list[ir.Qualifier] = []
    for qualifier in qualifiers:
        if type(qualifier) is ir.Condition:
            term = qualifier.term
            for conjunct in ir.conjuncts(term) if type(term) is ir.CBinOp else (term,):
                if isinstance(conjunct, ir.CConst) and conjunct.value is True:
                    changed = True
                elif isinstance(conjunct, ir.CConst) and conjunct.value is False:
                    return ir.EmptyBag()
                elif _is_trivial_equality(conjunct):
                    changed = True
                elif conjunct is term:
                    split.append(qualifier)
                else:
                    changed = True
                    split.append(ir.Condition(conjunct))
            continue
        components = (
            _split_tuple_let(qualifier)
            if type(qualifier) is ir.LetBinding and type(qualifier.term) is ir.CTuple
            else None
        )
        if components is None:
            split.append(qualifier)
        else:
            split.extend(components)
            changed = True

    qualifiers, head, inlined = _inline_lets(split, comp.head, fresh)
    qualifiers, dropped = _drop_dead_lets(qualifiers, head)
    if not (changed or inlined or dropped):
        return comp
    return ir.Comprehension(head, tuple(qualifiers))


def _unnest(qualifiers: list[ir.Qualifier], fresh: ir.NameGenerator) -> tuple[list[ir.Qualifier], bool]:
    """Rule 2: ``p <- { e | q }`` becomes ``q', let p = e'`` (binders renamed
    apart), unless ``q`` groups and the generator is not the first qualifier."""
    changed = False
    result: list[ir.Qualifier] = []
    for position, qualifier in enumerate(qualifiers):
        if type(qualifier) is ir.Generator and type(qualifier.domain) is ir.Comprehension:
            inner = qualifier.domain
            if not inner.qualifiers:  # a singleton generator: nothing to rename
                result.append(ir.LetBinding(qualifier.pattern, inner.head))
                changed = True
                continue
            if position == 0 or not any(type(q) is ir.GroupBy for q in inner.qualifiers):
                renamed = ir.rename_bound_variables(inner, fresh, lambda term: normalize(term, fresh))
                result.extend(renamed.qualifiers)
                result.append(ir.LetBinding(qualifier.pattern, renamed.head))
                changed = True
                continue
        result.append(qualifier)
    return result, changed


def _split_tuple_let(qualifier: ir.Qualifier) -> list[ir.Qualifier] | None:
    """``let (p1, …, pn) = (t1, …, tn)`` becomes ``let p1 = t1, …, let pn = tn``
    (None when ``qualifier`` is not such a let or cannot be split).

    The components bind one after another, so the split applies only when
    no ``tj`` reads a variable an earlier ``pi`` binds (``let (a, b) = (b,
    a)`` swaps).  Wildcard components bind nothing and are dropped, as dead
    lets are.  Each component let is then open to inlining and dead-let
    removal on its own: after Rule 2, ``let ((i, j), v) = (k, w)`` no
    longer ties ``i`` and ``j`` to ``w``.
    """
    match qualifier:
        case ir.LetBinding(ir.PTuple(patterns), ir.CTuple(terms)) if len(patterns) == len(terms):
            bound: set[str] = set()
            components: list[ir.Qualifier] = []
            for pattern, term in zip(patterns, terms, strict=True):
                if not bound.isdisjoint(ir.free_variables(term)):
                    return None
                if not isinstance(pattern, ir.PWildcard):
                    components.append(ir.LetBinding(pattern, term))
                bound.update(pattern.variables())
            return components
    return None


def _is_trivial_equality(term: ir.Term) -> bool:
    return isinstance(term, ir.CBinOp) and term.op == "==" and term.left == term.right


def _inline_lets(
    qualifiers: list[ir.Qualifier], head: ir.Term, fresh: ir.NameGenerator
) -> tuple[list[ir.Qualifier], ir.Term, bool]:
    """Inline ``let x = y`` / ``let x = c`` bindings that are safe to inline.

    A binding is *not* inlined when its variable is used after a later
    group-by: the group-by lifts the variable to a bag, so substituting the
    unlifted term would change the meaning.
    """
    changed = False
    index = 0
    while index < len(qualifiers):
        qualifier = qualifiers[index]
        index += 1
        name = _inlinable_name(qualifier)
        if name is None or _used_after_group_by(name, qualifiers[index:], head):
            continue
        inlined = _inline(name, qualifier.term, qualifiers[index:], head, fresh)
        if inlined is not None:
            index -= 1
            qualifiers[index:], head = inlined
            changed = True
    return qualifiers, head, changed


class _Captured(Exception):
    """Raised when inlining would put a variable under a binder of its name."""


def _inline(
    name: str, value: ir.Term, qualifiers: list[ir.Qualifier], head: ir.Term, fresh: ir.NameGenerator
) -> tuple[list[ir.Qualifier], ir.Term] | None:
    """Substitute ``value`` for ``name`` through ``qualifiers`` and ``head`` as
    far as a rebinding of ``name`` lets it reach.  A nested comprehension
    that changes is rewritten again, so it stays normal.  None when a binder
    of one of ``value``'s variables would capture it."""
    # An inlinable value is a variable or closed: only a binder of that
    # variable can capture it.
    captive = value.name if type(value) is ir.CVar else None

    def term(node: ir.Term) -> ir.Term:
        if type(node) is ir.CVar:
            return value if node.name == name else node
        if type(node) is ir.CConst:
            return node
        if type(node) is not ir.Comprehension:
            return node.map_children(term)
        qualifiers, head = scope(list(node.qualifiers), node.head)
        if head is node.head and all(map(operator.is_, qualifiers, node.qualifiers)):
            return node
        rewritten = ir.Comprehension(head, tuple(qualifiers))
        return _rewrite(rewritten, fresh) if qualifiers else rewritten

    def scope(qualifiers: list[ir.Qualifier], head: ir.Term) -> tuple[list[ir.Qualifier], ir.Term]:
        for position, qualifier in enumerate(qualifiers):
            qualifiers[position] = qualifier.map_terms(term)
            bound = qualifier.bound_variables()
            if name in bound:
                return qualifiers, head
            if captive in bound:
                if name in ir.free_variables(ir.Comprehension(head, tuple(qualifiers[position + 1 :]))):
                    raise _Captured
                return qualifiers, head
        return qualifiers, term(head)

    try:
        return scope(list(qualifiers), head)
    except _Captured:
        return None


def _inlinable_name(qualifier: ir.Qualifier) -> str | None:
    """The variable of ``let x = t`` when ``t`` is inlinable and not ``x`` itself."""
    if type(qualifier) is not ir.LetBinding or type(qualifier.pattern) is not ir.PVar:
        return None
    name, term = qualifier.pattern.name, qualifier.term
    if not _is_inlinable(term) or (type(term) is ir.CVar and term.name == name):
        return None
    return name


def _is_inlinable(term: ir.Term) -> bool:
    """Terms cheap and safe to duplicate at every use: variables, constants and
    closed tuples of those (e.g. the unit key ``()``)."""
    if type(term) is ir.CVar or type(term) is ir.CConst:
        return True
    if type(term) is ir.CTuple:
        return all(isinstance(e, (ir.CConst, ir.CTuple)) and _is_inlinable(e) for e in term.elements)
    return False


def _used_after_group_by(name: str, later: list[ir.Qualifier], head: ir.Term) -> bool:
    """True when ``name`` is referenced after a group-by in ``later`` (or in the
    head, if any group-by appears in ``later``)."""
    if ir.GroupBy not in map(type, later):
        return False
    seen_group_by = False
    for qualifier in later:
        if seen_group_by and any(name in ir.free_variables(term) for term in qualifier.terms()):
            return True
        if name in qualifier.bound_variables():
            return False  # rebound: later uses refer to the new binding
        seen_group_by = seen_group_by or type(qualifier) is ir.GroupBy
    return seen_group_by and name in ir.free_variables(head)


def _drop_dead_lets(qualifiers: list[ir.Qualifier], head: ir.Term) -> tuple[list[ir.Qualifier], bool]:
    """Remove let-bindings whose variables are never used downstream.

    One backward liveness sweep: a let is dead when neither the head nor a
    later qualifier that stays reads its variables, so a let that only dead
    lets read goes in the same sweep.
    """
    kinds = list(map(type, qualifiers))
    if ir.LetBinding not in kinds:
        return qualifiers, False
    first = kinds.index(ir.LetBinding)
    used = ir.free_variables(head)
    kept: list[ir.Qualifier] = []
    for qualifier in reversed(qualifiers[first:]):
        if type(qualifier) is ir.LetBinding:
            names = qualifier.pattern.variables()
            if names and used.isdisjoint(names):
                continue
        kept.append(qualifier)
        for term in qualifier.terms():
            ir.collect_free(term, used)
        if type(qualifier) is ir.GroupBy:
            # Lifted variables may be consumed implicitly by the group-by
            # machinery; be conservative and keep bindings whose names are
            # also group-by pattern variables.
            used.update(qualifier.bound_variables())
    if len(kept) == len(qualifiers) - first:
        return qualifiers, False
    kept.reverse()
    return qualifiers[:first] + kept, True
