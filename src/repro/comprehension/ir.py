"""Monoid comprehension intermediate representation (Section 3.3).

A monoid comprehension ``{ e | q1, ..., qn }`` consists of a *head* term ``e``
and a sequence of *qualifiers*:

* a **generator** ``p ← e`` draws elements from the bag ``e`` and binds the
  pattern ``p`` to each element in turn;
* a **let-binding** ``let p = e`` binds ``p`` to the value of ``e``;
* a **condition** ``e`` filters out bindings for which ``e`` is false;
* a **group-by** ``group by p [: e]`` groups all bindings by the key ``e``
  (``p`` when ``e`` is omitted); after the group-by, every pattern variable
  bound before it (other than the key variables) is *lifted* to a bag holding
  all the values in the group.

The comprehension calculus used as the translation target also includes
aggregations ``⊕/e`` (reduce a bag with the monoid ⊕), the array-merging
operator ``X ⊳ Y`` (Section 3.4), and ``range``/``inRange`` terms introduced
when for-loops are embedded as generators (Sections 3.5-3.6).

Everything here is an immutable dataclass, so terms can be compared
structurally in tests and shared freely between rewrite passes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Union

# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pattern:
    """Base class of binding patterns."""

    def variables(self) -> tuple[str, ...]:
        """The variable names bound by this pattern, left to right."""
        raise NotImplementedError


@dataclass(frozen=True)
class PVar(Pattern):
    """A pattern variable."""

    name: str

    def variables(self) -> tuple[str, ...]:
        return (self.name,)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PTuple(Pattern):
    """A tuple pattern ``(p1, ..., pn)``."""

    elements: tuple[Pattern, ...]

    def variables(self) -> tuple[str, ...]:
        names: list[str] = []
        for element in self.elements:
            names.extend(element.variables())
        return tuple(names)

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.elements) + ")"


@dataclass(frozen=True)
class PWildcard(Pattern):
    """A wildcard pattern that binds nothing."""

    def variables(self) -> tuple[str, ...]:
        return ()

    def __str__(self) -> str:
        return "_"


def pattern_from_names(*names: str) -> Pattern:
    """Convenience: build ``PVar`` or ``PTuple`` from variable names."""
    if len(names) == 1:
        return PVar(names[0])
    return PTuple(tuple(PVar(n) for n in names))


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """Base class of comprehension terms."""

    def children(self) -> tuple["Term", ...]:
        return ()


@dataclass(frozen=True)
class CVar(Term):
    """A variable reference."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class CConst(Term):
    """A constant."""

    value: Union[int, float, bool, str, None]

    def __str__(self) -> str:
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        return repr(self.value)


@dataclass(frozen=True)
class CTuple(Term):
    """A tuple construction ``(e1, ..., en)``."""

    elements: tuple[Term, ...]

    def children(self) -> tuple[Term, ...]:
        return self.elements

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.elements) + ")"


@dataclass(frozen=True)
class CRecord(Term):
    """A record construction ``<A1 = e1, ...>``."""

    fields: tuple[tuple[str, Term], ...]

    def children(self) -> tuple[Term, ...]:
        return tuple(e for _, e in self.fields)

    def __str__(self) -> str:
        inner = ", ".join(f"{n} = {e}" for n, e in self.fields)
        return f"<{inner}>"


@dataclass(frozen=True)
class CProject(Term):
    """A projection ``e.A`` (record field or ``_k`` tuple position)."""

    base: Term
    attribute: str

    def children(self) -> tuple[Term, ...]:
        return (self.base,)

    def __str__(self) -> str:
        return f"{self.base}.{self.attribute}"


@dataclass(frozen=True)
class CBinOp(Term):
    """A binary operation."""

    op: str
    left: Term
    right: Term

    def children(self) -> tuple[Term, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class CUnaryOp(Term):
    """A unary operation."""

    op: str
    operand: Term

    def children(self) -> tuple[Term, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class CCall(Term):
    """A call to a registered scalar function."""

    function: str
    arguments: tuple[Term, ...]

    def children(self) -> tuple[Term, ...]:
        return self.arguments

    def __str__(self) -> str:
        return f"{self.function}({', '.join(str(a) for a in self.arguments)})"


def op_text(op: str | tuple[str, ...]) -> str:
    """A monoid operator as printed: ``+``, or ``(+,max)`` for a product."""
    return op if isinstance(op, str) else f"({','.join(op)})"


@dataclass(frozen=True)
class Aggregate(Term):
    """A monoid aggregation ``⊕/e`` that reduces the bag ``e`` with ⊕.

    ``op`` may be a tuple of symbols: ``(⊕1,…,⊕n)/e`` folds a bag of
    n-tuples component-wise with the product monoid (one shared scan for
    n scalar folds; see :func:`repro.translate.translator.share_scans`).
    """

    op: str | tuple[str, ...]
    operand: Term

    def children(self) -> tuple[Term, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"{op_text(self.op)}/{self.operand}"


@dataclass(frozen=True)
class Merge(Term):
    """The array-merging operation ``X ⊳ Y`` (Section 3.4).

    The result is the union of ``X`` and ``Y`` except that when the same key
    appears in both, the value from ``Y`` wins.
    """

    left: Term
    right: Term

    def children(self) -> tuple[Term, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} <| {self.right})"


@dataclass(frozen=True)
class MergeWith(Term):
    """The ⊕-aware array merge ``X ⊳⊕ Y`` used for incremental updates.

    Like :class:`Merge`, but when a key appears on both sides the two values
    are combined with the commutative monoid ``op`` instead of the right value
    simply replacing the left one.  This is how the cumulative effect of
    ``d ⊕= e`` is folded back into the old array: entries missing from the old
    array behave as if they held the identity of ⊕ (the paper assumes
    zero-initialized arrays).  On Spark both merges are coGroups; here both
    compile to a coGroup over the runtime.
    """

    op: str
    left: Term
    right: Term

    def children(self) -> tuple[Term, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} <|{self.op} {self.right})"


@dataclass(frozen=True)
class RangeTerm(Term):
    """The bag ``range(lower, upper)`` of integers (bounds inclusive)."""

    lower: Term
    upper: Term

    def children(self) -> tuple[Term, ...]:
        return (self.lower, self.upper)

    def __str__(self) -> str:
        return f"range({self.lower}, {self.upper})"


@dataclass(frozen=True)
class InRange(Term):
    """The predicate ``inRange(value, lower, upper)`` (Section 3.6)."""

    value: Term
    lower: Term
    upper: Term

    def children(self) -> tuple[Term, ...]:
        return (self.value, self.lower, self.upper)

    def __str__(self) -> str:
        return f"inRange({self.value}, {self.lower}, {self.upper})"


@dataclass(frozen=True)
class Comprehension(Term):
    """A monoid comprehension ``{ head | qualifiers }``.

    A comprehension with no qualifiers is the singleton bag ``{ head }``.
    """

    head: Term
    qualifiers: tuple["Qualifier", ...] = ()

    def children(self) -> tuple[Term, ...]:
        terms: list[Term] = [self.head]
        for qualifier in self.qualifiers:
            terms.extend(qualifier.terms())
        return tuple(terms)

    def is_singleton(self) -> bool:
        """True for ``{ e | }`` which denotes the singleton bag ``{e}``."""
        return not self.qualifiers

    def __str__(self) -> str:
        if not self.qualifiers:
            return f"{{ {self.head} }}"
        quals = ", ".join(str(q) for q in self.qualifiers)
        return f"{{ {self.head} | {quals} }}"


@dataclass(frozen=True)
class EmptyBag(Term):
    """The empty bag ∅."""

    def __str__(self) -> str:
        return "{}"


def singleton(term: Term) -> Comprehension:
    """The singleton bag ``{ term }``."""
    return Comprehension(term, ())


# ---------------------------------------------------------------------------
# Qualifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Qualifier:
    """Base class of comprehension qualifiers."""

    def terms(self) -> tuple[Term, ...]:
        """The terms mentioned by the qualifier (for generic traversals)."""
        return ()

    def bound_variables(self) -> tuple[str, ...]:
        """The variables bound by this qualifier."""
        return ()


@dataclass(frozen=True)
class Generator(Qualifier):
    """A generator ``pattern ← domain``."""

    pattern: Pattern
    domain: Term

    def terms(self) -> tuple[Term, ...]:
        return (self.domain,)

    def bound_variables(self) -> tuple[str, ...]:
        return self.pattern.variables()

    def __str__(self) -> str:
        return f"{self.pattern} <- {self.domain}"


@dataclass(frozen=True)
class LetBinding(Qualifier):
    """A let-binding ``let pattern = term``."""

    pattern: Pattern
    term: Term

    def terms(self) -> tuple[Term, ...]:
        return (self.term,)

    def bound_variables(self) -> tuple[str, ...]:
        return self.pattern.variables()

    def __str__(self) -> str:
        return f"let {self.pattern} = {self.term}"


@dataclass(frozen=True)
class Condition(Qualifier):
    """A boolean condition qualifier."""

    term: Term

    def terms(self) -> tuple[Term, ...]:
        return (self.term,)

    def __str__(self) -> str:
        return str(self.term)


@dataclass(frozen=True)
class GroupBy(Qualifier):
    """A group-by qualifier ``group by pattern [: key]``.

    When ``key`` is None the key expression is the pattern itself (i.e. the
    pattern variables must already be bound and their values form the key).
    """

    pattern: Pattern
    key: Term | None = None

    def terms(self) -> tuple[Term, ...]:
        if self.key is None:
            return ()
        return (self.key,)

    def bound_variables(self) -> tuple[str, ...]:
        return self.pattern.variables()

    def key_term(self) -> Term:
        """The group-by key expression (the pattern read as a term when omitted)."""
        if self.key is not None:
            return self.key
        return pattern_to_term(self.pattern)

    def __str__(self) -> str:
        if self.key is None:
            return f"group by {self.pattern}"
        return f"group by {self.pattern} : {self.key}"


# ---------------------------------------------------------------------------
# Traversals and helpers
# ---------------------------------------------------------------------------


def pattern_to_term(pattern: Pattern) -> Term:
    """Read a pattern as a term (every pattern variable becomes a variable)."""
    if isinstance(pattern, PVar):
        return CVar(pattern.name)
    if isinstance(pattern, PTuple):
        return CTuple(tuple(pattern_to_term(p) for p in pattern.elements))
    if isinstance(pattern, PWildcard):
        return CConst(None)
    raise TypeError(f"unknown pattern: {pattern!r}")


def walk_terms(term: Term) -> Iterator[Term]:
    """Yield ``term`` and all sub-terms, pre-order (descends into comprehensions)."""
    yield term
    for child in term.children():
        yield from walk_terms(child)


def free_variables(term: Term, bound: frozenset[str] = frozenset()) -> set[str]:
    """Free variables of a term, respecting comprehension binders."""
    if isinstance(term, CVar):
        return set() if term.name in bound else {term.name}
    if isinstance(term, Comprehension):
        names: set[str] = set()
        inner_bound = set(bound)
        for qualifier in term.qualifiers:
            for sub in qualifier.terms():
                names |= free_variables(sub, frozenset(inner_bound))
            inner_bound.update(qualifier.bound_variables())
        names |= free_variables(term.head, frozenset(inner_bound))
        return names
    names = set()
    for child in term.children():
        names |= free_variables(child, bound)
    return names


def qualifier_variables(qualifiers: tuple[Qualifier, ...]) -> list[str]:
    """All variables bound by a sequence of qualifiers, in binding order."""
    names: list[str] = []
    for qualifier in qualifiers:
        names.extend(qualifier.bound_variables())
    return names


def substitute_term(term: Term, mapping: dict[str, Term]) -> Term:
    """Replace free variables of ``term`` according to ``mapping``.

    Comprehension binders shadow outer variables; binders themselves are never
    renamed here (the normalizer guarantees uniqueness of bound names before
    substitution is used across comprehension boundaries).
    """
    if not mapping:
        return term
    if isinstance(term, CVar):
        return mapping.get(term.name, term)
    if isinstance(term, CConst) or isinstance(term, EmptyBag):
        return term
    if isinstance(term, CTuple):
        return CTuple(tuple(substitute_term(e, mapping) for e in term.elements))
    if isinstance(term, CRecord):
        return CRecord(tuple((n, substitute_term(e, mapping)) for n, e in term.fields))
    if isinstance(term, CProject):
        return CProject(substitute_term(term.base, mapping), term.attribute)
    if isinstance(term, CBinOp):
        return CBinOp(term.op, substitute_term(term.left, mapping), substitute_term(term.right, mapping))
    if isinstance(term, CUnaryOp):
        return CUnaryOp(term.op, substitute_term(term.operand, mapping))
    if isinstance(term, CCall):
        return CCall(term.function, tuple(substitute_term(a, mapping) for a in term.arguments))
    if isinstance(term, Aggregate):
        return Aggregate(term.op, substitute_term(term.operand, mapping))
    if isinstance(term, Merge):
        return Merge(substitute_term(term.left, mapping), substitute_term(term.right, mapping))
    if isinstance(term, MergeWith):
        return MergeWith(
            term.op, substitute_term(term.left, mapping), substitute_term(term.right, mapping)
        )
    if isinstance(term, RangeTerm):
        return RangeTerm(substitute_term(term.lower, mapping), substitute_term(term.upper, mapping))
    if isinstance(term, InRange):
        return InRange(
            substitute_term(term.value, mapping),
            substitute_term(term.lower, mapping),
            substitute_term(term.upper, mapping),
        )
    if isinstance(term, Comprehension):
        remaining = dict(mapping)
        new_qualifiers: list[Qualifier] = []
        for qualifier in term.qualifiers:
            new_qualifiers.append(substitute_qualifier(qualifier, remaining))
            for name in qualifier.bound_variables():
                remaining.pop(name, None)
        new_head = substitute_term(term.head, remaining)
        return Comprehension(new_head, tuple(new_qualifiers))
    raise TypeError(f"unknown term node: {term!r}")


def substitute_qualifier(qualifier: Qualifier, mapping: dict[str, Term]) -> Qualifier:
    """Apply a substitution to the terms inside a qualifier."""
    if isinstance(qualifier, Generator):
        return Generator(qualifier.pattern, substitute_term(qualifier.domain, mapping))
    if isinstance(qualifier, LetBinding):
        return LetBinding(qualifier.pattern, substitute_term(qualifier.term, mapping))
    if isinstance(qualifier, Condition):
        return Condition(substitute_term(qualifier.term, mapping))
    if isinstance(qualifier, GroupBy):
        # When the key is omitted it is the pattern read as a term and refers
        # to the *current* bindings of those variables, so it participates in
        # the substitution; materialize it explicitly.
        return GroupBy(qualifier.pattern, substitute_term(qualifier.key_term(), mapping))
    raise TypeError(f"unknown qualifier: {qualifier!r}")


def rename_bound_variables(comp: Comprehension, fresh: "NameGenerator") -> Comprehension:
    """Alpha-rename every variable bound inside ``comp`` to a fresh name.

    Used before unnesting a nested comprehension into an outer one so that the
    inner binders cannot capture outer variables (Rule 2 requires it).
    """
    mapping: dict[str, Term] = {}
    new_qualifiers: list[Qualifier] = []
    for qualifier in comp.qualifiers:
        if isinstance(qualifier, Generator):
            domain = substitute_term(qualifier.domain, mapping)
            pattern, mapping = _rename_pattern(qualifier.pattern, mapping, fresh)
            new_qualifiers.append(Generator(pattern, domain))
        elif isinstance(qualifier, LetBinding):
            term = substitute_term(qualifier.term, mapping)
            pattern, mapping = _rename_pattern(qualifier.pattern, mapping, fresh)
            new_qualifiers.append(LetBinding(pattern, term))
        elif isinstance(qualifier, Condition):
            new_qualifiers.append(Condition(substitute_term(qualifier.term, mapping)))
        elif isinstance(qualifier, GroupBy):
            # When the key is omitted it is the pattern read as a term, which
            # refers to the *previously bound* variables; resolve it under the
            # current renaming before the pattern itself is alpha-renamed.
            key = substitute_term(qualifier.key_term(), mapping)
            pattern, mapping = _rename_pattern(qualifier.pattern, mapping, fresh)
            new_qualifiers.append(GroupBy(pattern, key))
        else:
            raise TypeError(f"unknown qualifier: {qualifier!r}")
    head = substitute_term(comp.head, mapping)
    return Comprehension(head, tuple(new_qualifiers))


def _rename_pattern(
    pattern: Pattern, mapping: dict[str, Term], fresh: "NameGenerator"
) -> tuple[Pattern, dict[str, Term]]:
    new_mapping = dict(mapping)
    if isinstance(pattern, PVar):
        new_name = fresh.fresh(pattern.name)
        new_mapping[pattern.name] = CVar(new_name)
        return PVar(new_name), new_mapping
    if isinstance(pattern, PTuple):
        elements: list[Pattern] = []
        for element in pattern.elements:
            renamed, new_mapping = _rename_pattern(element, new_mapping, fresh)
            elements.append(renamed)
        return PTuple(tuple(elements)), new_mapping
    if isinstance(pattern, PWildcard):
        return pattern, new_mapping
    raise TypeError(f"unknown pattern: {pattern!r}")


class NameGenerator:
    """Produces fresh variable names, deterministically within one pipeline run."""

    def __init__(self, prefix: str = "_v"):
        self.prefix = prefix
        self._counter = itertools.count(1)

    def fresh(self, hint: str = "") -> str:
        index = next(self._counter)
        base = hint.split("$")[0] if hint else "x"
        return f"{base}${index}"


# Convenience constructors -----------------------------------------------------


def equality(left: Term, right: Term) -> Condition:
    """The condition ``left == right``."""
    return Condition(CBinOp("==", left, right))


def conjuncts(term: Term) -> list[Term]:
    """Split a boolean term into its top-level ``&&`` conjuncts."""
    if isinstance(term, CBinOp) and term.op == "&&":
        return conjuncts(term.left) + conjuncts(term.right)
    return [term]
