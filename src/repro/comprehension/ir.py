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
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Union

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

    def map_children(self, function: Callable[[Term], Term]) -> Term:
        """This node with ``function`` applied to each direct child term;
        the node itself when every child comes back unchanged (identity), so
        a rewrite that touches nothing allocates nothing.  Comprehensions map
        their head and qualifier terms without regard to binders."""
        return self


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

    def map_children(self, function: Callable[[Term], Term]) -> Term:
        elements = _map_all(function, self.elements)
        return self if elements is None else CTuple(elements)

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.elements) + ")"


@dataclass(frozen=True)
class CRecord(Term):
    """A record construction ``<A1 = e1, ...>``."""

    fields: tuple[tuple[str, Term], ...]

    def children(self) -> tuple[Term, ...]:
        return tuple(e for _, e in self.fields)

    def map_children(self, function: Callable[[Term], Term]) -> Term:
        values = _map_all(function, self.children())
        return self if values is None else CRecord(tuple(zip((n for n, _ in self.fields), values)))

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

    def map_children(self, function: Callable[[Term], Term]) -> Term:
        base = function(self.base)
        return self if base is self.base else CProject(base, self.attribute)

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

    def map_children(self, function: Callable[[Term], Term]) -> Term:
        left, right = function(self.left), function(self.right)
        return self if left is self.left and right is self.right else CBinOp(self.op, left, right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class CUnaryOp(Term):
    """A unary operation."""

    op: str
    operand: Term

    def children(self) -> tuple[Term, ...]:
        return (self.operand,)

    def map_children(self, function: Callable[[Term], Term]) -> Term:
        operand = function(self.operand)
        return self if operand is self.operand else CUnaryOp(self.op, operand)

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class CCall(Term):
    """A call to a registered scalar function."""

    function: str
    arguments: tuple[Term, ...]

    def children(self) -> tuple[Term, ...]:
        return self.arguments

    def map_children(self, function: Callable[[Term], Term]) -> Term:
        arguments = _map_all(function, self.arguments)
        return self if arguments is None else CCall(self.function, arguments)

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

    def map_children(self, function: Callable[[Term], Term]) -> Term:
        operand = function(self.operand)
        return self if operand is self.operand else Aggregate(self.op, operand)

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

    def map_children(self, function: Callable[[Term], Term]) -> Term:
        left, right = function(self.left), function(self.right)
        return self if left is self.left and right is self.right else Merge(left, right)

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

    def map_children(self, function: Callable[[Term], Term]) -> Term:
        left, right = function(self.left), function(self.right)
        return self if left is self.left and right is self.right else MergeWith(self.op, left, right)

    def __str__(self) -> str:
        return f"({self.left} <|{self.op} {self.right})"


@dataclass(frozen=True)
class RangeTerm(Term):
    """The bag ``range(lower, upper)`` of integers (bounds inclusive)."""

    lower: Term
    upper: Term

    def children(self) -> tuple[Term, ...]:
        return (self.lower, self.upper)

    def map_children(self, function: Callable[[Term], Term]) -> Term:
        lower, upper = function(self.lower), function(self.upper)
        return self if lower is self.lower and upper is self.upper else RangeTerm(lower, upper)

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

    def map_children(self, function: Callable[[Term], Term]) -> Term:
        children = _map_all(function, self.children())
        return self if children is None else InRange(*children)

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

    def map_children(self, function: Callable[[Term], Term]) -> Term:
        # The head first: a normalizing ``function`` draws fresh names in
        # that order.
        head = function(self.head)
        qualifiers = _map_all(lambda q: q.map_terms(function), self.qualifiers)
        if qualifiers is None:
            if head is self.head:
                return self
            qualifiers = self.qualifiers
        return Comprehension(head, qualifiers)

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

    def map_terms(self, function: Callable[[Term], Term]) -> "Qualifier":
        """This qualifier with ``function`` applied to its terms (itself when
        none changes).  A group-by's omitted key is materialized: it is the
        pattern read as a term over the *current* bindings."""
        return self


@dataclass(frozen=True)
class Generator(Qualifier):
    """A generator ``pattern ← domain``."""

    pattern: Pattern
    domain: Term

    def terms(self) -> tuple[Term, ...]:
        return (self.domain,)

    def map_terms(self, function: Callable[[Term], Term]) -> Qualifier:
        domain = function(self.domain)
        return self if domain is self.domain else Generator(self.pattern, domain)

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

    def map_terms(self, function: Callable[[Term], Term]) -> Qualifier:
        term = function(self.term)
        return self if term is self.term else LetBinding(self.pattern, term)

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

    def map_terms(self, function: Callable[[Term], Term]) -> Qualifier:
        term = function(self.term)
        return self if term is self.term else Condition(term)

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

    def map_terms(self, function: Callable[[Term], Term]) -> Qualifier:
        key = function(self.key_term())
        return self if key is self.key else GroupBy(self.pattern, key)

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


def _map_all(function: Callable, items: tuple) -> tuple | None:
    """``function`` applied to each item in order, as a tuple; None when every
    item comes back unchanged (identity)."""
    for index, item in enumerate(items):
        new = function(item)
        if new is not item:
            return (*items[:index], new, *map(function, items[index + 1 :]))
    return None


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
    names: set[str] = set()
    collect_free(term, names, bound)
    return names


def collect_free(term: Term, names: set[str], bound: frozenset[str] | set[str] = frozenset()) -> None:
    """Add the free variables of ``term`` to ``names``."""
    cls = type(term)
    if cls is CVar:
        if term.name not in bound:
            names.add(term.name)
    elif cls is Comprehension:
        inner = set(bound)
        for qualifier in term.qualifiers:
            for sub in qualifier.terms():
                collect_free(sub, names, inner)
            inner.update(qualifier.bound_variables())
        collect_free(term.head, names, inner)
    else:
        for child in term.children():
            collect_free(child, names, bound)


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
    substitution is used across comprehension boundaries).  Sub-terms the
    mapping does not touch are returned as they are (identity).
    """
    return _substitution(mapping)(term)


def substitute_qualifier(qualifier: Qualifier, mapping: dict[str, Term]) -> Qualifier:
    """Apply a substitution to the terms inside a qualifier (an omitted
    group-by key is materialized, as it reads the current bindings)."""
    return qualifier.map_terms(_substitution(mapping))


def _substitution(mapping: dict[str, Term], hides: list[str] | None = None) -> Callable[[Term], Term]:
    """:func:`substitute_term` as a function of the term; it reads ``mapping``
    when called, so the caller may extend the mapping between calls.  Each
    mapped name a nested binder hides is appended to ``hides``."""

    def substitute(node: Term) -> Term:
        kind = type(node)
        if kind is CConst or not mapping:
            return node
        if kind is CVar:
            return mapping.get(node.name, node)
        if kind is not Comprehension:
            return node.map_children(substitute)
        remaining = dict(mapping)
        inner = _substitution(remaining, hides)
        qualifiers: list[Qualifier] = []
        for qualifier in node.qualifiers:
            qualifiers.append(qualifier.map_terms(inner))
            for name in qualifier.bound_variables():
                if remaining.pop(name, None) is not None and hides is not None:
                    hides.append(name)
        head = inner(node.head)
        if head is node.head and all(map(operator.is_, qualifiers, node.qualifiers)):
            return node
        return Comprehension(head, tuple(qualifiers))

    return substitute


def rename_bound_variables(
    comp: Comprehension, fresh: "NameGenerator", shadowed: Callable[[Term], Term] | None = None
) -> Comprehension:
    """Alpha-rename every variable bound inside ``comp`` to a fresh name.

    Used before unnesting a nested comprehension into an outer one so that the
    inner binders cannot capture outer variables (Rule 2 requires it).  An
    omitted group-by key is materialized under the renaming before its own
    pattern's.  ``shadowed`` is applied to each renamed term where a nested
    binder hides a renamed variable (there ``let x = x`` may become
    ``let x = x$1``): the normalizer passes itself.
    """
    mapping: dict[str, Term] = {}
    hides: list[str] = []
    substitute = _substitution(mapping, hides)

    def rename(term: Term) -> Term:
        renamed = substitute(term)
        if hides and shadowed is not None:
            hides.clear()
            return shadowed(renamed)
        return renamed

    qualifiers: list[Qualifier] = []
    for qualifier in comp.qualifiers:
        qualifier = qualifier.map_terms(rename)
        if isinstance(qualifier, Generator):
            qualifier = Generator(_rename_pattern(qualifier.pattern, mapping, fresh), qualifier.domain)
        elif isinstance(qualifier, LetBinding):
            qualifier = LetBinding(_rename_pattern(qualifier.pattern, mapping, fresh), qualifier.term)
        elif isinstance(qualifier, GroupBy):
            qualifier = GroupBy(_rename_pattern(qualifier.pattern, mapping, fresh), qualifier.key)
        qualifiers.append(qualifier)
    return Comprehension(rename(comp.head), tuple(qualifiers))


def _rename_pattern(pattern: Pattern, mapping: dict[str, Term], fresh: "NameGenerator") -> Pattern:
    """``pattern`` with fresh names, recorded in ``mapping`` (updated in place)."""
    if type(pattern) is PVar:
        new_name = fresh.fresh(pattern.name)
        mapping[pattern.name] = CVar(new_name)
        return PVar(new_name)
    if type(pattern) is PTuple:
        return PTuple(tuple(_rename_pattern(element, mapping, fresh) for element in pattern.elements))
    if type(pattern) is PWildcard:
        return pattern
    raise TypeError(f"unknown pattern: {pattern!r}")


class NameGenerator:
    """Produces fresh variable names, deterministically within one pipeline run."""

    def __init__(self, prefix: str = "_v"):
        self.prefix = prefix
        self._counter = itertools.count(1)

    def fresh(self, hint: str = "") -> str:
        index = next(self._counter)
        base = hint.partition("$")[0] if hint else "x"
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
