"""Static facts about target programs, each defined once.

Two kinds of fact live here, and nowhere else:

* **Plan-shape classifiers**, per comprehension.  Whether a generator joins
  the rows built so far through an equi-join key (a **hash join**) or pairs
  with every row (a **product**) is :func:`join_keys`; whether a group-by
  can fold its lifted values on the map side (a **reduceByKey**) rather than
  collect them (a **groupByKey**) is :func:`reduce_shape`.  Both are pure
  functions of the comprehension's structure plus the names the caller
  knows to be available: the evaluator passes what it has bound at run
  time, and :func:`plan_shape` derives the same from the term alone for
  ``explain_term`` and the plan lint.
* **Key domains**, per array term: :func:`keys_within` proves that every
  key one comprehension produces is a key another produces, from the
  ``range(lo, hi)`` generators and ``inRange(k, lo, hi)`` guards that
  bound them.
* **Def-use**, per program: the variables each block assigns, the ones
  assigned inside a ``while`` loop, and the keyed demand that drives the
  runner's program-level placement.  :class:`ProgramFacts` computes them
  once, the first time a program runs (``TargetProgram.facts``), so
  compilation does no extra work.  :func:`assigned_names`, :func:`uses`
  (with :func:`mentioned_names`, its set of names) and :func:`independent`
  are the statement-level facts the compiler needs before a program
  exists.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from typing import AbstractSet

from repro.comprehension import ir
from repro.translate.target import TargetAssign, TargetProgram, TargetStatement, TargetWhile, is_temporary

#: A join key: (condition position, key term over the rows built so far,
#: key term over the new generator's pattern variables).
JoinKey = tuple[int, ir.Term, ir.Term]


# ---------------------------------------------------------------------------
# Plan-shape classifiers
# ---------------------------------------------------------------------------


def join_keys(
    qualifiers: Sequence[ir.Qualifier],
    position: int,
    rows: AbstractSet[str],
    scalars: AbstractSet[str],
    consumed: AbstractSet[int] = frozenset(),
) -> list[JoinKey]:
    """The equality conditions that key the generator at ``position`` as a hash join.

    ``rows`` are the names bound per row by the qualifiers before it and
    ``scalars`` the names with one value for the whole comprehension.  A
    condition ``a == b`` up to the next group-by, not already ``consumed``
    by an earlier join, is a key when one side reads only available names
    and none of the new pattern's, and the other reads the new pattern and
    otherwise only scalars.  No key means a product.
    """
    new = set(qualifiers[position].bound_variables())
    available = rows | scalars
    keys: list[JoinKey] = []
    for later in range(position + 1, len(qualifiers)):
        match qualifiers[later]:
            case ir.GroupBy():
                break
            case ir.Condition(ir.CBinOp("==", left, right)) if later not in consumed:
                for bound_side, new_side in ((left, right), (right, left)):
                    bound_vars = ir.free_variables(bound_side)
                    new_vars = ir.free_variables(new_side)
                    if (
                        bound_vars <= available
                        and not bound_vars & new
                        and new_vars & new
                        and new_vars <= new | scalars
                    ):
                        keys.append((later, bound_side, new_side))
                        break
    return keys


def reduce_shape(
    head: ir.Term,
    post_qualifiers: Sequence[ir.Qualifier],
    pattern_variables: Iterable[str],
    lifted: Iterable[str],
) -> tuple[str, str] | None:
    """``(op, v)`` when a group-by compiles to a reduceByKey, else None.

    The group-by must be the comprehension's last qualifier and its head the
    canonical aggregation ``(key, op/v)``: ``v`` a lifted variable and the
    key part over the group-by pattern only.  Anything else needs the
    groups themselves (a groupByKey).
    """
    if post_qualifiers:
        return None
    if not isinstance(head, ir.CTuple) or len(head.elements) != 2:
        return None
    key_part, value_part = head.elements
    if not (isinstance(value_part, ir.Aggregate) and isinstance(value_part.operand, ir.CVar)):
        return None
    value_name = value_part.operand.name
    if value_name not in set(lifted):
        return None
    if not ir.free_variables(key_part) <= set(pattern_variables):
        return None
    return value_part.op, value_name


def plan_shape(comp: ir.Comprehension, arrays: AbstractSet[str]) -> dict[int, str]:
    """The evaluator's plan decisions for ``comp``, predicted from the term alone.

    Maps the position of every dataset generator -- one over a range or
    over a variable in ``arrays`` -- to ``"scan"`` (the first),
    ``"hash-join"`` or ``"product"``, and every group-by's position to
    ``"reduceByKey"`` or ``"groupByKey"``.  The available names stand in for what the evaluator
    binds at run time: names bound before the first dataset generator and
    free names that are not ``arrays`` are scalars; names bound from the
    first dataset generator on are row variables.
    """
    qualifiers = comp.qualifiers
    bound_anywhere = set(ir.qualifier_variables(qualifiers))
    scalars = ir.free_variables(comp) - set(arrays) - bound_anywhere
    rows: list[str] | None = None
    consumed: set[int] = set()
    shape: dict[int, str] = {}
    for position, qualifier in enumerate(qualifiers):
        names = list(qualifier.bound_variables())
        if isinstance(qualifier, ir.Generator) and (
            isinstance(qualifier.domain, ir.RangeTerm)
            or (isinstance(qualifier.domain, ir.CVar) and qualifier.domain.name in arrays)
        ):
            if rows is None:
                shape[position] = "scan"
                rows = []
            else:
                keys = join_keys(qualifiers, position, set(rows), scalars, consumed)
                consumed.update(key[0] for key in keys)
                shape[position] = "hash-join" if keys else "product"
        elif isinstance(qualifier, ir.GroupBy):
            lifted = [name for name in rows or () if name not in names]
            reduced = reduce_shape(comp.head, qualifiers[position + 1 :], names, lifted)
            shape[position] = "reduceByKey" if reduced else "groupByKey"
            if rows is not None:
                rows = names + lifted
                continue
        if rows is None:
            scalars.update(names)
        else:
            rows.extend(names)
    return shape


# ---------------------------------------------------------------------------
# Key domains
# ---------------------------------------------------------------------------


def _key_domain(term: ir.Term) -> tuple[ir.Term, ir.Term, bool] | None:
    """``(lo, hi, exact)``: every key of the ``(key, value)`` pairs ``term``
    produces lies in ``range(lo, hi)``, and when ``exact`` every key of that
    range is produced too.

    The head key -- or, after a single group-by, its key term -- resolves
    through let aliases to a variable that a ``range(lo, hi)`` generator
    binds or an ``inRange(k, lo, hi)`` condition guards before any
    group-by.  The domain is exact when that generator is the only
    qualifier besides lets: one key per element of the range.  ``lo`` and
    ``hi`` are read with let-bound names replaced by their terms, and must
    then read only names from outside the comprehension, so two terms'
    domains compare by their bound terms.  Bound names must be unique.
    None when no such domain is proved.
    """
    if not (
        isinstance(term, ir.Comprehension)
        and isinstance(term.head, ir.CTuple)
        and len(term.head.elements) == 2
    ):
        return None
    qualifiers = term.qualifiers
    names = ir.qualifier_variables(qualifiers)
    if len(names) != len(set(names)):
        return None
    key = term.head.elements[0]
    groups = [(position, q) for position, q in enumerate(qualifiers) if isinstance(q, ir.GroupBy)]
    if len(groups) > 1:
        return None
    before = qualifiers
    if groups:
        ((position, group_by),) = groups
        if key != ir.pattern_to_term(group_by.pattern) or not isinstance(group_by.pattern, ir.PVar):
            return None
        if any(isinstance(q, ir.Generator) for q in qualifiers[position + 1 :]):
            return None
        key, before = group_by.key_term(), qualifiers[:position]
    lets = {
        q.pattern.name: q.term
        for q in before
        if isinstance(q, ir.LetBinding) and isinstance(q.pattern, ir.PVar)
    }
    while isinstance(key, ir.CVar) and isinstance(lets.get(key.name), ir.CVar):
        key = lets[key.name]
    if not isinstance(key, ir.CVar):
        return None
    for qualifier in before:
        match qualifier:
            case ir.Generator(ir.PVar(bound), ir.RangeTerm(lower, upper)) if bound == key.name:
                exact = not groups and all(q is qualifier or isinstance(q, ir.LetBinding) for q in qualifiers)
            case ir.Condition(ir.InRange(ir.CVar(guarded), lower, upper)) if guarded == key.name:
                exact = False
            case _:
                continue
        lo, hi = _outer_term(lower, lets, set(names)), _outer_term(upper, lets, set(names))
        if lo is not None and hi is not None:
            return lo, hi, exact
    return None


def _outer_term(term: ir.Term, lets: dict[str, ir.Term], bound: set[str]) -> ir.Term | None:
    """``term`` with let-bound names replaced by their terms, or None when it
    still reads a name bound inside the comprehension."""
    for _ in range(len(lets) + 1):
        local = ir.free_variables(term) & bound
        if not local:
            return term
        if not local <= set(lets):
            return None
        term = ir.substitute_term(term, {name: lets[name] for name in local})
    return None


def keys_within(inner: ir.Term, outer: ir.Term) -> bool:
    """Whether every key ``inner`` produces is a key ``outer`` produces:
    ``inner``'s keys lie in a range with the same bound terms as
    ``outer``'s, and ``outer`` produces every key of that range."""
    inner_domain, outer_domain = _key_domain(inner), _key_domain(outer)
    return (
        inner_domain is not None
        and outer_domain is not None
        and outer_domain[2]
        and inner_domain[:2] == outer_domain[:2]
    )


# ---------------------------------------------------------------------------
# Def-use
# ---------------------------------------------------------------------------


def assigned_names(statements: Iterable[TargetStatement]) -> set[str]:
    """Every variable the statements assign, ``while`` bodies included."""
    names: set[str] = set()
    for statement in statements:
        if isinstance(statement, TargetAssign):
            names.add(statement.variable)
        else:
            names |= assigned_names(statement.body)
    return names


def uses(statements: Iterable[TargetStatement]) -> Counter[str]:
    """Per variable, how many times the statements assign it plus how many
    times they read it: each free occurrence counts, conditions and
    ``while`` bodies included."""
    names: list[str] = []
    for statement in statements:
        if isinstance(statement, TargetAssign):
            names.append(statement.variable)
            _occurrences(statement.term, frozenset(), names)
        else:
            _occurrences(statement.condition, frozenset(), names)
            names.extend(uses(statement.body).elements())
    return Counter(names)


def _occurrences(term: ir.Term, bound: frozenset[str], names: list[str]) -> None:
    """Append the free variables of ``term`` to ``names``, once per occurrence."""
    if isinstance(term, ir.CVar):
        if term.name not in bound:
            names.append(term.name)
    elif isinstance(term, ir.Comprehension):
        inner = set(bound)
        for qualifier in term.qualifiers:
            for sub in qualifier.terms():
                _occurrences(sub, frozenset(inner), names)
            inner.update(qualifier.bound_variables())
        _occurrences(term.head, frozenset(inner), names)
    else:
        for child in term.children():
            _occurrences(child, bound, names)


def mentioned_names(statement: TargetStatement) -> set[str]:
    """Every variable a statement reads or assigns, ``while`` bodies included."""
    return set(uses((statement,)))


def independent(statements: Sequence[TargetAssign]) -> bool:
    """Whether no statement reads a variable that another one assigns.

    Each may read (and assign) its own variable.  Independent statements
    see the same values whichever of them runs first, so their right-hand
    sides may all be evaluated before the first of them assigns -- what a
    shared scan (:func:`repro.translate.translator.share_scans`) does.
    """
    assigned = Counter(statement.variable for statement in statements)
    for statement in statements:
        others = {name for name, count in assigned.items() if name != statement.variable or count > 1}
        if ir.free_variables(statement.term) & others:
            return False
    return True


def keyed_consumers(term: ir.Term) -> list[str]:
    """The variables ``term`` consumes by their pair key, once per consumer.

    Keyed consumers are array merges (⊳ / ⊳⊕ coGroup both operands by key)
    and generators over a variable whose pattern's whole key the same
    comprehension groups by, or equates with one other generator's key (a
    one-variable key: with anything).  A key used only by its parts (pca's
    ``X[i,k]``, whose ``i`` joins one generator and ``k`` another) does not
    count: nothing there keys by the whole key a placement hashes.
    """
    if isinstance(term, (ir.Merge, ir.MergeWith)):
        return [
            name
            for side in (term.left, term.right)
            for name in ([side.name] if isinstance(side, ir.CVar) else keyed_consumers(side))
        ]
    if not isinstance(term, ir.Comprehension):
        return [name for child in term.children() for name in keyed_consumers(child)]
    # Each generator's key variables by position, and per variable the
    # variables an equality condition pairs it with.
    keys = {
        position: set(qualifier.pattern.elements[0].variables())
        for position, qualifier in enumerate(term.qualifiers)
        if isinstance(qualifier, ir.Generator)
        and isinstance(qualifier.pattern, ir.PTuple)
        and len(qualifier.pattern.elements) == 2
    }
    joined: dict[str, set[str]] = {}
    grouped: set[str] = set()
    for qualifier in term.qualifiers:
        match qualifier:
            case ir.Condition(ir.CBinOp("==", left, right)):
                for one, other in ((left, right), (right, left)):
                    for variable in ir.free_variables(one):
                        joined.setdefault(variable, set()).update(ir.free_variables(other))
            case ir.GroupBy():
                grouped |= ir.free_variables(qualifier.key_term())
    consumers: list[str] = []
    for position, qualifier in enumerate(term.qualifiers):
        key = keys.get(position)
        match qualifier:
            case ir.Generator(_, ir.CVar(name)) if key and (
                key <= grouped
                or (len(key) == 1 and key <= joined.keys())
                or any(all(joined.get(v, set()) & keys[p] for v in key) for p in keys if p != position)
            ):
                consumers.append(name)
            case _:
                for sub in qualifier.terms():
                    consumers += keyed_consumers(sub)
    return consumers + keyed_consumers(term.head)


class ProgramFacts:
    """Def-use facts of one :class:`~repro.translate.target.TargetProgram`.

    Attributes:
        assigned: every variable the program assigns, loop bodies included.
        keyed_demand: per variable, how many operators consume it by its
            pair key (:func:`keyed_consumers`) across the whole program.
        top_level_demand: the same, counting top-level statements only.
        scalars: the variables with one value, not a collection: the
            scalar variables and the compiler's temporaries.
    """

    def __init__(self, program: TargetProgram) -> None:
        self.keyed_demand: Counter[str] = Counter()
        self.top_level_demand: Counter[str] = Counter()
        #: Variables each ``while`` statement's body assigns, by the
        #: statement's id (the program holds its statements, so ids are stable).
        self._loop_assigned: dict[int, frozenset[str]] = {}
        self._walk(program.statements, top_level=True)
        self.assigned = frozenset(assigned_names(program.statements))
        self.scalars = frozenset(
            name for name, info in program.variables.items() if not info.is_collection
        ) | frozenset(name for name in self.assigned if is_temporary(name))

    def assigned_in(self, loop: TargetWhile) -> frozenset[str]:
        """The variables ``loop``'s body assigns, nested loops included."""
        return self._loop_assigned[id(loop)]

    def _walk(self, statements: tuple[TargetStatement, ...], top_level: bool) -> None:
        for statement in statements:
            if isinstance(statement, TargetAssign):
                consumers = keyed_consumers(statement.term)
                self.keyed_demand.update(consumers)
                if top_level:
                    self.top_level_demand.update(consumers)
            else:
                self._loop_assigned[id(statement)] = frozenset(assigned_names(statement.body))
                self._walk(statement.body, top_level=False)
