"""The target language of the translation (Section 3.8).

Target code is a list of statements where

* an **assignment** ``v := e`` binds a variable to the value of a
  comprehension term ``e`` -- for array variables the term produces the whole
  new content of the array (a bag of key-value pairs), for scalar variables it
  produces a bag holding the new value;
* a **while** statement repeats a block of target code while a scalar boolean
  comprehension evaluates to true;
* a **code block** is a list of statements evaluated in order.

The target code is what the DISC algebra compiler consumes: every assignment's
right-hand side becomes a dataflow plan over the distributed runtime.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Union

from repro.comprehension import ir
from repro.loop_lang import ast

if TYPE_CHECKING:
    from repro.translate.facts import ProgramFacts


@dataclass(frozen=True)
class VariableInfo:
    """Static information about a program variable.

    Attributes:
        name: the variable name.
        kind: ``"array"`` for sparse vectors / matrices / maps (key-value
            collections), ``"collection"`` for un-indexed input bags, and
            ``"scalar"`` for everything else.
        declared_type: the loop-language type from a ``var`` declaration, when
            one exists.
        is_input: True when the variable is free in the program (it must be
            supplied by the caller at run time).
    """

    name: str
    kind: str
    declared_type: ast.Type | None = None
    is_input: bool = False

    @property
    def is_array(self) -> bool:
        return self.kind == "array"

    @property
    def is_collection(self) -> bool:
        return self.kind in ("array", "collection")


@dataclass(frozen=True)
class TargetAssign:
    """A bulk assignment ``variable := term``.

    ``scalar`` selects the assignment semantics: scalar assignments take the
    single element of the bag produced by ``term``; array assignments replace
    the whole array content with the produced key-value pairs.
    """

    variable: str
    term: ir.Term
    scalar: bool = False
    #: The loop-language statement this assignment was generated from (for
    #: error messages and provenance in tests); not part of equality.
    origin: ast.Stmt | None = field(default=None, compare=False)
    #: The compile-time rewrite that made this statement, as the runner
    #: traces it when the statement runs; not part of equality.
    rule: str | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"{self.variable} := {self.term}"


def is_temporary(name: str) -> bool:
    """Whether ``name`` is a compiler temporary (a shared scan's ``scan$N``).

    Temporaries carry the ``$`` of fresh names, which no loop-language or
    Python identifier can; they are never program outputs."""
    return "$" in name


@dataclass(frozen=True)
class TargetWhile:
    """A sequential loop ``while(condition, body)``."""

    condition: ir.Term
    body: tuple["TargetStatement", ...]

    def __str__(self) -> str:
        inner = "; ".join(str(s) for s in self.body)
        return f"while ({self.condition}) {{ {inner} }}"


TargetStatement = Union[TargetAssign, TargetWhile]


@dataclass(frozen=True)
class TargetProgram:
    """A translated program: target statements plus variable metadata."""

    statements: tuple[TargetStatement, ...]
    variables: dict[str, VariableInfo]
    #: Row-segment functions the planner generated for this program's plans
    #: (compiled factories by segment structure, filled in as the program
    #: runs; see :mod:`repro.algebra.codegen`); not part of equality.
    segments: dict[Any, Any] = field(default_factory=dict, compare=False, repr=False)
    #: The annotated plans the evaluator built for this program's
    #: comprehensions, with their structural facts (built on each one's
    #: first run, bound on every run; see :mod:`repro.algebra.evaluator`);
    #: not part of equality.
    plans: dict[Any, Any] = field(default_factory=dict, compare=False, repr=False)

    def __str__(self) -> str:
        return "\n".join(str(s) for s in self.statements)

    @functools.cached_property
    def facts(self) -> "ProgramFacts":
        """Def-use facts (:class:`~repro.translate.facts.ProgramFacts`),
        computed on first use and kept, like :attr:`segments`."""
        from repro.translate.facts import ProgramFacts  # facts imports this module

        return ProgramFacts(self)

    def array_names(self) -> set[str]:
        """Names of variables stored as key-value datasets."""
        return {name for name, info in self.variables.items() if info.is_array}

    def input_names(self) -> set[str]:
        """Names of free variables the caller must supply."""
        return {name for name, info in self.variables.items() if info.is_input}

    def assignments(self) -> Iterator[TargetAssign]:
        """All assignments, including those nested in while bodies."""

        def walk(statements: tuple[TargetStatement, ...]) -> Iterator[TargetAssign]:
            for statement in statements:
                if isinstance(statement, TargetAssign):
                    yield statement
                elif isinstance(statement, TargetWhile):
                    yield from walk(statement.body)

        return walk(self.statements)
