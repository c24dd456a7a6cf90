"""The Definition 3.1 parallelization restrictions.

A for-loop statement ``s`` is *affine* (and therefore parallelizable by the
Figure 2 rules) when:

1. for any non-incremental update ``d := e`` in ``s``, ``affine(d, s)`` -- the
   destination is stored at a different location on every iteration;
2. there are no dependencies between any two statements ``s1`` and ``s2`` in
   ``s``: no L-values ``d1 ∈ (A[s1] ∪ W[s1])`` and ``d2 ∈ R[s2]`` with
   ``overlap(d1, d2)``, except
   (a) ``d1 ∈ W[s1]``, ``d1 = d2`` and ``s1`` precedes ``s2``;
   (b) ``d1 ∈ A[s1]``, ``d1 = d2``, ``s1`` precedes ``s2``, ``affine(d2, s2)``
       and ``context(s1) ∩ context(s2) = indexes(d1)``.

The checker reports every violation it finds as a
:class:`~repro.analysis.diagnostics.Diagnostic` with a stable code (``D1xx``
structural, ``D2xx`` dependence) and the paper's suggested work-arounds as
hints (e.g. promote a scalar temporary to an array indexed by the surrounding
loop variables).  Additional structural checks reflect the syntax
restrictions of Section 3.1: no variable declarations inside for-loops,
incremental updates must use a commutative monoid, and (a limitation of this
reproduction, documented in DESIGN.md) no while-loops nested inside
for-loops.
"""

from __future__ import annotations

from repro.analysis.affine import is_affine_destination
from repro.analysis.diagnostics import Diagnostic, location_of, make_diagnostic
from repro.analysis.lvalues import (
    StatementAccess,
    collect_accesses,
    lvalue_indexes,
    lvalue_overlap,
)
from repro.comprehension.monoids import DEFAULT_MONOIDS, MonoidRegistry
from repro.errors import RestrictionError
from repro.loop_lang import ast


def _violation(code: str, message: str, statement: ast.Stmt | None, hint: str) -> Diagnostic:
    return make_diagnostic(
        code,
        message,
        hint=hint,
        location=location_of(statement),
        statement=statement,
        source="restrictions",
    )


class RestrictionChecker:
    """Checks loop-language programs against the Definition 3.1 restrictions."""

    def __init__(self, monoids: MonoidRegistry | None = None) -> None:
        self.monoids = monoids or DEFAULT_MONOIDS

    # -- public API -----------------------------------------------------------

    def check_program(self, program: ast.Program) -> list[Diagnostic]:
        """Check every maximal for-loop in ``program``; return all violations."""
        violations: list[Diagnostic] = []
        for stmt in program.statements:
            violations.extend(self._check_region(stmt))
        return violations

    def check_statement(self, stmt: ast.Stmt) -> list[Diagnostic]:
        """Check a single top-level statement."""
        return self._check_region(stmt)

    def require(self, program: ast.Program) -> None:
        """Raise :class:`RestrictionError` if ``program`` has any violation."""
        violations = self.check_program(program)
        if violations:
            messages = "\n".join(str(v) for v in violations)
            hints = [v.hint for v in violations if v.hint]
            raise RestrictionError(
                f"program violates the parallelization restrictions:\n{messages}", hints
            )

    # -- traversal -------------------------------------------------------------

    def _check_region(self, stmt: ast.Stmt) -> list[Diagnostic]:
        """Find maximal for-loops under ``stmt`` (descending through sequential
        constructs) and check each of them."""
        if isinstance(stmt, (ast.ForRange, ast.ForIn)):
            return self._check_for_loop(stmt)
        if isinstance(stmt, ast.While):
            return self._check_region(stmt.body)
        if isinstance(stmt, ast.If):
            violations = self._check_region(stmt.then_branch)
            if stmt.else_branch is not None:
                violations += self._check_region(stmt.else_branch)
            return violations
        if isinstance(stmt, ast.Block):
            violations = []
            for inner in stmt.statements:
                violations.extend(self._check_region(inner))
            return violations
        # Plain assignments / declarations outside loops are always fine.
        return []

    # -- the per-loop checks -----------------------------------------------------

    def _check_for_loop(self, loop: ast.Stmt) -> list[Diagnostic]:
        violations: list[Diagnostic] = []
        violations.extend(self._structural_checks(loop))
        accesses = collect_accesses(loop)
        loop_indexes = frozenset(ast.loop_index_variables(loop))
        violations.extend(self._restriction_one(accesses, loop_indexes))
        violations.extend(self._restriction_two(accesses, loop_indexes))
        return violations

    def _structural_checks(self, loop: ast.Stmt) -> list[Diagnostic]:
        violations: list[Diagnostic] = []
        seen_indexes: set[str] = set()
        for node in ast.walk_statements(loop):
            if isinstance(node, ast.VarDecl) and node is not loop:
                violations.append(
                    _violation(
                        "D101",
                        "variable declarations cannot appear inside for-loops (Section 3.1)",
                        node,
                        hint="declare the variable before the loop, or promote it to an array "
                        "indexed by the loop variables",
                    )
                )
            if isinstance(node, ast.While):
                violations.append(
                    _violation(
                        "D102",
                        "a while-loop nested inside a for-loop makes the for-loop sequential; "
                        "this reproduction does not parallelize such loops",
                        node,
                        hint="hoist the while-loop outside the for-loop",
                    )
                )
            if isinstance(node, ast.IncrementalUpdate):
                if not self.monoids.is_commutative(node.op):
                    violations.append(
                        _violation(
                            "D103",
                            f"incremental update operator {node.op!r} is not a registered "
                            "commutative monoid (Section 3.5)",
                            node,
                            hint="register a commutative monoid for the operator or rewrite the "
                            "update",
                        )
                    )
            if isinstance(node, (ast.ForRange, ast.ForIn)):
                if node.variable in seen_indexes:
                    violations.append(
                        _violation(
                            "D104",
                            f"loop index variable {node.variable!r} is reused by a nested loop; "
                            "every for-loop must have a distinct index variable (Section 3.2)",
                            node,
                            hint="rename the inner loop variable",
                        )
                    )
                seen_indexes.add(node.variable)
        return violations

    def _restriction_one(
        self, accesses: list[StatementAccess], loop_indexes: frozenset[str]
    ) -> list[Diagnostic]:
        violations: list[Diagnostic] = []
        for access in accesses:
            stmt = access.statement
            if isinstance(stmt, ast.Assign):
                if not is_affine_destination(stmt.destination, access.context):
                    violations.append(
                        _violation(
                            "D201",
                            f"destination {stmt.destination} of a non-incremental update is not "
                            f"affine in the loop indexes {sorted(access.context)} (Restriction 1)",
                            stmt,
                            hint="promote the destination to an array indexed by all surrounding "
                            "loop variables (Section 3.2 shows this rewrite for matrix "
                            "factorization)",
                        )
                    )
        return violations

    def _restriction_two(
        self, accesses: list[StatementAccess], loop_indexes: frozenset[str]
    ) -> list[Diagnostic]:
        violations: list[Diagnostic] = []
        for first in accesses:
            for second in accesses:
                violations.extend(self._check_pair(first, second, loop_indexes))
        return violations

    def _check_pair(
        self, first: StatementAccess, second: StatementAccess, loop_indexes: frozenset[str]
    ) -> list[Diagnostic]:
        violations: list[Diagnostic] = []
        for d1, kind in [(d, "writer") for d in first.writers] + [
            (d, "aggregator") for d in first.aggregators
        ]:
            for d2 in second.readers:
                if not lvalue_overlap(d1, d2):
                    continue
                if self._excepted(first, second, d1, d2, kind, loop_indexes):
                    continue
                violations.append(
                    _violation(
                        "D202",
                        f"{kind} {d1} of one statement overlaps reader {d2} of another "
                        "statement in the same loop (Restriction 2)",
                        second.statement,
                        hint="split the loop, read from a copy of the array, or rewrite the "
                        "update as an incremental update with a commutative operator",
                    )
                )
        return violations

    def _excepted(
        self,
        first: StatementAccess,
        second: StatementAccess,
        d1: ast.Expr,
        d2: ast.Expr,
        kind: str,
        loop_indexes: frozenset[str],
    ) -> bool:
        precedes = first.order < second.order
        same = d1 == d2
        if kind == "writer":
            # Exception (a).
            return same and precedes
        # Exception (b) for aggregators.
        if not (same and precedes):
            return False
        if not is_affine_destination(d2, second.context):
            return False
        intersection = frozenset(first.context & second.context)
        return intersection == lvalue_indexes(d1, loop_indexes)


def check_program(program: ast.Program, monoids: MonoidRegistry | None = None) -> list[Diagnostic]:
    """Convenience wrapper: check a whole program."""
    return RestrictionChecker(monoids).check_program(program)


def check_statement(stmt: ast.Stmt, monoids: MonoidRegistry | None = None) -> list[Diagnostic]:
    """Convenience wrapper: check a single statement."""
    return RestrictionChecker(monoids).check_statement(stmt)
