"""Plan-level lint: shuffle hazards visible before (and after) planning.

Two complementary entry points:

* :func:`lint_target` walks the translated comprehension terms **statically**
  (no data, no planner) and mirrors the evaluator's join-detection logic to
  predict the plan shape.  It flags products -- dataset generators the
  evaluator will pair without an equi-join key (``D501``).
* :func:`lint_plan` walks an actual lowered :class:`~repro.algebra.plan.PlanNode`
  tree and reads the planner's own annotations: hash joins where *neither*
  side could reuse an existing placement -- so both sides shuffle -- are
  reported with the planner's notes as the "why" (``D502``), and every
  product node gets a note tying its broadcast-vs-cartesian outcome to
  ``broadcast_join_threshold`` (``D503``).

Everything here is a **warning** (or info), never an error: a product can be
the right plan -- KMeans deliberately pairs every point with every centroid --
so the lint reports the cost, and strict mode decides whether cost is fatal.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.algebra import plan as plan_mod
from repro.analysis.diagnostics import Diagnostic, location_of, make_diagnostic
from repro.comprehension import ir
from repro.errors import SourceLocation
from repro.translate.target import TargetAssign, TargetProgram


def _dataset_names(target: TargetProgram) -> set[str]:
    """Variables the evaluator scans as distributed datasets."""
    return {
        name
        for name, info in target.variables.items()
        if info.kind in ("array", "collection")
    }


def _has_join_condition(
    qualifiers: list[ir.Qualifier], position: int, bound: set[str], new_variables: set[str]
) -> bool:
    """Mirror of the evaluator's equi-join key detection (see evaluator.py)."""
    for later in qualifiers[position + 1 :]:
        if isinstance(later, ir.GroupBy):
            return False
        if not isinstance(later, ir.Condition):
            continue
        for term in ir.conjuncts(later.term):
            if not (isinstance(term, ir.CBinOp) and term.op == "=="):
                continue
            left_vars = ir.free_variables(term.left)
            right_vars = ir.free_variables(term.right)
            for one, other in ((left_vars, right_vars), (right_vars, left_vars)):
                if one & bound and other & new_variables and not (one & new_variables):
                    return True
    return False


class _TargetLinter:
    def __init__(self, target: TargetProgram) -> None:
        self.datasets = _dataset_names(target)
        self.diagnostics: list[Diagnostic] = []
        self._location: SourceLocation | None = None
        self._statement: object = None

    def _report(self, code: str, message: str, hint: str | None = None) -> None:
        self.diagnostics.append(
            make_diagnostic(
                code,
                message,
                hint=hint,
                location=self._location,
                statement=self._statement,
                source="plan-lint",
            )
        )

    def lint_assignment(self, assignment: TargetAssign) -> None:
        self._location = location_of(assignment.origin)
        self._statement = assignment.origin if assignment.origin is not None else str(assignment)
        self._walk(assignment.term)

    def _walk(self, term: ir.Term) -> None:
        if isinstance(term, ir.Comprehension):
            self._lint_comprehension(term)
            return
        for child in term.children():
            self._walk(child)

    def _lint_comprehension(self, comp: ir.Comprehension) -> None:
        qualifiers = list(comp.qualifiers)
        bound: set[str] = set()
        dataset_generators = 0
        for position, qualifier in enumerate(qualifiers):
            if isinstance(qualifier, ir.Generator):
                domain = qualifier.domain
                self._walk(domain)
                is_dataset = isinstance(domain, ir.RangeTerm) or (
                    isinstance(domain, ir.CVar) and domain.name in self.datasets
                )
                new_variables = set(qualifier.pattern.variables())
                if is_dataset and dataset_generators > 0:
                    if not _has_join_condition(qualifiers, position, bound, new_variables):
                        label = str(domain)
                        self._report(
                            "D501",
                            f"no equi-join key links generator {qualifier} to the "
                            f"earlier generators; the evaluator pairs every row with "
                            f"every element of {label} (broadcast nested-loop join, "
                            f"cartesian above the broadcast threshold)",
                            hint="add a condition equating an expression over the new "
                            "generator's variables with one over the earlier ones, or "
                            "keep the small side under broadcast_join_threshold",
                        )
                if is_dataset:
                    dataset_generators += 1
                bound.update(new_variables)
            elif isinstance(qualifier, ir.LetBinding):
                self._walk(qualifier.term)
                bound.update(qualifier.pattern.variables())
            elif isinstance(qualifier, ir.Condition):
                self._walk(qualifier.term)
            elif isinstance(qualifier, ir.GroupBy):
                bound.update(qualifier.pattern.variables())
        self._walk(comp.head)


def lint_target(target: TargetProgram) -> list[Diagnostic]:
    """Statically lint every assignment of a translated program."""
    linter = _TargetLinter(target)
    for assignment in target.assignments():
        linter.lint_assignment(assignment)
    return linter.diagnostics


# ---------------------------------------------------------------------------
# Runtime plan trees
# ---------------------------------------------------------------------------


def _walk_plan(node: plan_mod.PlanNode) -> Iterable[plan_mod.PlanNode]:
    yield node
    for child in node.children:
        yield from _walk_plan(child)


def lint_plan(root: plan_mod.PlanNode, config: Any = None) -> list[Diagnostic]:
    """Lint a lowered plan tree using the planner's own annotations."""
    threshold = getattr(config, "broadcast_join_threshold", None)
    near = f" (broadcast_join_threshold = {threshold} rows)" if threshold is not None else ""
    diagnostics: list[Diagnostic] = []
    for node in _walk_plan(root):
        if isinstance(node, plan_mod.ProductNode):
            diagnostics.append(
                make_diagnostic(
                    "D501",
                    f"{node.label}: no join key; every left row pairs with every "
                    f"row of the product side",
                    hint="a small side broadcasts; a large one degrades to a cartesian "
                    "product",
                    source="plan-lint",
                )
            )
            diagnostics.append(
                make_diagnostic(
                    "D503",
                    f"{node.label} broadcasts only while the product side stays "
                    f"at or under the broadcast threshold{near}; above it the plan "
                    "becomes a cartesian product",
                    source="plan-lint",
                )
            )
        elif isinstance(node, plan_mod.HashJoinNode):
            if not node.left_prepartitioned and not node.right_prepartitioned:
                why = (
                    "; planner notes: " + "; ".join(node.notes)
                    if node.notes
                    else "; neither side's existing placement matches the join key"
                )
                diagnostics.append(
                    make_diagnostic(
                        "D502",
                        f"{node.label}: the planner could not co-partition this "
                        f"join, so both sides shuffle{why}",
                        hint="stable placements come from reusing the same key "
                        "expression across statements (see the planner's "
                        "'already placed' notes on co-partitioned joins)",
                        source="plan-lint",
                    )
                )
        for note in node.notes:
            if "cartesian" in note:
                diagnostics.append(
                    make_diagnostic(
                        "D501",
                        f"{node.label}: {note}",
                        hint="both sides exceeded broadcast_join_threshold at force "
                        "time; the runtime fell back to a full cartesian product",
                        source="plan-lint",
                    )
                )
    return diagnostics
