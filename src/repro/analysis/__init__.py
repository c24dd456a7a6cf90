"""Static analysis: dependence restrictions and whole-pipeline diagnostics.

* :mod:`repro.analysis.diagnostics` -- the shared :class:`Diagnostic`
  framework (stable ``Dxxx`` codes, severities, source spans, reports).
* :mod:`repro.analysis.lvalues` -- readers / writers / aggregators of a
  statement, L-value overlap, loop contexts and destination indexes.
* :mod:`repro.analysis.affine` -- affine expressions and affine destinations.
* :mod:`repro.analysis.restrictions` -- the Definition 3.1 checker that
  decides whether a for-loop is parallelizable and produces actionable
  diagnostics when it is not.
* :mod:`repro.analysis.typecheck` -- type/shape inference over translated
  comprehension terms (join key disagreement, monoid element mismatches,
  pattern arity).
* :mod:`repro.analysis.monoid_laws` -- registration-time property probing of
  user monoids (associativity, identity, claimed commutativity).
* :mod:`repro.analysis.plan_lint` -- shuffle hazards in the translated terms
  and in lowered plan trees (products, non-co-partitioned joins,
  size-sensitive broadcast decisions).

``diablo.check()`` (:func:`repro.api.check.check`) runs all of them in pass
order and aggregates the findings into one report.
"""

from repro.analysis.diagnostics import (
    CODES,
    Diagnostic,
    DiagnosticReport,
    Severity,
    location_of,
    make_diagnostic,
)
from repro.analysis.monoid_laws import require_lawful, verify_monoid
from repro.analysis.plan_lint import lint_plan, lint_target
from repro.analysis.typecheck import check_types
from repro.analysis.lvalues import (
    StatementAccess,
    aggregators,
    lvalue_overlap,
    lvalue_root_name,
    readers,
    writers,
)
from repro.analysis.affine import is_affine_expression, is_affine_destination
from repro.analysis.restrictions import (
    RestrictionChecker,
    check_program,
    check_statement,
)

__all__ = [
    "CODES",
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "location_of",
    "make_diagnostic",
    "verify_monoid",
    "require_lawful",
    "lint_plan",
    "lint_target",
    "check_types",
    "StatementAccess",
    "aggregators",
    "readers",
    "writers",
    "lvalue_overlap",
    "lvalue_root_name",
    "is_affine_expression",
    "is_affine_destination",
    "RestrictionChecker",
    "check_program",
    "check_statement",
]
