"""The shared diagnostic framework of the static-analysis subsystem.

Every static pass of the pipeline -- the Python frontend, the Definition 3.1
restriction checker, the comprehension type checker, the monoid-law verifier
and the plan linter -- reports its findings as :class:`Diagnostic` values
with a **stable code** (``D101``, ``D201``, ...), a severity, an optional
source location carried from the frontend, and an actionable hint.  The
codes form a public contract: tools (CI gates, editors, ``repro-lint``) key
on them, so a code is never renumbered or reused once released.

Code ranges, one block per pass (the registry below is the single source of
truth for code -> default severity / summary):

=======  ====================================================================
``D0xx`` frontend rejections (unsupported Python constructs, unreadable
         sources, parse failures)
``D1xx`` structural restrictions of Section 3.1 / 3.2 (declarations inside
         for-loops, nested while-loops, non-commutative update operators,
         reused loop indexes)
``D2xx`` the Definition 3.1 dependence restrictions (non-affine
         destinations, overlapping accesses)
``D3xx`` comprehension type/shape errors (join key type disagreement,
         monoid element type mismatch, pattern arity errors)
``D4xx`` monoid-law violations found by property probing (associativity,
         identity, commutativity)
``D5xx`` plan lint findings (cartesian products, non-co-partitionable
         joins, size-sensitive broadcast decisions)
=======  ====================================================================

:class:`DiagnosticReport` aggregates the findings of a whole
``diablo.check()`` run and renders them for humans; ``strict`` mode promotes
warnings to errors before deciding whether compilation may proceed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Iterator

from repro.errors import SourceLocation


class Severity(enum.IntEnum):
    """How bad a finding is; ordering is by increasing badness."""

    INFO = 1
    WARNING = 2
    ERROR = 3

    def __str__(self) -> str:
        return self.name.lower()


#: The stable code registry: code -> (default severity, one-line summary).
#: Append-only; codes are never renumbered or reused.
CODES: dict[str, tuple[Severity, str]] = {
    # -- D0xx: frontend ------------------------------------------------------
    "D001": (Severity.ERROR, "unsupported Python construct"),
    "D002": (Severity.ERROR, "loop-language parse error"),
    "D003": (Severity.ERROR, "unreadable function source"),
    # -- D1xx: structural restrictions (Sections 3.1/3.2) --------------------
    "D101": (Severity.ERROR, "variable declaration inside a for-loop"),
    "D102": (Severity.ERROR, "while-loop nested inside a for-loop"),
    "D103": (Severity.ERROR, "incremental update operator is not a commutative monoid"),
    "D104": (Severity.ERROR, "loop index variable reused by a nested loop"),
    # -- D2xx: Definition 3.1 dependence restrictions ------------------------
    "D201": (Severity.ERROR, "non-affine destination (Restriction 1)"),
    "D202": (Severity.ERROR, "overlapping accesses between statements (Restriction 2)"),
    # -- D3xx: comprehension types -------------------------------------------
    "D301": (Severity.ERROR, "equi-join key types disagree"),
    "D302": (Severity.ERROR, "monoid element type does not match the aggregated values"),
    "D303": (Severity.ERROR, "pattern arity does not match the generated elements"),
    "D304": (Severity.ERROR, "merged arrays have different key types"),
    # -- D4xx: monoid laws ----------------------------------------------------
    "D401": (Severity.ERROR, "monoid combine is not associative"),
    "D402": (Severity.ERROR, "monoid zero is not an identity"),
    "D403": (Severity.ERROR, "monoid claims commutativity but combine is not commutative"),
    "D404": (Severity.INFO, "monoid laws could not be probed"),
    # -- D5xx: plan lint ------------------------------------------------------
    "D501": (Severity.WARNING, "cartesian / broadcast nested-loop product"),
    "D502": (Severity.WARNING, "join cannot reuse partition placement"),
    "D503": (Severity.WARNING, "broadcast decision is size-sensitive near the threshold"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis pass.

    Attributes:
        code: the stable registry code (``D101``, ...).
        severity: :class:`Severity` of this occurrence (usually the code's
            registry default; strict mode may promote it).
        message: the human-readable description of this occurrence.
        hint: an actionable work-around, when one is known.
        location: the source position the finding points at, when the
            pipeline could carry one from the frontend.
        statement: the loop-language statement (or a string rendering of
            whatever object) the finding is about; excluded from equality so
            reports can be compared structurally in tests.
        source: the pass that produced the finding (``"restrictions"``,
            ``"typecheck"``, ``"monoid-laws"``, ``"plan-lint"``, ...).
    """

    code: str
    severity: Severity
    message: str
    hint: str | None = None
    location: SourceLocation | None = None
    statement: Any = field(default=None, compare=False)
    source: str = ""

    def __str__(self) -> str:
        text = self.message
        if self.location is not None and self.location.line > 0:
            text += f" (line {self.location.line})"
        if self.statement is not None:
            text += f" (in statement: {self.statement})"
        if self.hint:
            text += f"\n  hint: {self.hint}"
        return text

    def render(self) -> str:
        """The one-finding pretty form used by reports and ``repro-lint``."""
        where = ""
        if self.location is not None and self.location.line > 0:
            where = f"line {self.location.line}: "
        lines = [f"{self.code} {self.severity}: {where}{self.message}"]
        if self.statement is not None:
            lines.append(f"    in: {self.statement}")
        if self.hint:
            lines.append(f"    hint: {self.hint}")
        return "\n".join(lines)

    def promote(self) -> "Diagnostic":
        """This finding with warnings raised to errors (strict mode)."""
        if self.severity is Severity.WARNING:
            return replace(self, severity=Severity.ERROR)
        return self


def make_diagnostic(
    code: str,
    message: str,
    *,
    hint: str | None = None,
    location: SourceLocation | None = None,
    statement: Any = None,
    source: str = "",
    severity: Severity | None = None,
) -> Diagnostic:
    """Build a :class:`Diagnostic`, defaulting the severity from the registry."""
    if code not in CODES:
        raise ValueError(f"unknown diagnostic code {code!r}; register it in diagnostics.CODES")
    default_severity, _ = CODES[code]
    return Diagnostic(
        code=code,
        severity=severity if severity is not None else default_severity,
        message=message,
        hint=hint,
        location=location,
        statement=statement,
        source=source,
    )


def location_of(statement: Any) -> SourceLocation | None:
    """The source location attached to a loop-AST statement, if a real one."""
    location = getattr(statement, "location", None)
    if isinstance(location, SourceLocation) and location.line > 0:
        return location
    return None


@dataclass
class DiagnosticReport:
    """Every finding of one ``diablo.check()`` / ``repro-lint`` run.

    Iterable (yields diagnostics in pass order) and truthy exactly when it
    holds at least one finding.
    """

    diagnostics: list[Diagnostic] = field(default_factory=list)
    subject: str = ""

    def extend(self, findings: Iterator[Diagnostic] | list[Diagnostic]) -> None:
        self.diagnostics.extend(findings)

    def append(self, finding: Diagnostic) -> None:
        self.diagnostics.append(finding)

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def codes(self) -> list[str]:
        """The distinct codes reported, sorted."""
        return sorted({d.code for d in self.diagnostics})

    def promote_warnings(self) -> "DiagnosticReport":
        """A copy with every warning raised to an error (strict mode)."""
        return DiagnosticReport(
            [d.promote() for d in self.diagnostics], subject=self.subject
        )

    def render(self) -> str:
        """The multi-line human-readable report."""
        header = f"check of {self.subject}: " if self.subject else ""
        if not self.diagnostics:
            return f"{header}no findings"
        ordered = sorted(
            self.diagnostics, key=lambda d: (-int(d.severity), d.code)
        )
        counts = (
            f"{len(self.errors())} error(s), {len(self.warnings())} warning(s), "
            f"{len(self.diagnostics) - len(self.errors()) - len(self.warnings())} note(s)"
        )
        body = "\n".join(d.render() for d in ordered)
        return f"{header}{counts}\n{body}"

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)
