"""Exception hierarchy shared by every subsystem of the DIABLO reproduction.

The compiler pipeline reports problems through these exceptions so that callers
(and tests) can distinguish *where* a program was rejected:

* :class:`LexerError` / :class:`ParseError` -- the program is not syntactically
  a loop-language program (Figure 1 of the paper).
* :class:`RestrictionError` -- the program parses but violates the
  parallelization restrictions of Definition 3.1 (Section 3.2).
* :class:`TranslationError` -- an internal failure while applying the Figure 2
  rules (these indicate a bug, not a user error).
* :class:`CompilationError` -- the comprehension-to-DISC-algebra compiler could
  not produce a plan.
* :class:`ExecutionError` -- a runtime failure while evaluating a plan or a
  loop program.
"""

from __future__ import annotations

from typing import NamedTuple


class DiabloError(Exception):
    """Base class for every error raised by the reproduction."""


class SourceLocation(NamedTuple):
    """A position inside a loop-language source text (a tuple: the lexer
    builds one per token).

    Attributes:
        line: 1-based line number.
        column: 1-based column number.
    """

    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        if self.line <= 0:
            return "<unknown>"
        return f"line {self.line}, column {self.column}"


class LexerError(DiabloError):
    """Raised when the tokenizer meets a character it cannot interpret."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.location = location or SourceLocation()
        super().__init__(f"{message} at {self.location}")


class ParseError(DiabloError):
    """Raised when the parser cannot build an AST from the token stream."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.location = location or SourceLocation()
        super().__init__(f"{message} at {self.location}")


class RestrictionError(DiabloError):
    """Raised when a program violates the Definition 3.1 restrictions.

    The ``hints`` list carries actionable suggestions, e.g. the paper's advice
    to promote a scalar temporary to an array indexed by the loop variables.
    """

    def __init__(self, message: str, hints: list[str] | None = None):
        self.hints = list(hints or [])
        full = message
        if self.hints:
            full += "\n" + "\n".join(f"  hint: {h}" for h in self.hints)
        super().__init__(full)


class MonoidLawError(DiabloError):
    """Raised when a registered monoid fails property-based law probing.

    The monoid-law verifier (:mod:`repro.analysis.monoid_laws`) probes
    associativity, the identity laws and (when claimed) commutativity over
    sample elements at registration time; a counter-example is a user error
    that would otherwise surface as silently wrong distributed results.
    """

    def __init__(self, message: str, violations: list | None = None):
        self.violations = list(violations or [])
        super().__init__(message)


class TranslationError(DiabloError):
    """Raised when the Figure 2 translation rules fail unexpectedly."""


class CompilationError(DiabloError):
    """Raised when a comprehension cannot be compiled to a DISC plan."""


class StaticCheckError(CompilationError):
    """Raised in strict mode when static diagnostics block compilation.

    ``diagnostics`` holds the :class:`repro.analysis.diagnostics.Diagnostic`
    findings (warnings promoted to errors) that caused the rejection.
    """

    def __init__(self, message: str, diagnostics: list | None = None):
        self.diagnostics = list(diagnostics or [])
        super().__init__(message)


class ExecutionError(DiabloError):
    """Raised when evaluating a plan or interpreting a loop program fails."""


class WorkerLostError(ExecutionError):
    """Raised by the cluster backend when a worker process dies mid-job.

    A worker counts as lost when its control socket closes unexpectedly,
    a request times out, or it stops answering heartbeats.  The cluster is
    fail-fast (no lineage, no task retry), so losing a worker fails the
    computation promptly instead of hanging on its resident state.
    """


class InterpreterError(ExecutionError):
    """Raised by the sequential loop-language interpreter."""
