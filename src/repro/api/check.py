"""``diablo.check``: run the whole static-diagnostics pipeline, execute nothing.

The checker drives the same passes compilation uses -- frontend parse,
Definition 3.1 restriction checking, Figure 2 translation, type/shape
inference, monoid-law probing and plan lint -- but collects every finding
into a :class:`~repro.analysis.diagnostics.DiagnosticReport` instead of
raising at the first problem::

    import repro.api as diablo

    report = diablo.check(pagerank)
    if report.has_errors:
        print(report.render())

``check`` accepts the same inputs as ``@diablo.jit``: a Python function
(annotated parameters become declared input types), an already-decorated
:class:`~repro.api.jit.JitFunction`, loop-language source text or a parsed
program.  Positional ``*types`` mirror the jit annotation markers and are
matched to the function's parameters in order, overriding annotations.

``check`` never raises on *user* errors -- unparseable programs come back as
``D001``/``D002`` diagnostics with their source line.  With ``strict=True``
every warning in the report is promoted to an error, matching what
``@diablo.jit(strict=True)`` enforces at compile time.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.analysis.diagnostics import DiagnosticReport, make_diagnostic
from repro.analysis.monoid_laws import verify_monoid
from repro.analysis.plan_lint import lint_target
from repro.analysis.restrictions import RestrictionChecker
from repro.analysis.typecheck import check_types
from repro.api.types import annotation_info
from repro.comprehension.monoids import Monoid, MonoidRegistry
from repro.errors import LexerError, ParseError
from repro.loop_lang import ast
from repro.loop_lang.python_frontend import FrontendError, FunctionSpec, parse_python_function
from repro.translate.canonicalize import canonicalize_increments
from repro.translate.target import VariableInfo
from repro.translate.translator import DiabloCompiler


def _capture_parse(report: DiagnosticReport, parse_thunk: Callable[[], Any]) -> Any:
    """Run a frontend parse, converting rejections into D0xx diagnostics."""
    try:
        return parse_thunk()
    except FrontendError as error:
        line = getattr(error, "line", None)
        if line is None:
            report.append(
                make_diagnostic(
                    "D003",
                    str(error),
                    hint="pass the function's source text instead of the function "
                    "object when the source file is unavailable",
                    source="frontend",
                )
            )
        else:
            from repro.errors import SourceLocation

            report.append(
                make_diagnostic(
                    "D001",
                    str(error),
                    location=SourceLocation(line, 1),
                    source="frontend",
                )
            )
    except (LexerError, ParseError) as error:
        report.append(
            make_diagnostic(
                "D002",
                str(error),
                location=getattr(error, "location", None),
                source="frontend",
            )
        )
    return None


def _parse_subject(
    subject: Any, report: DiagnosticReport
) -> tuple[ast.Program | None, tuple[str, ...]]:
    """Resolve ``subject`` to a loop program; parse failures become diagnostics."""
    from repro.api.jit import JitFunction
    from repro.loop_lang.parser import parse_program

    if isinstance(subject, JitFunction):
        report.subject = getattr(subject, "__name__", report.subject)
        return subject.spec.program, subject.spec.parameters
    if isinstance(subject, FunctionSpec):
        report.subject = subject.name
        return subject.program, subject.parameters
    if isinstance(subject, ast.Program):
        return subject, ()
    if isinstance(subject, str):
        program = _capture_parse(report, lambda: parse_program(subject))
        return program, ()
    if callable(subject):
        report.subject = getattr(subject, "__name__", report.subject)
        spec = _capture_parse(report, lambda: parse_python_function(subject))
        if spec is None:
            return None, ()
        return spec.program, spec.parameters
    raise TypeError(
        f"diablo.check() cannot check {subject!r}; pass a function, jit function, "
        "a FunctionSpec, loop-language source text or a parsed program"
    )


def _input_types(
    subject: Any, parameters: tuple[str, ...], types: tuple[Any, ...]
) -> dict[str, VariableInfo]:
    from repro.api.jit import JitFunction

    declared: dict[str, VariableInfo] = {}
    if isinstance(subject, JitFunction):
        declared.update(subject.input_types)
    for name, annotation in zip(parameters, types, strict=False):
        info = annotation_info(name, annotation)
        if info is not None:
            declared[name] = info
    return declared


def check(
    subject: Any,
    *types: Any,
    strict: bool = False,
    monoids: Iterable[Monoid] = (),
    functions: dict[str, Callable[..., Any]] | None = None,
) -> DiagnosticReport:
    """Statically check a program end to end; returns every finding, runs nothing.

    Args:
        subject: a Python function, ``@diablo.jit`` function, loop-language
            source text, or parsed :class:`~repro.loop_lang.ast.Program`.
        *types: optional annotation markers (``Vector``, ``Matrix[float]``,
            ``float``, ...) matched positionally to the function's parameters.
        strict: promote warnings to errors, as ``strict=True`` compilation does.
        monoids: custom monoids the program registers; each is law-probed and
            made visible to restriction checking and type inference.
        functions: names of scalar helper functions the program calls
            (signatures only; they are never invoked).
    """
    del functions  # reserved: helpers are opaque to every static pass
    report = DiagnosticReport(subject=getattr(subject, "__name__", "<program>"))

    registry = MonoidRegistry()
    for monoid in monoids:
        report.extend(verify_monoid(monoid))
        registry.register(monoid, verify=False)
    from repro.api.jit import JitFunction

    if isinstance(subject, JitFunction):
        registry = subject._monoids

    program, parameters = _parse_subject(subject, report)
    if program is None:
        return report.promote_warnings() if strict else report

    program = canonicalize_increments(program, registry)
    report.extend(RestrictionChecker(registry).check_program(program))
    if not report.has_errors:
        compiler = DiabloCompiler(monoids=registry, check_restrictions=False)
        translation = compiler.compile(program, input_types=_input_types(subject, parameters, types))
        report.extend(check_types(translation.target, registry))
        report.extend(lint_target(translation.target))
    return report.promote_warnings() if strict else report


def check_python_source(
    source: str,
    *,
    strict: bool = False,
    monoids: Iterable[Monoid] = (),
) -> DiagnosticReport:
    """:func:`check` for Python source *text* (a function or module body).

    ``repro-lint`` uses this entry point: the text never has to import, so
    fixture programs with deliberate errors can be linted from files.
    Frontend rejections come back as ``D001``/``D002`` diagnostics with the
    line numbers of the given text.
    """
    from repro.loop_lang.python_frontend import parse_python_source

    report = DiagnosticReport(subject="<module>")
    spec = _capture_parse(report, lambda: parse_python_source(source))
    if spec is None:
        return report.promote_warnings() if strict else report
    return check(spec, strict=strict, monoids=monoids)
