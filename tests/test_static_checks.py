"""Tests for the whole-pipeline static diagnostics engine.

Covers the diagnostic framework (stable codes, golden rendering, spans), the
type/shape inference pass, the plan linter, ``diablo.check`` end to end, the
``strict`` knob on configuration / ``@diablo.jit``, the frontend's
line-number contract, and the ``repro-lint`` CLI over the committed
known-bad fixture.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.api as diablo
from repro.analysis.cli import main as lint_main
from repro.analysis.diagnostics import (
    CODES,
    DiagnosticReport,
    Severity,
    make_diagnostic,
)
from repro.analysis.plan_lint import lint_plan, lint_target
from repro.analysis.typecheck import check_types
from repro.api import Map, Vector
from repro.comprehension.monoids import MonoidRegistry
from repro.errors import SourceLocation, StaticCheckError
from repro.loop_lang import ast
from repro.loop_lang.python_frontend import FrontendError, parse_python_source
from repro.translate.target import VariableInfo
from repro.translate.translator import DiabloCompiler

FIXTURES = Path(__file__).parent / "fixtures"


def compile_source(source: str, **types: ast.Type):
    """Translate loop-language source with declared input types."""
    infos = {}
    for name, typ in types.items():
        kind = "array" if ast.is_array_type(typ) else (
            "collection" if ast.is_collection_type(typ) else "scalar"
        )
        infos[name] = VariableInfo(name, kind, typ, True)
    return DiabloCompiler(MonoidRegistry()).compile(source, input_types=infos)


# ---------------------------------------------------------------------------
# Diagnostic framework
# ---------------------------------------------------------------------------


class TestDiagnosticFramework:
    def test_code_registry_is_stable(self):
        # Released codes with their severities; appending is fine, changing
        # or removing any entry here is a breaking change.
        released = {
            "D001": Severity.ERROR, "D002": Severity.ERROR, "D003": Severity.ERROR,
            "D101": Severity.ERROR, "D102": Severity.ERROR, "D103": Severity.ERROR,
            "D104": Severity.ERROR,
            "D201": Severity.ERROR, "D202": Severity.ERROR,
            "D301": Severity.ERROR, "D302": Severity.ERROR, "D303": Severity.ERROR,
            "D304": Severity.ERROR,
            "D401": Severity.ERROR, "D402": Severity.ERROR, "D403": Severity.ERROR,
            "D404": Severity.INFO,
            "D501": Severity.WARNING, "D502": Severity.WARNING,
            "D503": Severity.WARNING, "D504": Severity.WARNING,
        }
        for code, severity in released.items():
            assert CODES[code][0] is severity, code

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            make_diagnostic("D999", "nope")

    def test_golden_rendering(self):
        diagnostic = make_diagnostic(
            "D201",
            "destination is not affine",
            hint="promote the scalar",
            location=SourceLocation(7, 3),
            statement="R[i*i] := V[i];",
        )
        assert diagnostic.render() == (
            "D201 error: line 7: destination is not affine\n"
            "    in: R[i*i] := V[i];\n"
            "    hint: promote the scalar"
        )

    def test_promote_only_touches_warnings(self):
        warning = make_diagnostic("D501", "product")
        info = make_diagnostic("D404", "unprobeable")
        assert warning.promote().severity is Severity.ERROR
        assert info.promote().severity is Severity.INFO

    def test_report_counts_and_render(self):
        report = DiagnosticReport(subject="demo")
        assert not report and not report.has_errors
        assert report.render() == "check of demo: no findings"
        report.append(make_diagnostic("D501", "product here"))
        assert report.warnings() and not report.has_errors
        strict = report.promote_warnings()
        assert strict.has_errors
        assert len(report.warnings()) == 1  # original untouched


# ---------------------------------------------------------------------------
# Restriction checker through the framework
# ---------------------------------------------------------------------------


class TestRestrictionDiagnostics:
    def test_while_in_for_has_code_and_span(self):
        report = diablo.check(
            "for i = 0, 9 do {\n  while (x < 3) x := x + 1;\n};"
        )
        (finding,) = report.errors()
        assert finding.code == "D102"
        assert finding.location is not None and finding.location.line == 2

    def test_scalar_temporary_hint_text(self):
        # Assigning a bare scalar inside a for-loop: the hint must carry the
        # paper's promote-to-array advice (Section 3.2).
        report = diablo.check("for i = 0, 9 do t := V[i] * 2;")
        codes = report.codes()
        assert "D201" in codes
        hint = next(d.hint for d in report if d.code == "D201")
        assert "promote the destination to an array" in hint

    def test_declaration_inside_for_is_d101(self):
        report = diablo.check(
            "for i = 0, 9 do {\n  var t: double = 0.0;\n  W[i] := t;\n};"
        )
        assert "D101" in report.codes()

    def test_reused_index_is_d104(self):
        report = diablo.check(
            "for i = 0, 9 do\n  for i = 0, 4 do\n    W[i] := 0.0;"
        )
        assert "D104" in report.codes()


# ---------------------------------------------------------------------------
# Type/shape inference
# ---------------------------------------------------------------------------


class TestTypecheck:
    def test_matching_join_keys_are_clean(self):
        result = compile_source(
            "var R: vector[double] = vector();\n"
            "for i = 0, 9 do R[i] := V[i] * W[i];",
            V=ast.vector_of(ast.DOUBLE),
            W=ast.vector_of(ast.DOUBLE),
        )
        assert check_types(result.target) == []

    def test_string_keyed_map_joined_with_long_index_is_d301(self):
        result = compile_source(
            "var R: vector[double] = vector();\n"
            "for i = 0, 9 do R[i] := V[i] * W[i];",
            V=ast.vector_of(ast.DOUBLE),
            W=ast.map_of(ast.STRING, ast.DOUBLE),
        )
        findings = check_types(result.target)
        assert [d.code for d in findings] == ["D301"]
        assert findings[0].location is not None and findings[0].location.line == 2

    def test_string_values_summed_with_plus_is_d302(self):
        result = compile_source(
            "var S: vector[double] = vector();\n"
            "for i = 0, 9 do S[i] += N[i];",
            N=ast.vector_of(ast.STRING),
        )
        assert "D302" in {d.code for d in check_types(result.target)}

    def test_unknown_types_stay_silent(self):
        # No declared types at all: inference must not guess.
        result = compile_source(
            "var R: vector[double] = vector();\n"
            "for i = 0, 9 do R[i] := V[i] * W[i];"
        )
        assert check_types(result.target) == []


# ---------------------------------------------------------------------------
# Plan lint
# ---------------------------------------------------------------------------


class TestPlanLint:
    MATMUL = (
        "var C: matrix[double] = matrix();\n"
        "for i = 0, 9 do\n"
        "  for j = 0, 9 do\n"
        "    for k = 0, 9 do\n"
        "      C[i, j] += A[i, k] * B[k, j];"
    )
    PRODUCT = (
        "var S: vector[double] = vector();\n"
        "for i = 0, 9 do\n"
        "  for j = 0, 9 do\n"
        "    S[i] += P[i] * Q[j];"
    )

    def test_joined_matmul_is_clean(self):
        result = compile_source(
            self.MATMUL, A=ast.matrix_of(ast.DOUBLE), B=ast.matrix_of(ast.DOUBLE)
        )
        assert lint_target(result.target) == []

    def test_product_is_warning_not_error(self):
        result = compile_source(
            self.PRODUCT, P=ast.vector_of(ast.DOUBLE), Q=ast.vector_of(ast.DOUBLE)
        )
        findings = lint_target(result.target)
        assert [d.code for d in findings] == ["D501"]
        assert all(d.severity is Severity.WARNING for d in findings)
        assert findings[0].location is not None and findings[0].location.line == 4

    def test_lint_plan_flags_product_nodes(self):
        from repro.algebra.plan import ProductNode, ScanNode

        root = ProductNode(
            left=ScanNode(dataset=None, name="P"),
            right=ScanNode(dataset=None, name="Q"),
            domain_label="Q",
        )
        codes = {d.code for d in lint_plan(root, diablo.current_config())}
        assert codes == {"D501", "D503"}

    def test_lint_plan_flags_unplaced_hash_join(self):
        from repro.algebra.plan import HashJoinNode, ScanNode
        from repro.comprehension import ir

        join = HashJoinNode(
            left=ScanNode(dataset=None, name="A"),
            right=ScanNode(dataset=None, name="B"),
            left_key_terms=(ir.CVar("k"),),
            right_key_terms=(ir.CVar("k"),),
            domain_label="B",
        )
        codes = {d.code for d in lint_plan(join)}
        assert codes == {"D502"}
        join.left_prepartitioned = True
        assert lint_plan(join) == []


# ---------------------------------------------------------------------------
# diablo.check end to end
# ---------------------------------------------------------------------------


class TestCheckApi:
    def test_clean_jit_function(self):
        @diablo.jit
        def addv(V: Vector, W: Vector, n: int):
            R: Vector = Vector()
            for i in range(n):
                R[i] = V[i] + W[i]
            return R

        report = diablo.check(addv)
        assert report.subject == "addv"
        assert list(report) == []

    def test_positional_types_override_annotations(self):
        def scale(V, n):
            R: Vector = Vector()
            for i in range(n):
                R[i] = V[i] * 2.0
            return R

        report = diablo.check(scale, Vector[float], int)
        assert list(report) == []

    def test_python_rejection_is_d001_with_line(self):
        def uses_break(V: Vector, n: int):
            s = 0.0
            for i in range(n):
                if V[i] > 0.0:
                    break
            return s

        report = diablo.check(uses_break)
        (finding,) = report.errors()
        assert finding.code == "D001"
        assert finding.location is not None and finding.location.line > 0

    def test_loop_source_parse_error_is_d002(self):
        report = diablo.check("for i = 0, do V[i] := 1;")
        assert report.codes() == ["D002"]

    def test_strict_promotes_warnings(self):
        source = (
            "var S: vector[double] = vector();\n"
            "for i = 0, 9 do\n  for j = 0, 9 do\n    S[i] += P[i] * Q[j];"
        )
        assert not diablo.check(source).has_errors
        assert diablo.check(source, strict=True).has_errors

    def test_custom_monoids_are_probed(self):
        from repro.comprehension.monoids import Monoid

        bogus = Monoid("avg2", 0.0, lambda a, b: (a + b) / 2.0)
        report = diablo.check("x := 1.0;", monoids=[bogus])
        assert "D401" in report.codes()

    def test_figure3_workloads_have_zero_error_findings(self):
        from repro.programs import PROGRAMS

        for spec in PROGRAMS.values():
            report = diablo.check(spec.source, monoids=spec.monoids)
            errors = [d.render() for d in report.errors()]
            assert errors == [], f"{spec.name}: {errors}"


# ---------------------------------------------------------------------------
# The strict knob on config / jit
# ---------------------------------------------------------------------------


class TestStrictMode:
    def test_strict_jit_rejects_product(self):
        @diablo.jit(strict=True)
        def prod(P: Vector, Q: Vector, n: int):
            S: Vector = Vector()
            for i in range(n):
                for j in range(n):
                    S[i] += P[i] * Q[j]
            return S

        with pytest.raises(StaticCheckError) as excinfo:
            prod.compile()
        assert any(d.code == "D501" for d in excinfo.value.diagnostics)

    def test_strict_jit_accepts_clean_function(self):
        @diablo.jit(strict=True)
        def addv(V: Vector, W: Vector, n: int):
            R: Vector = Vector()
            for i in range(n):
                R[i] = V[i] + W[i]
            return R

        assert addv.compile().target.statements

    def test_strict_does_not_share_cache_with_relaxed(self):
        source = (
            "var S: vector[double] = vector();\n"
            "for i = 0, 9 do\n  for j = 0, 9 do\n    S[i] += P[i] * Q[j];"
        )
        from repro.translate.cache import CompilationCache

        cache = CompilationCache()
        DiabloCompiler(cache=cache).compile(source)
        with pytest.raises(StaticCheckError):
            DiabloCompiler(strict=True, cache=cache).compile(source)

    def test_strict_config_flows_through_options(self):
        @diablo.jit
        def prod(P: Vector, Q: Vector, n: int):
            S: Vector = Vector()
            for i in range(n):
                for j in range(n):
                    S[i] += P[i] * Q[j]
            return S

        prod.compile()  # relaxed default is fine
        with diablo.options(strict=True):
            with pytest.raises(StaticCheckError):
                prod.compile()


# ---------------------------------------------------------------------------
# Frontend line-number contract
# ---------------------------------------------------------------------------


REJECTED_SNIPPETS = [
    "def f(V, n):\n    for i in range(n):\n        break\n",
    "def f(V, n):\n    for i in range(n):\n        continue\n",
    "def f(V):\n    return [v for v in V]\n",
    "def f(x):\n    y = lambda a: a\n    return y\n",
    "def f(x):\n    del x\n",
    "def f(x):\n    x = y = 1\n    return x\n",
    "def f(x):\n    x //= 2\n    return x\n",
    "def f(V, n):\n    for i in range(n):\n        pass\n    else:\n        n = 0\n",
    "def f(x):\n    if 0 < x < 2:\n        x = 1\n    return x\n",
    "def f(x):\n    y: int\n    return x\n",
    "def f(x):\n    def g():\n        return 1\n    return x\n",
]


class TestFrontendLineNumbers:
    @pytest.mark.parametrize("source", REJECTED_SNIPPETS)
    def test_every_rejection_carries_a_line(self, source):
        with pytest.raises(FrontendError) as excinfo:
            parse_python_source(source)
        assert isinstance(excinfo.value.line, int) and excinfo.value.line > 0
        assert f"(line {excinfo.value.line})" in str(excinfo.value)

    def test_unreadable_source_has_no_line_but_clear_message(self):
        from repro.loop_lang.python_frontend import parse_python_function

        with pytest.raises(FrontendError) as excinfo:
            parse_python_function(eval("lambda x: x"))
        assert excinfo.value.line is None
        assert "cannot read the source" in str(excinfo.value)

    def test_statement_spans_survive_to_target_origin(self):
        spec = parse_python_source(
            "def f(V: Vector, n: int):\n"
            "    total = 0.0\n"
            "    for i in range(n):\n"
            "        total += V[i]\n"
            "    return total\n"
        )
        lines = [s.location.line for s in spec.program.statements]
        assert lines == [2, 3]


# ---------------------------------------------------------------------------
# repro-lint CLI
# ---------------------------------------------------------------------------


class TestLintCli:
    def test_bad_fixture_reports_expected_codes(self, capsys):
        status = lint_main(
            [str(FIXTURES / "bad_program.py"), "--expect", "D102,D201,D501"]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "D102" in out and "D201" in out and "D501" in out

    def test_bad_fixture_fails_without_expectations(self):
        assert lint_main([str(FIXTURES / "bad_program.py"), "-q"]) == 1

    def test_expectation_miss_fails(self, capsys):
        status = lint_main([str(FIXTURES / "bad_program.py"), "--expect", "D999x"])
        assert status == 1
        assert "not reported" in capsys.readouterr().err

    def test_fixture_line_numbers_match_the_file(self, capsys):
        lint_main([str(FIXTURES / "bad_program.py")])
        out = capsys.readouterr().out
        text = (FIXTURES / "bad_program.py").read_text().splitlines()
        assert "line 20" in out and "while s < 10.0" in text[19]
        assert "line 29" in out and "R[i * i]" in text[28]
        assert "line 38" in out and "S[i] += P[i] * Q[j]" in text[37]

    def test_examples_directory_is_clean(self):
        assert lint_main(["examples", "-q"]) == 0

    def test_missing_path_is_usage_error(self, capsys):
        assert lint_main(["/no/such/path"]) == 2
        assert "no such file" in capsys.readouterr().err


class TestMapAnnotation:
    def test_map_annotation_reaches_typecheck(self):
        @diablo.jit
        def lookup(W: Map[str, float], V: Vector, n: int):
            R: Vector = Vector()
            for i in range(n):
                R[i] = V[i] * W[i]
            return R

        report = diablo.check(lookup)
        assert "D301" in report.codes()
