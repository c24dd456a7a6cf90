"""Tests for the MOLD/Casper comparator simulators and the experiment harness."""


from repro.comparators.casper import CasperTranslator
from repro.comparators.mold import MoldTranslator
from repro.evaluation.figure3 import run_figure3_panel
from repro.evaluation.harness import (
    default_inputs,
    diablo_for,
    run_baseline,
    run_sequential_baseline,
    run_sequential_interpreter,
    run_translated,
)
from repro.evaluation.reporting import format_series, format_table
from repro.evaluation.table1 import format_table1, run_table1
from repro.evaluation.table2 import format_table2, run_table2
from repro.programs import get_program
from repro.workloads import workload_for_program


class TestMoldSimulator:
    def test_translates_simple_aggregations(self):
        mold = MoldTranslator()
        for name in ["sum", "conditional_sum", "word_count", "group_by", "histogram"]:
            result = mold.translate(get_program(name).source, name)
            assert result.succeeded, name
            assert result.operators

    def test_translates_matrix_multiplication(self):
        result = MoldTranslator().translate(get_program("matrix_multiplication").source)
        assert result.succeeded

    def test_fails_on_iterative_programs(self):
        for name in ["pagerank", "matrix_factorization"]:
            result = MoldTranslator().translate(get_program(name).source, name)
            assert not result.succeeded, name
            assert result.reason

    def test_search_budget_is_respected(self):
        mold = MoldTranslator(search_budget=10)
        result = mold.translate(get_program("pagerank").source)
        assert result.candidates_explored <= 11

    def test_search_explores_candidates(self):
        result = MoldTranslator().translate(get_program("kmeans").source)
        assert result.candidates_explored > 0


class TestCasperSimulator:
    def workload(self, name):
        return lambda size: workload_for_program(name, size, seed=29)

    def test_synthesizes_simple_scalar_summaries(self):
        casper = CasperTranslator(candidate_budget=5_000)
        for name in ["sum", "count", "conditional_sum", "equal"]:
            spec = get_program(name)
            result = casper.translate(spec.source, name, workload=self.workload(name))
            assert result.succeeded, (name, result.reason)
            assert result.summaries

    def test_synthesizes_word_count(self):
        casper = CasperTranslator(candidate_budget=5_000)
        result = casper.translate(
            get_program("word_count").source, "word_count", workload=self.workload("word_count")
        )
        assert result.succeeded
        assert "reduceByKey" in result.summaries["C"]

    def test_fails_on_matrix_programs(self):
        casper = CasperTranslator(candidate_budget=500)
        for name in ["matrix_multiplication", "pagerank", "matrix_factorization", "kmeans"]:
            spec = get_program(name)
            result = casper.translate(spec.source, name, workload=self.workload(name))
            assert not result.succeeded, name

    def test_fails_on_linear_regression_within_budget(self):
        casper = CasperTranslator(candidate_budget=300)
        spec = get_program("linear_regression")
        result = casper.translate(
            spec.source, "linear_regression", workload=self.workload("linear_regression")
        )
        assert not result.succeeded

    def test_no_workload_means_failure(self):
        result = CasperTranslator(candidate_budget=100).translate(get_program("sum").source)
        assert not result.succeeded


class TestHarness:
    def test_run_translated_and_baseline_agree(self):
        inputs = default_inputs("word_count", 300)
        translated = run_translated("word_count", inputs)
        baseline = run_baseline("word_count", inputs)
        assert translated.value.array("C") == baseline.value["C"]
        assert translated.seconds >= 0 and baseline.seconds >= 0

    def test_sequential_runs(self):
        inputs = default_inputs("conditional_sum", 200)
        interpreter = run_sequential_interpreter("conditional_sum", inputs)
        baseline = run_sequential_baseline("conditional_sum", inputs)
        assert abs(interpreter.value["sum"] - baseline.value["sum"]) < 1e-9


class TestExperiments:
    def test_table1_diablo_always_succeeds_and_is_fastest(self):
        rows = run_table1(
            programs=["sum", "word_count", "matrix_multiplication", "pagerank"],
            mold_budget=2_000,
            casper_budget=1_000,
        )
        assert len(rows) == 4
        for row in rows:
            assert row.diablo_seconds < 1.0
        by_name = {row.program: row for row in rows}
        # DIABLO translates the complex programs in milliseconds; the
        # search-based comparators burn their budget on them before failing.
        assert by_name["PageRank"].diablo_seconds < by_name["PageRank"].mold_seconds
        # One compile against one budget burn is at the mercy of a pause
        # landing in the compile: DIABLO's time is its best of 3 compiles.
        spec = get_program("matrix_multiplication")
        diablo_best = min(
            by_name["Matrix Multiplication"].diablo_seconds,
            *(diablo_for(spec).compiler.compile(spec.source).translation_seconds for _ in range(2)),
        )
        assert diablo_best < by_name["Matrix Multiplication"].casper_seconds
        assert by_name["PageRank"].mold_failed
        assert by_name["Matrix Multiplication"].casper_failed
        assert "DIABLO" in format_table1(rows)

    def test_table1_without_comparators(self):
        rows = run_table1(programs=["sum"], include_comparators=False)
        assert rows[0].mold_seconds is None

    def test_table2_rows(self):
        rows = run_table2(
            sizes={"conditional_sum": 2_000, "word_count": 1_000},
            programs=["conditional_sum", "word_count"],
        )
        assert len(rows) == 2
        assert all(row.parallel_seconds > 0 and row.sequential_seconds > 0 for row in rows)
        assert "seq/par" in format_table2(rows)

    def test_figure3_panel_points(self):
        panel = run_figure3_panel("group_by", sizes=[500, 1_000])
        assert len(panel.points) == 2
        assert all(point.diablo_seconds > 0 for point in panel.points)
        assert all(point.diablo_shuffled_records > 0 for point in panel.points)

    def test_kmeans_panel_shows_the_paper_gap(self):
        panel = run_figure3_panel("kmeans", sizes=[200])
        point = panel.points[0]
        # DIABLO joins points with centroids; the hand-written program
        # broadcasts the centroids, so it shuffles far less and runs faster.
        assert point.diablo_shuffled_records > point.handwritten_shuffled_records
        assert point.diablo_seconds > point.handwritten_seconds

    def test_reporting_helpers(self):
        table = format_table(["a", "b"], [[1, 2.5], [3, 4.0]], title="t")
        assert "t" in table and "2.5" in table
        series = format_series("panel", "size", {"DIABLO": [(10, 0.5)]})
        assert "DIABLO" in series
