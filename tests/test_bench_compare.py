"""Tests for the benchmark comparison gate (``python3 -m bench.compare``).

``bench.compare`` reads two ``python3 -m bench --out`` records and gives every
(end-to-end metric, workload) pair a verdict against the bound that
``BENCHMARK.json`` fixes for the metric.  These tests drive it on synthetic
records: green on a clean pair, red on a pair slowed past a bound or with
failed ops, and "unresolved" (not red) when the runs are too noisy to tell.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from bench import compare as gate  # noqa: E402
from bench import load_spec  # noqa: E402

METRICS = {metric["name"]: metric for metric in load_spec()["end_to_end"]}
WORKLOADS = ("scan_columnar", "join_agg", "iterative")


def row(value: float, spread: float = 0.0, n: int = 10) -> dict:
    """One reported metric: a median ``value`` with quartiles ``spread`` apart."""
    return {"value": value, "q1": value - spread / 2, "q3": value + spread / 2, "n": n}


def record(scale: dict[str, float] | None = None, failed: dict[str, int] | None = None) -> dict:
    """A bench record; ``scale`` multiplies one metric's value everywhere."""
    scale = scale or {}
    failed = failed or {}
    return {
        "workloads": {
            name: {
                "ops": 100,
                "failed_ops": failed.get(name, 0),
                "end_to_end": {metric: row(1.0 * scale.get(metric, 1.0)) for metric in METRICS},
            }
            for name in WORKLOADS
        }
    }


class TestNoise:
    def test_zero_value_has_no_noise(self):
        assert gate.noise(row(0.0, spread=1.0)) == 0.0

    def test_noise_is_the_interquartile_range_over_the_value_and_root_n(self):
        assert gate.noise(row(2.0, spread=0.8, n=16)) == pytest.approx(0.8 / 2.0 / 4)


class TestVerdict:
    def test_identical_rows_are_ok(self):
        assert gate.verdict(row(1.0), row(1.0), 0.25, "lower") == (0.0, "ok")

    def test_slower_past_the_bound_regresses(self):
        change, word = gate.verdict(row(1.0), row(1.5), 0.25, "lower")
        assert change == pytest.approx(0.5)
        assert word == "regressed"

    def test_slower_within_the_bound_is_ok(self):
        change, word = gate.verdict(row(1.0), row(1.2), 0.25, "lower")
        assert change == pytest.approx(0.2)
        assert word == "ok"

    def test_faster_is_ok_with_a_negative_change(self):
        change, word = gate.verdict(row(1.0), row(0.5), 0.25, "lower")
        assert change == pytest.approx(-0.5)
        assert word == "ok"

    def test_higher_is_better_flips_the_sign(self):
        change, word = gate.verdict(row(1.0), row(0.5), 0.25, "higher")
        assert change == pytest.approx(0.5)
        assert word == "regressed"

    def test_noise_over_half_the_bound_is_unresolved(self):
        """A run too noisy to resolve the bound is not a regression, however
        large the change."""
        noisy = row(3.0, spread=3.0, n=4)
        assert gate.noise(noisy) > 0.25 / 2
        assert gate.verdict(row(1.0), noisy, 0.25, "lower")[1] == "unresolved"


class TestCompare:
    def test_identical_records_pass(self, capsys):
        assert gate.compare(record(), record()) == 0
        out = capsys.readouterr().out
        assert "regressed" not in out
        for name in WORKLOADS:
            for metric in METRICS:
                assert any(
                    line.startswith(name) and metric in line and line.endswith("ok")
                    for line in out.splitlines()
                ), f"no row for {name}/{metric}"

    @pytest.mark.parametrize("metric", sorted(METRICS))
    def test_one_metric_past_its_bound_fails(self, metric, capsys):
        slowed = record(scale={metric: 1.0 + 2 * METRICS[metric]["bound"]})
        assert gate.compare(record(), slowed) == 1
        regressed = [line for line in capsys.readouterr().out.splitlines() if "regressed" in line]
        assert len(regressed) == len(WORKLOADS)
        assert all(metric in line for line in regressed)

    @pytest.mark.parametrize("label", ["A", "B"])
    def test_failed_ops_in_either_record_fail(self, label, capsys):
        broken = record(failed={"join_agg": 3})
        pair = (broken, record()) if label == "A" else (record(), broken)
        assert gate.compare(*pair) == 1
        assert f"3 of 100 ops in {label}" in capsys.readouterr().out

    def test_unresolved_rows_do_not_fail(self, capsys):
        noisy = record(scale={"run_norm": 3.0})
        for entry in noisy["workloads"].values():
            entry["end_to_end"]["run_norm"] = row(3.0, spread=3.0, n=4)
        assert gate.compare(record(), noisy) == 0
        assert "unresolved" in capsys.readouterr().out


class TestMain:
    def test_wrong_argument_count_is_a_usage_error(self, capsys):
        assert gate.main(["only-one.json"]) == 2
        assert "bench.compare" in capsys.readouterr().err

    def test_reads_two_records_from_disk(self, tmp_path, capsys):
        base, slowed = tmp_path / "a.json", tmp_path / "b.json"
        base.write_text(json.dumps(record()))
        slowed.write_text(json.dumps(record(scale={"run_norm": 2.0})))
        assert gate.main([str(base), str(base)]) == 0
        assert gate.main([str(base), str(slowed)]) == 1
        assert "regressed" in capsys.readouterr().out
