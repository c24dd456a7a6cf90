"""Unit tests for the out-of-core shuffle layer (repro.runtime.spill).

The differential coverage (every wide operator and every Figure 3 workload
forced through the spill path under all three executors) lives in
``tests/test_executor_equivalence.py``; this file tests the spill machinery
itself: run framing, writer budgets, the external sort merge, store
lifecycle/cleanup, and the configuration plumbing.
"""

from __future__ import annotations

import os

import pytest

from repro.api.config import DiabloConfig
from repro.runtime import spill
from repro.runtime.context import DistributedContext


def _payloads_of(writer: spill.BucketWriter) -> list[spill.BucketPayload]:
    return writer.finish()


class TestRunFraming:
    def test_append_and_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "bucket.spill")
        first = spill.append_run(path, [("a", 1), ("b", 2)])
        second = spill.append_run(path, [("c", 3)])
        assert first.offset == 0 and second.offset == first.length
        assert first.records == 2 and second.records == 1
        assert spill.read_run(first) == [("a", 1), ("b", 2)]
        assert spill.read_run(second) == [("c", 3)]

    def test_runs_are_independent_frames(self, tmp_path):
        path = str(tmp_path / "bucket.spill")
        runs = [spill.append_run(path, [i]) for i in range(5)]
        # Reading out of order works: descriptors are self-contained.
        assert [spill.read_run(run)[0] for run in reversed(runs)] == [4, 3, 2, 1, 0]


class TestBucketWriter:
    def test_no_spill_spec_keeps_everything_in_memory(self, tmp_path):
        writer = spill.BucketWriter(2, None)
        writer.write([i % 2 for i in range(100)], list(range(100)))
        payloads = _payloads_of(writer)
        assert writer.spill_files == 0 and writer.spilled_bytes == 0
        assert payloads[0].runs == () and len(payloads[0].records) == 50

    def test_over_budget_flushes_runs_and_remainder_stays_in_memory(self, tmp_path):
        # Equal-sized records: a slice is charged 64 x one record's size, so
        # with the budget at 1.5 slices every second slice flushes and the
        # last, partial slice stays in memory.
        records = list(range(1000, 1160))
        slice_estimate = spill.approximate_size(records[0]) * spill.SIZE_SAMPLE_RECORDS
        spec = spill.SpillSpec(str(tmp_path), slice_estimate * 3 // 2)
        writer = spill.BucketWriter(2, spec, task_tag="m0")
        writer.write([i % 2 for i in range(len(records))], records)
        payloads = _payloads_of(writer)
        assert writer.spill_files == 2
        assert writer.spilled_bytes > 0
        assert writer.peak_memory > 0
        assert [run.records for run in payloads[0].runs] == [64]
        assert len(payloads[0].records) == len(payloads[1].records) == 16
        # Streaming runs-then-remainder reproduces insertion order per bucket.
        assert list(spill.iter_payload(payloads[0])) == records[0::2]
        assert list(spill.iter_payload(payloads[1])) == records[1::2]

    def test_budget_is_checked_once_per_slice(self, tmp_path):
        # At a 1-byte budget every slice ends in a flush: one run per slice.
        spec = spill.SpillSpec(str(tmp_path), 1)
        writer = spill.BucketWriter(1, spec)
        records = list(range(spill.SIZE_SAMPLE_RECORDS * 2 + 5))
        writer.write([0] * len(records), records)
        (payload,) = writer.finish()
        assert [run.records for run in payload.runs] == [64, 64, 5]
        assert payload.records == ()
        assert list(spill.iter_payload(payload)) == records

    def test_peak_memory_stays_within_one_slice_of_the_threshold(self, tmp_path):
        records = [(key % 7, "v" * (key % 23)) for key in range(1000)]
        threshold = 4096
        spec = spill.SpillSpec(str(tmp_path), threshold)
        writer = spill.BucketWriter(3, spec)
        writer.write([key % 3 for key in range(len(records))], records)
        step = spill.SIZE_SAMPLE_RECORDS
        largest_slice = max(
            spill.approximate_size(records[start]) * len(records[start : start + step])
            for start in range(0, len(records), step)
        )
        assert writer.spill_files == 3
        assert threshold < writer.peak_memory <= threshold + largest_slice

    def test_iter_merged_preserves_map_task_order(self, tmp_path):
        spec = spill.SpillSpec(str(tmp_path), 1)
        writers = []
        for task in range(2):
            writer = spill.BucketWriter(1, spec, task_tag=f"m{task}")
            writer.write([0, 0, 0], [(task, i) for i in range(3)])
            writers.append(writer)
        merged = [w.finish()[0] for w in writers]
        assert list(spill.iter_merged(merged)) == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]

    def test_sorted_runs_merge_like_a_stable_sort(self, tmp_path):
        records = [(i * 7 + 3) % 10 for i in range(300)]  # lots of duplicate keys
        spec = spill.SpillSpec(str(tmp_path), 1)
        writer = spill.BucketWriter(1, spec, sort_spec=(lambda x: x, True))
        decorated = [(value, position) for position, value in enumerate(records)]
        writer.write([0] * len(decorated), decorated)
        payloads = writer.finish()
        assert len(payloads[0].runs) == 5
        merged = list(spill.merge_sorted_payloads(payloads, key=lambda r: r[0], ascending=True))
        assert merged == sorted(decorated, key=lambda r: r[0])  # stable: ties by position

    def test_descending_merge(self, tmp_path):
        spec = spill.SpillSpec(str(tmp_path), 1)
        writer = spill.BucketWriter(1, spec, sort_spec=(lambda x: x, False))
        values = [5, 1, 9, 3, 9, 0] * 30
        writer.write([0] * len(values), values)
        merged = list(
            spill.merge_sorted_payloads(writer.finish(), key=lambda x: x, ascending=False)
        )
        assert merged == sorted(values, reverse=True)


def _concat(left, right):
    return left + right


def _spill_counters(executor: str) -> dict[str, tuple[int, int, int]]:
    """Spill counters of a spilling reduce, a salted reduce and a repartition."""
    pairs = [(i % 37, str(i)) for i in range(3000)]
    skewed = [("hot", str(i)) for i in range(2000)] + [(f"cold-{i}", "x") for i in range(200)]
    counters = {}
    with DistributedContext(
        num_partitions=4, executor=executor, adaptive=True, spill_threshold_bytes=2048
    ) as ctx:
        for name, run in (
            ("reduce", lambda: ctx.parallelize(pairs).reduce_by_key(_concat).collect()),
            ("salted", lambda: ctx.parallelize(skewed).reduce_by_key(_concat).collect()),
            ("repartition", lambda: ctx.parallelize(list(range(4000))).repartition(3).collect()),
        ):
            ctx.metrics.reset()
            run()
            metrics = ctx.metrics
            counters[name] = (metrics.spilled_bytes, metrics.spill_files, metrics.peak_shuffle_memory)
            assert metrics.process_fallbacks == 0, f"{name} did not run on the {executor} executor"
            if name == "salted":
                assert metrics.salted_keys > 0, "the hot key was not salted"
    return counters


class TestSpillDecisionsAcrossExecutors:
    def test_flush_points_and_counters_are_executor_invariant(self):
        """The per-slice budget is a pure function of the records: every
        executor flushes at the same points, so it writes the same runs."""
        sequential = _spill_counters("sequential")
        for spilled_bytes, spill_files, peak in sequential.values():
            assert spilled_bytes > 0 and spill_files > 0 and peak > 2048
        assert _spill_counters("threads") == sequential
        assert _spill_counters("processes") == sequential


class TestShuffleStore:
    def test_disabled_store_hands_out_nothing(self, tmp_path):
        store = spill.ShuffleStore(str(tmp_path), None)
        assert not store.enabled
        assert store.begin_shuffle() is None
        store.end_shuffle(None)  # no-op
        assert store.root is None

    def test_shuffle_dirs_created_and_removed(self, tmp_path):
        store = spill.ShuffleStore(str(tmp_path), 1024)
        spec = store.begin_shuffle()
        assert os.path.isdir(spec.directory)
        assert store.active_shuffle_dirs() == [spec.directory]
        store.end_shuffle(spec)
        assert store.active_shuffle_dirs() == []
        store.close()
        assert store.root is None

    def test_close_removes_root_and_store_stays_usable(self, tmp_path):
        store = spill.ShuffleStore(str(tmp_path), 1024)
        first = store.begin_shuffle()
        root = store.root
        store.close()
        assert not os.path.exists(root)
        again = store.begin_shuffle()  # root recreated lazily
        assert os.path.isdir(again.directory)
        assert first.directory != again.directory
        store.close()

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            spill.ShuffleStore(None, 0)
        with pytest.raises(ValueError):
            spill.ShuffleStore(None, -5)


class TestContextPlumbing:
    def test_context_spill_knobs_reach_the_store(self, tmp_path):
        with DistributedContext(
            num_partitions=2, spill_threshold_bytes=128, spill_dir=str(tmp_path)
        ) as ctx:
            assert ctx.shuffle_store.enabled
            assert ctx.shuffle_store.threshold_bytes == 128
            ctx.parallelize([(i % 3, i) for i in range(50)]).group_by_key().collect()
            # The lazily-created root lives under the requested directory.
            assert ctx.shuffle_store.root.startswith(str(tmp_path))
            assert ctx.metrics.spilled_bytes > 0

    def test_env_var_supplies_the_default_threshold(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIABLO_SPILL_THRESHOLD_BYTES", "64")
        monkeypatch.setenv("DIABLO_SPILL_DIR", str(tmp_path))
        with DistributedContext(num_partitions=2) as ctx:
            assert ctx.spill_threshold_bytes == 64
            ctx.parallelize([(i % 3, i) for i in range(50)]).group_by_key().collect()
            assert ctx.metrics.spilled_bytes > 0
            assert ctx.shuffle_store.root.startswith(str(tmp_path))

    def test_env_var_zero_disables_spilling(self, monkeypatch):
        # "=0" is the natural way to switch spilling off in an environment
        # that otherwise sets the variable; it must not crash construction.
        monkeypatch.setenv("DIABLO_SPILL_THRESHOLD_BYTES", "0")
        with DistributedContext(num_partitions=2) as ctx:
            assert ctx.spill_threshold_bytes is None
            assert not ctx.shuffle_store.enabled

    def test_env_var_garbage_reports_a_clear_error(self, monkeypatch):
        monkeypatch.setenv("DIABLO_SPILL_THRESHOLD_BYTES", "64k")
        with pytest.raises(ValueError, match="DIABLO_SPILL_THRESHOLD_BYTES"):
            DistributedContext(num_partitions=2)

    def test_graceful_shutdown_leaves_the_spill_root_for_inflight_work(self, tmp_path):
        # shutdown(cancel_pending=False) is the jit-eviction path: another
        # thread may still be mid-shuffle on this context, so its active
        # spill root must survive (the GC finalizer reclaims it later).
        ctx = DistributedContext(
            num_partitions=2, spill_threshold_bytes=1, spill_dir=str(tmp_path)
        )
        ctx.parallelize([(i % 3, i) for i in range(30)]).group_by_key().collect()
        root = ctx.shuffle_store.root
        assert root is not None
        ctx.shutdown(cancel_pending=False)
        assert os.path.exists(root)
        ctx.shutdown()  # a full shutdown still removes it
        assert not os.path.exists(root)

    def test_long_runs_stream_in_chunk_frames(self, tmp_path):
        # One run larger than RUN_CHUNK_RECORDS decodes chunk by chunk.
        path = str(tmp_path / "big.spill")
        records = list(range(spill.RUN_CHUNK_RECORDS * 2 + 17))
        run = spill.append_run(path, records)
        assert run.records == len(records)
        chunks = list(spill.stream_run(run))
        assert [len(chunk) for chunk in chunks] == [spill.RUN_CHUNK_RECORDS] * 2 + [17]
        assert [record for chunk in chunks for record in chunk] == records
        assert spill.read_run(run) == records

    def test_explicit_argument_beats_the_env_var(self, monkeypatch):
        monkeypatch.setenv("DIABLO_SPILL_THRESHOLD_BYTES", "64")
        with DistributedContext(num_partitions=2, spill_threshold_bytes=1 << 30) as ctx:
            assert ctx.spill_threshold_bytes == 1 << 30
            ctx.parallelize([(i % 3, i) for i in range(50)]).group_by_key().collect()
            assert ctx.metrics.spilled_bytes == 0  # far under budget

    def test_config_carries_the_spill_knobs(self, tmp_path):
        config = DiabloConfig(spill_threshold_bytes=256, spill_dir=str(tmp_path))
        context = config.make_context()
        try:
            assert context.spill_threshold_bytes == 256
            assert context.shuffle_store.base_dir == str(tmp_path)
        finally:
            context.shutdown()

    def test_config_rejects_non_positive_threshold(self):
        with pytest.raises(ValueError):
            DiabloConfig(spill_threshold_bytes=0)

    def test_runtime_key_distinguishes_spill_settings(self):
        assert (
            DiabloConfig().runtime_key()
            != DiabloConfig(spill_threshold_bytes=1024).runtime_key()
        )

    def test_explain_metrics_reports_spill_counters(self):
        from repro.algebra.explain import explain_metrics

        with DistributedContext(num_partitions=2, spill_threshold_bytes=1) as ctx:
            ctx.parallelize([(i % 3, i) for i in range(30)]).group_by_key().collect()
            report = "\n".join(explain_metrics(ctx.metrics))
        assert "spill:" in report and "peak shuffle memory" in report
