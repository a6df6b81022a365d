"""Tests for the JSONL-backed result store."""

import json
import multiprocessing

import pytest

from repro.errors import ConfigurationError
from repro.exp import (
    ResultStore,
    audit_store,
    compact_store,
    result_from_dict,
    result_to_dict,
    result_to_json,
)
from repro.sim.results import SimulationResult


def make_result(variant="base", cycles=1000):
    return SimulationResult(
        variant=variant,
        workload="tpcc-1",
        cycles=cycles,
        instructions=5000,
        i_accesses=400,
        i_misses=40,
        d_accesses=200,
        d_misses=10,
        migrations=3,
        utilization=0.625,
        miss_class_mpki={"instruction": {"cold": 1.5}},
    )


class TestSerialisation:
    def test_dict_roundtrip_is_lossless(self):
        result = make_result()
        assert result_from_dict(result_to_dict(result)) == result

    def test_json_is_canonical(self):
        a = make_result()
        b = make_result()
        assert result_to_json(a) == result_to_json(b)
        assert json.loads(result_to_json(a))["cycles"] == 1000


class TestMemoryStore:
    def test_put_get(self):
        store = ResultStore()
        result = make_result()
        assert store.get("k1") is None
        store.put("k1", result)
        assert store.get("k1") == result
        assert "k1" in store and len(store) == 1

    def test_overwrite_wins(self):
        store = ResultStore()
        store.put("k", make_result(cycles=1))
        store.put("k", make_result(cycles=2))
        assert store.get("k").cycles == 2


class TestPersistentStore:
    def test_roundtrip_through_disk(self, tmp_path):
        store = ResultStore(tmp_path)
        result = make_result(variant="slicc-sw")
        store.put("deadbeef", result, spec={"workload": "tpcc-1"})

        reloaded = ResultStore(tmp_path)
        assert reloaded.get("deadbeef") == result
        assert reloaded.spec_info("deadbeef") == {"workload": "tpcc-1"}
        assert (tmp_path / "results.jsonl").exists()

    def test_near_miss_file_path_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultStore(tmp_path / "results.json")

    def test_existing_dotted_directory_accepted(self, tmp_path):
        dotted = tmp_path / "campaign.2026-07"
        dotted.mkdir()
        store = ResultStore(dotted)
        store.put("k", make_result())
        assert (dotted / "results.jsonl").exists()

    def test_explicit_jsonl_path(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        store = ResultStore(path)
        store.put("k", make_result())
        assert path.exists()
        assert ResultStore(path).get("k") == make_result()

    def test_append_only_last_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", make_result(cycles=1))
        store.put("k", make_result(cycles=2))
        lines = (tmp_path / "results.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert ResultStore(tmp_path).get("k").cycles == 2

    def test_truncated_trailing_line_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("good", make_result())
        with (tmp_path / "results.jsonl").open("a") as fh:
            fh.write('{"key": "bad", "result": {"var')  # simulated crash
        with pytest.warns(UserWarning):
            reloaded = ResultStore(tmp_path)
        assert reloaded.get("good") is not None
        assert len(reloaded) == 1

    def test_incompatible_rows_skipped_not_fatal(self, tmp_path):
        """Rows from an older result schema (or hand-edited junk) must
        not brick the store — they are re-derivable by rerunning."""
        store = ResultStore(tmp_path)
        store.put("good", make_result())
        with (tmp_path / "results.jsonl").open("a") as fh:
            fh.write("null\n")  # not an object
            fh.write('{"result": {"variant": "base"}}\n')  # no key
            fh.write('{"key": "old", "result": {"no_such_field": 1}}\n')
        with pytest.warns(UserWarning):
            reloaded = ResultStore(tmp_path)
        assert reloaded.get("good") == make_result()
        assert len(reloaded) == 1


class TestScanCounts:
    def test_counts_blank_and_torn_lines(self, tmp_path):
        """Regression: blank lines and a torn final line are skipped by
        open AND counted by the audit, not silently swallowed."""
        store = ResultStore(tmp_path)
        store.put("a", make_result(cycles=1))
        store.put("a", make_result(cycles=2))  # supersedes
        store.put("b", make_result(cycles=3))
        with (tmp_path / "results.jsonl").open("a") as fh:
            fh.write("\n\n")  # editor artefacts
            fh.write('{"key": "c", "result": {"cyc')  # crash mid-append
        with pytest.warns(UserWarning, match="quarantined"):
            reloaded = ResultStore(tmp_path)
        assert len(reloaded) == 2
        audit = audit_store(tmp_path)
        assert audit.lines == 6
        assert audit.blank == 2
        assert audit.corrupt == 1
        assert audit.result_rows + audit.failure_rows == 3
        assert audit.superseded == 1

    def test_clean_store_reports_clean(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("a", make_result())
        audit = audit_store(tmp_path)
        assert audit.corrupt == 0 and audit.blank == 0
        assert audit.result_rows == 1 and audit.superseded == 0


class TestQuarantine:
    def test_corrupt_lines_copied_to_sidecar(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("good", make_result())
        junk = '{"key": "bad", "result": {"torn'
        with (tmp_path / "results.jsonl").open("a") as fh:
            fh.write(junk)
        with pytest.warns(UserWarning, match="store compact"):
            reloaded = ResultStore(tmp_path)
        sidecar = reloaded.quarantine_path
        assert sidecar.exists()
        assert sidecar.read_text().splitlines() == [junk]
        # The main file is untouched by load (read-only diagnosis).
        assert junk in (tmp_path / "results.jsonl").read_text()

    def test_sidecar_deduplicates_across_loads(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("good", make_result())
        junk = '{"key": "bad", "result": {"torn'
        with (tmp_path / "results.jsonl").open("a") as fh:
            fh.write(junk)
        for _ in range(3):
            with pytest.warns(UserWarning):
                ResultStore(tmp_path)
        sidecar = tmp_path / "results.jsonl.quarantine"
        assert sidecar.read_text().splitlines() == [junk]


class TestHealingAppend:
    def test_append_after_torn_tail_isolates_fragment(self, tmp_path):
        """Regression for the crash-mid-append scenario: the next append
        writes a newline first, so the fragment cannot swallow the new
        row."""
        store = ResultStore(tmp_path)
        store.put("good", make_result(cycles=1))
        with (tmp_path / "results.jsonl").open("a") as fh:
            fh.write('{"key": "torn", "result": {"cy')  # no newline
        # Appending through a *fresh* store handle (as a resumed run
        # would) lands the new row on its own line.
        with pytest.warns(UserWarning):
            resumed = ResultStore(tmp_path)
        resumed.put("next", make_result(cycles=2))
        with pytest.warns(UserWarning):
            final = ResultStore(tmp_path)
        assert final.get("good").cycles == 1
        assert final.get("next").cycles == 2
        assert audit_store(tmp_path).corrupt == 1


class TestFailureRows:
    def test_failure_recorded_but_never_served(self, tmp_path):
        store = ResultStore(tmp_path)
        failure = {"kind": "timeout", "error": "killed", "attempts": 1}
        store.put_failure("k", failure, spec={"workload": "tpcc-1"})
        assert store.get("k") is None  # not a cache hit
        assert store.failure_info("k") == failure
        reloaded = ResultStore(tmp_path)
        assert reloaded.get("k") is None
        assert reloaded.failure_info("k") == failure
        assert reloaded.failures() == {"k": failure}
        assert audit_store(tmp_path).live_failures == 1

    def test_later_result_supersedes_failure(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_failure("k", {"kind": "error", "error": "boom"})
        store.put("k", make_result())
        assert store.failure_info("k") is None
        reloaded = ResultStore(tmp_path)
        assert reloaded.get("k") == make_result()
        assert reloaded.failure_info("k") is None
        assert audit_store(tmp_path).live_failures == 0


class TestAuditAndCompact:
    def populate(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("a", make_result(cycles=1))
        store.put("a", make_result(cycles=2))
        store.put("b", make_result(cycles=3))
        store.put_failure("c", {"kind": "error", "error": "boom"})
        with (tmp_path / "results.jsonl").open("a") as fh:
            fh.write("\n")
            fh.write("{torn")
        return tmp_path / "results.jsonl"

    def test_audit_reports_without_writing(self, tmp_path):
        path = self.populate(tmp_path)
        before = path.read_bytes()
        audit = audit_store(tmp_path)
        assert path.read_bytes() == before
        assert not (tmp_path / "results.jsonl.quarantine").exists()
        assert audit.lines == 6
        assert audit.blank == 1 and audit.corrupt == 1
        assert audit.result_rows == 3 and audit.failure_rows == 1
        assert audit.keys == 2 and audit.live_failures == 1
        assert audit.superseded == 1
        assert audit.reclaimable == 3
        assert not audit.clean

    def test_audit_of_missing_store_is_empty(self, tmp_path):
        audit = audit_store(tmp_path)
        assert audit.lines == 0 and audit.clean

    def test_compact_keeps_only_live_rows(self, tmp_path):
        path = self.populate(tmp_path)
        with pytest.warns(UserWarning):
            before, written = compact_store(tmp_path)
        assert before.reclaimable == 3
        assert written == 3  # a=2, b, and the live failure for c
        audit = audit_store(tmp_path)
        assert audit.clean and audit.reclaimable == 0
        assert audit.keys == 2 and audit.live_failures == 1
        # Evidence preserved: the corrupt line moved to the sidecar.
        assert (tmp_path / "results.jsonl.quarantine").exists()
        reloaded = ResultStore(tmp_path)
        assert reloaded.get("a").cycles == 2
        assert reloaded.get("b").cycles == 3
        assert reloaded.failure_info("c")["kind"] == "error"
        assert path.read_text().endswith("\n")

    def test_compact_drops_failures_after_a_result(self, tmp_path):
        """A failure row after a result for the same key is history the
        store already ignores; compaction rewrites only live rows."""
        store = ResultStore(tmp_path)
        store.put("a", make_result())
        store.put_failure("a", {"kind": "error", "error": "late"})
        assert audit_store(tmp_path).superseded == 1
        before, written = compact_store(tmp_path)
        assert before.keys == 1 and before.live_failures == 0
        assert written == 1
        after = audit_store(tmp_path)
        assert after.failure_rows == 0 and after.reclaimable == 0
        assert ResultStore(tmp_path).get("a") == make_result()


def _hammer_store(path, writer, n_rows):
    store = ResultStore(path)
    for i in range(n_rows):
        store.put(f"w{writer}-r{i}", make_result(cycles=writer * 1000 + i))


class TestConcurrentWriters:
    def test_parallel_appends_never_interleave(self, tmp_path):
        """Four processes hammering one store file: every line must
        still be a complete, parseable row (the flock + single-write
        append contract)."""
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_hammer_store, args=(tmp_path, w, 25))
            for w in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
            assert p.exitcode == 0
        lines = (tmp_path / "results.jsonl").read_text().splitlines()
        assert len(lines) == 100
        for line in lines:
            json.loads(line)
        store = ResultStore(tmp_path)
        assert len(store) == 100
        assert audit_store(tmp_path).corrupt == 0
        assert store.get("w3-r24").cycles == 3024
