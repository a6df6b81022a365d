"""Cross-backend store tests: locating, behavior parity, migration.

``test_exp_store.py`` pins the JSONL on-disk format; this module covers
what must hold for *any* backend (the behavior contract, parameterized
over both), what is SQLite-specific (single-row upserts, schema
versioning, WAL-file rejection), and the migration invariants that let
a campaign hop between formats byte-identically.
"""

import json
import multiprocessing
import random
import sqlite3

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.exp import (
    STORE_BACKENDS,
    ResultStore,
    audit_store,
    compact_store,
    describe_store,
    locate_store,
    migrate_store,
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


both_backends = pytest.mark.parametrize("backend", list(STORE_BACKENDS))


class TestResolution:
    def test_suffix_selects_backend(self, tmp_path):
        for name, kind in (
            ("r.jsonl", "jsonl"),
            ("r.sqlite", "sqlite"),
            ("r.sqlite3", "sqlite"),
            ("r.db", "sqlite"),
        ):
            assert locate_store(tmp_path / name) == (kind, tmp_path / name)

    def test_directory_defaults_to_jsonl(self, tmp_path):
        assert locate_store(tmp_path) == ("jsonl", tmp_path / "results.jsonl")
        assert locate_store(tmp_path, "sqlite") == (
            "sqlite",
            tmp_path / "results.sqlite",
        )

    def test_explicit_conflicting_with_suffix_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            locate_store(tmp_path / "r.jsonl", "sqlite")

    def test_near_miss_suffix_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="results.json"):
            locate_store(tmp_path / "results.json")

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="parquet"):
            locate_store(tmp_path, "parquet")
        with pytest.raises(ConfigurationError, match="parquet"):
            ResultStore(tmp_path, backend="parquet")

    def test_existing_store_detected(self, tmp_path):
        """A directory already holding a sqlite store keeps resolving
        to it without a flag — reopening a campaign must not silently
        fork a second store in the other format."""
        ResultStore(tmp_path, backend="sqlite").put("k", make_result())
        assert locate_store(tmp_path)[0] == "sqlite"
        assert ResultStore(tmp_path).get("k") == make_result()

    def test_flag_contradicting_directory_store_rejected(
        self, tmp_path, store_backend
    ):
        """Naming the other format for a directory that already holds a
        store raises instead of creating a second store beside it."""
        other = "sqlite" if store_backend == "jsonl" else "jsonl"
        ResultStore(tmp_path, backend=store_backend).put("k", make_result())
        with pytest.raises(ConfigurationError, match="fork"):
            ResultStore(tmp_path, backend=other)
        assert not (tmp_path / f"results.{other}").exists()
        assert ResultStore(tmp_path, backend=store_backend).get("k")

    def test_directory_with_both_stores_needs_a_flag(self, tmp_path):
        ResultStore(tmp_path / "results.jsonl").put("k", make_result(cycles=1))
        ResultStore(tmp_path / "results.sqlite").put("k", make_result(cycles=2))
        with pytest.raises(ConfigurationError, match="both"):
            locate_store(tmp_path)
        assert ResultStore(tmp_path, backend="jsonl").get("k").cycles == 1
        assert ResultStore(tmp_path, backend="sqlite").get("k").cycles == 2

    def test_describe_store(self, tmp_path):
        assert describe_store(tmp_path) is None
        ResultStore(tmp_path, backend="sqlite").put("k", make_result())
        info = describe_store(tmp_path)
        assert info["backend"] == "sqlite"
        assert info["schema_version"] == 1

    def test_memory_store_requires_jsonl_semantics(self):
        with pytest.raises(ConfigurationError):
            ResultStore(backend="sqlite")


class TestBehaviorParity:
    """The store contract, parameterized over both backends."""

    @both_backends
    def test_roundtrip_through_disk(self, tmp_path, backend):
        store = ResultStore(tmp_path, backend=backend)
        result = make_result(variant="slicc-sw")
        store.put("deadbeef", result, spec={"workload": "tpcc-1"})
        store.close()

        reloaded = ResultStore(tmp_path, backend=backend)
        assert reloaded.get("deadbeef") == result
        assert reloaded.spec_info("deadbeef") == {"workload": "tpcc-1"}
        assert reloaded.backend == backend
        assert "deadbeef" in reloaded and len(reloaded) == 1

    @both_backends
    def test_overwrite_last_wins(self, tmp_path, backend):
        store = ResultStore(tmp_path, backend=backend)
        store.put("k", make_result(cycles=1))
        store.put("k", make_result(cycles=2))
        store.close()
        assert ResultStore(tmp_path, backend=backend).get("k").cycles == 2

    @both_backends
    def test_failure_recorded_but_never_served(self, tmp_path, backend):
        store = ResultStore(tmp_path, backend=backend)
        failure = {"kind": "timeout", "error": "killed", "attempts": 1}
        store.put_failure("k", failure, spec={"workload": "tpcc-1"})
        store.close()
        reloaded = ResultStore(tmp_path, backend=backend)
        assert reloaded.get("k") is None
        assert reloaded.failure_info("k") == failure
        assert reloaded.failures() == {"k": failure}
        assert audit_store(tmp_path, backend=backend).live_failures == 1

    @both_backends
    def test_result_supersedes_failure(self, tmp_path, backend):
        """A result written after a failure clears it — the retry-then-
        succeed path must leave no live failure behind."""
        store = ResultStore(tmp_path, backend=backend)
        store.put_failure("k", {"kind": "error", "error": "boom"})
        store.put("k", make_result())
        store.close()
        reloaded = ResultStore(tmp_path, backend=backend)
        assert reloaded.get("k") == make_result()
        assert reloaded.failure_info("k") is None
        assert audit_store(tmp_path, backend=backend).live_failures == 0

    @both_backends
    def test_later_failure_never_displaces_result(self, tmp_path, backend):
        """A failure written after a result for the same key (two queue
        workers finishing one spec) is ignored — in memory, after a
        reopen and by the audit. SQLite's failure upsert carries
        ``WHERE kind != 'result'``; the JSONL fold skips the row."""
        store = ResultStore(tmp_path, backend=backend)
        store.put("k", make_result())
        store.put_failure("k", {"kind": "error", "error": "late"})
        assert store.failure_info("k") is None
        store.close()
        reloaded = ResultStore(tmp_path, backend=backend)
        assert reloaded.get("k") == make_result()
        assert reloaded.failure_info("k") is None
        assert reloaded.failures() == {}
        audit = audit_store(tmp_path, backend=backend)
        assert audit.keys == 1 and audit.live_failures == 0

    @both_backends
    def test_keys_preserve_insertion_order(self, tmp_path, backend):
        store = ResultStore(tmp_path, backend=backend)
        for name in ("c", "a", "b"):
            store.put(name, make_result())
        store.put("a", make_result(cycles=2))  # rewrite keeps its slot
        assert list(store.keys()) == ["c", "a", "b"]
        store.close()
        reloaded = ResultStore(tmp_path, backend=backend)
        assert list(reloaded.keys()) == ["c", "a", "b"]

    @both_backends
    def test_audit_clean_store(self, tmp_path, backend):
        store = ResultStore(tmp_path, backend=backend)
        store.put("a", make_result())
        store.put_failure("b", {"kind": "error", "error": "boom"})
        store.close()
        audit = audit_store(tmp_path, backend=backend)
        assert audit.backend == backend
        assert audit.clean
        assert audit.keys == 1 and audit.live_failures == 1
        assert audit.integrity == "ok"


class TestSqliteSpecifics:
    def test_overwrite_is_single_row(self, tmp_path):
        """The UNIQUE upsert rewrites in place — no append-and-fold."""
        store = ResultStore(tmp_path, backend="sqlite")
        for cycles in range(5):
            store.put("k", make_result(cycles=cycles))
        conn = sqlite3.connect(store.path)
        assert conn.execute("SELECT COUNT(*) FROM results").fetchone()[0] == 1
        conn.close()

    def test_failure_columns_are_structured(self, tmp_path):
        store = ResultStore(tmp_path, backend="sqlite")
        store.put_failure(
            "k", {"kind": "timeout", "error": "killed", "attempts": 3}
        )
        conn = sqlite3.connect(store.path)
        row = conn.execute(
            "SELECT failure_kind, failure_error, failure_attempts "
            "FROM results WHERE key = 'k'"
        ).fetchone()
        conn.close()
        assert row == ("timeout", "killed", 3)

    def test_wrong_schema_version_rejected(self, tmp_path):
        store = ResultStore(tmp_path, backend="sqlite")
        store.put("k", make_result())
        path = store.path
        store.close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET v = '999' WHERE k = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(ConfigurationError, match="schema"):
            ResultStore(path)

    def test_non_database_file_rejected(self, tmp_path):
        path = tmp_path / "results.sqlite"
        path.write_text("this is not a database\n")
        with pytest.raises(ConfigurationError):
            ResultStore(path)

    def test_compact_is_idempotent_reupsert(self, tmp_path):
        store = ResultStore(tmp_path, backend="sqlite")
        store.put("a", make_result(cycles=1))
        store.put("b", make_result(cycles=2))
        store.close()
        before = list(
            ResultStore(tmp_path, backend="sqlite").export_rows()
        )
        _, kept = compact_store(tmp_path, backend="sqlite")
        assert kept == 2
        after_store = ResultStore(tmp_path, backend="sqlite")
        assert list(after_store.export_rows()) == before
        assert audit_store(tmp_path, backend="sqlite").clean

    def test_multiprocess_writers(self, tmp_path):
        """Four forked processes upserting into one database: SQLite's
        own locking must serialise them without lost rows."""
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_hammer_sqlite, args=(tmp_path, w, 20))
            for w in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
            assert p.exitcode == 0
        store = ResultStore(tmp_path, backend="sqlite")
        assert len(store) == 80
        assert store.get("w3-r19").cycles == 3019
        assert audit_store(tmp_path, backend="sqlite").clean


def _hammer_sqlite(path, writer, n_rows):
    store = ResultStore(path, backend="sqlite")
    for i in range(n_rows):
        store.put(f"w{writer}-r{i}", make_result(cycles=writer * 1000 + i))


class TestMigration:
    def populate(self, tmp_path, backend):
        store = ResultStore(tmp_path, backend=backend)
        store.put("a", make_result(cycles=1))
        store.put("a", make_result(cycles=2))
        store.put("b", make_result(cycles=3), spec={"workload": "tpcc-1"})
        store.put_failure(
            "c", {"kind": "timeout", "error": "killed", "attempts": 2}
        )
        store.close()
        return store.path

    def test_jsonl_to_sqlite_and_back_is_byte_identical(self, tmp_path):
        src = self.populate(tmp_path / "src", "jsonl")
        compact_store(src)  # canonical form: one live row per key
        hop = tmp_path / "hop.sqlite"
        back = tmp_path / "back.jsonl"
        report = migrate_store(src, hop)
        assert (report.results, report.failures) == (2, 1)
        migrate_store(hop, back)
        assert back.read_bytes() == src.read_bytes()

    def test_sqlite_to_jsonl_and_back_preserves_rows(self, tmp_path):
        src = self.populate(tmp_path / "src", "sqlite")
        hop = tmp_path / "hop.jsonl"
        back = tmp_path / "back.sqlite"
        migrate_store(src, hop)
        migrate_store(hop, back)
        rows_src = list(ResultStore(src).export_rows())
        rows_back = list(ResultStore(back).export_rows())
        assert rows_src == rows_back
        a = ResultStore(back)
        assert a.get("a").cycles == 2
        assert a.failure_info("c")["attempts"] == 2

    def test_quarantine_survives_round_trip(self, tmp_path):
        src = self.populate(tmp_path / "src", "jsonl")
        junk = '{"key": "torn", "result": {"cy'
        with src.open("a") as fh:
            fh.write(junk)
        with pytest.warns(UserWarning):
            compact_store(src)  # moves the fragment to the sidecar
        hop = tmp_path / "hop.sqlite"
        back = tmp_path / "back.jsonl"
        migrate_store(src, hop)
        migrate_store(hop, back)
        sidecar = back.parent / (back.name + ".quarantine")
        assert sidecar.read_text().splitlines() == [junk]
        assert back.read_bytes() == src.read_bytes()

    def test_migrating_missing_store_fails(self, tmp_path):
        with pytest.raises(ConfigurationError):
            migrate_store(tmp_path / "absent.jsonl", tmp_path / "out.sqlite")

    def test_migrating_onto_itself_fails(self, tmp_path):
        src = self.populate(tmp_path, "jsonl")
        with pytest.raises(ConfigurationError):
            migrate_store(src, src)

    @pytest.mark.parametrize("start", list(STORE_BACKENDS))
    def test_random_op_sequences_round_trip(self, start, tmp_path):
        """Property-style: arbitrary mixes of results, failures and
        duplicate keys must survive a hop through the other backend
        with identical live content."""
        rng = random.Random(20260808 if start == "jsonl" else 42)
        store = ResultStore(tmp_path / "src", backend=start)
        for i in range(60):
            key = f"k{rng.randrange(15)}"
            if rng.random() < 0.3:
                store.put_failure(
                    key,
                    {
                        "kind": rng.choice(["timeout", "error"]),
                        "error": f"boom-{i}",
                        "attempts": rng.randrange(1, 4),
                    },
                )
            else:
                store.put(
                    key,
                    make_result(cycles=i),
                    spec={"index": i} if rng.random() < 0.5 else None,
                )
        store.close()

        other = "sqlite" if start == "jsonl" else "jsonl"
        hop = tmp_path / ("hop.sqlite" if other == "sqlite" else "hop.jsonl")
        back = tmp_path / ("b.jsonl" if start == "jsonl" else "b.sqlite")
        migrate_store(store.path, hop)
        migrate_store(hop, back)

        src, dst = ResultStore(store.path), ResultStore(back)
        assert list(src.keys()) == list(dst.keys())
        for key in src.keys():
            assert result_to_json(src.get(key)) == result_to_json(
                dst.get(key)
            )
            assert src.spec_info(key) == dst.spec_info(key)
        assert dst.failures() == src.failures()


class TestCli:
    def run_sweep(self, tmp_path, backend=None):
        payload = {
            "workload": "tpcc-1",
            "scale": "smoke",
            "seed": 7,
            "variant": "slicc-sw",
            "axes": {"slicc.dilution_t": [5, 10]},
        }
        specfile = tmp_path / "exp.json"
        specfile.write_text(json.dumps(payload))
        store = tmp_path / "campaign"
        argv = ["exp", str(specfile), "--store", str(store)]
        if backend:
            argv += ["--backend", backend]
        assert main(argv) == 0
        return store

    def test_exp_backend_flag_creates_sqlite_store(self, tmp_path):
        store = self.run_sweep(tmp_path, backend="sqlite")
        assert (store / "results.sqlite").exists()
        assert not (store / "results.jsonl").exists()
        assert len(ResultStore(store)) == 2

    def test_contradicting_backend_flag_exits_2(
        self, tmp_path, store_backend, capsys
    ):
        store = self.run_sweep(tmp_path, backend=store_backend)
        other = "sqlite" if store_backend == "jsonl" else "jsonl"
        specfile = str(tmp_path / "exp.json")
        capsys.readouterr()
        argv = ["exp", specfile, "--store", str(store), "--backend", other]
        assert main(argv) == 2
        assert "fork" in capsys.readouterr().err
        assert not (store / f"results.{other}").exists()

    def test_store_migrate_cli_round_trip(self, tmp_path, capsys):
        store = self.run_sweep(tmp_path)
        src = store / "results.jsonl"
        hop = tmp_path / "hop.sqlite"
        back = tmp_path / "back.jsonl"
        assert main(["store", "migrate", str(src), str(hop)]) == 0
        capsys.readouterr()
        assert main(["store", "verify", str(hop), "--json"]) == 0
        audit = json.loads(capsys.readouterr().out)
        assert audit["backend"] == "sqlite" and audit["clean"] is True
        assert main(["store", "migrate", str(hop), str(back)]) == 0
        assert back.read_bytes() == src.read_bytes()

    @pytest.mark.parametrize("action", ["verify", "compact"])
    def test_missing_store_exits_2(
        self, tmp_path, store_backend, action, capsys
    ):
        """A mistyped path is a usage error, not an empty clean store."""
        path = tmp_path / f"nowhere.{store_backend}"
        assert main(["store", action, str(path)]) == 2
        assert "no store at" in capsys.readouterr().err
        assert not path.exists()

    def test_store_verify_json_names_backend(self, tmp_path, capsys):
        store = self.run_sweep(tmp_path, backend="sqlite")
        capsys.readouterr()
        assert main(["store", "verify", str(store), "--json"]) == 0
        audit = json.loads(capsys.readouterr().out)
        assert audit["backend"] == "sqlite"
        assert audit["schema_version"] == 1
        assert audit["clean"] is True

    def test_queue_status_json_names_backend(self, tmp_path, capsys):
        payload = {
            "workload": "tpcc-1",
            "scale": "smoke",
            "seed": 7,
            "variant": "slicc-sw",
            "axes": {"slicc.dilution_t": [5]},
        }
        specfile = tmp_path / "exp.json"
        specfile.write_text(json.dumps(payload))
        qdir = tmp_path / "campaign"
        assert main(["queue", "enqueue", str(specfile), str(qdir)]) == 0
        assert (
            main(
                [
                    "queue",
                    "work",
                    str(qdir),
                    "--poll",
                    "0.05",
                    "--backend",
                    "sqlite",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["queue", "status", str(qdir), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["store_backend"] == "sqlite"
        assert status["store_schema_version"] == 1
        assert status["store_path"].endswith("results.sqlite")
