"""SQLite store backend: indexed, WAL-journaled, single-row-per-key.

The schema upholds the store's invariants structurally instead of by
replay:

* ``results`` has a UNIQUE index on the canonical spec key, so
  *last-result-per-key* is not a load-time fold but a constraint —
  every write is an upsert and a lookup is an O(log n) point query.
* The upsert preserves ``seq`` (the rowid) on conflict, so first-
  insertion order survives rewrites and ``export_rows`` yields rows in
  the same order a JSONL store would after compaction — migrations
  round-trip deterministically.
* A failure upsert carries ``WHERE kind != 'result'``: results outrank
  failure provenance, matching the JSONL load fold (a result is never
  shadowed by a failure row) and the queue's ``done``-beats-``failed``
  rule.
* Failure rows keep ``kind`` / ``error`` / ``attempts`` as real columns
  (plus the full JSON payload), so post-mortems are one ``SELECT``
  away instead of a JSON grep.

Concurrency and durability: the database runs in WAL mode with
``synchronous=FULL`` — every commit fsyncs, pricing durability the same
as the JSONL backend's per-append fsync — and multi-process writers
serialise on SQLite's own file locking (``busy_timeout`` 30 s, explicit
``BEGIN IMMEDIATE`` for multi-statement transactions) instead of the
JSONL ``flock`` sidecar. The torn-write fault (`REPRO_FAULT`
``torn_write``) is *not* consulted here and that is the point: a torn
append is a physical impossibility under WAL, where a commit either
reaches the fsync'd log in full or is rolled back on recovery. The
fault injector stays meaningful for this backend through process
``crash``/``die`` kills, which exercise WAL crash recovery instead.

Corruption handling mirrors the JSONL quarantine sidecar with a
``quarantine`` table: a row whose JSON payload no longer parses is
moved there by ``repro store compact`` and reported by ``verify``;
whole-file corruption surfaces via ``PRAGMA integrity_check``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import warnings
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.errors import ConfigurationError
from repro.sim.results import SimulationResult

#: Version of the SQLite schema this module reads and writes; stored in
#: the ``meta`` table and checked on every open.
SQLITE_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    k TEXT PRIMARY KEY,
    v TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    key TEXT NOT NULL,
    kind TEXT NOT NULL CHECK (kind IN ('result', 'failure')),
    spec TEXT,
    result TEXT,
    failure_kind TEXT,
    failure_error TEXT,
    failure_attempts INTEGER,
    failure TEXT
);
CREATE UNIQUE INDEX IF NOT EXISTS results_key ON results (key);
CREATE TABLE IF NOT EXISTS quarantine (
    line TEXT PRIMARY KEY
);
"""

_PUT_RESULT = """
INSERT INTO results (key, kind, spec, result)
VALUES (:key, 'result', :spec, :result)
ON CONFLICT (key) DO UPDATE SET
    kind = 'result',
    spec = excluded.spec,
    result = excluded.result,
    failure_kind = NULL,
    failure_error = NULL,
    failure_attempts = NULL,
    failure = NULL
"""

# Results outrank failure provenance: the WHERE clause makes a failure
# upsert a no-op when the key already holds a result, mirroring the
# JSONL load fold where a failure row never shadows a result.
_PUT_FAILURE = """
INSERT INTO results
    (key, kind, spec, failure_kind, failure_error, failure_attempts,
     failure)
VALUES
    (:key, 'failure', :spec, :failure_kind, :failure_error,
     :failure_attempts, :failure)
ON CONFLICT (key) DO UPDATE SET
    kind = 'failure',
    spec = excluded.spec,
    result = NULL,
    failure_kind = excluded.failure_kind,
    failure_error = excluded.failure_error,
    failure_attempts = excluded.failure_attempts,
    failure = excluded.failure
WHERE results.kind != 'result'
"""


def _dump(payload) -> Optional[str]:
    """Canonical JSON for a column payload (NULL for empty/absent)."""
    if not payload:
        return None
    return json.dumps(payload, sort_keys=True)


def _connect(path: Path, create: bool) -> sqlite3.Connection:
    """Open (and if asked, initialise) the database at ``path``.

    Rejects files that are not SQLite databases or that carry an
    unknown schema version — loudly, because silently treating a
    foreign file as an empty store would orphan its rows.
    """
    if not create and not path.exists():
        raise ConfigurationError(f"no SQLite store at {path}")
    conn = sqlite3.connect(path, timeout=30.0, isolation_level=None)
    try:
        conn.execute("PRAGMA journal_mode=WAL")
        # FULL, not WAL-default NORMAL: every commit fsyncs, matching
        # the JSONL backend's durability (one fsync per append).
        conn.execute("PRAGMA synchronous=FULL")
        conn.execute("PRAGMA busy_timeout=30000")
        if create:
            # executescript commits implicitly; every statement is
            # IF NOT EXISTS / OR IGNORE, so a concurrent-create race
            # is harmless.
            conn.executescript(_SCHEMA)
            conn.execute(
                "INSERT OR IGNORE INTO meta (k, v) VALUES "
                "('schema_version', ?)",
                (str(SQLITE_SCHEMA_VERSION),),
            )
        row = conn.execute(
            "SELECT v FROM meta WHERE k = 'schema_version'"
        ).fetchone()
        if row is None:
            raise ConfigurationError(
                f"{path} has no schema_version; not a repro result store"
            )
        version = int(row[0])
        if version != SQLITE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"{path} carries store schema v{version}; this build "
                f"reads v{SQLITE_SCHEMA_VERSION} — migrate via JSONL "
                "export with a matching build"
            )
    except sqlite3.DatabaseError as exc:
        conn.close()
        raise ConfigurationError(
            f"{path} is not a SQLite result store: {exc}"
        ) from exc
    except Exception:
        conn.close()
        raise
    return conn


def _load_result(text: Optional[str], key: str, where: Path):
    """Parse a stored result payload; warn-and-skip on bad JSON (the
    row is re-derivable by rerunning its spec, like a quarantined
    JSONL line)."""
    if text is None:
        return None
    try:
        return SimulationResult(**json.loads(text))
    except (json.JSONDecodeError, TypeError) as exc:
        warnings.warn(
            f"{where}: result row for {key[:12]}… does not parse "
            f"({exc}); run `repro store compact {where}` to quarantine "
            "it",
            stacklevel=3,
        )
        return None


class SqliteBackend:
    """The SQLite store behind a :class:`repro.exp.store.ResultStore`.

    Opening validates the database eagerly (a wrong schema version or a
    non-database file fails here, not on some later query) and does no
    O(rows) work. The connection is tracked per-PID: a forked pool
    worker that inherited the parent's handle transparently reopens its
    own — a SQLite connection must never cross a fork.
    """

    kind = "sqlite"

    def __init__(self, path: Path) -> None:
        self.path = path
        path.parent.mkdir(parents=True, exist_ok=True)
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None
        self.conn  # connect now: a bad file fails at open

    @property
    def conn(self) -> sqlite3.Connection:
        if self._conn is None or self._conn_pid != os.getpid():
            if self._conn is not None:
                # Inherited across a fork: abandon, never close — a
                # close here could roll back the parent's WAL state.
                self._conn = None
            self._conn = _connect(self.path, create=True)
            self._conn_pid = os.getpid()
        return self._conn

    def close(self) -> None:
        if self._conn is not None and self._conn_pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._conn_pid = None

    # Keyed access ----------------------------------------------------
    def get(self, key: str) -> Optional[SimulationResult]:
        row = self.conn.execute(
            "SELECT result FROM results WHERE key = ? AND "
            "kind = 'result'",
            (key,),
        ).fetchone()
        if row is None:
            return None
        return _load_result(row[0], key, self.path)

    def spec_info(self, key: str) -> Optional[dict]:
        row = self.conn.execute(
            "SELECT spec FROM results WHERE key = ? AND kind = 'result'",
            (key,),
        ).fetchone()
        if row is None:
            return None
        return json.loads(row[0]) if row[0] else {}

    def failure_info(self, key: str) -> Optional[dict]:
        row = self.conn.execute(
            "SELECT failure FROM results WHERE key = ? AND "
            "kind = 'failure'",
            (key,),
        ).fetchone()
        if row is None or row[0] is None:
            return None
        return json.loads(row[0])

    def failures(self) -> dict[str, dict]:
        return {
            key: json.loads(payload)
            for key, payload in self.conn.execute(
                "SELECT key, failure FROM results WHERE "
                "kind = 'failure' AND failure IS NOT NULL ORDER BY seq"
            )
        }

    def write(
        self, rows: Iterable[dict], tearable: bool = False
    ) -> tuple[int, int]:
        """Upsert rows in one IMMEDIATE transaction — one fsync for the
        whole batch. ``tearable`` is ignored: a WAL commit cannot tear.
        Returns ``(result rows, failure rows)`` written."""
        n_results = n_failures = 0
        conn = self.conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            for row in rows:
                key = row["key"]
                if "result" in row:
                    payload = row["result"]
                    # A malformed row fails here, not at some later read.
                    SimulationResult(**payload)
                    conn.execute(
                        _PUT_RESULT,
                        {
                            "key": key,
                            "spec": _dump(row.get("spec")),
                            "result": json.dumps(payload, sort_keys=True),
                        },
                    )
                    n_results += 1
                else:
                    conn.execute(
                        _PUT_FAILURE,
                        self._failure_params(key, row["failure"]),
                    )
                    n_failures += 1
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")
        return n_results, n_failures

    @staticmethod
    def _failure_params(key: str, failure: dict) -> dict:
        attempts = failure.get("attempts")
        return {
            "key": key,
            "spec": None,
            "failure_kind": failure.get("kind"),
            "failure_error": failure.get("error"),
            "failure_attempts": int(attempts)
            if isinstance(attempts, (int, float))
            else None,
            "failure": json.dumps(failure, sort_keys=True),
        }

    def contains(self, key: str) -> bool:
        return (
            self.conn.execute(
                "SELECT 1 FROM results WHERE key = ? AND "
                "kind = 'result'",
                (key,),
            ).fetchone()
            is not None
        )

    def count(self) -> int:
        return int(
            self.conn.execute(
                "SELECT COUNT(*) FROM results WHERE kind = 'result'"
            ).fetchone()[0]
        )

    def keys(self) -> Iterator[str]:
        for (key,) in self.conn.execute(
            "SELECT key FROM results WHERE kind = 'result' ORDER BY seq"
        ).fetchall():
            yield key

    def results(self) -> Iterator[SimulationResult]:
        for key, text in self.conn.execute(
            "SELECT key, result FROM results WHERE kind = 'result' "
            "ORDER BY seq"
        ).fetchall():
            result = _load_result(text, key, self.path)
            if result is not None:
                yield result

    # Bulk import/export ----------------------------------------------
    def export_rows(self) -> Iterator[dict]:
        for key, kind, spec, result, failure in self.conn.execute(
            "SELECT key, kind, spec, result, failure FROM results "
            "ORDER BY seq"
        ).fetchall():
            try:
                if kind == "result":
                    yield {
                        "key": key,
                        "spec": json.loads(spec) if spec else None,
                        "result": json.loads(result),
                    }
                else:
                    yield {
                        "key": key,
                        "spec": None,
                        "failure": json.loads(failure),
                    }
            except (json.JSONDecodeError, TypeError):
                warnings.warn(
                    f"{self.path}: skipping unparseable {kind} row for "
                    f"{key[:12]}… during export",
                    stacklevel=2,
                )

    def quarantine_lines(self) -> list[str]:
        if not self.path.exists():
            return []
        return [
            line
            for (line,) in self.conn.execute(
                "SELECT line FROM quarantine ORDER BY rowid"
            ).fetchall()
        ]

    def add_quarantine(self, lines: Iterable[str]) -> int:
        fresh = 0
        conn = self.conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            for line in lines:
                cur = conn.execute(
                    "INSERT OR IGNORE INTO quarantine (line) VALUES (?)",
                    (line,),
                )
                fresh += cur.rowcount
        except Exception:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")
        return fresh


# ----------------------------------------------------------------------
# verify / compact
# ----------------------------------------------------------------------


def _payload_ok(kind: str, payload: Optional[str]) -> bool:
    """Does a row's stored payload still parse (a loadable result, or a
    failure dict)?"""
    try:
        parsed = json.loads(payload)
        if kind == "result":
            SimulationResult(**parsed)
            return True
    except (json.JSONDecodeError, TypeError):
        return False
    return isinstance(parsed, dict)


def audit_sqlite(path: Path):
    """Row-level health scan plus ``PRAGMA integrity_check``.

    ``superseded`` is always 0 here — the UNIQUE key index upserts in
    place, so the database holds no history to reclaim; ``compact``
    still has work to do (WAL checkpoint + VACUUM + quarantining rows
    whose payload no longer parses).
    """
    from repro.exp.store import StoreAudit

    audit = StoreAudit(
        path=path, backend="sqlite", schema_version=SQLITE_SCHEMA_VERSION
    )
    if not path.exists():
        return audit
    conn = _connect(path, create=False)
    try:
        audit.integrity = str(
            conn.execute("PRAGMA integrity_check").fetchone()[0]
        )
        if audit.integrity != "ok":
            audit.corrupt += 1
        for key, kind, result, failure in conn.execute(
            "SELECT key, kind, result, failure FROM results ORDER BY seq"
        ):
            audit.lines += 1
            if not _payload_ok(kind, result if kind == "result" else failure):
                audit.corrupt += 1
            elif kind == "result":
                audit.result_rows += 1
                audit.keys += 1
            else:
                audit.failure_rows += 1
                audit.live_failures += 1
    finally:
        conn.close()
    return audit


def compact_sqlite(path: Path):
    """Idempotent re-upsert of every valid row + WAL checkpoint + VACUUM.

    Rows whose payload no longer parses move to the ``quarantine``
    table (evidence preserved, store usable again), mirroring the JSONL
    sidecar. Returns ``(audit before compaction, rows kept)``.
    """
    audit = audit_sqlite(path)
    if not path.exists():
        return audit, 0
    conn = _connect(path, create=False)
    try:
        conn.execute("BEGIN IMMEDIATE")
        bad: list[tuple[int, str]] = []
        kept = 0
        for seq, key, kind, spec, result, failure in conn.execute(
            "SELECT seq, key, kind, spec, result, failure FROM results "
            "ORDER BY seq"
        ).fetchall():
            if not _payload_ok(kind, result if kind == "result" else failure):
                row = {
                    "key": key,
                    "kind": kind,
                    "spec": spec,
                    "result": result,
                    "failure": failure,
                }
                bad.append((seq, json.dumps(row, sort_keys=True)))
                continue
            kept += 1
            # Re-upsert in place: proves the write path is idempotent
            # over its own output (seq is preserved on conflict, so
            # order is untouched).
            if kind == "result":
                conn.execute(
                    _PUT_RESULT,
                    {"key": key, "spec": spec, "result": result},
                )
            else:
                conn.execute(
                    "UPDATE results SET failure = ? WHERE seq = ?",
                    (failure, seq),
                )
        for seq, line in bad:
            conn.execute(
                "INSERT OR IGNORE INTO quarantine (line) VALUES (?)",
                (line,),
            )
            conn.execute("DELETE FROM results WHERE seq = ?", (seq,))
        conn.execute("COMMIT")
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        conn.execute("VACUUM")
    finally:
        conn.close()
    return audit, kept
