"""Content-addressed result persistence in one of two file formats.

A :class:`ResultStore` maps :meth:`ExperimentSpec.key` hashes to
:class:`~repro.sim.results.SimulationResult` rows, in one of two
formats:

``jsonl``
    An append-only JSONL file, folded into memory at open. Every write
    is one locked, fsync'd ``os.write`` (``O_APPEND`` + ``flock`` on a
    ``.lock`` sidecar) that first heals a torn tail; corrupt lines are
    quarantined to a ``.quarantine`` sidecar at open. Opening reads the
    whole file — right for hundreds of rows, linear for millions.
``sqlite``
    A WAL-mode SQLite database with a UNIQUE index on the canonical key
    (see :mod:`repro.exp.store_sqlite`): every write is an upsert, every
    lookup an O(log n) point query, and opening is O(1).

**Locating a store** (:func:`locate_store`). A file path's suffix names
the format (``.jsonl``; ``.sqlite`` / ``.sqlite3`` / ``.db``). A
directory uses the store already in it, else the ``backend`` argument
(the ``--backend`` flag), else JSONL. A ``backend`` that contradicts the
suffix, or the store already in the directory, is a configuration
error: a flag never forks a campaign into a second store.

Both formats keep one contract, and :func:`migrate_store` converts
either way with byte-identical rows, quarantined lines included:

* **Results outrank failures.** ``get`` never serves a failure row; a
  ``put`` clears the key's failure record, and a failure written after
  a result for the same key is ignored. Failures are provenance, not
  cache entries, so a resumed campaign retries them.
* **A corrupt row never bricks the store.** It is quarantined (sidecar
  file or ``quarantine`` table) and re-derivable by rerunning its spec.
  ``repro store verify`` reports health, ``repro store compact``
  rewrites and garbage-collects.
"""

from __future__ import annotations

import json
import os
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

try:  # Advisory locking is POSIX-only; the store degrades gracefully.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.errors import ConfigurationError
from repro.exp import faults
from repro.sim.results import SimulationResult

#: Known backend kinds, in documentation order.
STORE_BACKENDS = ("jsonl", "sqlite")

#: Store filename created inside a directory path, per backend.
DEFAULT_BASENAMES = {"jsonl": "results.jsonl", "sqlite": "results.sqlite"}

#: Path suffixes that name a backend.
SUFFIX_BACKENDS = {
    ".jsonl": "jsonl",
    ".sqlite": "sqlite",
    ".sqlite3": "sqlite",
    ".db": "sqlite",
}

#: Schema version of the JSONL row format (one JSON object per line with
#: a ``key`` and either a ``result`` or a ``failure`` payload).
JSONL_SCHEMA_VERSION = 1


def result_to_dict(result: SimulationResult) -> dict:
    """Plain-dict rendering of a result (inverse of
    :func:`result_from_dict`)."""
    return asdict(result)


def result_from_dict(payload: dict) -> SimulationResult:
    """Rebuild a result from :func:`result_to_dict` output."""
    return SimulationResult(**payload)


def result_to_json(result: SimulationResult) -> str:
    """Canonical JSON rendering — byte-identical for equal results, used
    by the determinism guard in the test suite."""
    return json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    )


# ----------------------------------------------------------------------
# Locating a store
# ----------------------------------------------------------------------


def locate_store(
    path: Union[str, Path], backend: Optional[str] = None
) -> tuple[str, Path]:
    """The ``(backend kind, store file)`` a store argument names.

    A file path's suffix names the format; any other suffix is rejected
    (a near-miss like ``results.json`` would otherwise silently become a
    *directory* of that name — dotted names that already exist as
    directories are fine). A directory, existing or not, uses the store
    already in it, else ``backend``, else JSONL.

    Raises:
        ConfigurationError: for an unknown ``backend``, a ``backend``
            that contradicts the suffix or the directory's store, or a
            directory holding both stores with no ``backend`` to pick
            one.
    """
    if backend is not None and backend not in STORE_BACKENDS:
        raise ConfigurationError(
            f"unknown store backend {backend!r}; known: "
            f"{list(STORE_BACKENDS)}"
        )
    path = Path(path)
    if path.suffix and not path.is_dir():
        kind = SUFFIX_BACKENDS.get(path.suffix)
        if kind is None:
            raise ConfigurationError(
                f"store path {path} looks like a file but is not a store "
                "file (*.jsonl, *.sqlite, *.sqlite3, *.db); pass a "
                "directory or a store file"
            )
        if backend not in (None, kind):
            raise ConfigurationError(
                f"backend {backend!r} contradicts the {path.suffix} "
                f"suffix of {path}; drop one of the two"
            )
        return kind, path
    present = [
        kind
        for kind, name in DEFAULT_BASENAMES.items()
        if (path / name).exists()
    ]
    if backend is None:
        if len(present) > 1:
            raise ConfigurationError(
                f"{path} holds both a results.jsonl and a results.sqlite "
                "store; pass the store file itself, or --backend, to pick "
                "one"
            )
        backend = present[0] if present else "jsonl"
    elif present and backend not in present:
        raise ConfigurationError(
            f"{path} already holds a {present[0]} store; backend "
            f"{backend!r} would fork the campaign into a second store — "
            "drop it, or convert with `repro store migrate`"
        )
    return backend, path / DEFAULT_BASENAMES[backend]


def describe_store(path: Union[str, Path]) -> Optional[dict]:
    """Backend/schema facts about the store at ``path``, or ``None``
    when no store file exists there yet. Powers the backend fields of
    ``repro queue status --json``."""
    kind, file = locate_store(path)
    if not file.exists():
        return None
    if kind == "sqlite":
        from repro.exp.store_sqlite import SQLITE_SCHEMA_VERSION

        version = SQLITE_SCHEMA_VERSION
    else:
        version = JSONL_SCHEMA_VERSION
    return {"backend": kind, "schema_version": version, "path": str(file)}


# ----------------------------------------------------------------------
# The durable append (shared with the work queue)
# ----------------------------------------------------------------------


@contextmanager
def flocked(lock_path: Path):
    """Hold an exclusive advisory ``flock`` on a sidecar lockfile (a
    no-op where ``fcntl`` is unavailable)."""
    if fcntl is None:
        yield
        return
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # closing the descriptor releases the flock


def append_lines(path: Path, data: bytes, torn: bool = False) -> None:
    """Crash-safe append of whole lines; the caller holds the lock.

    If the file ends in a partial line (a crashed writer), a newline is
    written first so the fragment stays isolated on its own line. Then
    ``data`` goes out in one ``os.write`` and is fsync'd: a concurrent
    writer can never interleave, and a crash loses at most this write.
    ``torn`` injects the fault a power loss mid-append leaves behind:
    half of ``data``, no newline, no fsync.
    """
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size:
            # Reading moves the offset, which is harmless: O_APPEND
            # writes go to end-of-file regardless.
            os.lseek(fd, size - 1, os.SEEK_SET)
            if os.read(fd, 1) != b"\n":
                os.write(fd, b"\n")
        if torn:
            os.write(fd, data[: max(1, len(data) // 2)])
            return
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# The JSONL backend
# ----------------------------------------------------------------------


class JsonlBackend:
    """The append-only JSONL store file, folded into memory at open.

    With ``path=None`` this is the purely in-memory store (no file I/O
    at all).
    """

    kind = "jsonl"

    def __init__(self, path: Optional[Path]) -> None:
        self._results: dict[str, SimulationResult] = {}
        self._specs: dict[str, dict] = {}
        self._failures: dict[str, dict] = {}
        self.path = path
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        corrupt: list[str] = []
        for row in _scan_jsonl(path, StoreAudit(path=path), corrupt):
            self._fold(row)
        if corrupt:
            # Open never rewrites the main file: corrupt lines are
            # copied to the sidecar, and `repro store compact` is the
            # explicit operation that removes them.
            self.add_quarantine(corrupt)
            warnings.warn(
                f"{path}: skipped {len(corrupt)} corrupt line(s) "
                f"(quarantined to {self.quarantine_path.name}); run `repro "
                f"store compact {path}` to rewrite the store",
                stacklevel=3,
            )

    @property
    def quarantine_path(self) -> Optional[Path]:
        """Sidecar file corrupt lines are quarantined to."""
        if self.path is None:
            return None
        return self.path.with_name(self.path.name + ".quarantine")

    @property
    def lock_path(self) -> Path:
        """Sidecar lockfile serialising appends and compaction."""
        return self.path.with_name(self.path.name + ".lock")

    def _fold(self, row: dict) -> None:
        """Apply one canonical row: the last result per key wins, a
        result clears the key's failure, and a failure for a key that
        holds a result is ignored (results outrank failures)."""
        key = row["key"]
        if "result" in row:
            self._results[key] = result_from_dict(row["result"])
            self._specs[key] = row.get("spec") or {}
            self._failures.pop(key, None)
        elif key not in self._results:
            self._failures[key] = row["failure"]

    def write(
        self, rows: Iterable[dict], tearable: bool = False
    ) -> tuple[int, int]:
        """Fold rows into memory, then append them in one locked,
        fsync'd write. ``tearable`` rolls the ``torn_write`` fault for
        the (single) row of a ``put``/``put_failure``; imports never
        tear. Returns ``(result rows, failure rows)`` written."""
        n_results = 0
        lines = []
        for row in rows:
            self._fold(row)
            n_results += "result" in row
            lines.append((json.dumps(row, sort_keys=True) + "\n").encode())
        if self.path is not None and lines:
            plan = faults.active_plan()
            torn = (
                tearable
                and plan is not None
                and plan.should_tear(row["key"])
            )
            with flocked(self.lock_path):
                append_lines(self.path, b"".join(lines), torn)
        return n_results, len(lines) - n_results

    def add_quarantine(self, lines: Iterable[str]) -> int:
        sidecar = self.quarantine_path
        seen: set[str] = set()
        if sidecar.exists():
            seen = set(sidecar.read_text(encoding="utf-8").splitlines())
        fresh = [line for line in lines if line not in seen]
        if fresh:
            with sidecar.open("a", encoding="utf-8") as fh:
                for line in fresh:
                    fh.write(line + "\n")
        return len(fresh)

    def quarantine_lines(self) -> list[str]:
        sidecar = self.quarantine_path
        if sidecar is None or not sidecar.exists():
            return []
        return sidecar.read_text(encoding="utf-8").splitlines()

    def get(self, key: str) -> Optional[SimulationResult]:
        return self._results.get(key)

    def spec_info(self, key: str) -> Optional[dict]:
        return self._specs.get(key)

    def failure_info(self, key: str) -> Optional[dict]:
        return self._failures.get(key)

    def failures(self) -> dict[str, dict]:
        return dict(self._failures)

    def contains(self, key: str) -> bool:
        return key in self._results

    def count(self) -> int:
        return len(self._results)

    def keys(self) -> Iterator[str]:
        return iter(self._results)

    def results(self) -> Iterator[SimulationResult]:
        return iter(self._results.values())

    def export_rows(self) -> Iterator[dict]:
        for key, result in self._results.items():
            yield {
                "key": key,
                "spec": self._specs.get(key) or None,
                "result": result_to_dict(result),
            }
        for key, failure in self._failures.items():
            yield {"key": key, "spec": None, "failure": failure}

    def close(self) -> None:
        """Nothing to release: every write opens and closes the file."""


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


def _spec_payload(spec) -> Optional[dict]:
    return spec.to_dict() if hasattr(spec, "to_dict") else spec


class ResultStore:
    """Keyed store of simulation results, optionally backed by a file.

    Args:
        path: ``None`` for a purely in-memory store; otherwise a
            directory (a store file is created inside, named for the
            backend) or an explicit store-file path.
        backend: format (``jsonl`` / ``sqlite``) of a store this call
            creates; see :func:`locate_store` for how an existing store
            or a path suffix decides instead.
    """

    def __init__(
        self,
        path: Union[str, Path, None] = None,
        backend: Optional[str] = None,
    ) -> None:
        if path is None:
            if backend not in (None, "jsonl"):
                raise ConfigurationError(
                    "an in-memory store (path=None) is dict-backed; "
                    "backend selection needs a persistent path"
                )
            self._impl = JsonlBackend(None)
            return
        kind, file = locate_store(path, backend)
        if kind == "sqlite":
            from repro.exp.store_sqlite import SqliteBackend

            self._impl = SqliteBackend(file)
        else:
            self._impl = JsonlBackend(file)

    @property
    def path(self) -> Optional[Path]:
        """Backing store file (``None`` for in-memory stores)."""
        return self._impl.path

    @property
    def backend(self) -> str:
        """Backend kind (``jsonl`` / ``sqlite``; ``memory`` if no path)."""
        if self._impl.path is None:
            return "memory"
        return self._impl.kind

    @property
    def quarantine_path(self) -> Optional[Path]:
        """Sidecar file corrupt lines are quarantined to (JSONL only;
        the SQLite backend quarantines into its own table)."""
        return getattr(self._impl, "quarantine_path", None)

    def get(self, key: str) -> Optional[SimulationResult]:
        """The stored result for a spec key, or ``None``."""
        return self._impl.get(key)

    def spec_info(self, key: str) -> Optional[dict]:
        """The spec dict recorded with a result (provenance), if any."""
        return self._impl.spec_info(key)

    def failure_info(self, key: str) -> Optional[dict]:
        """The live failure record for a spec key, if any.

        ``None`` once the key holds a result. Never served as a cache
        hit — a resumed campaign retries failed specs.
        """
        return self._impl.failure_info(key)

    def failures(self) -> dict[str, dict]:
        """All live failure records, keyed by spec key."""
        return self._impl.failures()

    def put(self, key: str, result: SimulationResult, spec=None) -> None:
        """Record a result; persists immediately when backed by a file.

        ``spec`` (an :class:`~repro.exp.spec.ExperimentSpec` or a plain
        dict) is stored alongside purely for human inspection of the
        store — lookups only ever use ``key``.
        """
        row = {
            "key": key,
            "spec": _spec_payload(spec),
            "result": result_to_dict(result),
        }
        self._impl.write([row], tearable=True)

    def put_failure(self, key: str, failure: dict, spec=None) -> None:
        """Record a structured failure row (spec exhausted its retries).

        ``failure`` should carry at least ``kind`` (``error`` /
        ``worker-death`` / ``timeout``), ``error`` and ``attempts`` —
        the :class:`~repro.exp.runner.Runner` builds these. Ignored when
        the key already holds a result.
        """
        row = {"key": key, "spec": _spec_payload(spec), "failure": failure}
        self._impl.write([row], tearable=True)

    def bulk_load(self, rows: Iterable[dict]) -> tuple[int, int]:
        """Import canonical row dicts in one write (one fsync); the path
        behind :func:`migrate_store` and the store benchmark. Returns
        ``(result rows, failure rows)`` written."""
        return self._impl.write(rows)

    def export_rows(self) -> Iterator[dict]:
        """Live rows as canonical ``{"key", "spec", "result"}`` /
        ``{"key", "spec", "failure"}`` dicts, in insertion order."""
        return self._impl.export_rows()

    def quarantine_lines(self) -> list[str]:
        """Quarantined raw lines (sidecar file or ``quarantine`` table)."""
        return self._impl.quarantine_lines()

    def add_quarantine(self, lines: Iterable[str]) -> int:
        """Record quarantined lines (deduplicated); returns new count."""
        return self._impl.add_quarantine(lines)

    def close(self) -> None:
        """Release the SQLite connection (a no-op for JSONL)."""
        self._impl.close()

    def __contains__(self, key: str) -> bool:
        return self._impl.contains(key)

    def __len__(self) -> int:
        return self._impl.count()

    def keys(self) -> Iterator[str]:
        """All stored spec keys."""
        return self._impl.keys()

    def results(self) -> Iterator[SimulationResult]:
        """All stored results."""
        return self._impl.results()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.path) if self.path else "memory"
        return f"ResultStore({len(self)} results, {self.backend}, {where})"


# ----------------------------------------------------------------------
# Reading a JSONL file: one scan for open, verify and compact
# ----------------------------------------------------------------------


def _parse_row(line: str) -> Optional[dict]:
    """Parse one JSONL line into a validated row dict, or ``None``.

    A valid row has a string ``key`` and either a loadable ``result``
    payload or a ``failure`` dict.
    """
    try:
        row = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(row, dict) or not isinstance(row.get("key"), str):
        return None
    if "result" in row:
        try:
            result_from_dict(row["result"])
        except TypeError:
            return None
        return row
    if isinstance(row.get("failure"), dict):
        return row
    return None


def _scan_jsonl(
    path: Path, audit: StoreAudit, corrupt: list[str]
) -> Iterator[dict]:
    """Yield the valid rows of a JSONL store file, in file order.

    Counts lines, blank lines, corrupt lines and result/failure rows
    into ``audit`` and collects the corrupt lines into ``corrupt``. A
    corrupt line — a torn tail, a torn mid-file append, junk, or a row
    of an incompatible older schema — is re-derivable by rerunning its
    spec, so it is skipped, never fatal.
    """
    if not path.exists():
        return
    with path.open("r", encoding="utf-8") as fh:
        for raw in fh:
            audit.lines += 1
            line = raw.strip()
            if not line:
                audit.blank += 1
                continue
            row = _parse_row(line)
            if row is None:
                audit.corrupt += 1
                corrupt.append(line)
            elif "result" in row:
                audit.result_rows += 1
                yield row
            else:
                audit.failure_rows += 1
                yield row


# ----------------------------------------------------------------------
# Store maintenance: verify and compact (the `repro store` CLI)
# ----------------------------------------------------------------------


@dataclass
class StoreAudit:
    """Health report of a store file (line-level for JSONL, row-level
    plus ``PRAGMA integrity_check`` for SQLite)."""

    path: Path
    lines: int = 0
    blank: int = 0
    corrupt: int = 0
    result_rows: int = 0
    failure_rows: int = 0
    #: Distinct keys with a result.
    keys: int = 0
    #: Live failures: keys with a failure row and no result row.
    live_failures: int = 0
    #: Valid rows beyond one per key — reclaimable by compaction,
    #: together with corrupt and blank lines. Always 0 for SQLite (the
    #: UNIQUE key index upserts in place).
    superseded: int = 0
    #: Backend that produced this audit.
    backend: str = "jsonl"
    #: On-disk schema version of the audited store.
    schema_version: int = JSONL_SCHEMA_VERSION
    #: ``PRAGMA integrity_check`` verdict for SQLite ("ok" for JSONL,
    #: whose integrity is the line scan itself).
    integrity: str = "ok"

    @property
    def clean(self) -> bool:
        """No corruption (superseded rows are legal append-only history)."""
        return self.corrupt == 0

    @property
    def reclaimable(self) -> int:
        """Lines a compaction would drop."""
        return self.blank + self.corrupt + self.superseded


def audit_store(
    path: Union[str, Path], backend: Optional[str] = None
) -> StoreAudit:
    """Scan a store and report its health without modifying anything.

    For JSONL this never loads results into memory objects — it is the
    read-only half of ``repro store verify``. For SQLite it validates
    every row payload and runs ``PRAGMA integrity_check``.
    """
    kind, file = locate_store(path, backend)
    if kind == "sqlite":
        from repro.exp.store_sqlite import audit_sqlite

        return audit_sqlite(file)
    audit = StoreAudit(path=file)
    has_result: dict[str, bool] = {}
    for row in _scan_jsonl(file, audit, []):
        key = row["key"]
        has_result[key] = has_result.get(key, False) or "result" in row
    audit.keys = sum(has_result.values())
    audit.live_failures = len(has_result) - audit.keys
    audit.superseded = (
        audit.result_rows + audit.failure_rows - len(has_result)
    )
    return audit


def compact_store(
    path: Union[str, Path], backend: Optional[str] = None
) -> tuple[StoreAudit, int]:
    """Garbage-collect a store, keeping only live rows.

    JSONL: rewrites the file as the store's own ``export_rows()`` — the
    last result per key, plus the failure of each key that never
    succeeded — dropping superseded history, result-shadowed failures,
    blank lines and corrupt lines (corrupt lines are first copied to the
    ``.quarantine`` sidecar, so compaction never destroys evidence).
    The rewrite goes to a temp file in the same directory, is fsync'd,
    and replaces the original atomically, all under the writer lock.

    SQLite: re-upserts every valid row (proving idempotence of the
    UNIQUE-key upsert), quarantines rows whose payload no longer
    parses, checkpoints the WAL and vacuums.

    Returns ``(audit of the store before compaction, rows kept)``.
    """
    kind, file = locate_store(path, backend)
    if kind == "sqlite":
        from repro.exp.store_sqlite import compact_sqlite

        return compact_sqlite(file)
    audit = audit_store(file)
    if not file.exists():
        return audit, 0
    tmp = file.with_name(file.name + ".compact.tmp")
    with flocked(file.with_name(file.name + ".lock")):
        live = list(JsonlBackend(file).export_rows())
        with tmp.open("w", encoding="utf-8") as fh:
            for row in live:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, file)
    return audit, len(live)


# ----------------------------------------------------------------------
# Migration: `repro store migrate <src> <dst>`
# ----------------------------------------------------------------------


@dataclass
class MigrationReport:
    """What :func:`migrate_store` moved."""

    src: Path
    dst: Path
    src_backend: str
    dst_backend: str
    results: int = 0
    failures: int = 0
    quarantined: int = 0


def migrate_store(
    src: Union[str, Path], dst: Union[str, Path]
) -> MigrationReport:
    """Copy a store between formats (either direction, or same-kind).

    Each side is located by its suffix or directory (see
    :func:`locate_store`). Result rows survive byte-identically: every
    row crosses as its canonical dict, so re-exporting the destination
    yields the same canonical JSON lines the source held. Quarantined
    lines migrate too (sidecar file <-> ``quarantine`` table), so
    corruption evidence is never lost in a format change. The
    destination may already exist; rows upsert with the store's normal
    last-wins semantics, so re-running a migration is idempotent.

    Raises:
        ConfigurationError: when the source store does not exist, or
            source and destination resolve to the same file.
    """
    src_kind, src_file = locate_store(src)
    dst_kind, dst_file = locate_store(dst)
    if not src_file.exists():
        raise ConfigurationError(f"no store to migrate at {src_file}")
    if src_file.resolve() == dst_file.resolve():
        raise ConfigurationError(
            f"migration source and destination are the same file "
            f"({src_file}); pick a different destination"
        )
    source = ResultStore(src_file)
    dest = ResultStore(dst_file)
    try:
        n_results, n_failures = dest.bulk_load(source.export_rows())
        quarantined = dest.add_quarantine(source.quarantine_lines())
    finally:
        dest.close()
        source.close()
    return MigrationReport(
        src=src_file,
        dst=dst_file,
        src_backend=src_kind,
        dst_backend=dst_kind,
        results=n_results,
        failures=n_failures,
        quarantined=quarantined,
    )
