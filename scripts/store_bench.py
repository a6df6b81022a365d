#!/usr/bin/env python
"""Result-store scaling benchmark (the `store-scale` CI gate).

Populates each store backend with N synthetic result rows (default
100k) through the store's own bulk-import path, then times the
operations the runner and queue actually lean on at sweep scale:

* **full load** (jsonl only): opening the store folds the whole file —
  the O(rows) cost that motivates the indexed backend;
* **cold canonical-key lookup**: fresh store open + one ``get(key)`` —
  a dedup probe by a worker that just started;
* **resume-skip scan**: ``key in store`` over a sample of keys on an
  already-open store — the "cached, skip" pass a resumed sweep makes.

Two kinds of gate:

* **Structural (always on):** the SQLite cold lookup must be sublinear
  in N — measured at N and N/10, the ratio must stay under
  ``SUBLINEAR_MAX`` (a linear scan would track N) — and must beat the
  JSONL full-file load by at least ``COLD_VS_LOAD_FACTOR``x at N rows.
  These hold by construction (B-tree point query vs whole-file fold),
  so a failure means the indexed path stopped being used.
* **Baseline (``--check``):** throughput metrics are compared against a
  committed JSON baseline and any >``--max-regression`` drop fails.
  Only averaged-over-many-ops metrics are baseline-gated (populate,
  full load, resume scan); the single-digit-millisecond cold lookup is
  covered by the structural gates instead, where noise cannot flake.

Regenerate the committed baseline on an intentional store-performance
change with the same command plus
``--out benchmarks/store_baseline_smoke.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.exp import ResultStore  # noqa: E402

#: SQLite cold-lookup time at N rows may be at most this multiple of
#: the same measurement at N/10 rows. A B-tree probe grows ~log(N); a
#: backend that silently fell back to scanning would blow straight
#: through this.
SUBLINEAR_MAX = 4.0

#: The SQLite cold lookup must beat the JSONL full-file load by at
#: least this factor at N rows — the headline reason the backend
#: exists.
COLD_VS_LOAD_FACTOR = 4.0

#: (backend, metric) pairs compared against the committed baseline.
CHECK_METRICS = (
    ("jsonl", "populate_rps"),
    ("jsonl", "full_load_rps"),
    ("jsonl", "resume_keys_per_sec"),
    ("sqlite", "populate_rps"),
    ("sqlite", "resume_keys_per_sec"),
)

#: Template result payload, shaped like a real smoke-scale row.
_RESULT_TEMPLATE = {
    "variant": "slicc-sw",
    "workload": "tpcc-1",
    "cycles": 1_000_000,
    "instructions": 5_000_000,
    "i_accesses": 400_000,
    "i_misses": 40_000,
    "d_accesses": 200_000,
    "d_misses": 10_000,
    "migrations": 300,
    "utilization": 0.625,
    "miss_class_mpki": {"instruction": {"cold": 1.5, "dilution": 0.4}},
}


def synth_key(i: int) -> str:
    """Deterministic canonical-key stand-in (same shape as spec.key())."""
    return hashlib.sha256(f"store-bench-{i}".encode()).hexdigest()


def synth_rows(n: int):
    for i in range(n):
        payload = dict(_RESULT_TEMPLATE)
        payload["cycles"] = 1_000_000 + i
        yield {"key": synth_key(i), "spec": None, "result": payload}


def populate(path: Path, backend: str, n: int) -> float:
    store = ResultStore(path, backend=backend)
    t0 = time.perf_counter()
    store.bulk_load(synth_rows(n))
    seconds = time.perf_counter() - t0
    store.close()
    return seconds


def cold_lookup(path: Path, backend: str, probes: list[str]) -> float:
    """Best-of-probes fresh-open + single get (seconds)."""
    best = float("inf")
    for key in probes:
        t0 = time.perf_counter()
        store = ResultStore(path, backend=backend)
        assert store.get(key) is not None, "probe key missing"
        best = min(best, time.perf_counter() - t0)
        store.close()
    return best


def resume_scan(store: ResultStore, sample: list[str]) -> float:
    t0 = time.perf_counter()
    hits = sum(1 for key in sample if key in store)
    seconds = time.perf_counter() - t0
    assert hits == len(sample), "resume scan missed stored keys"
    return seconds


def host_metadata() -> dict:
    """CPU model, core count and platform of the measuring machine —
    store numbers mean nothing without the hardware that produced
    them."""
    import os

    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu_model or platform.processor() or "unknown",
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def bench(n: int, workdir: Path, repeat: int) -> dict:
    """Measure both backends at N rows (plus SQLite at N/10 for the
    sublinearity gate); returns the result document."""
    small_n = max(n // 10, 1)
    sample = [synth_key(i) for i in range(0, n, max(n // 1000, 1))]
    probes = [synth_key(int(f * (n - 1))) for f in (0.0, 0.37, 0.73, 0.99)]
    probes = (probes * repeat)[: max(len(probes), repeat)]
    doc: dict = {
        "rows": n,
        "repeat": repeat,
        "python": platform.python_version(),
        "host": host_metadata(),
        "backends": {},
    }

    paths = {
        "jsonl": workdir / "bench.jsonl",
        "sqlite": workdir / "bench.sqlite",
    }
    for backend, path in paths.items():
        row: dict = {}
        row["populate_seconds"] = round(populate(path, backend, n), 4)
        row["populate_rps"] = round(n / row["populate_seconds"])
        if backend == "jsonl":
            t0 = time.perf_counter()
            store = ResultStore(path)
            load_seconds = time.perf_counter() - t0
            assert len(store) == n
            row["full_load_seconds"] = round(load_seconds, 4)
            row["full_load_rps"] = round(n / load_seconds)
        else:
            store = ResultStore(path)
        scan_seconds = resume_scan(store, sample)
        row["resume_keys_per_sec"] = round(len(sample) / scan_seconds)
        store.close()
        row["cold_lookup_seconds"] = round(
            cold_lookup(path, backend, probes), 6
        )
        doc["backends"][backend] = row
        print(
            f"{backend:>6} @ {n} rows: populate {row['populate_rps']:>8} "
            f"rows/s, resume scan {row['resume_keys_per_sec']:>8} keys/s, "
            f"cold lookup {row['cold_lookup_seconds'] * 1e3:8.2f} ms"
            + (
                f", full load {row['full_load_seconds']:.2f}s"
                if backend == "jsonl"
                else ""
            ),
            flush=True,
        )

    small_path = workdir / "bench-small.sqlite"
    populate(small_path, "sqlite", small_n)
    small_probes = [
        synth_key(int(f * (small_n - 1))) for f in (0.0, 0.37, 0.73, 0.99)
    ]
    doc["sublinearity"] = {
        "small_rows": small_n,
        "sqlite_cold_small_seconds": round(
            cold_lookup(small_path, "sqlite", small_probes), 6
        ),
        "sqlite_cold_full_seconds": doc["backends"]["sqlite"][
            "cold_lookup_seconds"
        ],
    }
    sub = doc["sublinearity"]
    sub["ratio"] = round(
        sub["sqlite_cold_full_seconds"]
        / max(sub["sqlite_cold_small_seconds"], 1e-9),
        3,
    )
    print(
        f"sublinearity: cold lookup {sub['sqlite_cold_small_seconds'] * 1e3:.2f} ms "
        f"@ {small_n} rows -> {sub['sqlite_cold_full_seconds'] * 1e3:.2f} ms "
        f"@ {n} rows (ratio {sub['ratio']:.2f}, max {SUBLINEAR_MAX})",
        flush=True,
    )
    return doc


def structural_gates(doc: dict) -> list[str]:
    """The baseline-free invariants; returns failure messages."""
    failures = []
    sub = doc["sublinearity"]
    if sub["ratio"] > SUBLINEAR_MAX:
        failures.append(
            f"sqlite cold lookup is not sublinear: {sub['ratio']:.2f}x "
            f"going {sub['small_rows']} -> {doc['rows']} rows "
            f"(max {SUBLINEAR_MAX}x) — point lookups appear to scan"
        )
    cold = doc["backends"]["sqlite"]["cold_lookup_seconds"]
    load = doc["backends"]["jsonl"]["full_load_seconds"]
    if cold * COLD_VS_LOAD_FACTOR > load:
        failures.append(
            f"sqlite cold lookup ({cold * 1e3:.1f} ms) does not beat the "
            f"jsonl full load ({load * 1e3:.1f} ms) by "
            f"{COLD_VS_LOAD_FACTOR}x at {doc['rows']} rows"
        )
    return failures


def check(doc: dict, baseline_path: Path, max_regression: float) -> int:
    """Compare throughput metrics against the baseline; exit code."""
    baseline = json.loads(baseline_path.read_text())
    failures = []
    compared = 0
    for backend, metric in CHECK_METRICS:
        base_row = baseline.get("backends", {}).get(backend, {})
        row = doc["backends"].get(backend, {})
        if metric not in base_row or metric not in row:
            continue
        compared += 1
        floor = base_row[metric] * (1.0 - max_regression)
        status = "ok" if row[metric] >= floor else "REGRESSED"
        print(
            f"check {backend}/{metric:>20}: {row[metric]:>9} vs "
            f"baseline {base_row[metric]:>9} (floor {floor:>11.0f}) "
            f"{status}"
        )
        if status != "ok":
            failures.append(
                f"{backend}/{metric} at "
                f"{row[metric] / base_row[metric]:.2f}x of baseline"
            )
    if failures:
        print(
            f"FAIL: {', '.join(failures)} — below the "
            f"{1.0 - max_regression:.2f}x floor vs {baseline_path}"
        )
        return 1
    if compared == 0:
        # A gate that compared nothing passed nothing (wrong baseline
        # file / renamed metrics); fail loudly.
        print(
            f"FAIL: no metric of this run matched {baseline_path}; "
            "the regression gate compared nothing"
        )
        return 1
    print(f"store check passed ({compared} metrics compared)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--rows",
        type=int,
        default=100_000,
        help="synthetic result rows per backend (default: 100000)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=4,
        help="cold-lookup probes per backend; best is kept (default: 4)",
    )
    parser.add_argument(
        "--dir",
        type=Path,
        default=None,
        help="working directory for the store files (default: temp, "
        "removed afterwards)",
    )
    parser.add_argument("--out", type=Path, help="write results as JSON")
    parser.add_argument(
        "--check", type=Path, help="baseline JSON to compare against"
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional throughput drop in --check mode",
    )
    args = parser.parse_args(argv)

    workdir = args.dir or Path(tempfile.mkdtemp(prefix="repro-store-bench-"))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        doc = bench(args.rows, workdir, args.repeat)
    finally:
        if args.dir is None:
            shutil.rmtree(workdir, ignore_errors=True)

    rc = 0
    for message in structural_gates(doc):
        print(f"FAIL: {message}")
        rc = 1
    if rc == 0:
        print("structural gates passed (sublinear lookup, beats full load)")
    if args.out:
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    if args.check:
        rc = max(rc, check(doc, args.check, args.max_regression))
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
