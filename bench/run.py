"""Campaign benchmark: times what a user of the SLICC reproduction waits for.

    python3 bench/run.py                                   # all workloads
    python3 bench/run.py --workload smoke-cold --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --out set.json --spans spans.jsonl
    python3 bench/run.py --compare before.json after.json

One process (this script) runs a closed loop with one client: each rep is a
fresh ``bench/campaign.py`` process running one whole campaign, started only
after the previous one exited. A workload's reps run until ``--seconds``
of rep wall time is spent (at least one rep). End-to-end metrics come from
these untraced reps; with ``--trace 1`` one more, traced rep follows and
gives the per-layer table. The script checks every rep's outputs (see
``check_*`` below), prints every metric with its unit, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``, the metrics
being the ``end_to_end`` ones of ``BENCHMARK.json`` with ``--trace 0`` and
the ``per_layer`` ones with ``--trace 1``. It exits 1 when a check fails.

Metric names, units, directions and bounds live in ``BENCHMARK.json``;
``bench/README.md`` explains each of them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTRACT = ROOT / "BENCHMARK.json"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".bench_work"

#: Seed of the golden pins in tests/golden (scripts/dump_golden.py).
PIN_SEED = 7
#: A rep still running after this long is killed and counted as failed.
CHILD_TIMEOUT_S = 170.0
#: Set-up instants per run; runs with fewer timed reps add set-up-only
#: reps so setup_s is always a median of this many.
SETUP_SAMPLES = 7
#: Iterations of the host-speed probe.
PROBE_LOOPS = 150_000
#: The probe's time on the reference host (a 2-core Xeon VM) in a quiet
#: phase. Time metrics are reported at this host speed (see end_to_end).
REFERENCE_PROBE_S = 0.010
#: How often the probe runs while a rep runs.
PROBE_INTERVAL_S = 0.1

MODEL_NOTE = (
    "unvalidated model: the repository holds no reference hardware "
    "measurements, so no error figure is given"
)


@dataclass
class Rep:
    """One campaign process, as this script saw it."""

    dir: Path
    code: int
    wall_s: float
    setup_s: float
    rss_mb: float
    summary: dict
    #: Host-probe times from just before the rep to just after it.
    probes: list

    @property
    def scale(self) -> float:
        """REFERENCE_PROBE_S over the rep's mean probe time. The probe
        runs at a fixed interval, so the mean weighs fast and slow phases
        of the host by how long the rep spent in each."""
        return REFERENCE_PROBE_S / statistics.fmean(self.probes)


@dataclass
class Outputs:
    """What a campaign left behind: result JSON by key and report bytes."""

    results: dict[str, str]
    reports: dict[str, bytes]


@dataclass
class WorkloadRun:
    """Everything measured and checked on one workload."""

    name: str
    checks: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reps: list = field(default_factory=list)
    setup_reps: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    measured: dict = field(default_factory=dict)
    probes: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c["ok"] for c in self.checks)


# ----------------------------------------------------------------------
# Spawning reps
# ----------------------------------------------------------------------


def host_probe() -> float:
    """Seconds one fixed pure-Python loop takes. It runs no program code,
    so it moves only with the host's speed."""
    start = time.perf_counter()
    sum(i * i for i in range(PROBE_LOOPS))
    return time.perf_counter() - start


def _probe_until(done: threading.Event, samples: list) -> None:
    while not done.wait(PROBE_INTERVAL_S):
        samples.append(host_probe())


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Session:
    """Scratch space of one run of this script and the reps it spawns."""

    def __init__(self, work: Path):
        self.work = work
        (work / "tmp").mkdir()
        self.log = work / "campaign.log"
        self._serial = itertools.count(1)

    def fresh_dir(self) -> Path:
        return self.work / f"c{next(self._serial)}"

    def spawn(
        self,
        workload: str,
        seed: int,
        camp_dir: Path,
        trace_id: Optional[str] = None,
        setup_only: bool = False,
    ) -> Rep:
        summary = self.work / f"summary-{next(self._serial)}.json"
        cmd = [
            sys.executable, str(BENCH / "campaign.py"), workload,
            "--seed", str(seed), "--dir", str(camp_dir),
            "--summary", str(summary),
        ]
        if trace_id:
            cmd += ["--trace", trace_id]
        if setup_only:
            cmd.append("--setup-only")
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["TMPDIR"] = str(self.work / "tmp")
        probes = [host_probe()]
        done = threading.Event()
        with self.log.open("ab") as log:
            start = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=log, stderr=log,
                start_new_session=True,
            )
            # The host's speed while the rep runs (about 10% of one core).
            prober = threading.Thread(target=_probe_until, args=(done, probes))
            prober.start()
            # A blocking wait with a kill timer, not wait(timeout=...),
            # which polls and would add up to 50 ms to the wall time.
            killer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
            killer.start()
            try:
                code = proc.wait()
            finally:
                killer.cancel()
                end = time.monotonic()
                done.set()
                prober.join()
        probes.append(host_probe())
        data = json.loads(summary.read_text()) if summary.exists() else {}
        nan = float("nan")
        return Rep(
            dir=camp_dir,
            code=code,
            wall_s=end - start,
            setup_s=data["setup_mono"] - start if data else nan,
            rss_mb=data.get("peak_rss_mb", nan),
            summary=data,
            probes=probes,
        )

    def log_tail(self, lines: int = 20) -> str:
        if not self.log.exists():
            return ""
        return "\n".join(self.log.read_text(errors="replace").splitlines()[-lines:])


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def read_outputs(camp_dir: Path, backend: str) -> Outputs:
    from repro import exp

    store = exp.ResultStore(camp_dir, backend=backend)
    try:
        results = {
            key: exp.result_to_json(store.get(key)) for key in store.keys()
        }
    finally:
        store.close()
    reports = {
        path.name: path.read_bytes()
        for path in sorted(camp_dir.glob("*.md")) + sorted(camp_dir.glob("*.csv"))
    }
    return Outputs(results, reports)


def _differences(a: dict, b: dict) -> list[str]:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def check_invariants(specs, results: dict[str, str]) -> list[str]:
    """Results that break what any correct replay of the trace must
    satisfy: every expected spec has a result, every thread completes,
    every trace record is replayed once, misses never exceed accesses."""
    from repro.params import ScalePreset
    from repro.workloads import standard_trace

    traces: dict[str, dict] = {}
    broken = []
    for spec in specs:
        payload = results.get(spec.key())
        if payload is None:
            broken.append(f"{spec.display_label()}: no result")
            continue
        result = json.loads(payload)
        if spec.trace_key() not in traces:
            trace = standard_trace(
                spec.workload,
                ScalePreset(spec.scale),
                n_threads=spec.n_threads,
                seed=spec.seed,
            )
            instr = sum(t.n_instruction_records for t in trace.threads)
            traces[spec.trace_key()] = {
                "threads_completed": len(trace.threads),
                "i_accesses": instr,
                "d_accesses": trace.total_records - instr,
                "instructions": trace.total_instructions,
            }
        expected = dict(
            traces[spec.trace_key()],
            workload=spec.workload,
            variant=spec.variant,
        )
        wrong = [name for name, value in expected.items() if result.get(name) != value]
        for kind in ("i", "d"):
            if not 0 <= result[f"{kind}_misses"] <= result[f"{kind}_accesses"]:
                wrong.append(f"{kind}_misses")
        if wrong:
            broken.append(f"{spec.display_label()} seed {spec.seed}: {wrong}")
    return broken


def check_pins(specs, results: dict[str, str]) -> tuple[int, list[str]]:
    """``(pins compared, mismatching pin files)`` for plain-variant specs
    at the pinned seed and scale."""
    from repro.sim import SimConfig

    compared, mismatched = 0, []
    for spec in {spec.key(): spec for spec in specs}.values():
        if (
            spec.scale != "smoke"
            or spec.seed != PIN_SEED
            or spec.n_threads is not None
            or spec.config != SimConfig(variant=spec.variant)
        ):
            continue
        pin = GOLDEN / f"{spec.workload}__{spec.variant}.json"
        if not pin.exists():
            continue
        compared += 1
        if results.get(spec.key(), "") + "\n" != pin.read_text():
            mismatched.append(pin.name)
    return compared, mismatched


def model_outputs(plan, results: dict[str, str]) -> dict:
    """SLICC against its baseline over the workload's figure rows (a
    checked output of the model, not a gated metric)."""
    from repro import exp

    pairs = {
        row.spec.key(): row.baseline.key()
        for _, rows in plan
        for row in rows
        if row.baseline is not None and row.spec.variant == "slicc"
    }
    if not pairs:
        return {}
    speedups, slicc_mpki, base_mpki = [], [], []
    for key, base_key in pairs.items():
        slicc = exp.result_from_dict(json.loads(results[key]))
        base = exp.result_from_dict(json.loads(results[base_key]))
        speedups.append(slicc.speedup_over(base))
        slicc_mpki.append(slicc.i_mpki)
        base_mpki.append(base.i_mpki)
    return {
        "slicc_speedup_gmean": statistics.geometric_mean(speedups),
        "slicc_i_mpki_mean": statistics.fmean(slicc_mpki),
        "base_i_mpki_mean": statistics.fmean(base_mpki),
        "pairs": len(pairs),
        "note": MODEL_NOTE,
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": values,
    }


def end_to_end(run: WorkloadRun) -> tuple[dict, dict]:
    """Untraced-rep samples of every end-to-end metric, by name, and the
    time metrics as measured.

    The host's speed drifts by tens of percent, in phases of seconds to
    minutes, and every pure-Python loop drifts with it, the program's and
    the probe's alike. So each rep's times are multiplied by its
    ``scale``: seconds at the reference host speed.
    """
    samples = {
        "campaign_s": [(r.wall_s, r.scale) for r in run.reps],
        "setup_s": [(r.setup_s, r.scale) for r in run.setup_reps],
    }
    metrics = {
        name: quartiles(value * scale for value, scale in pairs)
        for name, pairs in samples.items()
    }
    metrics["peak_rss_mb"] = quartiles(r.rss_mb for r in run.reps)
    measured = {
        name: quartiles(value for value, _ in pairs)
        for name, pairs in samples.items()
    }
    return metrics, measured


def layer_metrics(rep: Rep, untraced_campaign_s: float, n_specs: int) -> dict:
    """The per-layer table of one traced rep, by metric name."""
    from spans import layer_table, untraced_seconds

    summary = rep.summary
    spans, counts = summary["spans"], summary["counts"]
    table = layer_table(spans)
    wall = rep.wall_s

    def calls(layer: str, name: Optional[str] = None) -> int:
        return sum(
            row["calls"] for (lay, nam), row in table.items()
            if lay == layer and name in (None, nam)
        )

    def seconds(layer: str, name: Optional[str] = None) -> float:
        return sum(
            row["self_s"] for (lay, nam), row in table.items()
            if lay == layer and name in (None, nam)
        )

    def pct(layer: str, name: Optional[str] = None) -> float:
        return 100.0 * seconds(layer, name) / wall

    traces = {
        s["attrs"]["key"] for s in spans
        if s["layer"] == "workloads" and "attrs" in s
    }
    records = sum(
        s["attrs"]["records"] for s in spans
        if s["layer"] == "sim.replay" and "attrs" in s
    )
    replay_s = seconds("sim.replay")
    served = summary["simulated"] + summary["cached"]
    runner_s = summary["runner_seconds"]
    untraced = untraced_seconds(spans, wall, summary["pid"])
    return {
        "setup.import_s": summary["import_s"],
        "workloads.calls": calls("workloads"),
        "workloads.self_pct": pct("workloads"),
        "workloads.builds_per_trace": (
            calls("workloads") / len(traces) if traces else 0.0
        ),
        "exp.spec.key_calls": calls("exp.spec"),
        "exp.spec.self_pct": pct("exp.spec"),
        "exp.spec.key_calls_per_spec": calls("exp.spec") / n_specs,
        "sim.construct.calls": calls("sim.construct"),
        "sim.construct.self_pct": pct("sim.construct"),
        "sim.cache_objects": counts.get("sim.cache_objects", 0),
        "sim.replay.calls": calls("sim.replay"),
        "sim.replay.self_pct": pct("sim.replay"),
        "sim.replay.records": records,
        "sim.replay.krec_per_s": records / 1000.0 / replay_s if replay_s else 0.0,
        "exp.store.open_pct": pct("exp.store", "open"),
        "exp.store.put_calls": calls("exp.store", "put"),
        "exp.store.put_pct": pct("exp.store", "put"),
        "exp.store.get_calls": calls("exp.store", "get"),
        "exp.store.get_pct": pct("exp.store", "get"),
        "exp.store.serde_pct": pct("exp.store", "serde"),
        "exp.queue.calls": calls("exp.queue"),
        "exp.queue.self_pct": pct("exp.queue"),
        "exp.queue.events": summary["queue_events"],
        "exp.queue.claim_cycles": summary["claim_cycles"],
        "exp.runner.self_pct": pct("exp.runner"),
        "exp.runner.parallel_eff": (
            summary["sim_seconds"] / (summary["jobs"] * runner_s)
            if runner_s else 0.0
        ),
        "exp.runner.cache_hit_ratio": summary["cached"] / served if served else 0.0,
        "exp.pool.pools_started": counts.get("exp.pool.pools_started", 0),
        "analysis.calls": calls("analysis"),
        "analysis.self_pct": pct("analysis"),
        "untraced_pct": 100.0 * untraced / wall,
        "traced.wall_s": wall,
        "trace_overhead_pct": (
            100.0 * (wall - untraced_campaign_s) / untraced_campaign_s
        ),
    }


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------


def run_workload(
    session: Session, name: str, seed: int, seconds: float, trace: bool
) -> WorkloadRun:
    import campaign
    from repro import exp

    workload = campaign.WORKLOADS[name]
    plan = campaign.campaign_plan(workload, seed)
    specs = campaign.campaign_specs(workload, plan)
    run = WorkloadRun(name)
    reference: Optional[Outputs] = None
    warm_dir = session.fresh_dir()

    def rep_dir() -> Path:
        return warm_dir if workload.warm else session.fresh_dir()

    def spawn(camp_dir: Path, **kwargs) -> Rep:
        rep = session.spawn(name, seed, camp_dir, **kwargs)
        run.probes += rep.probes
        return rep

    def accept(rep: Rep, label: str, fills_store: bool = False) -> bool:
        """Count the rep's specs and check its outputs against the
        reference outputs every rep must reproduce byte for byte."""
        nonlocal reference
        run.attempted += len(specs)
        ok = run.check(
            f"{label}: exit 0, no failed spec",
            rep.code == 0 and rep.summary.get("failed") == 0,
            f"exit {rep.code}",
        )
        if ok:
            outputs = read_outputs(rep.dir, workload.backend)
            if reference is None:
                reference = outputs
            ok = run.check(
                f"{label}: results and reports byte-identical to the first run",
                outputs == reference,
                ", ".join(
                    _differences(outputs.results, reference.results)[:3]
                    + _differences(outputs.reports, reference.reports)[:3]
                ),
            )
            audit = exp.audit_store(rep.dir, backend=workload.backend)
            ok = run.check(f"{label}: store audit clean", audit.clean) and ok
            if workload.warm and not fills_store and rep.summary["simulated"]:
                ok = run.check(
                    f"{label}: nothing simulated on a full store", False,
                    f"{rep.summary['simulated']} simulated",
                )
        if not ok:
            run.failed += len(specs)
        if not workload.warm:
            shutil.rmtree(rep.dir, ignore_errors=True)
        return ok

    def setup_only_rep() -> Rep:
        rep = spawn(rep_dir(), setup_only=True)
        run.check("set-up-only rep: exit 0", rep.code == 0, f"exit {rep.code}")
        if not workload.warm:
            shutil.rmtree(rep.dir, ignore_errors=True)
        return rep

    if workload.warm:
        # The store every rep rereads; its report is what reps must render.
        accept(
            spawn(warm_dir),
            "cold run filling the store",
            fills_store=True,
        )
    for i in range(workload.warmup):
        accept(spawn(rep_dir()), f"warm-up {i + 1}")
    if not workload.warmup:
        setup_only_rep()  # compiles bytecode and fills the page cache

    while run.correct:
        rep = spawn(rep_dir())
        run.reps.append(rep)
        accept(rep, f"rep {len(run.reps)}")
        spent = sum(r.wall_s for r in run.reps)
        if spent + statistics.median(r.wall_s for r in run.reps) > seconds:
            break
    run.setup_reps = list(run.reps)
    while run.correct and len(run.setup_reps) < SETUP_SAMPLES:
        run.setup_reps.append(setup_only_rep())
    if not run.correct:
        return run

    run.metrics, run.measured = end_to_end(run)
    check_outputs(session, run, workload, specs, reference, seed)
    run.model = model_outputs(plan, reference.results)
    if trace:
        rep = spawn(rep_dir(), trace_id=f"{name}/traced")
        if accept(rep, "traced rep"):
            run.layers = layer_metrics(
                rep, run.measured["campaign_s"]["median"], len(specs)
            )
            run.spans = rep.summary["spans"]
    return run


def check_outputs(session, run, workload, specs, reference, seed) -> None:
    """Checks that need a reference outside the workload's own reps."""
    broken = check_invariants(specs, reference.results)
    run.check(
        f"{len(specs)} specs: every trace record replayed once, every "
        "thread completed, misses <= accesses",
        not broken,
        "; ".join(broken[:3]),
    )
    if workload.scale == "smoke" and seed == PIN_SEED:
        compared, mismatched = check_pins(specs, reference.results)
        run.check(
            f"{compared} plain-variant results byte-identical to tests/golden",
            compared > 0 and not mismatched,
            ", ".join(mismatched[:5]) or ("no pin matched" if not compared else ""),
        )
    if workload.kind == "queue":
        # The pool path must equal the inline path (smoke-cold's).
        inline_dir = session.fresh_dir()
        inline = session.spawn("smoke-cold", seed, inline_dir)
        ok = inline.code == 0
        differ = []
        if ok:
            inline_results = read_outputs(inline_dir, "jsonl").results
            differ = [
                key for key, payload in reference.results.items()
                if inline_results.get(key) != payload
            ]
        run.check(
            f"{len(reference.results)} queue results byte-identical to the "
            "inline smoke-cold results",
            ok and not differ,
            f"exit {inline.code}, {len(differ)} differ",
        )
        shutil.rmtree(inline_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def host_info() -> dict:
    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def units(contract: dict) -> dict[str, str]:
    return {
        m["name"]: m["unit"]
        for m in contract["end_to_end"] + contract["per_layer"]
    }


def print_run(run: WorkloadRun, contract: dict, seed: int, seconds: float) -> None:
    unit = units(contract)
    print(
        f"== {run.name} (seed {seed}; {len(run.reps)} timed reps in a "
        f"{seconds:g} s budget; {run.attempted} specs attempted, "
        f"{run.failed} failed) =="
    )
    rows = [(name, q, unit[name]) for name, q in run.metrics.items()]
    rows += [(f"{name} as measured", q, "s") for name, q in run.measured.items()]
    if run.probes:
        rows.append(("host probe", quartiles(run.probes), "s"))
    for label, q, label_unit in rows:
        print(
            f"  {label:<28} {q['median']:>12.4f} {label_unit:<7} "
            f"q1 {q['q1']:.4f}  q3 {q['q3']:.4f}  n={q['n']}"
        )
    if run.layers:
        print(f"  layers of traced rep {run.name}/traced:")
        for name, value in run.layers.items():
            print(f"    {name:<30} {value:>12.4f} {unit[name]}")
    if run.model:
        shown = ", ".join(
            f"{k} {v:.4f}" for k, v in run.model.items() if isinstance(v, float)
        )
        print(f"  model: {shown} ({run.model['note']})")
    for check in run.checks:
        mark = "ok  " if check["ok"] else "FAIL"
        detail = f" [{check['detail']}]" if check["detail"] and not check["ok"] else ""
        print(f"  {mark} {check['check']}{detail}")


def result_line(runs: list[WorkloadRun], contract: dict, trace: bool) -> dict:
    unit = units(contract)
    wanted = contract["per_layer" if trace else "end_to_end"]
    metrics = {}
    for run in runs:
        prefix = "" if len(runs) == 1 else f"{run.name}/"
        for metric in wanted:
            name = metric["name"]
            value = run.layers.get(name) if trace else run.metrics.get(name, {}).get("median")
            if value is not None:
                metrics[prefix + name] = {"value": value, "unit": unit[name]}
    return {
        "correct": all(run.correct for run in runs),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": metrics,
    }


def document(runs, seed, seconds, trace) -> dict:
    return {
        "host": host_info(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workloads": {
            run.name: {
                "correct": run.correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "reps": len(run.reps),
                "metrics": run.metrics,
                "measured": run.measured,
                "host_probe_s": quartiles(run.probes) if run.probes else None,
                "layers": run.layers,
                "model": run.model,
                "checks": run.checks,
            }
            for run in runs
        },
    }


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Compare two sets of one metric by the benchmark's bound."""
    if min(a["n"], b["n"]) < 2:
        # One sample has no spread to weigh the difference against.
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((q["q3"] - q["q1"]) / q["median"] for q in (a, b))
    if spread > bound:
        if better == "lower":
            always_better = max(b["samples"]) < min(a["samples"])
        else:
            always_better = min(b["samples"]) > max(a["samples"])
        return "improved" if always_better else "unresolved"
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "same"


def compare(a: dict, b: dict, contract: dict) -> tuple[list[str], bool]:
    """Lines comparing set ``b`` against set ``a``, and whether any
    end-to-end metric regressed.

    A time metric is judged twice: at the reference host speed (as
    reported) and as measured. When the two verdicts differ, the host's
    drift moved the metric as much as the program may have, and the
    verdict is ``unresolved``.
    """
    lines = [
        f"{'workload':<12} {'metric':<28} {'A median':>10} {'A IQR':>8} "
        f"{'B median':>10} {'B IQR':>8} {'B/A':>7}  verdict (bound)"
    ]
    regressed = False
    counts = [m["name"] for m in contract["per_layer"] if m["unit"] == "count"]
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        rows = [("host probe", wa["host_probe_s"], wb["host_probe_s"], "host speed")]
        for metric in contract["end_to_end"]:
            qa = wa["metrics"].get(metric["name"])
            qb = wb["metrics"].get(metric["name"])
            if qa is None or qb is None:
                continue
            result = verdict(qa, qb, metric["better"], metric["bound"])
            if metric["name"] in wa["measured"]:
                ma, mb = wa["measured"][metric["name"]], wb["measured"][metric["name"]]
                as_measured = verdict(ma, mb, metric["better"], metric["bound"])
                if as_measured != result:
                    result = "unresolved"
                rows.append((f"{metric['name']} as measured", ma, mb, as_measured))
            regressed |= result == "regressed"
            rows.append(
                (metric["name"], qa, qb, f"{result} ({metric['bound']:.0%})")
            )
        for label, qa, qb, result in rows:
            lines.append(
                f"{name:<12} {label:<28} {qa['median']:>10.4f} "
                f"{qa['q3'] - qa['q1']:>8.4f} {qb['median']:>10.4f} "
                f"{qb['q3'] - qb['q1']:>8.4f} {qb['median'] / qa['median']:>7.4f}"
                f"  {result}"
            )
        for metric in counts:
            if metric in wa["layers"] and metric in wb["layers"]:
                va, vb = wa["layers"][metric], wb["layers"][metric]
                lines.append(
                    f"{name:<12} {metric:<28} {va:>10} {'':>8} {vb:>10} "
                    f"{'':>8} {'':>7}  {'exact-match' if va == vb else 'mismatch'}"
                )
    return lines, regressed


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def parse_args(argv, contract: dict) -> argparse.Namespace:
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", default=",".join(names),
        help=f"comma-separated workloads (default: all of {names})",
    )
    parser.add_argument(
        "--seed", type=int, default=PIN_SEED,
        help=f"seed of every generated spec (default: {PIN_SEED}, the pin seed)",
    )
    parser.add_argument(
        "--seconds", type=float, default=contract["run_seconds"],
        help="rep wall time per workload; at least one rep runs "
        f"(default: {contract['run_seconds']})",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=1,
        help="1: add a traced rep per workload and print per-layer "
        "metrics in the last line (default: 1)",
    )
    parser.add_argument("--out", type=Path, help="write the full result document")
    parser.add_argument("--spans", type=Path, help="write traced spans as JSON lines")
    parser.add_argument(
        "--compare", nargs=2, type=Path, metavar=("A", "B"),
        help="compare two --out documents by the BENCHMARK.json bounds",
    )
    args = parser.parse_args(argv)
    args.workloads = [w for w in args.workload.split(",") if w]
    unknown = sorted(set(args.workloads) - set(names))
    if unknown:
        parser.error(f"unknown workloads {unknown}; known: {names}")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    if not CONTRACT.exists():
        print(f"error: {CONTRACT.name} not found next to bench/", file=sys.stderr)
        return 2
    contract = json.loads(CONTRACT.read_text())
    args = parse_args(argv, contract)
    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        lines, regressed = compare(a, b, contract)
        print("\n".join(lines))
        return 1 if regressed else 0
    if not (ROOT / "src" / "repro").is_dir():
        print("error: no src/repro to benchmark in this checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    runs = []
    try:
        session = Session(work)
        for name in args.workloads:
            run = run_workload(session, name, args.seed, args.seconds, bool(args.trace))
            runs.append(run)
            print_run(run, contract, args.seed, args.seconds)
            if not run.correct:
                print(session.log_tail(), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.out:
        args.out.write_text(
            json.dumps(document(runs, args.seed, args.seconds, args.trace), indent=1)
        )
    if args.spans:
        with args.spans.open("w") as fh:
            for run in runs:
                for span in run.spans:
                    fh.write(json.dumps(span) + "\n")
    line = result_line(runs, contract, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
