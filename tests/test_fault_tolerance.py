"""Recovery-matrix tests: the fault-injection harness driving the
fault-tolerant pool, the retrying Runner, and the crash-safe store
end to end.

Every scenario keys its fault schedule off the deterministic
``REPRO_FAULT`` plan, so these tests exercise real worker deaths, real
kills, and real torn file tails — repeatably, with zero flake surface.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import ConfigurationError, SweepFailure
from repro.exp import (
    ExperimentSpec,
    ResultStore,
    Runner,
    audit_store,
    compact_store,
    grid,
    result_to_json,
)
from repro.exp.faults import FaultPlan, FaultRule
from repro.sim import simulate

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="fault matrix relies on fork workers"
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def smoke_specs(variants=("base", "slicc", "steps")):
    """Specs on the ``smoke_tpcc`` fixture's trace, one per variant."""
    base = ExperimentSpec("tpcc-1", scale="smoke", seed=7)
    return grid(base, {"variant": list(variants)})


def persisted_results(store) -> int:
    """Result rows another process has persisted to ``store`` so far
    (0 while it is still creating the file)."""
    try:
        return audit_store(store).result_rows
    except ConfigurationError:  # a SQLite file without its schema yet
        return 0


class TestCrashRecovery:
    def test_crash_then_retry_succeeds(self, monkeypatch, smoke_tpcc):
        """crash:1@1 kills every first attempt; the respawned worker's
        retry completes and results are byte-identical to a fault-free
        run."""
        monkeypatch.setenv("REPRO_FAULT", "crash:1@1")
        specs = smoke_specs()
        runner = Runner(store=ResultStore(), jobs=2, retries=2, backoff=0.01)
        results = runner.run(specs)
        stats = runner.last_stats
        assert stats.simulated == 3
        assert stats.failed == 0
        assert stats.retried == 3  # one crash per spec
        monkeypatch.delenv("REPRO_FAULT")
        for spec, result in zip(specs, results):
            direct = simulate(smoke_tpcc, config=spec.config)
            assert result_to_json(result) == result_to_json(direct)

    def test_doomed_specs_fail_alone(
        self, tmp_path, monkeypatch, backend="jsonl"
    ):
        """Under a partial crash schedule, exactly the specs whose every
        attempt is scheduled to crash fail — the rest complete and
        persist, and a fault-free rerun heals the failures."""
        specs = smoke_specs(variants=("base", "slicc", "slicc-sw", "steps"))
        keys = [spec.key() for spec in specs]
        retries = 1
        # The schedule is a pure function of (seed, key, attempt), so the
        # test derives its expectations from the same function the
        # workers consult: scan for a seed giving a mixed outcome.
        for seed in range(200):
            plan = FaultPlan((FaultRule("crash", 0.6),), seed=seed)
            doomed = {
                key
                for key in keys
                if all(
                    plan.should("crash", key, a) for a in range(retries + 1)
                )
            }
            if 0 < len(doomed) < len(keys):
                break
        else:  # pragma: no cover - 200 seeds all degenerate
            pytest.fail("no seed with a mixed crash schedule")
        monkeypatch.setenv("REPRO_FAULT", "crash:0.6")
        monkeypatch.setenv("REPRO_FAULT_SEED", str(seed))
        store = ResultStore(tmp_path, backend=backend)
        runner = Runner(store=store, jobs=2, retries=retries, backoff=0.01)
        with pytest.raises(SweepFailure) as excinfo:
            runner.run(specs)
        failed = {o.key for o in excinfo.value.failures}
        assert failed == doomed
        assert runner.last_stats.failed == len(doomed)
        for outcome in excinfo.value.failures:
            assert outcome.kind == "worker-death"
            assert "87" in outcome.error  # injected-crash exit code
            assert store.failure_info(outcome.key)["kind"] == "worker-death"
        # Survivors persisted; a fault-free rerun retries only the
        # doomed specs and clears their failure records.
        reloaded = ResultStore(tmp_path)
        assert set(reloaded.keys()) == set(keys) - doomed
        monkeypatch.delenv("REPRO_FAULT")
        monkeypatch.delenv("REPRO_FAULT_SEED")
        rerun = Runner(store=reloaded, jobs=2)
        rerun.run(specs)
        assert rerun.last_stats.simulated == len(doomed)
        assert rerun.last_stats.cached == len(keys) - len(doomed)
        assert ResultStore(tmp_path).failures() == {}

    def test_doomed_specs_fail_alone_sqlite(self, tmp_path, monkeypatch):
        self.test_doomed_specs_fail_alone(tmp_path, monkeypatch, "sqlite")


class TestTimeout:
    def test_hung_spec_is_killed_and_marked_timed_out(
        self, tmp_path, monkeypatch, backend="jsonl"
    ):
        """hang:1 parks the worker in a long sleep; the per-spec timeout
        kills it and the spec is terminal ``timed_out`` — no retry, so
        the sweep does not stall for another full timeout."""
        monkeypatch.setenv("REPRO_FAULT", "hang:1")
        store = ResultStore(tmp_path, backend=backend)
        runner = Runner(store=store, retries=2, timeout=0.5, backoff=0.01)
        (spec,) = smoke_specs(variants=("base",))
        t0 = time.monotonic()
        with pytest.raises(SweepFailure) as excinfo:
            runner.run([spec])
        elapsed = time.monotonic() - t0
        (outcome,) = excinfo.value.failures
        assert outcome.kind == "timeout"
        assert outcome.attempts == 1  # terminal: never retried
        assert runner.last_stats.timed_out == 1
        assert runner.last_stats.failed == 1
        assert store.failure_info(spec.key())["kind"] == "timeout"
        assert elapsed < 10  # killed promptly, not after the 1h sleep

    def test_hung_spec_is_killed_and_marked_timed_out_sqlite(
        self, tmp_path, monkeypatch
    ):
        self.test_hung_spec_is_killed_and_marked_timed_out(
            tmp_path, monkeypatch, "sqlite"
        )

    def test_fast_specs_unaffected_by_generous_timeout(self):
        runner = Runner(timeout=120, jobs=2)
        results = runner.run(smoke_specs())
        assert runner.last_stats.timed_out == 0
        assert len(results) == 3


class TestTornWrites:
    def test_torn_appends_quarantine_and_compact_away(
        self, tmp_path, monkeypatch
    ):
        """torn_write:1@1 tears the first append of every key. The sweep
        itself still succeeds (results are in memory); the next store
        open quarantines the fragments; a fault-free rerun re-derives
        the rows around the healed tail; compaction scrubs the file.

        JSONL only (a directory store's default format): a torn append
        is physically impossible under the sqlite backend's WAL (commits
        are atomic), so the fault kind only applies here."""
        monkeypatch.setenv("REPRO_FAULT", "torn_write:1@1")
        specs = smoke_specs()
        runner = Runner(store=ResultStore(tmp_path), jobs=2, backoff=0.01)
        results = runner.run(specs)
        assert len(results) == 3  # the sweep itself never noticed
        monkeypatch.delenv("REPRO_FAULT")

        with pytest.warns(UserWarning, match="corrupt line"):
            reloaded = ResultStore(tmp_path)
        assert len(reloaded) == 0  # every append was torn
        assert audit_store(tmp_path).corrupt == 3
        assert reloaded.quarantine_path.exists()

        rerun = Runner(store=reloaded, jobs=2)
        rerun.run(specs)
        assert rerun.last_stats.simulated == 3

        audit = audit_store(tmp_path)
        assert not audit.clean and audit.corrupt == 3 and audit.keys == 3
        before, written = compact_store(tmp_path)
        assert before.corrupt == 3 and written == 3
        after = audit_store(tmp_path)
        assert after.clean and after.keys == 3 and after.reclaimable == 0
        final = ResultStore(tmp_path)  # loads silently: no warning path
        assert {r.variant for r in final.results()} == {
            "base",
            "slicc",
            "steps",
        }


both_signals = pytest.mark.parametrize(
    "signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
)


class TestGracefulInterrupt:
    @both_signals
    def test_signal_drains_and_resume_skips_completed(
        self, tmp_path, signum, backend="jsonl"
    ):
        """SIGINT or SIGTERM mid-sweep: the run exits 130, the store
        holds exactly the completed rows (parseable, no torn tail), and
        a resumed run serves them from cache."""
        specfile = tmp_path / "exp.json"
        specfile.write_text(
            json.dumps(
                {
                    "workload": "tpcc-1",
                    "scale": "smoke",
                    "seed": 7,
                    "variant": "slicc-sw",
                    "axes": {"slicc.dilution_t": [2, 4, 6, 8, 10, 12]},
                    "baseline": True,
                }
            )
        )
        store = tmp_path / f"results.{backend}"
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(REPO_ROOT, "src"),
            # Slow every spec down (sleep, then simulate) so the sweep is
            # reliably mid-flight when the signal lands.
            REPRO_FAULT="hang:1",
            REPRO_FAULT_HANG_S="0.5",
        )
        argv = [
            sys.executable,
            "-m",
            "repro",
            "exp",
            str(specfile),
            "--store",
            str(store),
            "--jobs",
            "2",
        ]
        proc = subprocess.Popen(
            argv,
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if persisted_results(store) >= 1:
                    break
                if proc.poll() is not None:  # pragma: no cover
                    pytest.fail(
                        "sweep finished before the signal: "
                        + proc.communicate()[1]
                    )
                time.sleep(0.02)
            proc.send_signal(signum)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - hung child
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, stderr
        assert "interrupted" in stderr

        # Every persisted row is complete and parseable — the drain
        # flushed whole rows only.
        audit = audit_store(store)
        assert audit.clean and audit.blank == 0 and audit.failure_rows == 0
        assert audit.lines == audit.result_rows
        completed = audit.result_rows
        assert 1 <= completed < 7

        # Resume without faults: completed rows come from the store.
        env.pop("REPRO_FAULT")
        env.pop("REPRO_FAULT_HANG_S")
        done = subprocess.run(
            argv,
            env=env,
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert f"{completed} cached" in done.stdout
        assert len(ResultStore(store)) == 7

    @both_signals
    def test_signal_drains_and_resume_skips_completed_sqlite(
        self, tmp_path, signum
    ):
        self.test_signal_drains_and_resume_skips_completed(
            tmp_path, signum, "sqlite"
        )

    def test_second_signal_aborts_immediately(self, tmp_path, backend="jsonl"):
        """First SIGINT starts the graceful drain; with every in-flight
        spec hung for 60s the drain would block for the rest of the
        hour. A second signal escalates: workers are killed, nothing
        further is persisted, and the exit code is still 130 — within
        seconds, not after the hang."""
        specfile = tmp_path / "exp.json"
        specfile.write_text(
            json.dumps(
                {
                    "workload": "tpcc-1",
                    "scale": "smoke",
                    "seed": 7,
                    "variant": "slicc-sw",
                    "axes": {"slicc.dilution_t": [2, 4, 6, 8]},
                }
            )
        )
        store = tmp_path / f"results.{backend}"
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(REPO_ROOT, "src"),
            REPRO_FAULT="hang:1",
            REPRO_FAULT_HANG_S="60",
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "exp",
                str(specfile),
                "--store",
                str(store),
                "--jobs",
                "2",
            ],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            # Wait until a forked worker is actually *inside* the
            # injected hang (parked in nanosleep) — children merely
            # existing is not enough: a signal landing before the first
            # dispatch would drain an empty pool and exit immediately.
            children_path = f"/proc/{proc.pid}/task/{proc.pid}/children"
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    with open(children_path) as fh:
                        children = fh.read().split()
                    hung = any(
                        "sleep" in open(f"/proc/{c}/wchan").read()
                        for c in children
                    )
                except OSError:  # pragma: no cover - child exited mid-scan
                    hung = False
                if hung:
                    break
                assert proc.poll() is None
                time.sleep(0.02)
            else:  # pragma: no cover - workers never hung
                pytest.fail("pool workers never reached the injected hang")
            proc.send_signal(signal.SIGINT)
            time.sleep(1.0)  # stage one: draining (hung, would take 60s)
            assert proc.poll() is None
            t0 = time.monotonic()
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=30)
            elapsed = time.monotonic() - t0
        finally:
            if proc.poll() is None:  # pragma: no cover - hung child
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, stderr
        assert elapsed < 20  # aborted, not drained through the 60s hang
        assert "interrupted" in stderr
        # Nothing was persisted: every spec was hung when the abort
        # landed, and the abort promises no further writes.
        assert audit_store(store).lines == 0

    def test_second_signal_aborts_immediately_sqlite(self, tmp_path):
        self.test_second_signal_aborts_immediately(tmp_path, "sqlite")


def interrupt_inline_run(store, signum: int, count: int) -> dict:
    """Run three smoke specs through ``Runner(jobs=1)`` (the inline
    path) and send this process ``count`` ``signum`` signals as the
    second spec starts.

    Returns whether ``KeyboardInterrupt`` was raised, how many specs
    started, which of the three the store holds (by index), and whether
    the runner put the previous SIGINT/SIGTERM handlers back.
    """
    from repro.exp import runner as runner_mod

    specs = smoke_specs()
    watched = (signal.SIGINT, signal.SIGTERM)
    handlers = [signal.getsignal(s) for s in watched]
    started = []
    real = runner_mod._run_spec

    def signalling(spec, attempt=0):
        started.append(spec.key())
        if len(started) == 2:
            for _ in range(count):
                os.kill(os.getpid(), signum)
        return real(spec, attempt)

    runner_mod._run_spec = signalling
    try:
        Runner(store=ResultStore(store), jobs=1).run(specs)
        interrupted = False
    except KeyboardInterrupt:
        interrupted = True
    finally:
        runner_mod._run_spec = real
    stored = ResultStore(store)
    return {
        "interrupted": interrupted,
        "started": len(started),
        "stored": [i for i, spec in enumerate(specs) if spec.key() in stored],
        "restored": handlers == [signal.getsignal(s) for s in watched],
    }


#: What each signal count leaves: one signal lets the second spec finish
#: and persist, a second one abandons it.
signal_counts = pytest.mark.parametrize(
    "count,stored", [(1, [0, 1]), (2, [0])], ids=["drain", "abort"]
)


class TestInterruptAtOneJob:
    """The interrupt contract on the inline path, which every ``--jobs
    1`` campaign takes (:class:`TestGracefulInterrupt` covers the
    pool)."""

    @both_signals
    @signal_counts
    def test_signal_during_the_second_spec(self, tmp_path, signum, count, stored):
        """SIGTERM kills a process that has no handler, so its cases run
        in a subprocess; SIGINT's run in this one."""
        if signum == signal.SIGINT:
            outcome = interrupt_inline_run(tmp_path, signum, count)
        else:
            code = (
                "import json, sys\n"
                f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
                "from test_fault_tolerance import interrupt_inline_run\n"
                f"outcome = interrupt_inline_run({str(tmp_path)!r}, "
                f"{int(signum)}, {count})\n"
                "print(json.dumps(outcome))\n"
            )
            done = subprocess.run(
                [sys.executable, "-c", code],
                env=dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src")),
                cwd=REPO_ROOT,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outcome = json.loads(done.stdout.splitlines()[-1])
        assert outcome == {
            "interrupted": True,
            "started": 2,
            "stored": stored,
            "restored": True,
        }

    def test_exp_sigterm_drains_and_resume_skips_completed(self, tmp_path):
        """SIGTERM after the first stored row of a ``repro exp --jobs 1``
        sweep: the spec in flight finishes and persists, the run exits
        130, and a resume serves the stored rows. Ci-scale specs (about
        a second each) keep the sweep mid-flight without a
        ``REPRO_FAULT`` profile, which would route it through the
        pool."""
        specfile = tmp_path / "exp.json"
        specfile.write_text(
            json.dumps(
                {
                    "workload": "tpcc-1",
                    "scale": "ci",
                    "seed": 7,
                    "variant": "slicc-sw",
                    "axes": {"slicc.dilution_t": [2, 4, 6, 8]},
                }
            )
        )
        store = tmp_path / "results.jsonl"
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        env.pop("REPRO_FAULT", None)
        argv = [
            sys.executable,
            "-m",
            "repro",
            "exp",
            str(specfile),
            "--store",
            str(store),
            "--jobs",
            "1",
        ]
        proc = subprocess.Popen(
            argv,
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if persisted_results(store) >= 1:
                    break
                if proc.poll() is not None:  # pragma: no cover
                    pytest.fail(
                        "sweep finished before the signal: "
                        + proc.communicate()[1]
                    )
                time.sleep(0.02)
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - hung child
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, stderr
        assert "interrupted" in stderr
        audit = audit_store(store)
        assert audit.clean and audit.failure_rows == 0
        assert audit.lines == audit.result_rows
        completed = audit.result_rows
        assert 2 <= completed < 4  # the spec in flight was persisted

        done = subprocess.run(
            argv, env=env, cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert f"{4 - completed} simulated, {completed} cached" in done.stdout
        assert len(ResultStore(store)) == 4

    def test_sigterm_before_the_drain_handler_exits_130(self, tmp_path):
        """A SIGTERM that lands before the runner installs its drain
        handler (here during the store open, the keying or the trace
        build ahead of a three-spec ci-scale ``repro exp --jobs 1``)
        still ends the command with ``interrupted`` and exit 130, not
        status -15, and leaves a store that audits clean. The signal
        goes about 0.1 s after the CLI module is imported, about 0.3 s
        after the start, well before the first spec starts (0.5 s on
        a 2-core Xeon VM)."""
        specfile = tmp_path / "exp.json"
        specfile.write_text(
            json.dumps(
                {
                    "workload": "tpcc-1",
                    "scale": "ci",
                    "seed": 7,
                    "variant": "slicc-sw",
                    "axes": {"slicc.dilution_t": [2, 4, 6]},
                }
            )
        )
        store = tmp_path / "results.jsonl"
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        env.pop("REPRO_FAULT", None)
        code = (
            "import sys\n"
            "import repro.cli\n"
            "print('imported', flush=True)\n"
            "sys.exit(repro.cli.main(sys.argv[1:]))\n"
        )
        argv = [sys.executable, "-c", code, "exp", str(specfile)]
        argv += ["--store", str(store), "--jobs", "1"]
        proc = subprocess.Popen(
            argv,
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            assert proc.stdout.readline() == "imported\n"
            time.sleep(0.1)
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - hung child
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, stderr
        assert "interrupted" in stderr
        audit = audit_store(store)
        assert audit.clean and audit.failure_rows == 0
        assert audit.lines == audit.result_rows < 3
