"""End-to-end tests for the experiment-layer CLI surface."""

import json

import pytest

from repro.cli import main


def write_specfile(tmp_path, payload):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload))
    return str(path)


SMOKE_EXP = {
    "workload": "tpcc-1",
    "scale": "smoke",
    "seed": 7,
    "variant": "slicc-sw",
    "axes": {"slicc.dilution_t": [5, 10]},
    "baseline": True,
}


#: (field, value) pairs a spec file is refused for with a one-line error
#: and exit 2. A depth-0 steal never finishes; a float or string thread
#: count or seed would end in a numpy traceback.
BAD_SPEC_FIELDS = [
    ("steal_min_depth", 0),
    ("n_threads", 1.5),
    ("n_threads", 0),
    ("n_threads", True),
    ("seed", "7"),
    ("seed", -1),
    ("seed", 7.0),
]


def bad_spec(field, value) -> dict:
    """A smoke spec file that gets ``field`` wrong."""
    payload = {"workload": "tpcc-1", "scale": "smoke"}
    if field == "steal_min_depth":
        return {**payload, "variant": "slicc", "overrides": {field: value}}
    return {**payload, field: value}


class TestExpCommand:
    def test_exp_runs_spec_file(self, tmp_path, capsys):
        rc = main(["exp", write_specfile(tmp_path, SMOKE_EXP)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dilution_t=5" in out and "dilution_t=10" in out
        assert "speedup" in out

    def test_exp_store_makes_rerun_incremental(
        self, tmp_path, capsys, backend="jsonl"
    ):
        specfile = write_specfile(tmp_path, SMOKE_EXP)
        store = str(tmp_path / "results")
        argv = ["exp", specfile, "--store", store, "--backend", backend]
        assert main(argv) == 0
        capsys.readouterr()
        # A rerun without the flag finds the store the first run made.
        assert main(["exp", specfile, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "[0 simulated, 3 cached]" in out

    def test_exp_store_makes_rerun_incremental_sqlite(self, tmp_path, capsys):
        self.test_exp_store_makes_rerun_incremental(tmp_path, capsys, "sqlite")

    def test_exp_parallel_jobs(self, tmp_path, capsys):
        rc = main(["exp", write_specfile(tmp_path, SMOKE_EXP), "--jobs", "2"])
        assert rc == 0
        assert "dilution_t=10" in capsys.readouterr().out

    def test_exp_without_baseline_has_no_speedup_column(self, tmp_path, capsys):
        payload = dict(SMOKE_EXP)
        payload.pop("baseline")
        rc = main(["exp", write_specfile(tmp_path, payload)])
        assert rc == 0
        assert "speedup" not in capsys.readouterr().out

    def test_exp_bad_axis_is_a_clean_error(self, tmp_path, capsys):
        payload = dict(SMOKE_EXP, axes={"slicc.dillution_t": [5]})
        rc = main(["exp", write_specfile(tmp_path, payload)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dillution_t" in err

    @pytest.mark.parametrize("field,value", BAD_SPEC_FIELDS)
    def test_exp_rejects_a_bad_spec_field(self, field, value, tmp_path, capsys):
        rc = main(["exp", write_specfile(tmp_path, bad_spec(field, value))])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize("where", ["overrides", "axes"])
    def test_exp_rejects_the_retired_kernel_field(self, where, tmp_path, capsys):
        """``kernel`` is no longer a config field (a test picks the
        reference path with an engine argument): a spec file that names
        it is refused as an unknown field."""
        value = "reference" if where == "overrides" else ["auto", "reference"]
        payload = dict(SMOKE_EXP, **{where: {"kernel": value}})
        rc = main(["exp", write_specfile(tmp_path, payload)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'kernel'" in err

    @pytest.mark.parametrize(
        "flag,value",
        [("--timeout", "0"), ("--timeout", "-1"), ("--jobs", "0"),
         ("--retries", "-1")],
    )
    def test_exp_rejects_a_bad_runner_flag(self, flag, value, tmp_path, capsys):
        """A zero timeout would kill every spec and write a failure row
        for each: no spec may run and no store be created."""
        store = tmp_path / "store"
        specfile = write_specfile(tmp_path, SMOKE_EXP)
        rc = main(["exp", specfile, flag, value, "--store", str(store)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag.lstrip("-") in err
        assert not store.exists()

    def test_exp_missing_file_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["exp", str(tmp_path / "absent.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_exp_accepts_retry_and_timeout_flags(self, tmp_path, capsys):
        rc = main(
            [
                "exp",
                write_specfile(tmp_path, SMOKE_EXP),
                "--retries",
                "1",
                "--timeout",
                "120",
            ]
        )
        assert rc == 0
        assert "dilution_t=10" in capsys.readouterr().out

    def test_exp_exit_code_contract_documented(self, capsys):
        with pytest.raises(SystemExit):
            main(["exp", "--help"])
        out = capsys.readouterr().out
        assert "exit code is 3" in out.lower() or "exit codes" in out.lower()

    def test_failed_specs_exit_3_with_failure_table(
        self, tmp_path, monkeypatch, capsys, backend="jsonl"
    ):
        """Under an always-crash fault plan every spec exhausts its
        retries: the run exits 3 and tabulates the losses on stderr."""
        monkeypatch.setenv("REPRO_FAULT", "crash:1")
        specfile = write_specfile(tmp_path, SMOKE_EXP)
        store = str(tmp_path / "results")
        rc = main(
            ["exp", specfile, "--store", store, "--retries", "0"]
            + ["--backend", backend]
        )
        assert rc == 3
        captured = capsys.readouterr()
        assert "3 spec(s) failed after retries" in captured.err
        assert "worker-death" in captured.err
        assert "3 failed" in captured.out
        # The failures are provenance in the store: a fault-free rerun
        # retries and succeeds.
        monkeypatch.delenv("REPRO_FAULT")
        assert main(["exp", specfile, "--store", store]) == 0
        assert "[3 simulated" in capsys.readouterr().out

    def test_failed_specs_exit_3_with_failure_table_sqlite(
        self, tmp_path, monkeypatch, capsys
    ):
        self.test_failed_specs_exit_3_with_failure_table(
            tmp_path, monkeypatch, capsys, "sqlite"
        )


class TestSharedSpecKeys:
    """run, exp and paper expand the same spec payloads, so one store
    serves all of them."""

    def test_run_is_served_from_a_paper_store(self, tmp_path, capsys):
        out = str(tmp_path / "report")
        argv = ["paper", "--figures", "fig10-mpki", "--scale", "smoke"]
        assert main(argv + ["--out", out]) == 0
        capsys.readouterr()
        variants = ["base", "nextline", "pif", "slicc", "slicc-sw"]
        argv = ["run", "tpcc-1", "--scale", "smoke", "--seed", "7"]
        argv += ["--variants", *variants, "--store", out]
        assert main(argv) == 0
        assert "[0 simulated, 6 cached]" in capsys.readouterr().out
        # The smoke default thread count, named, is the same trace.
        assert main(argv + ["--threads", "8"]) == 0
        assert "[0 simulated, 6 cached]" in capsys.readouterr().out

    def test_exp_is_served_from_a_paper_store(self, tmp_path, capsys):
        """A spec file restating Figure 7's smoke grid names the
        registry's 13 specs, so a `repro paper` store serves it whole."""
        out = str(tmp_path / "report")
        argv = ["paper", "--figures", "fig7-thresholds", "--scale", "smoke"]
        assert main(argv + ["--out", out]) == 0
        capsys.readouterr()
        specfile = write_specfile(
            tmp_path,
            {
                "workload": "tpcc-1",
                "scale": "smoke",
                "seed": 7,
                "variant": "slicc-sw",
                "overrides": {"slicc.dilution_t": 0},
                "axes": {
                    "slicc.fill_up_t": [128, 256, 384, 512],
                    "slicc.matched_t": [2, 4, 8],
                },
                "baseline": True,
            },
        )
        assert main(["exp", specfile, "--store", out]) == 0
        assert "[0 simulated, 13 cached]" in capsys.readouterr().out

    def test_run_tables_completed_rows_and_exits_3(self, monkeypatch, capsys):
        from repro.exp import runner as runner_mod

        real = runner_mod._run_spec

        def poisoned(spec, attempt=0):
            if spec.variant == "slicc":
                raise RuntimeError("poisoned")
            return real(spec, attempt)

        monkeypatch.setattr(runner_mod, "_run_spec", poisoned)
        argv = ["run", "tpcc-1", "--scale", "smoke", "--seed", "7"]
        rc = main(argv + ["--variants", "nextline", "slicc", "--retries", "0"])
        assert rc == 3
        captured = capsys.readouterr()
        assert "completed specs" in captured.out
        assert "variant=nextline" in captured.out
        assert "1 spec(s) failed after retries" in captured.err


class TestStoreCommand:
    def fill_store(self, tmp_path, torn=False):
        specfile = write_specfile(tmp_path, SMOKE_EXP)
        store = tmp_path / "results.jsonl"
        assert main(["exp", specfile, "--store", str(store)]) == 0
        if torn:
            with store.open("a") as fh:
                fh.write('{"key": "bad", "result": {"torn')
        return store

    def test_verify_clean_store(self, tmp_path, capsys):
        store = self.fill_store(tmp_path)
        capsys.readouterr()
        assert main(["store", "verify", str(store)]) == 0
        out = capsys.readouterr().out
        assert "clean (3 results" in out
        assert "corrupt lines" in out  # the audit table

    def test_verify_corrupt_store_exits_1(self, tmp_path, capsys):
        store = self.fill_store(tmp_path, torn=True)
        capsys.readouterr()
        assert main(["store", "verify", str(store)]) == 1
        captured = capsys.readouterr()
        assert "CORRUPT: 1 unparseable line(s)" in captured.err
        assert "store compact" in captured.err

    def test_compact_scrubs_corruption(self, tmp_path, capsys):
        store = self.fill_store(tmp_path, torn=True)
        capsys.readouterr()
        with pytest.warns(UserWarning):
            assert main(["store", "compact", str(store)]) == 0
        out = capsys.readouterr().out
        assert "compacted" in out and "1 corrupt" in out
        assert main(["store", "verify", str(store)]) == 0
        assert "clean (3 results" in capsys.readouterr().out
        assert (tmp_path / "results.jsonl.quarantine").exists()

    def test_verify_accepts_directory(self, tmp_path, capsys):
        self.fill_store(tmp_path)
        capsys.readouterr()
        assert main(["store", "verify", str(tmp_path)]) == 0

    def test_verify_json_clean(self, tmp_path, capsys):
        store = self.fill_store(tmp_path)
        capsys.readouterr()
        assert main(["store", "verify", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["keys"] == 3 and payload["result_rows"] == 3
        assert payload["corrupt"] == 0 and payload["live_failures"] == 0
        assert payload["reclaimable"] == 0
        assert payload["path"] == str(store)

    def test_verify_json_corrupt_exits_1(self, tmp_path, capsys):
        store = self.fill_store(tmp_path, torn=True)
        capsys.readouterr()
        assert main(["store", "verify", str(store), "--json"]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["clean"] is False and payload["corrupt"] == 1
        assert payload["reclaimable"] == 1
        assert captured.err == ""  # diagnostics live in the JSON


class TestJobsFlag:
    def test_run_with_jobs(self, capsys):
        rc = main(
            [
                "run",
                "mapreduce",
                "--scale",
                "smoke",
                "--threads",
                "4",
                "--variants",
                "nextline",
                "--jobs",
                "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "base" in out and "nextline" in out
