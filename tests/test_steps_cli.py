"""Tests for the STEPS extension variant and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.params import ScalePreset
from repro.sim import SimConfig, simulate
from repro.workloads import standard_trace


class TestStepsVariant:
    def test_steps_without_peers_equals_base(self, smoke_tpcc):
        """With no queued peers, STEPS never switches and must behave
        exactly like the baseline."""
        base = simulate(
            smoke_tpcc, config=SimConfig(variant="base")
        )
        steps = simulate(
            smoke_tpcc, config=SimConfig(variant="steps")
        )
        # Smoke traces (8 threads / 16 cores) never co-queue threads.
        assert steps.context_switches == 0
        assert steps.i_misses == base.i_misses

    def test_steps_never_migrates(self):
        trace = standard_trace("tpcc-1", ScalePreset.CI, n_threads=32)
        steps = simulate(
            trace, config=SimConfig(variant="steps", arrival_spacing=0)
        )
        assert steps.migrations == 0
        assert steps.context_switches > 0

    def test_steps_reduces_instruction_misses_without_data_cost(self):
        """STEPS's signature (Section 6): time-multiplexing same-type
        threads on one core reuses cached chunks — instruction misses
        drop and, unlike SLICC, data misses do *not* rise (no thread
        leaves its data behind)."""
        trace = standard_trace("tpcc-1", ScalePreset.CI, n_threads=32)
        base = simulate(
            trace, config=SimConfig(variant="base", arrival_spacing=0)
        )
        steps = simulate(
            trace, config=SimConfig(variant="steps", arrival_spacing=0)
        )
        assert steps.i_mpki < base.i_mpki
        assert steps.d_mpki <= base.d_mpki * 1.02

    def test_steps_completes_all_threads(self):
        trace = standard_trace("tpce", ScalePreset.SMOKE, n_threads=12)
        r = simulate(trace, config=SimConfig(variant="steps"))
        assert r.threads_completed == 12


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["run", "tpcc-1", "--variants", "base"])
        assert args.workload == "tpcc-1"

    def test_info_command(self, capsys):
        rc = main(["info", "tpcc-1", "--scale", "smoke"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "transaction types" in out
        assert "NewOrder" in out

    @pytest.mark.parametrize("flag", [["--threads", "4"], ["--seed", "9"]])
    def test_info_rejects_flags_it_does_not_read(self, flag, capsys):
        """info prints the scale's default thread count whatever
        --threads says, and reads no seed: argparse rejects both."""
        with pytest.raises(SystemExit) as exit_info:
            main(["info", "tpcc-1", "--scale", "smoke", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_command(self, capsys):
        rc = main(
            [
                "run",
                "mapreduce",
                "--scale",
                "smoke",
                "--threads",
                "4",
                "--variants",
                "base",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "I-MPKI" in out

    def test_run_adds_base_automatically(self, capsys):
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
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "base" in out and "nextline" in out

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "tpch"])
