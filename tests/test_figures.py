"""Tests for the figure registry, the report generator, and the
``repro paper`` CLI (resumable skip logic)."""

import csv

import pytest

from repro.analysis import write_figure_report
from repro.analysis.paper_report import figure_table
from repro.cli import main
from repro.errors import ConfigurationError
from repro.exp import (
    Figure,
    ResultStore,
    Runner,
    figure_names,
    get_figure,
    locate_store,
    register_figure,
    select_figures,
)
from repro.exp.figures import FIGURE_WORKLOADS
from repro.workloads import workload_names

EXPECTED_FIGURES = [
    "fig7-thresholds",
    "fig8-dilution",
    "fig10-mpki",
    "fig11-speedup",
    "webserve-churn",
    "phase-robustness",
    "policy-comparison",
]


class TestRegistry:
    def test_registered_names(self):
        assert figure_names() == EXPECTED_FIGURES

    def test_unknown_figure_is_config_error(self):
        with pytest.raises(ConfigurationError):
            get_figure("fig99-imaginary")

    def test_duplicate_registration_rejected(self):
        fig = get_figure("fig8-dilution")
        with pytest.raises(ConfigurationError):
            register_figure(fig)

    def test_select_defaults_to_all(self):
        assert [f.name for f in select_figures()] == EXPECTED_FIGURES
        assert [f.name for f in select_figures(["fig10-mpki"])] == [
            "fig10-mpki"
        ]

    def test_figure_workloads_are_registered(self):
        assert set(FIGURE_WORKLOADS) <= set(workload_names())

    @pytest.mark.parametrize("name", EXPECTED_FIGURES)
    @pytest.mark.parametrize("scale", ["smoke", "paper"])
    def test_every_figure_builds_valid_specs_at_both_scales(
        self, name, scale
    ):
        """Spec construction validates workload/scale eagerly, so a
        successful build is a valid spec family; keys must be computable
        and distinct per row."""
        figure = get_figure(name)
        rows = figure.build(scale)
        assert rows
        keys = [row.spec.key() for row in rows]
        assert len(set(keys)) == len(keys)
        for row in rows:
            assert row.spec.scale == scale
            if row.baseline is not None:
                assert row.baseline.variant == "base"
                assert row.baseline.workload == row.spec.workload
        specs = figure.specs(scale)
        assert len({spec.key() for spec in specs}) == len(specs)

    def test_specs_include_row_and_baseline_specs(self):
        figure = get_figure("fig8-dilution")
        rows = figure.build("smoke")
        keys = {spec.key() for spec in figure.specs("smoke")}
        assert {row.spec.key() for row in rows} <= keys
        assert {row.baseline.key() for row in rows} <= keys

    def test_policy_comparison_sweeps_the_whole_registry(self):
        """The policy-comparison figure is registry-driven: one row per
        registered policy per workload, so a newly registered policy is
        swept without a figure edit."""
        from repro.exp.figures import POLICY_COMPARISON_WORKLOADS
        from repro.sched import policy_names

        rows = get_figure("policy-comparison").build("smoke")
        swept = {(row.spec.workload, row.spec.variant) for row in rows}
        assert swept == {
            (workload, policy)
            for workload in POLICY_COMPARISON_WORKLOADS
            for policy in policy_names()
        }
        for row in rows:
            assert row.baseline is not None


@pytest.fixture(scope="module")
def tiny_figure():
    """An unregistered two-row figure small enough to simulate in-test."""

    def _build(scale):
        from repro.exp.figures import FigureRow, _spec

        baseline = _spec("mapreduce", scale, "base")
        return [
            FigureRow(baseline, baseline),
            FigureRow(_spec("mapreduce", scale, "nextline"), baseline),
        ]

    return Figure(
        name="tiny-test",
        title="Tiny test figure",
        description="two mapreduce points",
        builder=_build,
        metrics=("I-MPKI", "migrations"),
    )


class TestReport:
    def test_markdown_and_csv_match(self, tiny_figure, tmp_path):
        store = ResultStore()
        Runner(store=store).run(tiny_figure.specs("smoke"))
        rows = tiny_figure.build("smoke")
        paths = write_figure_report(tiny_figure, rows, store, tmp_path)

        md = paths["markdown"].read_text()
        assert md.startswith("## Tiny test figure")
        assert "| mapreduce/nextline |" in md
        # Baseline-relative columns present.
        assert "ΔI-MPKI" in md and "speedup" in md

        with paths["csv"].open() as fh:
            table = list(csv.reader(fh))
        header, body = table[0], table[1:]
        assert header[:3] == ["label", "workload", "variant"]
        assert "ΔI-MPKI" in header and "speedup" in header
        assert len(body) == len(rows)
        # The base row is its own baseline: speedup 1, delta 0.
        base_row = dict(zip(header, body[0]))
        assert float(base_row["speedup"]) == pytest.approx(1.0)
        assert float(base_row["ΔI-MPKI"]) == pytest.approx(0.0)
        # nextline prefetching strictly lowers I-MPKI vs base.
        next_row = dict(zip(header, body[1]))
        assert float(next_row["ΔI-MPKI"]) < 0.0

    def test_missing_result_raises(self, tiny_figure):
        with pytest.raises(ConfigurationError):
            figure_table(
                tiny_figure, tiny_figure.build("smoke"), ResultStore()
            )


class TestPaperCommand:
    def test_run_then_resume(self, tmp_path, capsys, backend="jsonl"):
        out = str(tmp_path / "report")
        argv = ["paper", "--figures", "fig8-dilution", "--out", out]
        assert main(argv + ["--backend", backend]) == 0
        first = capsys.readouterr().out
        assert "7 to simulate" in first
        assert (tmp_path / "report" / "fig8-dilution.md").exists()
        assert (tmp_path / "report" / "fig8-dilution.csv").exists()
        assert (tmp_path / "report" / "index.md").exists()
        kind, store = locate_store(tmp_path / "report")
        assert kind == backend and store.exists()

        # Second invocation: everything served from the store.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "7 already stored (skipped), 0 to simulate" in second
        assert "0 simulated" in second

    def test_run_then_resume_sqlite(self, tmp_path, capsys):
        self.test_run_then_resume(tmp_path, capsys, "sqlite")

    def test_each_figure_is_built_once(self, tmp_path, capsys, monkeypatch):
        """The specs `repro paper` runs come from the rows it built and
        reports, so each figure's builder runs once."""
        built = []
        real = Figure.build

        def counting(figure, scale):
            built.append(figure.name)
            return real(figure, scale)

        monkeypatch.setattr(Figure, "build", counting)
        out = str(tmp_path / "report")
        assert main(["paper", "--figures", "fig8-dilution", "--out", out]) == 0
        assert "6 rows / 7 specs" in capsys.readouterr().out
        assert built == ["fig8-dilution"]

    def test_scale_must_be_known(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["paper", "--scale", "huge", "--out", str(tmp_path)])

    def test_unknown_figure_is_clean_error(self, tmp_path, capsys):
        rc = main(["paper", "--figures", "fig99", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_list_does_not_simulate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["paper", "--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_FIGURES:
            assert name in out
        assert not (tmp_path / "report").exists()
