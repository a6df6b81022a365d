"""Declarative registry of the paper's reproducible figures.

Every figure/table of the paper that this reproduction can regenerate is
declared here as a :class:`Figure`: a named builder that expands into an
:class:`~repro.exp.spec.ExperimentSpec` family (one spec per plotted
point, each optionally paired with its baseline run) at any
:class:`~repro.params.ScalePreset`. The registry is what makes the
result set a single artifact: ``repro paper`` iterates it, the nightly
CI reruns it, and the report generator renders one table per entry.

Because specs are content-hashed, figures share work automatically — the
``base`` run of ``fig10-mpki`` and the baseline of ``fig11-speedup`` are
the same key, so a campaign over the whole registry simulates each
distinct (trace, config) exactly once and reruns are served from the
:class:`~repro.exp.store.ResultStore`.

>>> from repro.exp.figures import get_figure
>>> rows = get_figure("fig8-dilution").build("smoke")
>>> rows[0].spec.workload
'tpcc-1'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.exp.spec import ExperimentSpec, grid
from repro.params import ScalePreset, SliccParams
from repro.sched import policy_names
from repro.sim.config import SimConfig

#: Seed every registry figure runs at (matches the golden-pin seed so
#: smoke-scale figure runs and the golden fixtures describe the same
#: traces).
FIGURE_SEED = 7

#: Workloads the cross-workload figures span: the Table 1 four plus the
#: scenario extensions, in registry order.
FIGURE_WORKLOADS = (
    "tpcc-1",
    "tpcc-10",
    "tpce",
    "mapreduce",
    "webserve",
    "phased",
)


@dataclass(frozen=True)
class FigureRow:
    """One plotted point: its spec and (optionally) its baseline run."""

    spec: ExperimentSpec
    baseline: Optional[ExperimentSpec] = None


@dataclass(frozen=True)
class Figure:
    """A reproducible figure/table of the paper.

    Attributes:
        name: registry key (``fig8-dilution``); also the report filename
            stem.
        title: human title quoted in the report.
        description: what the figure shows and what to look for.
        builder: scale preset -> row list.
        metrics: metric columns (names from
            :data:`repro.exp.summarize.METRICS`) the report renders.
    """

    name: str
    title: str
    description: str
    builder: Callable[[ScalePreset], list[FigureRow]]
    metrics: tuple[str, ...] = ("I-MPKI", "D-MPKI", "migrations", "util")

    def build(self, scale: str | ScalePreset) -> list[FigureRow]:
        """Expand into spec rows at a scale preset (value or enum)."""
        return self.builder(ScalePreset(scale) if isinstance(scale, str) else scale)

    def specs(self, scale: str | ScalePreset) -> list[ExperimentSpec]:
        """All distinct specs the figure needs (rows plus baselines)."""
        return row_specs(self.build(scale))


def row_specs(rows: Iterable[FigureRow]) -> list[ExperimentSpec]:
    """The distinct specs of ``rows`` (each row's spec and baseline), in
    first-seen order."""
    specs: dict[str, ExperimentSpec] = {}
    for row in rows:
        for spec in (row.spec, row.baseline):
            if spec is not None:
                specs.setdefault(spec.key(), spec)
    return list(specs.values())


_REGISTRY: dict[str, Figure] = {}


def register_figure(figure: Figure) -> Figure:
    """Add a figure to the registry (name must be unused)."""
    if figure.name in _REGISTRY:
        raise ConfigurationError(f"figure {figure.name!r} already registered")
    _REGISTRY[figure.name] = figure
    return figure


def figure_names() -> list[str]:
    """Registered figure names, in registration order."""
    return list(_REGISTRY)


def get_figure(name: str) -> Figure:
    """Look up a figure by name.

    Raises:
        ConfigurationError: for an unknown name.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown figure {name!r}; known: {figure_names()}"
        ) from None


def select_figures(names: Optional[Sequence[str]] = None) -> list[Figure]:
    """The named figures (validated), or the whole registry."""
    if not names:
        return list(_REGISTRY.values())
    return [get_figure(name) for name in names]


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def _spec(workload: str, scale: ScalePreset, variant: str, **config_kwargs):
    return ExperimentSpec(
        workload,
        config=SimConfig(variant=variant, **config_kwargs),
        scale=scale.value,
        seed=FIGURE_SEED,
        label=f"{workload}/{variant}",
    )


def _per_workload_rows(
    scale: ScalePreset, variants: Sequence[str], workloads=FIGURE_WORKLOADS
) -> list[FigureRow]:
    rows = []
    for workload in workloads:
        baseline = _spec(workload, scale, "base")
        for variant in variants:
            rows.append(FigureRow(_spec(workload, scale, variant), baseline))
    return rows


def _fig7_thresholds(scale: ScalePreset) -> list[FigureRow]:
    base = ExperimentSpec(
        "tpcc-1",
        config=SimConfig(
            variant="slicc-sw", slicc=SliccParams(dilution_t=0)
        ),
        scale=scale.value,
        seed=FIGURE_SEED,
    )
    specs = grid(
        base,
        {"slicc.fill_up_t": [128, 256, 384, 512], "slicc.matched_t": [2, 4, 8]},
    )
    baseline = base.baseline()
    return [FigureRow(spec, baseline) for spec in specs]


def _fig8_dilution(scale: ScalePreset) -> list[FigureRow]:
    base = ExperimentSpec(
        "tpcc-1",
        config=SimConfig(variant="slicc-sw"),
        scale=scale.value,
        seed=FIGURE_SEED,
    )
    specs = grid(base, {"slicc.dilution_t": [2, 6, 10, 16, 24, 30]})
    baseline = base.baseline()
    return [FigureRow(spec, baseline) for spec in specs]


register_figure(
    Figure(
        name="fig7-thresholds",
        title="Figure 7: fill-up_t x matched_t threshold plane",
        description=(
            "SLICC-SW on TPC-C-1 across the fill-up/matched threshold "
            "grid with dilution disabled; the paper picks fill_up_t=256, "
            "matched_t=4 from this plane."
        ),
        builder=_fig7_thresholds,
        metrics=("I-MPKI", "D-MPKI", "migrations"),
    )
)

register_figure(
    Figure(
        name="fig8-dilution",
        title="Figure 8: dilution_t sweep",
        description=(
            "SLICC-SW on TPC-C-1 sweeping dilution_t at the Figure 7 "
            "optimum; low values migrate too eagerly, high values stop "
            "responding to signature dilution."
        ),
        builder=_fig8_dilution,
        metrics=("I-MPKI", "D-MPKI", "migrations"),
    )
)

register_figure(
    Figure(
        name="fig10-mpki",
        title="Figure 10: L1 MPKI by workload and variant",
        description=(
            "Instruction and data MPKI for every workload under the "
            "baseline, the prefetcher/upper-bound references, and SLICC; "
            "deltas are relative to the per-workload base run."
        ),
        builder=lambda scale: _per_workload_rows(
            scale, ("base", "nextline", "pif", "slicc", "slicc-sw")
        ),
        metrics=("I-MPKI", "D-MPKI", "bpki"),
    )
)

register_figure(
    Figure(
        name="fig11-speedup",
        title="Figure 11: performance relative to the OS baseline",
        description=(
            "Makespan speedup over the per-workload base run of the "
            "paper's two references (next-line and PIF), the migrating "
            "variants and STEPS. The next-line, PIF, SLICC and SLICC-SW "
            "rows are Figure 10's runs, so a report of both simulates "
            "them once."
        ),
        builder=lambda scale: _per_workload_rows(
            scale, ("nextline", "pif", "slicc", "slicc-sw", "slicc-pp", "steps")
        ),
        metrics=("IPC", "migrations", "util"),
    )
)

register_figure(
    Figure(
        name="webserve-churn",
        title="Extension: web-serving churn",
        description=(
            "The webserve workload (many short handler threads, high "
            "instruction churn) under every reference and SLICC variant; "
            "inter-thread reuse is all that is available to harvest."
        ),
        builder=lambda scale: _per_workload_rows(
            scale,
            ("nextline", "pif", "slicc", "slicc-sw", "steps"),
            workloads=("webserve",),
        ),
        metrics=("I-MPKI", "D-MPKI", "migrations", "util"),
    )
)

register_figure(
    Figure(
        name="phase-robustness",
        title="Extension: mid-trace mix shift",
        description=(
            "TPC-C-1 against its phase-shifting variant: SLICC teams "
            "keyed to the phase-1 mix must re-form when the mix inverts "
            "mid-trace."
        ),
        builder=lambda scale: _per_workload_rows(
            scale,
            ("slicc", "slicc-sw", "slicc-pp"),
            workloads=("tpcc-1", "phased"),
        ),
        metrics=("I-MPKI", "D-MPKI", "migrations", "util"),
    )
)

#: Workloads the policy-comparison figure spans: the canonical OLTP
#: trace plus the two adversarial extensions, which is where alternative
#: scheduling policies differentiate (churn defeats slow assembly, mix
#: shift defeats static placement).
POLICY_COMPARISON_WORKLOADS = ("tpcc-1", "webserve", "phased")

register_figure(
    Figure(
        name="policy-comparison",
        title="Extension: scheduling-policy comparison",
        description=(
            "Every policy in the scheduling registry — the paper's seven "
            "variants plus the ablation extensions (tmi: fill-up-only "
            "migration; affinity: static type placement; random-migrate: "
            "SLICC-rate migration to random targets) — on tpcc-1, "
            "webserve and phased, each against the per-workload base "
            "run. The sweep is registry-driven: registering a policy "
            "adds its rows."
        ),
        # The row list queries the registry at build time, so policies
        # registered after this module's import are still swept.
        builder=lambda scale: _per_workload_rows(
            scale, policy_names(), workloads=POLICY_COMPARISON_WORKLOADS
        ),
        metrics=("I-MPKI", "D-MPKI", "migrations", "util"),
    )
)
