"""Parameter-sweep helpers for the Section 5.2 threshold studies.

Each sweep expands the same trace into a family of
:class:`~repro.exp.spec.ExperimentSpec` grid points and executes it
through a :class:`~repro.exp.runner.Runner`, returning one row per point
with the metrics the paper plots: I-MPKI, D-MPKI and speedup relative to
a shared baseline run.

All sweeps in a process share one in-memory
:class:`~repro.exp.store.ResultStore` by default, so back-to-back sweeps
over the same trace simulate the ``base`` reference exactly once and
repeated sweeps only compute grid points they have not seen. Pass an
explicit ``runner`` for parallel fan-out (``Runner(jobs=N)``) or a
persistent on-disk store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.exp.runner import Runner
from repro.exp.spec import ExperimentSpec, spec_for
from repro.exp.store import ResultStore
from repro.params import SliccParams
from repro.sim.config import SimConfig
from repro.sim.results import SimulationResult
from repro.workloads.trace import Trace

#: Process-wide default store: sweeps called back-to-back on the same
#: trace share baseline and grid runs (results are deterministic, so
#: serving repeats from memory is always sound).
_SHARED_STORE = ResultStore()


@dataclass(frozen=True)
class SweepPoint:
    """One configuration point of a sweep with its measured metrics."""

    label: str
    fill_up_t: int
    matched_t: int
    dilution_t: int
    i_mpki: float
    d_mpki: float
    speedup: float
    migrations: int


def _default_runner() -> Runner:
    return Runner(store=_SHARED_STORE)


def _run_grid(
    trace: Trace,
    specs: list[ExperimentSpec],
    baseline: Optional[SimulationResult],
    runner: Optional[Runner],
) -> tuple[list[SimulationResult], SimulationResult]:
    """Execute grid specs (plus the baseline unless given) in one call."""
    if runner is None:
        runner = _default_runner()
    if baseline is None:
        base_spec = spec_for(trace, SimConfig(variant="base"), label="base")
        results = runner.run([base_spec] + specs, trace=trace)
        return results[1:], results[0]
    return runner.run(specs, trace=trace), baseline


def _to_points(
    specs: list[ExperimentSpec],
    results: list[SimulationResult],
    baseline: SimulationResult,
) -> list[SweepPoint]:
    points = []
    for spec, result in zip(specs, results):
        slicc = spec.config.slicc
        points.append(
            SweepPoint(
                label=spec.display_label(),
                fill_up_t=slicc.fill_up_t,
                matched_t=slicc.matched_t,
                dilution_t=slicc.dilution_t,
                i_mpki=result.i_mpki,
                d_mpki=result.d_mpki,
                speedup=result.speedup_over(baseline),
                migrations=result.migrations,
            )
        )
    return points


def sweep_fillup_matched(
    trace: Trace,
    fill_up_values: Iterable[int] = (128, 256, 384, 512),
    matched_values: Iterable[int] = (2, 4, 6, 8, 10),
    variant: str = "slicc-sw",
    baseline: Optional[SimulationResult] = None,
    runner: Optional[Runner] = None,
) -> list[SweepPoint]:
    """The Figure 7 grid: fill-up_t x matched_t with dilution_t = 0.

    The paper explores this plane with dilution disabled (Section 5.2).
    """
    specs = [
        spec_for(
            trace,
            SimConfig(
                variant=variant,
                slicc=SliccParams(
                    fill_up_t=fill_up, matched_t=matched, dilution_t=0
                ),
            ),
            label=f"fill={fill_up},match={matched}",
        )
        for fill_up in fill_up_values
        for matched in matched_values
    ]
    results, baseline = _run_grid(trace, specs, baseline, runner)
    return _to_points(specs, results, baseline)


def sweep_dilution(
    trace: Trace,
    dilution_values: Iterable[int] = tuple(range(2, 31, 2)),
    fill_up_t: int = 256,
    matched_t: int = 4,
    variant: str = "slicc-sw",
    baseline: Optional[SimulationResult] = None,
    runner: Optional[Runner] = None,
) -> list[SweepPoint]:
    """The Figure 8 line: dilution_t sweep at the Figure 7 optimum."""
    specs = [
        spec_for(
            trace,
            SimConfig(
                variant=variant,
                slicc=SliccParams(
                    fill_up_t=fill_up_t,
                    matched_t=matched_t,
                    dilution_t=dilution,
                ),
            ),
            label=f"dilution={dilution}",
        )
        for dilution in dilution_values
    ]
    results, baseline = _run_grid(trace, specs, baseline, runner)
    return _to_points(specs, results, baseline)
