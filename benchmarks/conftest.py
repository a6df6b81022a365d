"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper at CI scale
and prints the measured rows next to the paper's values. Figures 7, 8,
10 and 11 and Sections 5.5 and 5.8 check the figure registry's rows
(:mod:`repro.exp.figures`, seed 7; ``test_registry_figures.py``); the
other benches build their specs here, at :data:`BENCH_SEED`. All
simulation goes through one session-wide
:class:`repro.exp.Runner`, so figures that share a workload reuse
traces and baseline runs via the result store, and the whole suite fans
out over worker processes when ``REPRO_BENCH_JOBS`` is set (e.g.
``REPRO_BENCH_JOBS=8 pytest benchmarks``; default 1 keeps timing
comparable to single-core runs).
"""

import os

import pytest

from repro.exp import ExperimentSpec, Runner
from repro.params import ScalePreset
from repro.sim import SimConfig
from repro.workloads import standard_trace

#: Thread counts used by the benches (CI scale).
BENCH_THREADS = 48

#: Trace seed of the benches with no registry figure
#: (``standard_trace``'s default).
BENCH_SEED = 1


def _bench_spec(workload, config, label=""):
    """The spec of one bench simulation: ``config`` on the CI-scale
    trace the :func:`traces` fixture holds for ``workload``."""
    return ExperimentSpec(
        workload,
        config=config,
        scale="ci",
        n_threads=BENCH_THREADS,
        seed=BENCH_SEED,
        label=label,
    )


@pytest.fixture(scope="session")
def traces():
    """CI-scale traces for the four Table 1 workloads."""
    return {
        name: standard_trace(
            name, ScalePreset.CI, n_threads=BENCH_THREADS, seed=BENCH_SEED
        )
        for name in ("tpcc-1", "tpcc-10", "tpce", "mapreduce")
    }


@pytest.fixture(scope="session")
def exp_runner():
    """Session-wide experiment runner with an in-memory result store."""
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    return Runner(jobs=jobs)


@pytest.fixture(scope="session")
def run_sim(exp_runner):
    """Memoised simulation runner: run_sim(workload, variant, **cfg)."""

    def run(workload, variant, **cfg_kwargs):
        spec = _bench_spec(workload, SimConfig(variant=variant, **cfg_kwargs))
        return exp_runner.run([spec])[0]

    return run


@pytest.fixture(scope="session")
def run_sims(exp_runner):
    """Batched variant of :func:`run_sim`: one ``Runner.run`` call per
    figure, so REPRO_BENCH_JOBS fans a figure's variants out in parallel.

    ``requests`` is either an iterable of variant names or a mapping of
    display label -> (variant, cfg dict); returns label -> result.
    """

    def run(workload, requests):
        if not isinstance(requests, dict):
            requests = {variant: (variant, {}) for variant in requests}
        specs = [
            _bench_spec(workload, SimConfig(variant=variant, **cfg), str(label))
            for label, (variant, cfg) in requests.items()
        ]
        results = exp_runner.run(specs)
        return dict(zip(requests, results))

    return run
