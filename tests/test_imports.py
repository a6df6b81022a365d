"""The import graph: what a CLI start loads, and what it leaves for later.

Each check runs in a fresh interpreter, because this test process has
long since imported everything.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Modules only simulating a spec needs; a CLI start must not load them.
SIMULATION_ONLY = (
    "numpy",
    "sqlite3",
    "multiprocessing",
    "repro.sim.engine",
    "repro.sim.specialize",
    "repro.exp.pool",
    "repro.exp.queue",
    "repro.workloads.generator",
)

PACKAGES = ("repro", "repro.exp", "repro.sim", "repro.workloads", "repro.analysis")

#: Every ``repro`` module a CLI start loads: keying specs, reading a
#: store and writing reports need these and nothing more.
CLI_START_MODULES = [
    "repro",
    "repro.analysis",
    "repro.analysis.paper_report",
    "repro.analysis.report",
    "repro.cli",
    "repro.errors",
    "repro.exp",
    "repro.exp.figures",
    "repro.exp.metrics",
    "repro.exp.runner",
    "repro.exp.spec",
    "repro.exp.store",
    "repro.exp.summarize",
    "repro.params",
    "repro.sched",
    "repro.sched.base",
    "repro.sched.extensions",
    "repro.sched.legacy",
    "repro.sched.registry",
    "repro.sim",
    "repro.sim.config",
    "repro.sim.results",
    "repro.workloads",
]

#: The simulator core, and the workload makers with their spec classes:
#: only building an engine or a trace loads them.
CORE_PREFIXES = ("repro.core", "repro.cache", "repro.prefetch")
MAKER_MODULES = (
    "repro.workloads.mapreduce",
    "repro.workloads.phased",
    "repro.workloads.spec",
    "repro.workloads.tpcc",
    "repro.workloads.tpce",
    "repro.workloads.webserve",
)

#: Code that prints the loaded core and maker modules as its last line.
LOADED_CORE = (
    "\nimport json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules"
    f" if m.startswith({CORE_PREFIXES!r}) or m in {MAKER_MODULES!r})))"
)


def run_fresh(code: str):
    """Run ``code`` in a new interpreter; the JSON it prints last."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_start_loads_no_simulation_module():
    loaded = run_fresh(
        "import json, sys\n"
        "import repro.cli\n"
        "from repro import analysis, exp\n"
        f"print(json.dumps([m for m in {SIMULATION_ONLY!r} if m in sys.modules]))"
    )
    assert loaded == []


def test_cli_start_loads_exactly_the_keying_modules():
    loaded = run_fresh(
        "import json, sys\n"
        "import repro.cli\n"
        "from repro import analysis, exp\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'repro')))"
    )
    assert loaded == CLI_START_MODULES


def test_names_and_keys_need_no_simulator_core():
    """Policy and workload names, each policy's key-relevant fields and
    a spec key come from the registries alone."""
    loaded = run_fresh(
        "import repro.cli\n"
        "from repro.exp import ExperimentSpec\n"
        "from repro.sched import get_policy, policy_descriptions, policy_names\n"
        "from repro.sim import SimConfig\n"
        "from repro.workloads import workload_names\n"
        "assert len(policy_names()) == len(policy_descriptions()) == 10\n"
        "assert workload_names()[0] == 'tpcc-1'\n"
        "fields = [get_policy(v).relevant_fields for v in policy_names()]\n"
        "assert any(fields)\n"
        "spec = ExperimentSpec('tpce', SimConfig(variant='slicc-pp'), 'smoke')\n"
        "assert len(spec.key()) == 64\n" + LOADED_CORE
    )
    assert loaded == []


def test_store_verify_and_queue_status_need_no_simulator_core(tmp_path):
    from repro.exp import ExperimentSpec, ResultStore, WorkQueue
    from repro.sim import SimulationResult

    spec = ExperimentSpec("tpcc-1", scale="smoke", seed=7)
    result = SimulationResult("base", "tpcc-1", 1000, 5000, 400, 40, 200, 10)
    store = ResultStore(tmp_path / "store")
    store.put(spec.key(), result, spec=spec)
    store.close()
    WorkQueue(tmp_path / "queue").enqueue([spec])
    for command in ("store verify", "queue status"):
        path = str(tmp_path / command.split()[0])
        loaded = run_fresh(
            "from repro.cli import main\n"
            f"assert main({command.split() + [path]!r}) == 0\n" + LOADED_CORE
        )
        assert loaded == [], command


def test_every_public_name_resolves():
    missing, same_config = run_fresh(
        "import importlib, json\n"
        f"packages = [importlib.import_module(p) for p in {PACKAGES!r}]\n"
        "missing = [f'{p.__name__}.{n}' for p in packages for n in p.__all__"
        " if not hasattr(p, n)]\n"
        "import repro.sim, repro.sim.engine\n"
        "same = repro.sim.engine.SimConfig is repro.sim.SimConfig\n"
        "print(json.dumps([missing, same]))"
    )
    assert missing == []
    assert same_config


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_attribute_still_raises(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        module.nope


_SPY_POOL = """
import json, sys
from repro.exp import ExperimentSpec, ResultStore, Runner, grid
from repro.exp.pool import FaultTolerantPool

seen = []
init = FaultTolerantPool.__init__

def spy(self, *args, **kwargs):
    seen.append(
        [m in sys.modules for m in ("repro.sim.engine", "repro.workloads.generator")]
        + [all(m in sys.modules for m in MAKERS)]
    )
    init(self, *args, **kwargs)

FaultTolerantPool.__init__ = spy
base = ExperimentSpec("tpcc-1", scale="smoke", seed=7)
specs = grid(base, {"variant": ["base", "slicc"]})
"""


@pytest.mark.skipif(sys.platform != "linux", reason="workers inherit by fork")
@pytest.mark.parametrize(
    "campaign",
    [
        "Runner(jobs=2).run(specs)",
        "from repro.exp import WorkQueue, drain\n"
        "queue = WorkQueue({tmp!r})\n"
        "queue.enqueue(specs)\n"
        "drain(queue, Runner(store=ResultStore({tmp!r}), jobs=2), poll_seconds=0.05)",
    ],
    ids=["run", "drain"],
)
def test_pool_forks_after_the_simulation_stack_loads(campaign, tmp_path):
    """Workers inherit the engine, the generator and every workload
    maker from the parent instead of each importing them again."""
    code = (
        f"MAKERS = {MAKER_MODULES!r}\n"
        + _SPY_POOL
        + campaign.format(tmp=str(tmp_path))
        + "\nprint(json.dumps(seen))"
    )
    assert run_fresh(code) == [[True, True, True]]
