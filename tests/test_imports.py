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
    """Workers inherit the engine and the generator from the parent
    instead of each importing them again."""
    code = _SPY_POOL + campaign.format(tmp=str(tmp_path)) + "\nprint(json.dumps(seen))"
    assert run_fresh(code) == [[True, True]]
