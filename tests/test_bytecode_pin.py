"""The exact perf gate: executed bytecodes per variant equal the pin.

``scripts/count_bytecodes.py`` counts the bytecodes one ``simulate()``
call executes in repro's own code (the ``repro`` package and the
generated kernels) for every pinned variant, and records the counts in
``tests/bytecode_pin.json``. As the golden pins hold the results, this
pin holds the engine's Python work: a change that adds or removes work
on the replay path fails here until it re-pins with the script and
reports the per-variant delta. The count is exact on one interpreter
only, so the module skips on any other.
"""

from __future__ import annotations

import functools
import json
import platform
import sys
from pathlib import Path

import pytest

from repro.sim import specialize
from repro.sim.engine import SimConfig, simulate
from repro.workloads.trace import KIND_INSTR

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from count_bytecodes import (  # noqa: E402
    PIN_PATH,
    count_bytecodes,
    deltas,
    measure,
    pinned_trace,
)

PIN = json.loads(PIN_PATH.read_text())

pytestmark = pytest.mark.skipif(
    platform.python_version() != PIN["python"],
    reason=f"the bytecode pin counts on Python {PIN['python']}, "
    f"not {platform.python_version()}",
)


def test_bytecodes_equal_the_pin():
    measured = measure()
    assert measured == PIN, (
        "executed bytecodes moved; if on purpose, re-pin with "
        "`python scripts/count_bytecodes.py` and report:\n"
        + deltas(PIN, measured)
    )


def test_one_extra_bytecode_pair_per_instruction_record_is_seen(monkeypatch):
    """Mutant: every instruction record runs one extra ``_ = block``
    (LOAD_FAST, STORE_FAST). The count must rise by exactly two per
    instruction record: +1.7% on base, far under a wall-clock floor."""
    instruction = specialize._instruction
    monkeypatch.setattr(
        specialize, "_instruction", lambda s: "_ = block\n" + instruction(s)
    )
    trace = pinned_trace()
    run = functools.partial(simulate, trace, config=SimConfig(variant="base"))
    specialize.clear_cache()
    try:
        run()
        mutant = count_bytecodes(run)
    finally:
        specialize.clear_cache()
    instructions = sum(int((t.kind == KIND_INSTR).sum()) for t in trace.threads)
    assert mutant - PIN["bytecodes"]["base"] == 2 * instructions == 16_872
