#!/usr/bin/env python
"""Pin the bytecodes one ``simulate()`` call executes, per variant.

The replay engine's perf gate counts work instead of timing it: a count
of executed bytecodes repeats exactly from run to run and host to host,
while wall time on a shared VM swings by tens of percent. For the
paper's seven variants plus ``tmi`` (a migrating policy that runs the
plain kernel with quantum-boundary hooks), on the smoke ``tpcc-10``
trace at seed 1, this script counts the bytecodes one ``simulate()``
call executes after one uncounted warm-up call (which compiles the
kernel and builds the trace's replay tables), and writes the counts to
``tests/bytecode_pin.json``. ``tests/test_bytecode_pin.py`` requires
every count to equal the pin exactly.

What is counted: ``sys.settrace`` opcode events in frames whose code is
a file of the imported ``repro`` package or a generated
``<specialized:...>`` kernel. Stdlib and numpy frames are left out, so
the pin moves with repro's code and not with a numpy upgrade; so are
the ``__init__``/``__eq__`` methods ``dataclasses`` generates, which
the stdlib writes, not repro. Work done in C (numpy kernels, dict and
list operations behind one bytecode, the interpreter itself) is
invisible to the count; ``bench/run.py`` times that.

The count is exact only on one interpreter, so the pin names it and the
test skips on any other. Re-pin on that interpreter, from the repo
root, whenever a change alters the engine's Python work on purpose, and
report the per-variant delta this prints:

    python scripts/count_bytecodes.py
"""

from __future__ import annotations

import functools
import json
import os
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402
from dump_golden import GOLDEN_VARIANTS  # noqa: E402
from repro.params import ScalePreset  # noqa: E402
from repro.sim.engine import SimConfig, simulate  # noqa: E402
from repro.workloads import standard_trace  # noqa: E402

PIN_VARIANTS = GOLDEN_VARIANTS + ("tmi",)
#: A short trace (12,233 records): each variant counts in about half a
#: second.
PIN_WORKLOAD = "tpcc-10"
PIN_SEED = 1
PIN_PATH = Path(__file__).resolve().parent.parent / "tests" / "bytecode_pin.json"

_REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


def count_bytecodes(fn) -> int:
    """Bytecodes executed in repro's own frames while ``fn()`` runs."""
    count = 0

    def on_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_opcode

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name.startswith(_REPRO_DIR) or name.startswith("<specialized:"):
            frame.f_trace_opcodes = True
            return on_opcode
        return None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def pinned_trace():
    """The trace the pin counts on."""
    return standard_trace(PIN_WORKLOAD, ScalePreset.SMOKE, seed=PIN_SEED)


def measure() -> dict:
    """The pin document for the running interpreter and code."""
    pinned = pinned_trace()
    counts = {}
    for variant in PIN_VARIANTS:
        run = functools.partial(simulate, pinned, config=SimConfig(variant=variant))
        run()  # warm-up: compiles the kernel, builds the replay tables
        counts[variant] = count_bytecodes(run)
    return {
        "python": platform.python_version(),
        "workload": PIN_WORKLOAD,
        "scale": ScalePreset.SMOKE.value,
        "seed": PIN_SEED,
        "records": pinned.total_records,
        "bytecodes": counts,
    }


def deltas(old: dict, new: dict) -> str:
    """One line per variant: the old count, the new one and the change."""
    lines = []
    for variant, count in new["bytecodes"].items():
        before = old["bytecodes"].get(variant)
        if before is None:
            lines.append(f"{variant:>9} {count:>11,} (new)")
            continue
        change = count - before
        lines.append(
            f"{variant:>9} {before:>11,} -> {count:>11,} "
            f"({change:+,}, {change / before:+.2%})"
        )
    return "\n".join(lines)


def main() -> int:
    # A kernel dump regenerates the kernel source on every run, which
    # would be counted; the pin is of the engine without it.
    os.environ.pop("REPRO_SPECIALIZE_DUMP", None)
    doc = measure()
    old = json.loads(PIN_PATH.read_text()) if PIN_PATH.exists() else None
    PIN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(deltas(old or {"bytecodes": {}}, doc))
    print(f"wrote {PIN_PATH} (Python {doc['python']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
