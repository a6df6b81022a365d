#!/usr/bin/env python
"""Regenerate the golden-equivalence fixtures in ``tests/golden/``.

Each fixture is the canonical JSON (:func:`repro.exp.store.result_to_json`)
of one ``simulate()`` run: every engine variant crossed with two smoke
workloads (plus the plain variants on the scenario-extension workloads).
``tests/test_golden_equivalence.py`` pins the engine's output
byte-identical to these files, so they must only ever be regenerated when
a simulated *number* is meant to change — never as part of a pure
performance PR. Run from the repo root:

    python scripts/dump_golden.py

``--out DIR`` writes elsewhere (the CI golden-freshness job regenerates
into a temp dir and diffs against ``tests/golden/`` so stale pins cannot
merge silently).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.exp.store import result_to_json  # noqa: E402
from repro.params import ScalePreset, SystemParams  # noqa: E402
from repro.sim.engine import SimConfig, simulate  # noqa: E402
from repro.workloads import standard_trace  # noqa: E402

#: The paper's seven variants: the plain-variant pins of the golden grid.
GOLDEN_VARIANTS = (
    "base",
    "nextline",
    "pif",
    "slicc",
    "slicc-sw",
    "slicc-pp",
    "steps",
)

#: The golden grid: every variant on two structurally different smoke
#: workloads (OLTP with teams-relevant type mix, and TPC-E).
GOLDEN_WORKLOADS = ("tpcc-1", "tpce")
GOLDEN_SEED = 7

#: Scenario-extension workloads pinned on the plain variants only: their
#: point is trace-shape coverage (handler churn, mid-trace mix shift),
#: while the config pins below already exercise every reference-path
#: option on the OLTP pair.
GOLDEN_VARIANT_WORKLOADS = ("webserve", "phased")

#: Extension scheduling policies (PR 5), pinned on the canonical OLTP
#: trace plus the mix-shifting workload their semantics target. These
#: pins freeze the quantum-boundary decision semantics of the
#: registry-only policies exactly as the variant grid freezes the
#: paper's seven.
GOLDEN_POLICIES = ("tmi", "affinity", "random-migrate")
GOLDEN_POLICY_WORKLOADS = ("tpcc-1", "phased")


def _l1s(l1i: str = "lru", l1d: str = "lru") -> SystemParams:
    """The default machine with the named L1 replacement policies."""
    system = SystemParams()
    return replace(
        system,
        l1i=replace(system.l1i, policy=l1i),
        l1d=replace(system.l1d, policy=l1d),
    )


#: Config pins beyond the plain variants: the miss classifiers, the
#: banked NUCA L2 (also under the next-line prefetcher), the migration
#: data prefetcher, and non-LRU L1s under the prefetcher's installs and
#: under SLICC's bypass and bloom evictions, alone and in combination.
#: Each of these options sends the run through the engine's
#: ``_process_instruction``/``_process_data`` reference path instead of
#: a generated kernel (``repro.sim.specialize.kernel_spec``), so these
#: pins hold that path's results for every option.
GOLDEN_CONFIGS: tuple[tuple[str, dict], ...] = (
    ("classify", {"variant": "base", "collect_miss_classes": True}),
    ("slicc-classify", {"variant": "slicc", "collect_miss_classes": True}),
    ("nuca", {"variant": "base", "model_l2_capacity": True}),
    ("nextline-nuca", {"variant": "nextline", "model_l2_capacity": True}),
    ("slicc-dp8", {"variant": "slicc", "data_prefetch_n": 8}),
    (
        "slicc-nuca-dp4-classify",
        {
            "variant": "slicc",
            "model_l2_capacity": True,
            "data_prefetch_n": 4,
            "collect_miss_classes": True,
        },
    ),
    (
        "steps-nuca-classify",
        {
            "variant": "steps",
            "model_l2_capacity": True,
            "collect_miss_classes": True,
        },
    ),
    ("nextline-lip-l1i", {"variant": "nextline", "system": _l1s(l1i="lip")}),
    (
        "slicc-dip-l1i-brrip-l1d",
        {"variant": "slicc", "system": _l1s(l1i="dip", l1d="brrip")},
    ),
)


def golden_dir() -> Path:
    return Path(__file__).resolve().parent.parent / "tests" / "golden"


def _dump_variants(
    trace, workload: str, out: Path, variants=GOLDEN_VARIANTS
) -> None:
    for variant in variants:
        result = simulate(trace, variant=variant)
        path = out / f"{workload}__{variant}.json"
        path.write_text(result_to_json(result) + "\n")
        print(f"wrote {path.name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="output directory (default: tests/golden/)",
    )
    args = parser.parse_args(argv)
    out = args.out if args.out is not None else golden_dir()
    out.mkdir(parents=True, exist_ok=True)
    for workload in GOLDEN_WORKLOADS:
        trace = standard_trace(workload, ScalePreset.SMOKE, seed=GOLDEN_SEED)
        _dump_variants(trace, workload, out)
        for name, kwargs in GOLDEN_CONFIGS:
            result = simulate(trace, config=SimConfig(**kwargs))
            path = out / f"{workload}__cfg-{name}.json"
            path.write_text(result_to_json(result) + "\n")
            print(f"wrote {path.name}")
    for workload in GOLDEN_VARIANT_WORKLOADS:
        trace = standard_trace(workload, ScalePreset.SMOKE, seed=GOLDEN_SEED)
        _dump_variants(trace, workload, out)
    for workload in GOLDEN_POLICY_WORKLOADS:
        trace = standard_trace(workload, ScalePreset.SMOKE, seed=GOLDEN_SEED)
        _dump_variants(trace, workload, out, variants=GOLDEN_POLICIES)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
