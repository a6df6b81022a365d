"""JSON spec files for the ``repro exp`` CLI subcommand.

A spec file declares a whole experiment grid::

    {
      "workload": "phased",
      "scale": "ci",
      "n_threads": 32,
      "seed": 1,
      "variant": "slicc-sw",
      "overrides": {"quantum": 50},
      "axes": {"slicc.dilution_t": [2, 10, 24]},
      "baseline": true
    }

``overrides`` applies dotted-path edits to every point; ``axes`` expands
into the cartesian grid; ``baseline: true`` adds the matching ``base``
run so the table gains a speedup column. ``repro run`` builds the same
payload from its arguments and expands it with
:func:`specs_from_payload`, so both commands share spec keys. A figure
of the paper is not restated here: :mod:`repro.exp.figures` defines it
once, and ``repro paper --figures NAME`` runs it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.exp.spec import (
    BASELINE_FIELDS,
    ExperimentSpec,
    _auto_label,
    grid,
    with_overrides,
)

_TOP_KEYS = {
    "workload",
    "scale",
    "n_threads",
    "seed",
    "variant",
    "overrides",
    "axes",
    "baseline",
    "label",
}


def load_spec_file(
    path: Union[str, Path],
) -> Tuple[list[ExperimentSpec], Optional[ExperimentSpec]]:
    """Read a spec file and expand it with :func:`specs_from_payload`.

    Raises:
        ConfigurationError: for a payload :func:`specs_from_payload`
            rejects; the message names the file.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        return specs_from_payload(payload)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def specs_from_payload(
    payload: Mapping,
) -> Tuple[list[ExperimentSpec], Optional[ExperimentSpec]]:
    """Expand a spec-file payload into (grid specs, optional baseline spec).

    Raises:
        ConfigurationError: on unknown keys, a missing workload, or a
            baseline combined with an axis the baseline run shares.
    """
    if not isinstance(payload, Mapping):
        raise ConfigurationError("spec file must be a JSON object")
    unknown = set(payload) - _TOP_KEYS
    if unknown:
        raise ConfigurationError(
            f"unknown spec keys {sorted(unknown)}; known: {sorted(_TOP_KEYS)}"
        )
    if "workload" not in payload:
        raise ConfigurationError("spec file needs a 'workload'")

    base = ExperimentSpec(
        workload=payload["workload"],
        scale=payload.get("scale", "ci"),
        n_threads=payload.get("n_threads"),
        seed=payload.get("seed", 1),
        label=payload.get("label", ""),
    )
    overrides = dict(payload.get("overrides") or {})
    if "variant" in payload:
        if overrides.get("variant", payload["variant"]) != payload["variant"]:
            raise ConfigurationError(
                "top-level 'variant' conflicts with overrides['variant']"
            )
        overrides["variant"] = payload["variant"]
    base = with_overrides(base, overrides)

    axes = payload.get("axes") or {}
    if payload.get("baseline"):
        # One shared baseline only makes sense when every grid point
        # replays the same trace on the same machine: speedup is
        # undefined across traces, and misleading across the config
        # fields baseline() inherits (quantum, system geometry, ...).
        fixed = {"workload", "scale", "n_threads", "seed", *BASELINE_FIELDS}
        clashes = {axis for axis in axes if axis.split(".")[0] in fixed}
        if clashes:
            raise ConfigurationError(
                "'baseline: true' cannot be combined with axes the "
                f"baseline run shares ({sorted(clashes)}); drop the "
                "baseline or split the spec file per configuration"
            )
    if axes:
        # A top-level label becomes a prefix of each point's auto label
        # so it still reaches the output tables.
        prefix = f"{base.label}:" if base.label else ""
        specs = grid(
            base, axes, label=lambda point: prefix + _auto_label(point)
        )
    else:
        specs = [base]
    baseline = base.baseline() if payload.get("baseline") else None
    return specs, baseline
