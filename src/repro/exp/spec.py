"""Declarative experiment specifications.

An :class:`ExperimentSpec` is a frozen, hashable description of one
simulation: *which trace* (either a declarative workload reference —
name, scale, thread count, seed — or a fingerprint of an explicit
in-memory :class:`~repro.workloads.trace.Trace`) replayed under *which*
:class:`~repro.sim.config.SimConfig`. Because the trace generators and
the replay engine are deterministic, the spec fully determines the
:class:`~repro.sim.results.SimulationResult`; its content hash
(:meth:`ExperimentSpec.key`) is therefore a safe cache key for the
:class:`~repro.exp.store.ResultStore`.

Config families are built with :func:`grid` / :func:`product`, which
expand dotted-path axes (``"slicc.dilution_t"``, ``"system.n_cores"``,
``"variant"``) into spec lists::

    base = ExperimentSpec("tpcc-1", scale="ci", n_threads=32, seed=7)
    specs = grid(base, {"variant": ["slicc-sw"],
                        "slicc.dilution_t": [2, 6, 10]})
"""

from __future__ import annotations

import hashlib
import itertools
import json
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Iterable, Mapping, Optional

from repro.errors import ConfigurationError
from repro.params import ScalePreset, SliccParams, SystemParams
from repro.sched import POLICY_GATED_FIELDS, get_policy
from repro.sim.config import SimConfig
from repro.workloads import workload_names
from repro.workloads.trace import Trace

_DEFAULT_CONFIG = SimConfig()


def _stable_hash(payload: object) -> str:
    """SHA-256 over a canonical JSON rendering of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _plain(obj) -> dict:
    """``dataclasses.asdict`` for the frozen spec and parameter
    dataclasses. Their leaves are immutable scalars, so this builds the
    same nested dict without asdict's per-leaf ``deepcopy`` (about 6x
    faster; every new spec key renders its whole config)."""
    out = {}
    for name in obj.__dataclass_fields__:
        value = getattr(obj, name)
        if hasattr(type(value), "__dataclass_fields__"):
            value = _plain(value)
        out[name] = value
    return out


def _is_int(value, minimum: int) -> bool:
    """``value`` is an int (not a bool) of at least ``minimum``."""
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and value >= minimum
    )


def trace_fingerprint(trace: Trace) -> str:
    """Content hash of an in-memory trace (arrays included).

    Two traces with identical access streams hash identically no matter
    how they were produced, so explicit-trace specs cache correctly even
    for hand-built synthetic traces. The digest is memoised on the trace
    instance (hashing a PAPER-scale trace touches tens of MB, and a
    sweep fingerprints the same trace once per grid point); traces are
    treated as immutable once handed to the experiment layer.
    """
    cached = getattr(trace, "_exp_fingerprint", None)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(trace.workload.encode("utf-8"))
    h.update(str(trace.instructions_per_iblock).encode())
    for thread in trace.threads:
        h.update(str((thread.thread_id, thread.txn_type)).encode())
        h.update(thread.addr.tobytes())
        h.update(thread.kind.tobytes())
    digest = h.hexdigest()
    trace._exp_fingerprint = digest
    return digest


@dataclass(frozen=True)
class ExperimentSpec:
    """Frozen description of one simulation run.

    Attributes:
        workload: workload name (``tpcc-1`` etc.) for declarative specs;
            informational when ``trace_id`` is set.
        config: full engine configuration, including the variant.
        scale: :class:`~repro.params.ScalePreset` value string.
        n_threads: thread count, at least 1 (``None`` = the scale's
            default).
        seed: trace-generation seed, an int of at least 0.
        trace_id: fingerprint of an explicit trace (see
            :func:`spec_for`); when set, the declarative trace fields do
            not participate in the cache key.
        label: display name for tables; never part of the key.
    """

    workload: str
    config: SimConfig = field(default_factory=SimConfig)
    scale: str = "ci"
    n_threads: Optional[int] = None
    seed: int = 1
    trace_id: Optional[str] = None
    label: str = ""

    # Memoised :meth:`key` / :meth:`trace_key` values, stored on first use
    # with ``object.__setattr__`` (the dataclass is frozen). Unannotated
    # class attributes, not fields: ``==``, ``hash``, ``repr`` and
    # :meth:`to_dict` ignore them, and ``replace()`` starts a fresh copy.
    _key = None
    _trace_key = None

    def __post_init__(self) -> None:
        if self.trace_id is None:
            # Validate eagerly so a typo fails at spec-build time, not
            # inside a worker process. (Explicit-trace specs skip this:
            # their workload name is informational and may be synthetic.)
            try:
                ScalePreset(self.scale)
            except ValueError:
                raise ConfigurationError(
                    f"unknown scale {self.scale!r}; known: "
                    f"{[s.value for s in ScalePreset]}"
                ) from None
            if self.workload not in workload_names():
                raise ConfigurationError(
                    f"unknown workload {self.workload!r}; known: "
                    f"{workload_names()}"
                )
            if self.n_threads is not None and not _is_int(self.n_threads, 1):
                raise ConfigurationError(
                    "n_threads must be None or an integer >= 1, "
                    f"got {self.n_threads!r}"
                )
            if not _is_int(self.seed, 0):
                raise ConfigurationError(
                    f"seed must be an integer >= 0, got {self.seed!r}"
                )

    @property
    def variant(self) -> str:
        """The engine variant this spec runs."""
        return self.config.variant

    def canonical_config(self) -> SimConfig:
        """``config`` with fields the engine ignores for this variant
        reset to their defaults, so equivalent runs share one key.

        Which fields a variant reads is declared by its scheduling
        policy (:attr:`repro.sched.SchedulingPolicy.relevant_fields`),
        so a policy that migrates without SLICC's machinery (``tmi``,
        ``random-migrate``) keeps its steal/prefetch knobs in the key
        instead of silently colliding with its own sweeps.
        """
        config = self.config
        relevant = get_policy(config.variant).relevant_fields
        overrides = {
            name: getattr(_DEFAULT_CONFIG, name)
            for name in POLICY_GATED_FIELDS
            if name not in relevant
        }
        if config.kernel != _DEFAULT_CONFIG.kernel:
            # The replay kernel (auto or reference) never affects
            # results — both are pinned byte-identical — so it must not
            # fragment the result store.
            overrides["kernel"] = _DEFAULT_CONFIG.kernel
        return replace(config, **overrides) if overrides else config

    def trace_key(self) -> str:
        """Cache key of the trace alone (shared by all variants)."""
        if self.trace_id is not None:
            return self.trace_id
        cached = self._trace_key
        if cached is None:
            cached = _stable_hash(
                {
                    "workload": self.workload,
                    "scale": self.scale,
                    "n_threads": self.n_threads,
                    "seed": self.seed,
                }
            )
            object.__setattr__(self, "_trace_key", cached)
        return cached

    def key(self) -> str:
        """Content hash identifying this experiment's result."""
        cached = self._key
        if cached is not None:
            return cached
        config_dict = _plain(self.canonical_config())
        # Result-neutral fields are dropped from the hash entirely so
        # keys stay stable across engine versions that add them (the
        # kernel selector was introduced after stores already existed).
        config_dict.pop("kernel", None)
        cached = _stable_hash(
            {
                "trace": self.trace_key(),
                "config": config_dict,
            }
        )
        object.__setattr__(self, "_key", cached)
        return cached

    def to_dict(self) -> dict:
        """JSON-ready rendering (used by the ResultStore's spec column).

        Recurses into the nested config dataclasses, like ``asdict``.
        """
        return _plain(self)

    def display_label(self) -> str:
        """The label, falling back to the variant name."""
        return self.label or self.config.variant

    def baseline(self) -> "ExperimentSpec":
        """The matching ``base`` run on the same trace and machine.

        Speedups in the paper are always relative to the OS-scheduled
        baseline on identical hardware, so only the system geometry and
        scheduling-neutral knobs carry over.
        """
        config = SimConfig(
            variant="base",
            system=self.config.system,
            quantum=self.config.quantum,
            arrival_spacing=self.config.arrival_spacing,
            model_l2_capacity=self.config.model_l2_capacity,
        )
        return replace(self, config=config, label="base")


def spec_for(
    trace: Trace,
    config: Optional[SimConfig] = None,
    label: str = "",
    **config_kwargs,
) -> ExperimentSpec:
    """Build a spec for an explicit, already-generated trace.

    The trace's content fingerprint becomes the spec's ``trace_id``; pass
    the same trace to :meth:`repro.exp.runner.Runner.run` so workers can
    replay it without regenerating.
    """
    if config is None:
        config = SimConfig(**config_kwargs)
    elif config_kwargs:
        raise ConfigurationError("pass either a SimConfig or kwargs, not both")
    return ExperimentSpec(
        workload=trace.workload,
        config=config,
        n_threads=len(trace.threads),
        seed=trace.seed,
        trace_id=trace_fingerprint(trace),
        label=label,
    )


#: Retired ``SimConfig.kernel`` names that older queues may still carry,
#: mapped to the kernel that now runs the same (byte-identical) replay.
_RETIRED_KERNELS = {
    "inline": "auto",
    "batch": "auto",
    "specialized": "auto",
    "fallback": "reference",
}


def spec_from_dict(payload: Mapping) -> ExperimentSpec:
    """Rebuild a spec from :meth:`ExperimentSpec.to_dict` output.

    The inverse of the JSON rendering the store and work queue persist:
    the nested ``config`` dict (including ``system``/``slicc`` and their
    cache parameter dicts) is coerced back into dataclasses, so
    ``spec_from_dict(spec.to_dict()).key() == spec.key()`` — the
    round-trip a queued spec takes through ``queue.jsonl`` before a
    worker picks it up. A retired kernel name in a persisted payload
    maps to its successor, so queues written by older versions stay
    drainable (spec keys never include the kernel).

    Raises:
        ConfigurationError: for unknown fields or a payload that is not
            a mapping — a corrupted queue entry must fail loudly rather
            than simulate something else.
    """
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"spec payload must be a mapping, got {type(payload).__name__}"
        )
    kw = dict(payload)
    known = {f.name for f in fields(ExperimentSpec)}
    unknown = set(kw) - known
    if unknown:
        raise ConfigurationError(
            f"unknown ExperimentSpec fields {sorted(unknown)}"
        )
    config = kw.pop("config", None)
    if config is not None:
        kernel = config.get("kernel") if isinstance(config, Mapping) else None
        if isinstance(kernel, str) and kernel in _RETIRED_KERNELS:
            config = {**config, "kernel": _RETIRED_KERNELS[kernel]}
        kw["config"] = _coerce(config, SimConfig)
    try:
        return ExperimentSpec(**kw)
    except TypeError as exc:
        raise ConfigurationError(f"bad spec payload: {exc}") from None


# ----------------------------------------------------------------------
# Dotted-path overrides and grid expansion
# ----------------------------------------------------------------------

#: Spec fields addressable by overrides/axes. ``config`` has its own
#: paths; ``trace_id`` is excluded — it binds a spec to an in-memory
#: trace only spec_for() can supply, so overriding it builds specs that
#: can never run (e.g. from a JSON spec file with no trace to pass).
_SPEC_FIELDS = frozenset(
    f.name
    for f in fields(ExperimentSpec)
    if f.name not in ("config", "trace_id")
)
_CONFIG_FIELDS = frozenset(f.name for f in fields(SimConfig))
_SLICC_FIELDS = frozenset(f.name for f in fields(SliccParams))
_SYSTEM_FIELDS = frozenset(f.name for f in fields(SystemParams))


def _coerce_fields(cls: type, kw: dict) -> dict:
    """Coerce mapping values aimed at dataclass-typed fields of ``cls``
    (e.g. ``system.l1i`` -> :class:`CacheParams`) into the dataclass."""
    hints = typing.get_type_hints(cls)
    out = {}
    for name, value in kw.items():
        hint = hints.get(name)
        if isinstance(hint, type) and is_dataclass(hint):
            value = _coerce(value, hint)
        out[name] = value
    return out


def _coerce(value: object, cls: type) -> object:
    """Allow whole-object parameter overrides written as plain dicts (the
    only spelling available in JSON spec files), recursively for nested
    parameter dataclasses."""
    if isinstance(value, cls):
        return value
    if isinstance(value, Mapping):
        known = {f.name for f in fields(cls)}
        unknown = set(value) - known
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.__name__} fields {sorted(unknown)}"
            )
        return cls(**_coerce_fields(cls, dict(value)))
    raise ConfigurationError(
        f"override for {cls.__name__} must be a {cls.__name__} or a "
        f"mapping, got {type(value).__name__}"
    )


def with_overrides(
    spec: ExperimentSpec, overrides: Mapping[str, object]
) -> ExperimentSpec:
    """Return a copy of ``spec`` with dotted-path overrides applied.

    Recognised paths: spec fields (``workload``, ``seed``, ...),
    :class:`SimConfig` fields (``variant``, ``quantum``, ...), and nested
    ``slicc.<field>`` / ``system.<field>`` parameters. Whole-object
    ``slicc`` / ``system`` overrides accept either the dataclass or a
    plain field dict (the only spelling JSON spec files have); combining
    a whole-object override with dotted edits of the same object is
    ambiguous and rejected.

    Raises:
        ConfigurationError: for a path that matches nothing, a bad
            whole-object value, or conflicting overrides.
    """
    spec_kw: dict[str, object] = {}
    config_kw: dict[str, object] = {}
    slicc_kw: dict[str, object] = {}
    system_kw: dict[str, object] = {}
    for path, value in overrides.items():
        root, _, leaf = path.partition(".")
        if root == "slicc" and leaf:
            if leaf not in _SLICC_FIELDS:
                raise ConfigurationError(f"unknown SliccParams field {leaf!r}")
            slicc_kw[leaf] = value
        elif root == "system" and leaf:
            if leaf not in _SYSTEM_FIELDS:
                raise ConfigurationError(f"unknown SystemParams field {leaf!r}")
            system_kw[leaf] = value
        elif leaf:
            raise ConfigurationError(f"unknown override path {path!r}")
        elif root == "slicc":
            config_kw[root] = _coerce(value, SliccParams)
        elif root == "system":
            config_kw[root] = _coerce(value, SystemParams)
        elif root in _CONFIG_FIELDS:
            config_kw[root] = value
        elif root in _SPEC_FIELDS:
            spec_kw[root] = value
        else:
            raise ConfigurationError(f"unknown override path {path!r}")

    if spec.trace_id is not None:
        # On an explicit-trace spec the trace fields are informational;
        # overriding them would silently keep replaying (and cache-hit)
        # the pinned trace while recording the new values as provenance.
        clashes = {"workload", "scale", "n_threads", "seed"} & set(spec_kw)
        if clashes:
            raise ConfigurationError(
                f"cannot override trace fields {sorted(clashes)} on a "
                "spec bound to an explicit trace; build a declarative "
                "ExperimentSpec (or a new trace + spec_for) instead"
            )

    config = spec.config
    if slicc_kw:
        if "slicc" in config_kw:
            raise ConfigurationError(
                "conflicting overrides: both 'slicc' and 'slicc.*' given"
            )
        config_kw["slicc"] = replace(
            config.slicc, **_coerce_fields(SliccParams, slicc_kw)
        )
    if system_kw:
        if "system" in config_kw:
            raise ConfigurationError(
                "conflicting overrides: both 'system' and 'system.*' given"
            )
        config_kw["system"] = replace(
            config.system, **_coerce_fields(SystemParams, system_kw)
        )
    if config_kw:
        spec_kw["config"] = replace(config, **config_kw)
    return replace(spec, **spec_kw) if spec_kw else spec


def product(axes: Mapping[str, Iterable]) -> list[dict[str, object]]:
    """Cartesian product of axis values, preserving axis order.

    >>> product({"a": [1, 2], "b": [3]})
    [{'a': 1, 'b': 3}, {'a': 2, 'b': 3}]
    """
    names = list(axes)
    combos = itertools.product(*(list(axes[name]) for name in names))
    return [dict(zip(names, combo)) for combo in combos]


def _auto_label(point: Mapping[str, object]) -> str:
    return ",".join(f"{path.split('.')[-1]}={value}" for path, value in point.items())


def grid(
    base: ExperimentSpec,
    axes: Mapping[str, Iterable],
    label=None,
) -> list[ExperimentSpec]:
    """Expand dotted-path axes into a spec family around ``base``.

    Args:
        base: the spec every point starts from.
        axes: dotted path -> iterable of values (see
            :func:`with_overrides` for recognised paths).
        label: optional callable mapping the point's override dict to a
            display label; defaults to ``"fill_up_t=256,matched_t=4"``
            style.
    """
    make_label = label or _auto_label
    return [
        with_overrides(replace(base, label=make_label(point)), point)
        for point in product(axes)
    ]
