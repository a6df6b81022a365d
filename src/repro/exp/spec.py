"""Declarative experiment specifications.

An :class:`ExperimentSpec` is a frozen, hashable description of one
simulation: *which trace* (a declarative workload reference — name,
scale, thread count, seed) replayed under *which*
:class:`~repro.sim.config.SimConfig`. Because the trace generators and
the replay engine are deterministic, the spec fully determines the
:class:`~repro.sim.results.SimulationResult`; its content hash
(:meth:`ExperimentSpec.key`) is therefore a safe cache key for the
:class:`~repro.exp.store.ResultStore`. A hand-built trace has no spec:
it runs through :func:`repro.sim.simulate` directly.

Config families are built with :func:`grid` / :func:`product`, which
expand dotted-path axes (``"slicc.dilution_t"``, ``"system.n_cores"``,
``"variant"``) into spec lists::

    base = ExperimentSpec("tpcc-1", scale="ci", n_threads=32, seed=7)
    specs = grid(base, {"variant": ["slicc-sw"],
                        "slicc.dilution_t": [2, 6, 10]})
"""

from __future__ import annotations

import functools
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
from repro.workloads import DEFAULT_THREADS, workload_names

_DEFAULT_CONFIG = SimConfig()

#: :data:`~repro.workloads.DEFAULT_THREADS` by scale value, the string
#: a spec holds.
_DEFAULT_THREADS = {scale.value: n for scale, n in DEFAULT_THREADS.items()}


def _stable_hash(payload: object) -> str:
    """SHA-256 over a canonical JSON rendering of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _plain(obj) -> dict:
    """``dataclasses.asdict`` for the frozen spec and parameter
    dataclasses. Their leaves are immutable scalars, so this builds the
    same nested dict without asdict's per-leaf ``deepcopy`` (about 6x
    faster)."""
    out = {}
    for name in obj.__dataclass_fields__:
        value = getattr(obj, name)
        if hasattr(type(value), "__dataclass_fields__"):
            value = _plain(value)
        out[name] = value
    return out


def _canonical(config: SimConfig) -> SimConfig:
    """See :meth:`ExperimentSpec.canonical_config`."""
    relevant = get_policy(config.variant).relevant_fields
    overrides = {
        name: getattr(_DEFAULT_CONFIG, name)
        for name in POLICY_GATED_FIELDS
        if name not in relevant
    }
    return replace(config, **overrides) if overrides else config


def _render_config(config: SimConfig) -> str:
    """The canonical JSON of ``config`` that :meth:`ExperimentSpec.key`
    hashes."""
    return json.dumps(
        _plain(_canonical(config)), sort_keys=True, separators=(",", ":")
    )


#: :func:`_render_config` output per config ``repr``, oldest first. A
#: figure registry keys many specs (rows, baselines, figures sharing
#: runs) over few configs. Keyed by ``repr``, not by the config: ``==``
#: equates 10 with 10.0 and 1 with True, whose JSON differs.
_CONFIG_JSON: dict[str, str] = {}
_CONFIG_JSON_SIZE = 1024


def _config_json(config: SimConfig) -> str:
    """:func:`_render_config`, rendered once per distinct config."""
    text = repr(config)
    rendered = _CONFIG_JSON.get(text)
    if rendered is None:
        if len(_CONFIG_JSON) >= _CONFIG_JSON_SIZE:
            del _CONFIG_JSON[next(iter(_CONFIG_JSON))]
        rendered = _CONFIG_JSON[text] = _render_config(config)
    return rendered


def _is_int(value, minimum: int) -> bool:
    """``value`` is an int (not a bool) of at least ``minimum``."""
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and value >= minimum
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """Frozen description of one simulation run.

    Attributes:
        workload: workload name (``tpcc-1`` etc.).
        config: full engine configuration, including the variant.
        scale: :class:`~repro.params.ScalePreset` value string.
        n_threads: thread count, at least 1 (``None`` = the scale's
            default; the default itself keys as ``None``).
        seed: trace-generation seed, an int of at least 0.
        label: display name for tables; never part of the key.
    """

    workload: str
    config: SimConfig = field(default_factory=SimConfig)
    scale: str = "ci"
    n_threads: Optional[int] = None
    seed: int = 1
    label: str = ""

    # Memoised :meth:`key` / :meth:`trace_key` values, stored on first use
    # with ``object.__setattr__`` (the dataclass is frozen). Unannotated
    # class attributes, not fields: ``==``, ``hash``, ``repr`` and
    # :meth:`to_dict` ignore them, and ``replace()`` starts a fresh copy.
    _key = None
    _trace_key = None

    def __post_init__(self) -> None:
        # Validate eagerly so a typo fails at spec-build time, not
        # inside a worker process.
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
        return _canonical(self.config)

    def trace_key(self) -> str:
        """Cache key of the trace alone (shared by all variants).

        A thread count equal to the scale's default builds the same
        trace as ``None``, so it hashes as ``None``: one trace, one key.
        """
        cached = self._trace_key
        if cached is None:
            n_threads = self.n_threads
            if n_threads == _DEFAULT_THREADS[self.scale]:
                n_threads = None
            cached = _stable_hash(
                {
                    "workload": self.workload,
                    "scale": self.scale,
                    "n_threads": n_threads,
                    "seed": self.seed,
                }
            )
            object.__setattr__(self, "_trace_key", cached)
        return cached

    def key(self) -> str:
        """Content hash identifying this experiment's result: the
        :func:`_stable_hash` of ``{"trace": trace_key(), "config":
        canonical config}``, assembled from the config's memoised JSON
        in the order ``sort_keys`` gives."""
        cached = self._key
        if cached is not None:
            return cached
        blob = (
            '{"config":'
            + _config_json(self.config)
            + ',"trace":'
            + json.dumps(self.trace_key())
            + "}"
        )
        cached = hashlib.sha256(blob.encode("utf-8")).hexdigest()
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


def spec_from_dict(payload: Mapping) -> ExperimentSpec:
    """Rebuild a spec from :meth:`ExperimentSpec.to_dict` output.

    The inverse of the JSON rendering the store and work queue persist:
    the nested ``config`` dict (including ``system``/``slicc`` and their
    cache parameter dicts) is coerced back into dataclasses, so
    ``spec_from_dict(spec.to_dict()).key() == spec.key()`` — the
    round-trip a queued spec takes through ``queue.jsonl`` before a
    worker picks it up. Queues written by older versions stay drainable:
    the retired ``config.kernel`` entry is dropped whatever it names
    (spec keys never included it), and the retired ``trace_id`` field is
    dropped when null, as every declarative spec wrote it.

    Raises:
        ConfigurationError: for unknown fields, a non-null ``trace_id``
            or a payload that is not a mapping — a corrupted queue entry
            must fail loudly rather than simulate something else.
    """
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"spec payload must be a mapping, got {type(payload).__name__}"
        )
    kw = dict(payload)
    if kw.pop("trace_id", None) is not None:
        raise ConfigurationError(
            "spec payload sets trace_id, an in-memory trace no worker can "
            "rebuild; enqueue a declarative spec instead"
        )
    known = {f.name for f in fields(ExperimentSpec)}
    unknown = set(kw) - known
    if unknown:
        raise ConfigurationError(
            f"unknown ExperimentSpec fields {sorted(unknown)}"
        )
    config = kw.pop("config", None)
    if config is not None:
        if isinstance(config, Mapping) and "kernel" in config:
            config = {k: v for k, v in config.items() if k != "kernel"}
        kw["config"] = _coerce(config, SimConfig)
    try:
        return ExperimentSpec(**kw)
    except TypeError as exc:
        raise ConfigurationError(f"bad spec payload: {exc}") from None


# ----------------------------------------------------------------------
# Dotted-path overrides and grid expansion
# ----------------------------------------------------------------------

#: Spec fields addressable by overrides/axes (``config`` has its own paths).
_SPEC_FIELDS = frozenset(
    f.name for f in fields(ExperimentSpec) if f.name != "config"
)
_CONFIG_FIELDS = frozenset(f.name for f in fields(SimConfig))
_SLICC_FIELDS = frozenset(f.name for f in fields(SliccParams))
_SYSTEM_FIELDS = frozenset(f.name for f in fields(SystemParams))


@functools.cache
def _field_hints(cls: type) -> dict:
    """``typing.get_type_hints(cls)``, resolved once per class per
    process: each call evaluates every string annotation of ``cls``, and
    a queue drain rebuilds five parameter dataclasses per claimed spec.
    Callers must not mutate the shared dict."""
    return typing.get_type_hints(cls)


def _coerce_fields(cls: type, kw: dict) -> dict:
    """Coerce mapping values aimed at dataclass-typed fields of ``cls``
    (e.g. ``system.l1i`` -> :class:`CacheParams`) into the dataclass."""
    hints = _field_hints(cls)
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
