"""Name-keyed registry of scheduling policies.

The registry is the single source of truth for which ``variant`` values
exist: :class:`~repro.sim.config.SimConfig` validates against it, the CLI
derives its ``--variants`` choices from it, the experiment layer reads
per-policy ``relevant_fields`` from it, and the ``policy-comparison``
figure sweeps it. Registering a new policy module is therefore the whole
integration — no engine or CLI edits.
"""

from __future__ import annotations

from typing import Type

from repro.errors import ConfigurationError
from repro.sched.base import SchedulingPolicy

_REGISTRY: dict[str, Type[SchedulingPolicy]] = {}


def register_policy(cls: Type[SchedulingPolicy]) -> Type[SchedulingPolicy]:
    """Register a policy class under its ``name`` (usable as a decorator).

    Raises:
        ConfigurationError: on a missing name or a duplicate.
    """
    if not cls.name:
        raise ConfigurationError(
            f"policy class {cls.__name__} declares no name"
        )
    if cls.name in _REGISTRY:
        raise ConfigurationError(f"policy {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def get_policy(name: str) -> Type[SchedulingPolicy]:
    """Look up a policy class by name.

    Raises:
        ConfigurationError: for an unknown name.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown variant {name!r}; known: {policy_names()}"
        ) from None


def has_policy(name: str) -> bool:
    """True when ``name`` is a registered policy."""
    return name in _REGISTRY


def policy_names() -> tuple[str, ...]:
    """Registered policy names, in registration order."""
    return tuple(_REGISTRY)


def policy_descriptions() -> dict[str, str]:
    """``{name: one-line description}`` for every registered policy."""
    return {name: cls.description for name, cls in _REGISTRY.items()}
