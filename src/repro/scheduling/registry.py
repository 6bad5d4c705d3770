"""Plugin registry for scheduling/mapping strategies.

The pipeline's ``schedule`` stage resolves ``ToolchainConfig.scheduler`` by
*name* through this registry instead of a hard-coded ``if/elif`` chain: the
five built-in schedulers self-register on import of :mod:`repro.scheduling`,
and third parties plug in new strategies with the :func:`register_scheduler`
decorator -- no core module needs to change.

A registered scheduler is a callable with the uniform signature

    ``fn(design, config) -> Schedule``

where ``design`` is the :class:`~repro.wcet.system_level.SystemDesign` the
``schedule`` stage built for the run -- the HTG, entry function, platform,
cache and static-pruning flag, and the pricing table every candidate
mapping is priced or analysed through -- and ``config`` the
:class:`~repro.core.config.ToolchainConfig` of the running flow
(schedulers pick the knobs they care about: ``max_cores``,
``contention_weight``, ``seed``, ...).

Example::

    from repro.scheduling.registry import register_scheduler

    @register_scheduler("round_robin", description="naive round-robin mapping")
    def round_robin(design, config):
        cores = design.core_ids[: config.max_cores]
        mapping = {tid: cores[i % len(cores)] for i, tid in enumerate(design.leaf_ids)}
        return evaluate_mapping(design, mapping, scheduler="round_robin")

    ToolchainConfig(scheduler="round_robin")   # now a valid knob value
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.utils.registry import Registry, first_doc_line

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scheduling.schedule import Schedule
    from repro.wcet.system_level import SystemDesign

    SchedulerFn = Callable[["SystemDesign", object], "Schedule"]
else:
    SchedulerFn = Callable


class SchedulerRegistryError(ValueError):
    """Unknown, duplicate or malformed scheduler registration/lookup."""


@dataclass(frozen=True)
class RegisteredScheduler:
    """One pluggable scheduling strategy."""

    name: str
    build: SchedulerFn
    description: str = ""


def _ensure_builtins() -> None:
    # The built-in schedulers register themselves when their modules are
    # imported; importing the package pulls all of them in.  Safe to call
    # repeatedly (module import is idempotent).
    importlib.import_module("repro.scheduling")


_REGISTRY: Registry[RegisteredScheduler] = Registry(
    "scheduler", SchedulerRegistryError, ensure=_ensure_builtins
)


def register_scheduler(
    name: str, *, description: str = "", replace: bool = False
) -> Callable[[SchedulerFn], SchedulerFn]:
    """Decorator registering ``fn`` as the scheduler called ``name``.

    Raises :class:`SchedulerRegistryError` on duplicate names unless
    ``replace=True`` (useful for tests and experimentation).
    """

    def decorator(fn: SchedulerFn) -> SchedulerFn:
        doc = description or first_doc_line(fn)
        _REGISTRY.register(
            name, RegisteredScheduler(name=name, build=fn, description=doc), replace
        )
        return fn

    return decorator


def unregister_scheduler(name: str) -> None:
    """Remove a registration (primarily for tests); unknown names are a no-op."""
    _REGISTRY.unregister(name)


def get_scheduler(name: str) -> RegisteredScheduler:
    """Look up a scheduler by name, raising with the known names on a miss."""
    return _REGISTRY.get(name)


def available_schedulers() -> tuple[str, ...]:
    """Sorted names of every registered scheduler."""
    return _REGISTRY.available()
