"""Plugin registry for predictability-enhancing transformation passes.

``ToolchainConfig.passes`` names the pass pipeline as an *ordered list of
registered pass names* (instead of a fixed set of booleans); the pipeline's
``transforms`` stage resolves each name through this registry and runs the
resulting :class:`~repro.transforms.base.FunctionPass` objects in order.

A registered entry is a *factory*: it receives the :class:`PassContext` of
the running flow (platform, config, compiled model) and returns a configured
pass instance.  That indirection is what lets platform-dependent passes --
scratchpad allocation needs the platform's memory latencies and capacity --
participate in a declarative, order-only configuration.

Third parties plug in passes with the :func:`register_pass` decorator::

    from repro.transforms.registry import register_pass

    @register_pass("my_normalizer")
    def build_my_normalizer(context):
        return MyNormalizerPass(threshold=context.config.seed)

    ToolchainConfig(passes=["constant_folding", "my_normalizer"])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.frontend import protected_signal_names
from repro.ir.facts import RegionFacts
from repro.transforms.base import FunctionPass
from repro.transforms.simple import ConstantFoldingPass, DeadCodeEliminationPass
from repro.transforms.scratchpad import ScratchpadAllocationPass
from repro.utils.registry import Registry, first_doc_line


class PassRegistryError(ValueError):
    """Unknown, duplicate or malformed pass registration/lookup."""


@dataclass
class PassContext:
    """What a pass factory may observe when instantiating its pass.

    ``platform`` is the target :class:`~repro.adl.architecture.Platform`,
    ``config`` the flow's :class:`~repro.core.config.ToolchainConfig` and
    ``model`` the :class:`~repro.frontend.CompiledModel` the pass pipeline is
    about to transform (factories must not mutate it -- that is the job of
    the passes themselves).  ``facts`` is the run's
    :class:`~repro.ir.facts.RegionFacts`, memoized in the run's cache
    (``None`` computes every fact afresh).
    """

    platform: Any
    config: Any
    model: Any
    facts: RegionFacts | None = None


PassFactory = Callable[[PassContext], FunctionPass]


@dataclass(frozen=True)
class RegisteredPass:
    """One pluggable transformation pass."""

    name: str
    factory: PassFactory
    description: str = ""


_REGISTRY: Registry[RegisteredPass] = Registry(
    "transformation pass", PassRegistryError, kind_plural="passes"
)


def register_pass(
    name: str, *, description: str = "", replace: bool = False
) -> Callable[[PassFactory], PassFactory]:
    """Decorator registering a pass factory under ``name``."""

    def decorator(factory: PassFactory) -> PassFactory:
        doc = description or first_doc_line(factory)
        _REGISTRY.register(
            name, RegisteredPass(name=name, factory=factory, description=doc), replace
        )
        return factory

    return decorator


def unregister_pass(name: str) -> None:
    """Remove a registration (primarily for tests); unknown names are a no-op."""
    _REGISTRY.unregister(name)


def get_pass(name: str) -> RegisteredPass:
    """Look up a pass factory by name, raising with the known names on a miss."""
    return _REGISTRY.get(name)


def available_passes() -> tuple[str, ...]:
    """Sorted names of every registered pass."""
    return _REGISTRY.available()


def build_pass_pipeline(names, context: PassContext) -> list[FunctionPass]:
    """Instantiate the named passes, in order, for one flow run."""
    return [get_pass(name).factory(context) for name in names]


# ---------------------------------------------------------------------- #
# built-in passes
# ---------------------------------------------------------------------- #
@register_pass("constant_folding", description="fold constant expressions")
def _constant_folding(context: PassContext) -> FunctionPass:
    return ConstantFoldingPass(context.facts)


@register_pass("dead_code_elimination", description="remove unused assignments")
def _dead_code_elimination(context: PassContext) -> FunctionPass:
    return DeadCodeEliminationPass(context.facts)


@register_pass(
    "ir_verifier",
    description="structural + dataflow IR lint; reports findings, never mutates",
)
def _ir_verifier(context: PassContext) -> FunctionPass:
    from repro.analysis.verifier import IRVerifierPass

    return IRVerifierPass()


@register_pass(
    "scratchpad_allocation",
    description="WCET-directed promotion of block-local state to scratchpads",
)
def _scratchpad_allocation(context: PassContext) -> FunctionPass:
    platform = context.platform
    return ScratchpadAllocationPass(
        capacity_bytes=platform.min_scratchpad_bytes(),
        shared_latency=platform.shared_memory.read_latency,
        spm_latency=platform.cores[0].scratchpad.read_latency,
        protect=protected_signal_names(context.model.entry),
        facts=context.facts,
    )
