"""Tool-chain configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass

VALID_GRANULARITIES = ("block", "loop")


@dataclass
class ToolchainConfig:
    """Knobs of the ARGO flow exposed through the cross-layer interface.

    These are the decisions the paper says end users should be able to
    "control and influence" (Section II-E): task granularity, the number of
    loop chunks, the scheduler, how many cores to use, which predictability
    transformations to run and how many feedback iterations to spend.

    ``scheduler`` and ``passes`` are resolved *by name* through the plugin
    registries (:mod:`repro.scheduling.registry`,
    :mod:`repro.transforms.registry`), so third-party strategies registered
    before the config is built are accepted exactly like the built-ins.
    """

    granularity: str = "loop"
    loop_chunks: int = 4
    scheduler: str = "wcet_list"
    max_cores: int | None = None
    #: Ordered names of the transformation passes to run (resolved through
    #: the transforms registry); an empty tuple runs none.
    passes: tuple[str, ...] = (
        "constant_folding",
        "dead_code_elimination",
        "scratchpad_allocation",
    )
    feedback_iterations: int = 1
    contention_weight: float = 1.0
    seed: int = 0
    #: Run the ``certify`` pipeline stage: after the flow finishes, the
    #: independent certificate checkers (:mod:`repro.analysis.certify`)
    #: re-validate the schedule, the IPET solution and the system-level
    #: fixed point, and a refuted claim aborts the run with a
    #: ``CertificationError``.  Off by default (it re-solves the IPET LP);
    #: CI turns it on.
    certify: bool = False
    #: Prune the system-level MHP contender derivation with the static
    #: interference relation (:mod:`repro.analysis.static_mhp`):
    #: dependence-ordered and shared-footprint-disjoint task pairs are
    #: excluded once, before the fixed point iterates.  Models an
    #: address-aware interconnect, so bounds can only tighten; off by
    #: default to keep the unpruned pass as the differential oracle.
    static_pruning: bool = False
    #: Enable observability (:mod:`repro.obs` spans + metrics) for runs of
    #: this config; the ambient state is restored when the run finishes.
    #: Purely diagnostic -- traced and untraced runs produce bit-identical
    #: results, so the knob is excluded from content-addressed cache keys.
    #: Also switchable process-wide via the ``REPRO_TRACE`` environment
    #: variable (see :mod:`repro.obs`).
    trace: bool = False

    def __post_init__(self) -> None:
        # Registries are imported lazily: config is a leaf module and the
        # registries pull in the scheduling / transforms packages.
        from repro.scheduling.registry import available_schedulers
        from repro.transforms.registry import available_passes

        if self.granularity not in VALID_GRANULARITIES:
            raise ValueError(
                f"granularity must be one of {VALID_GRANULARITIES}, got {self.granularity!r}"
            )
        registered = available_schedulers()
        if self.scheduler not in registered:
            raise ValueError(
                f"scheduler must be one of the registered schedulers {registered}, "
                f"got {self.scheduler!r}"
            )
        if self.loop_chunks < 1:
            raise ValueError("loop_chunks must be at least 1")
        if self.feedback_iterations < 1:
            raise ValueError("feedback_iterations must be at least 1")
        if self.max_cores is not None and self.max_cores < 1:
            raise ValueError(f"max_cores must be at least 1 (or None = all), got {self.max_cores}")
        if not math.isfinite(self.contention_weight) or self.contention_weight < 0:
            raise ValueError(
                f"contention_weight must be a finite non-negative number, "
                f"got {self.contention_weight!r}"
            )
        if not isinstance(self.certify, bool):
            raise ValueError(
                f"certify must be a bool, got {self.certify!r}"
            )
        if not isinstance(self.static_pruning, bool):
            raise ValueError(
                f"static_pruning must be a bool, got {self.static_pruning!r}"
            )
        if not isinstance(self.trace, bool):
            raise ValueError(
                f"trace must be a bool, got {self.trace!r}"
            )
        self.passes = tuple(self.passes)
        known = available_passes()
        for name in self.passes:
            if name not in known:
                raise ValueError(
                    f"unknown transformation pass {name!r}; registered passes: {known}"
                )
