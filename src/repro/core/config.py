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
    #: the transforms registry).  ``None`` derives the pipeline from the
    #: legacy boolean knobs below, which keeps old call sites working.
    passes: tuple[str, ...] | None = None
    run_cleanup_passes: bool = True
    allocate_scratchpads: bool = True
    #: None = use the smallest core scratchpad of the platform.
    scratchpad_capacity_bytes: int | None = None
    feedback_iterations: int = 1
    contention_weight: float = 1.0
    seed: int = 0
    #: Gate the ``parallel`` stage on the static schedule race checker
    #: (:mod:`repro.analysis.races`): a schedule with an unordered pair of
    #: conflicting shared accesses aborts the run with a ``PipelineError``
    #: before any code is generated.  On by default; the knob exists for
    #: experiments that intentionally build unsound schedules.
    race_check: bool = True
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
    #: Pair-count threshold above which the ``auto`` MHP backend switches
    #: to the vectorised pass.  ``None`` = the built-in default (also
    #: overridable per process via ``REPRO_MHP_VECTORISE_MIN_PAIRS``).
    mhp_vectorise_min_pairs: int | None = None
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
        if not isinstance(self.race_check, bool):
            raise ValueError(
                f"race_check must be a bool, got {self.race_check!r}"
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
        if self.mhp_vectorise_min_pairs is not None and (
            not isinstance(self.mhp_vectorise_min_pairs, int)
            or self.mhp_vectorise_min_pairs < 0
        ):
            raise ValueError(
                "mhp_vectorise_min_pairs must be a non-negative int "
                f"(or None = default), got {self.mhp_vectorise_min_pairs!r}"
            )
        if self.scratchpad_capacity_bytes is not None and self.scratchpad_capacity_bytes < 1:
            raise ValueError(
                "scratchpad_capacity_bytes must be at least 1 (or None = platform minimum), "
                f"got {self.scratchpad_capacity_bytes}"
            )
        if self.passes is not None:
            self.passes = tuple(self.passes)
            known = available_passes()
            for name in self.passes:
                if name not in known:
                    raise ValueError(
                        f"unknown transformation pass {name!r}; registered passes: {known}"
                    )

    def effective_passes(self) -> tuple[str, ...]:
        """The ordered pass pipeline this config asks for.

        ``passes`` wins when set; otherwise the pipeline is derived from the
        legacy boolean knobs (``run_cleanup_passes``,
        ``allocate_scratchpads``).
        """
        if self.passes is not None:
            return self.passes
        names: list[str] = []
        if self.run_cleanup_passes:
            names += ["constant_folding", "dead_code_elimination"]
        if self.allocate_scratchpads:
            names.append("scratchpad_allocation")
        return tuple(names)
