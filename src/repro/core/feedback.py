"""Iterative cross-layer optimisation (paper Section II-E).

WCET information computed at the end of the flow is fed back to the earlier
stages: the feedback loop explores neighbouring configurations (task
granularity, number of loop chunks, scheduler, contention weight), re-runs
the flow and keeps the configuration with the lowest guaranteed WCET.  The
history of attempted configurations is retained so the cross-layer interface
can show end users *why* the final parallelization decisions were taken.

:meth:`repro.core.pipeline.Pipeline.run` drives the loop when
``config.feedback_iterations > 1``.  Every candidate is a one-pass run of
the driving pipeline's stage list with the candidate config, sharing its
live analysis cache: cache entries are content addressed, so candidates
whose transforms leave (parts of) the IR unchanged reuse the code-level
analyses of earlier iterations for free.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.config import ToolchainConfig
from repro.core.pipeline import Pipeline, PipelineResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.diagram import Diagram


@dataclass
class FeedbackHistoryEntry:
    """One attempted configuration and the WCET bound it achieved."""

    iteration: int
    config: ToolchainConfig
    system_wcet: float
    accepted: bool
    note: str = ""


@dataclass
class CrossLayerFeedback:
    """Drives the iterative optimisation around a :class:`~repro.core.pipeline.Pipeline`."""

    pipeline: Pipeline
    history: list[FeedbackHistoryEntry] = field(default_factory=list)

    def _candidates(self, base: ToolchainConfig, iteration: int) -> list[ToolchainConfig]:
        """Configurations to explore at this iteration, derived from the base."""
        candidates: list[ToolchainConfig] = []

        def variant(**changes) -> ToolchainConfig:
            return dataclasses.replace(base, feedback_iterations=1, **changes)

        if iteration == 1:
            candidates.append(variant())
            return candidates
        # later iterations: refine granularity and contention handling
        candidates.append(variant(loop_chunks=max(1, base.loop_chunks // 2)))
        candidates.append(variant(loop_chunks=base.loop_chunks * 2))
        candidates.append(variant(contention_weight=base.contention_weight * 2.0))
        if base.granularity == "block":
            candidates.append(variant(granularity="loop"))
        else:
            candidates.append(variant(granularity="block"))
        return candidates

    def optimize(self, diagram: Diagram) -> PipelineResult:
        """Run up to ``config.feedback_iterations`` rounds and return the best."""
        pipeline = self.pipeline
        base_config = pipeline.config
        iterations = base_config.feedback_iterations
        best_result: PipelineResult | None = None
        best_config = dataclasses.replace(base_config, feedback_iterations=1)

        for iteration in range(1, iterations + 1):
            improved = False
            for candidate in self._candidates(best_config, iteration):
                result = Pipeline(
                    pipeline.platform, candidate, pipeline.wcet_cache, stages=pipeline.stages
                ).run(diagram)
                accepted = best_result is None or result.system_wcet < best_result.system_wcet
                self.history.append(
                    FeedbackHistoryEntry(
                        iteration=iteration,
                        config=candidate,
                        system_wcet=result.system_wcet,
                        accepted=accepted,
                        note=(
                            f"granularity={candidate.granularity}, chunks={candidate.loop_chunks}, "
                            f"scheduler={candidate.scheduler}"
                        ),
                    )
                )
                if accepted:
                    best_result = result
                    best_config = candidate
                    improved = True
            if iteration > 1 and not improved:
                break

        assert best_result is not None
        best_result.pass_reports = list(best_result.pass_reports)
        return best_result

    def summary(self) -> str:
        lines = ["cross-layer feedback history:"]
        for entry in self.history:
            marker = "*" if entry.accepted else " "
            lines.append(
                f" {marker} iter {entry.iteration}: WCET={entry.system_wcet:.0f}  ({entry.note})"
            )
        return "\n".join(lines)
