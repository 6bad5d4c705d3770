"""End-to-end ARGO tool chain (paper Fig. 1) with cross-layer feedback.

Two ways to drive the flow:

* :class:`ArgoToolchain` -- the classic one-platform facade (a thin shim
  over the pipeline API, kept for compatibility);
* :class:`~repro.core.pipeline.Pipeline` / :func:`~repro.core.sweep.sweep`
  -- the composable stage-graph API and the parallel design-space sweep
  runner built on top of it.
"""

from repro.core.config import ToolchainConfig
from repro.core.exceptions import ToolchainError
from repro.core.pipeline import (
    Pipeline,
    PipelineError,
    PipelineResult,
    Stage,
    StageRecord,
    default_stages,
    run_pipeline,
)
from repro.core.sweep import SweepCase, SweepOutcome, SweepResult, sweep, sweep_grid
from repro.core.toolchain import ArgoToolchain
from repro.core.feedback import CrossLayerFeedback, FeedbackHistoryEntry
from repro.core.reporting import (
    bottleneck_report,
    fixed_point_report,
    toolchain_summary,
)

__all__ = [
    "ToolchainConfig",
    "ToolchainError",
    "ArgoToolchain",
    "Pipeline",
    "PipelineError",
    "PipelineResult",
    "Stage",
    "StageRecord",
    "default_stages",
    "run_pipeline",
    "SweepCase",
    "SweepOutcome",
    "SweepResult",
    "sweep",
    "sweep_grid",
    "CrossLayerFeedback",
    "FeedbackHistoryEntry",
    "bottleneck_report",
    "fixed_point_report",
    "toolchain_summary",
]
