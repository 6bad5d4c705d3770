"""End-to-end ARGO tool chain (paper Fig. 1) with cross-layer feedback.

:class:`~repro.core.pipeline.Pipeline` is the flow for one platform: a
composable stage graph whose ``run`` honours every
:class:`~repro.core.config.ToolchainConfig` knob, cross-layer feedback
iterations included.  :func:`~repro.core.sweep.sweep` is the parallel
design-space sweep runner built on top of it.
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
from repro.core.feedback import CrossLayerFeedback, FeedbackHistoryEntry
from repro.core.reporting import (
    bottleneck_report,
    fixed_point_report,
    toolchain_summary,
)

__all__ = [
    "ToolchainConfig",
    "ToolchainError",
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
