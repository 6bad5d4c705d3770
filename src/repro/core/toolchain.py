"""The ARGO tool chain facade: model -> IR -> HTG -> schedule -> WCET.

``ArgoToolchain`` is a thin compatibility facade over the composable
pipeline API (:mod:`repro.core.pipeline`); existing call sites keep working
unchanged while the flow itself is a :class:`~repro.core.pipeline.Pipeline`
of named stages with registry-resolved schedulers and transformation passes.

``ArgoToolchain.run`` reproduces the design workflow of Fig. 1:

1. model-based specification (a validated :class:`~repro.model.Diagram`);
2. compilation to the IR and predictability-enhancing transformations;
3. HTG extraction;
4. WCET-aware scheduling/mapping onto the ADL platform;
5. construction of the explicit parallel program model;
6. code-level + system-level WCET analysis (the schedule's bound);
7. optionally, iterative cross-layer optimisation (:mod:`repro.core.feedback`).

For whole design-space explorations (many diagrams x platforms x configs),
use :func:`repro.core.sweep.sweep` instead of hand-rolled loops around this
facade.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.adl.architecture import Platform
from repro.core.config import ToolchainConfig
from repro.core.pipeline import (
    Pipeline,
    PipelineContext,
    PipelineError,
    PipelineResult,
)
from repro.frontend import CompiledModel
from repro.htg import HierarchicalTaskGraph
from repro.model.diagram import Diagram
from repro.scheduling.registry import get_scheduler
from repro.scheduling.schedule import Schedule
from repro.sim import SimulationResult
from repro.transforms.base import PassReport
from repro.wcet.cache import WcetAnalysisCache, shared_cache


class ArgoToolchain:
    """Facade running the whole flow for one target platform.

    Thin shim over :class:`~repro.core.pipeline.Pipeline`: construction
    validates the platform and builds the default stage graph; ``run`` /
    ``run_once`` delegate to it.  The step methods (``compile_model``,
    ``extract_tasks``, ``schedule_tasks``) remain for callers that drive the
    flow piecewise.
    """

    def __init__(
        self,
        platform: Platform,
        config: ToolchainConfig | None = None,
        wcet_cache: WcetAnalysisCache | None = None,
    ) -> None:
        self.platform = platform
        self.config = config or ToolchainConfig()
        #: Memo of code-level analyses shared by every stage of this chain
        #: (and, via the feedback optimizer and the sweep runner, across
        #: candidate configurations: entries are content addressed, so
        #: unchanged IR hits the cache).  Defaults to the process-wide shared
        #: cache, which is disk-backed when ``REPRO_WCET_CACHE_DIR`` is set.
        self.wcet_cache = wcet_cache if wcet_cache is not None else shared_cache()
        #: The underlying stage graph; raises ToolchainError for platforms
        #: violating the predictability guidelines.
        self.pipeline = Pipeline(platform, self.config, self.wcet_cache)

    # ------------------------------------------------------------------ #
    # piecewise drivers: each delegates to the pipeline's actual stage, so
    # the logic cannot drift from what Pipeline.run executes
    # ------------------------------------------------------------------ #
    def _stage_context(self, diagram: Diagram | None = None, **artifacts) -> PipelineContext:
        artifacts.update(
            platform=self.platform,
            config=self.config,
            scheduler=get_scheduler(self.config.scheduler),
        )
        if diagram is not None:
            artifacts["diagram"] = diagram
        return PipelineContext(
            diagram=diagram,  # type: ignore[arg-type] - unused by later stages
            platform=self.platform,
            config=self.config,
            wcet_cache=self.wcet_cache,
            artifacts=artifacts,
        )

    def _run_stage(self, name: str, context: PipelineContext) -> dict:
        for stage in self.pipeline.stages:
            if stage.name == name:
                produced = dict(stage.run(context) or {})
                context.artifacts.update(produced)
                return produced
        raise PipelineError(f"pipeline has no stage named {name!r}")

    def compile_model(self, diagram: Diagram) -> tuple[CompiledModel, list[PassReport]]:
        """Front end + predictability transformations (stages 1-2)."""
        context = self._stage_context(diagram)
        model = self._run_stage("frontend", context)["model"]
        reports = self._run_stage("transforms", context)["pass_reports"]
        return model, reports

    def extract_tasks(self, model: CompiledModel) -> HierarchicalTaskGraph:
        """HTG extraction + per-task WCET annotation (stage 3)."""
        context = self._stage_context(transformed_model=model)
        return self._run_stage("htg", context)["htg"]

    def schedule_tasks(self, htg: HierarchicalTaskGraph, model: CompiledModel) -> Schedule:
        """Mapping/scheduling via the scheduler registry (stage 4)."""
        context = self._stage_context(transformed_model=model, htg=htg)
        return self._run_stage("schedule", context)["schedule"]

    # ------------------------------------------------------------------ #
    def run(self, diagram: Diagram) -> PipelineResult:
        """Run the complete flow on ``diagram``."""
        if self.config.feedback_iterations > 1:
            from repro.core.feedback import CrossLayerFeedback

            return CrossLayerFeedback(self).optimize(diagram)
        return self.run_once(diagram)

    def run_once(self, diagram: Diagram) -> PipelineResult:
        """One pass through the stage graph with the current configuration."""
        return self.pipeline.run(diagram)

    # ------------------------------------------------------------------ #
    def simulate(
        self, result: PipelineResult, inputs: Mapping[str, Any] | None = None
    ) -> SimulationResult:
        """Execute the parallel program on the platform model.

        ``inputs`` maps external inputs (``block.port`` or parameter names) to
        concrete values; constant parameters and state initial values are
        filled in automatically.
        """
        return self.pipeline.simulate(result, inputs)
