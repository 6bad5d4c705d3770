"""The ARGO flow (paper Fig. 1) for one platform.

The flow -- model -> IR -> transformations -> HTG -> schedule -> parallel
program -> WCET -- is one fixed sequence of seven stages, :data:`STAGES`
(the six steps of Fig. 1 plus the ``certify`` gate), and every run of a
:class:`Pipeline` walks it in that order.  Each stage reads the artifacts
of the stages before it and adds its own; a run yields a
:class:`PipelineResult` carrying the artifacts plus per-stage wall-clock
timings, the transformation pass reports and the WCET-cache hit/miss deltas.

What an end user varies (paper Section II-E) are
:class:`~repro.core.config.ToolchainConfig` knobs, and the two variation
points behind them are plugin registries, so new behaviour needs no core
changes:

* the ``schedule`` stage resolves ``config.scheduler`` through
  :mod:`repro.scheduling.registry`;
* the ``transforms`` stage resolves ``config.passes`` through
  :mod:`repro.transforms.registry`.

:meth:`Pipeline.run` and :meth:`Pipeline.run_incremental` run the same
stage code; no stage reads the previous run, which feeds only the edit
round's :class:`~repro.analysis.incremental.IncrementalReport`.  An edit
round is a cold pass over warm caches.  The front end keeps the regions
of every block the run's cache has lowered before with the same lowering
inputs (the cache's lowering memo), so a sweep's design points and an
edit's rounds lower only blocks the cache has not seen, and the other
stages find the reused regions' per-region facts (their task
decompositions and their tasks' footprints included, so HTG extraction
decomposes only regions the cache has not decomposed at the run's
granularity and chunk count) and code-level entries answering for them.
The reuse contract, stage by stage, is in
:mod:`repro.analysis.incremental`.

:meth:`Pipeline.run` is the one entry point of the flow: with
``config.feedback_iterations > 1`` it runs the cross-layer feedback loop
(:mod:`repro.core.feedback`), whose candidates are one-pass runs of the
same flow.  :func:`repro.core.sweep.sweep` runs whole grids of (diagram,
platform, config) combinations through it concurrently.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro import obs
from repro.adl.architecture import Platform
from repro.core.config import ToolchainConfig
from repro.core.exceptions import ToolchainError
from repro.frontend import CompiledModel, compile_diagram
from repro.htg import HierarchicalTaskGraph, extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.ir.facts import RegionFacts
from repro.ir.loops import describe_unbounded_loops
from repro.ir.program import Program
from repro.model.diagram import Diagram
from repro.parallel import ParallelProgram, build_parallel_program
from repro.scheduling.registry import get_scheduler
from repro.scheduling.schedule import Schedule
from repro.sim import SimulationResult, simulate_parallel_program
from repro.transforms import PassManager
from repro.transforms.base import PassReport
from repro.transforms.registry import PassContext, build_pass_pipeline
from repro.wcet import HardwareCostModel
from repro.wcet.cache import WcetAnalysisCache, shared_cache
from repro.wcet.code_level import analyze_function_wcet
from repro.wcet.system_level import SystemDesign


class PipelineError(ToolchainError):
    """A run the flow refuses: a loop without a worst-case trip count, a
    schedule that leaves conflicting shared accesses unordered, or an
    incremental re-run of a feedback config."""


@dataclass
class StageRecord:
    """What one stage did during one run (for the cross-layer report)."""

    name: str
    seconds: float
    info: dict[str, Any] = field(default_factory=dict)


@dataclass
class PipelineContext:
    """Mutable state threaded through the stages of one run."""

    diagram: Diagram
    platform: Platform
    config: ToolchainConfig
    wcet_cache: WcetAnalysisCache
    #: The platform plus the artifacts of every stage that has run so far.
    artifacts: dict[str, Any] = field(default_factory=dict)
    #: Per-stage scratch: diagnostic values for the current StageRecord.  A
    #: stage that found part of its work in the cache's region memos (an
    #: earlier run on the cache did it) sets
    #: ``info["incremental"] = "incremental"``.
    info: dict[str, Any] = field(default_factory=dict)


@dataclass
class PipelineResult:
    """Everything one pipeline run produced for a diagram/platform pair.

    The sequential single-core bound is a constructor field
    (``sequential_bound``); ``sequential_wcet`` / ``wcet_speedup`` are
    properties derived from it.
    """

    diagram_name: str
    platform_name: str
    config: ToolchainConfig
    model: CompiledModel
    htg: HierarchicalTaskGraph
    schedule: Schedule
    parallel_program: ParallelProgram
    sequential_bound: float = 0.0
    pass_reports: list[PassReport] = field(default_factory=list)
    stage_records: list[StageRecord] = field(default_factory=list)
    #: Every stage's artifacts plus the ``platform``; an incremental run
    #: adds its ``incremental_report``.
    artifacts: dict[str, Any] = field(default_factory=dict)
    #: Code-level WCET cache counter deltas of this run (``hits`` /
    #: ``disk_hits`` / ``misses``).
    cache_stats: dict[str, int] = field(default_factory=dict)
    #: Observability snapshot of the run (see :meth:`telemetry`); ``None``
    #: when :mod:`repro.obs` was disabled while the run executed.
    telemetry_data: dict[str, Any] | None = field(default=None, repr=False, compare=False)
    #: Memoized reuse summary (see :meth:`artifact_summary`).
    _summary: Any = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    def artifact_summary(self, cache: WcetAnalysisCache | None = None) -> dict[str, Any]:
        """What a later incremental run reuses this run by, as a JSON-able dict.

        The per-region code fingerprints (see
        :func:`repro.analysis.incremental.summarize_result`).  Memoized:
        capture it soon after the run, while the fingerprinted objects are
        unmutated -- ``cache`` is only consulted on the first call.
        """
        if self._summary is None:
            from repro.analysis.incremental import summarize_result

            self._summary = summarize_result(self, cache)
        return self._summary

    # ------------------------------------------------------------------ #
    @property
    def certificates(self):
        """The run's :class:`~repro.analysis.certify.CertificateChain`.

        ``None`` unless the run was configured with ``certify=True``.
        """
        return self.artifacts.get("certificates")

    @property
    def system_wcet(self) -> float:
        """Guaranteed multi-core WCET bound (cycles)."""
        return self.schedule.wcet_bound

    @property
    def sequential_wcet(self) -> float:
        """Single-core WCET bound of the whole step function (cycles)."""
        return self.sequential_bound

    @property
    def wcet_speedup(self) -> float:
        """Sequential WCET divided by the parallel WCET bound."""
        if self.system_wcet <= 0:
            return 1.0
        return self.sequential_bound / self.system_wcet

    # ------------------------------------------------------------------ #
    def telemetry(self) -> dict[str, Any]:
        """What :mod:`repro.obs` recorded while this run executed.

        ``{"enabled": False}`` when observability was off; otherwise
        ``{"enabled": True, "metrics": <snapshot delta>}`` where the metrics
        delta covers exactly this run (counters/histograms recorded between
        run start and finish).  JSON-serializable: the sweep runner ships it
        from workers through ``SweepOutcome.telemetry``.
        """
        return self.telemetry_data or {"enabled": False}

    # ------------------------------------------------------------------ #
    @property
    def timings(self) -> dict[str, float]:
        """Per-stage wall-clock seconds, in execution order."""
        return {record.name: record.seconds for record in self.stage_records}

    def stage(self, name: str) -> StageRecord:
        for record in self.stage_records:
            if record.name == name:
                return record
        raise KeyError(f"no stage record named {name!r}")


# ---------------------------------------------------------------------- #
# the stages
# ---------------------------------------------------------------------- #
def _frontend_stage(context: PipelineContext) -> dict[str, Any]:
    # blocks the cache has lowered before, with the same inputs, keep
    # those regions, and with them every fact memoized on them
    facts = RegionFacts(context.wcet_cache.region_facts)
    model = compile_diagram(
        context.diagram, lowerings=context.wcet_cache.lowerings, facts=facts
    )
    # Catch unbounded loops here with a diagnostic naming function and loop,
    # instead of failing much later inside IPET with an opaque error.
    problems = describe_unbounded_loops(model.entry, facts)
    if problems:
        raise PipelineError(
            "the compiled model contains loops without a derivable worst-case "
            "trip count: " + "; ".join(problems)
        )
    context.info["blocks"] = len(model.block_regions)
    context.info["blocks_lowered"] = model.blocks_lowered
    if model.blocks_lowered < len(context.diagram.blocks):
        context.info["incremental"] = "incremental"
    return {"model": model}


def _transforms_stage(context: PipelineContext) -> dict[str, Any]:
    model: CompiledModel = context.artifacts["model"]
    names = context.config.passes
    facts = RegionFacts(context.wcet_cache.region_facts)
    passes = build_pass_pipeline(
        names,
        PassContext(platform=context.platform, config=context.config, model=model, facts=facts),
    )
    manager = PassManager()
    for pass_ in passes:
        manager.add(pass_)
    # The passes rebind the working copy's body and declaration lists and
    # rewrite copy-on-write, so the front end's model is never mutated and
    # the regions no pass touched stay the very same objects.
    entry = model.entry
    working = dataclasses.replace(entry, params=list(entry.params), decls=list(entry.decls))
    reports = manager.run(working)
    program = Program(
        model.program.name,
        [working if function is entry else function for function in model.program.functions],
    )
    context.info["passes"] = list(names)
    context.info["changed"] = sum(1 for r in reports if r.changed)
    # the regions a built-in pass computed on: the others' results were
    # memoized on them by an earlier run
    context.info["regions_transformed"] = len(facts.computed)
    return {
        "transformed_model": dataclasses.replace(model, program=program),
        "pass_reports": reports,
    }


def _htg_stage(context: PipelineContext) -> dict[str, Any]:
    model: CompiledModel = context.artifacts["transformed_model"]
    options = ExtractionOptions(
        granularity=context.config.granularity,
        loop_chunks=context.config.loop_chunks,
    )
    # each region's decomposition is memoized on it (the cache's region
    # memo, keyed by the two knobs), so only the regions this cache has not
    # decomposed at these knobs are decomposed, whatever the platform
    facts = RegionFacts(context.wcet_cache.region_facts)
    htg = extract_htg(model, options, facts)
    # the regions decomposed by this run: the others' decompositions were
    # memoized by an earlier run on this cache
    recomputed = len(facts.computed)
    reused = len(model.block_regions) - recomputed
    if reused:
        context.info["incremental"] = "incremental"
    context.info["tasks"] = len(htg.leaf_tasks())
    context.info["regions_reused"] = reused
    context.info["regions_recomputed"] = recomputed
    return {"htg": htg}


def _schedule_stage(context: PipelineContext) -> dict[str, Any]:
    model: CompiledModel = context.artifacts["transformed_model"]
    entry = get_scheduler(context.config.scheduler)
    # the run's one design point: every analysis the scheduler runs reads
    # the cache and the MHP mode from it
    design = SystemDesign(
        context.artifacts["htg"],
        model.entry,
        context.platform,
        context.wcet_cache,
        static_pruning=context.config.static_pruning,
    )
    schedule = entry.build(design, context.config)
    context.info["scheduler"] = entry.name
    context.info["cores_used"] = schedule.num_cores_used
    return {"schedule": schedule}


def _parallel_stage(context: PipelineContext) -> dict[str, Any]:
    model: CompiledModel = context.artifacts["transformed_model"]
    htg: HierarchicalTaskGraph = context.artifacts["htg"]
    schedule: Schedule = context.artifacts["schedule"]
    from repro.analysis.races import incremental_race_check

    # the schedule's one happens-before closure: the race check builds it,
    # and build_parallel_program checks the order and places syncs on it
    race_report, closure = incremental_race_check(
        htg,
        schedule.mapping,
        schedule.order,
        model.entry,
        store=context.wcet_cache.footprints,
    )
    context.info["race_pairs_checked"] = race_report.checked.get("pairs_checked", 0)
    if race_report.count("error"):
        # warnings (e.g. race.chunk-overlap-unproven) survive the gate
        raise PipelineError(
            "the schedule leaves conflicting shared accesses unordered: "
            + "; ".join(
                str(f) for f in race_report.findings if f.severity == "error"
            )
        )
    program = build_parallel_program(htg, model.entry, context.platform, schedule, closure)
    context.info["sync_ops"] = program.num_sync_ops
    return {"parallel_program": program}


def _wcet_stage(context: PipelineContext) -> dict[str, Any]:
    model: CompiledModel = context.artifacts["transformed_model"]
    sequential_bound = analyze_function_wcet(
        model.entry,
        HardwareCostModel(context.platform, context.platform.cores[0].core_id),
        cache=context.wcet_cache,
    ).total
    context.info["system_wcet"] = context.artifacts["schedule"].wcet_bound
    context.info["sequential_wcet"] = sequential_bound
    return {"sequential_bound": sequential_bound}


def _certify_stage(context: PipelineContext) -> dict[str, Any]:
    """Re-validate the run's claims through the independent checkers.

    Gated by ``config.certify``: off, the stage is a no-op producing
    ``certificates = None`` (so the artifact always exists and downstream
    consumers need no existence checks).  On, a refuted certificate aborts
    the run with a :class:`~repro.analysis.certify.CertificationError`
    carrying the chain's merged report.  The schedule's result and the
    sequential bound are checked the same whether they were computed or
    replayed from the cache, which is what catches a corrupt or hand-edited
    cache entry.
    """
    if not context.config.certify:
        context.info["certified"] = False
        return {"certificates": None}
    from repro.analysis.certify import CertificationError, build_certificates
    from repro.analysis.report import AnalysisReport

    model: CompiledModel = context.artifacts["transformed_model"]
    chain = build_certificates(
        context.artifacts["schedule"],
        model.entry,
        context.artifacts["htg"],
        context.platform,
        sequential_bound=context.artifacts["sequential_bound"],
        cache=context.wcet_cache,
    )
    context.info["certified"] = chain.ok
    context.info["certificate_findings"] = len(chain.findings())
    if not chain.ok:
        report = AnalysisReport("certificate_chain")
        for checker_report in chain.reports:
            report.merge(checker_report)
        raise CertificationError(
            "certificate chain refuted the run's results: "
            + "; ".join(
                str(f) for f in chain.findings() if f.severity == "error"
            ),
            report=report,
        )
    return {"certificates": chain}


#: The flow of paper Fig. 1 plus the certify gate, in the order every run
#: walks it: ``(name, stage function)`` pairs.  A stage function reads the
#: artifacts of the stages before it from ``context.artifacts``, records its
#: diagnostics in ``context.info`` and returns the artifacts it adds.
STAGES = (
    ("frontend", _frontend_stage),
    ("transforms", _transforms_stage),
    ("htg", _htg_stage),
    ("schedule", _schedule_stage),
    ("parallel", _parallel_stage),
    ("wcet", _wcet_stage),
    ("certify", _certify_stage),
)


class Pipeline:
    """The flow for one platform: :data:`STAGES` under one config and cache."""

    def __init__(
        self,
        platform: Platform,
        config: ToolchainConfig | None = None,
        wcet_cache: WcetAnalysisCache | None = None,
    ) -> None:
        self.platform = platform
        self.config = config or ToolchainConfig()
        #: Memo of code-level analyses shared by every stage (and, via the
        #: sweep runner and feedback optimizer, across whole design-space
        #: explorations).  Defaults to the process-wide shared cache, which
        #: is disk-backed when ``REPRO_WCET_CACHE_DIR`` is set.
        self.wcet_cache = wcet_cache if wcet_cache is not None else shared_cache()
        report = platform.check_predictability()
        if not report.passed:
            raise ToolchainError(
                "platform fails the predictability guidelines: "
                + "; ".join(report.violations)
            )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, diagram: Diagram) -> PipelineResult:
        """Run the flow on ``diagram``.

        With ``config.feedback_iterations > 1`` the cross-layer feedback
        loop (:class:`~repro.core.feedback.CrossLayerFeedback`) explores
        neighbouring configurations, each a one-pass run of the flow, and
        returns the best result; otherwise this is one pass through
        :data:`STAGES`.  With ``config.trace`` set, observability
        (:mod:`repro.obs`) is enabled for the duration of each pass and
        restored afterwards.
        """
        if self.config.feedback_iterations > 1:
            from repro.core.feedback import CrossLayerFeedback

            return CrossLayerFeedback(self).optimize(diagram)
        return self._traced(diagram, None)

    def run_incremental(self, prev: PipelineResult, diagram: Diagram) -> PipelineResult:
        """Re-run the flow on an edited ``diagram`` and report what changed
        since ``prev``.

        Exactly the stage code of :meth:`run`: an edit round is a cold pass
        over warm caches, and no stage reads ``prev``.  The reuse is the
        cache's, and it comes from the front end handing over the region
        objects of every block whose lowering inputs did not change
        (through the cache's lowering memo, as every run does):

        * the passes and the sequential bound recompute only the changed
          regions' per-region facts and code-level entries;
        * HTG extraction decomposes only the regions without a
          decomposition memoized at the run's granularity and chunk count;
        * the race check walks only the footprints of task blocks the
          cache has not walked under the same declarations.

        So the result is the cold :meth:`run`'s on the same diagram.
        ``prev`` feeds only the reuse accounting, which lands in
        ``result.artifacts["incremental_report"]`` (an
        :class:`~repro.analysis.incremental.IncrementalReport`, whose
        ``diff`` compares the two runs' region fingerprints).

        A config with ``feedback_iterations > 1`` raises
        :class:`PipelineError`: the feedback loop picks among several
        candidate runs, which one pass cannot reproduce.
        """
        if self.config.feedback_iterations > 1:
            raise PipelineError(
                "run_incremental re-runs one pass of the flow; a config with "
                f"feedback_iterations={self.config.feedback_iterations} needs run()"
            )
        return self._traced(diagram, prev)

    def _traced(self, diagram: Diagram, prev: PipelineResult | None) -> PipelineResult:
        previous = obs.set_enabled(obs.obs_enabled() or self.config.trace)
        try:
            return self._run(diagram, prev)
        finally:
            obs.set_enabled(previous)

    def _run(self, diagram: Diagram, prev: PipelineResult | None) -> PipelineResult:
        context = PipelineContext(
            diagram=diagram,
            platform=self.platform,
            config=self.config,
            wcet_cache=self.wcet_cache,
            artifacts={"platform": self.platform},
        )
        stats = self.wcet_cache.stats
        counters_before = (stats.hits, stats.disk_hits, stats.misses)
        obs_on = obs.obs_enabled()
        run_started = time.perf_counter()
        metrics_before = obs.metrics_snapshot() if obs_on else None
        records: list[StageRecord] = []
        for name, stage in STAGES:
            context.info = {}
            started = time.perf_counter()
            with obs.span(f"stage.{name}"):
                context.artifacts.update(stage(context))
            seconds = time.perf_counter() - started
            info = dict(context.info)
            if prev is not None:
                info.setdefault("incremental", "recomputed")
            records.append(StageRecord(name=name, seconds=seconds, info=info))
        cache_stats = {
            key: after - before
            for key, before, after in zip(
                ("hits", "disk_hits", "misses"),
                counters_before,
                (stats.hits, stats.disk_hits, stats.misses),
            )
        }
        result = self._assemble_result(diagram, context, records, cache_stats)
        if prev is not None:
            from repro.analysis.incremental import IncrementalReport, diff_summaries

            report = IncrementalReport.from_records(records)
            report.diff = diff_summaries(
                prev.artifact_summary(self.wcet_cache),
                result.artifact_summary(self.wcet_cache),
            )
            result.artifacts["incremental_report"] = report
            if obs_on:
                registry = obs.metrics()
                for name, value in (
                    ("stages_recomputed", report.stages_recomputed),
                    ("regions_reused", report.regions_reused),
                    ("regions_recomputed", report.regions_recomputed),
                ):
                    registry.counter(f"incremental.{name}").inc(value)
        result.telemetry_data = self._capture_telemetry(
            obs_on,
            run_started,
            metrics_before,
            diagram,
            cache_stats,
            len(records),
            span_name="pipeline.run" if prev is None else "pipeline.run_incremental",
        )
        return result

    def _capture_telemetry(
        self,
        obs_on: bool,
        run_started: float,
        metrics_before: "dict[str, Any] | None",
        diagram: Diagram,
        cache_stats: dict[str, int],
        num_stages: int,
        span_name: str,
    ) -> "dict[str, Any] | None":
        """Fold this run's cache deltas into the registry and carve out the
        per-run metrics snapshot (``None`` when observability is off)."""
        if not obs_on:
            return None
        registry = obs.metrics()
        for key in ("hits", "disk_hits", "misses"):
            delta = cache_stats.get(key, 0)
            if delta:
                registry.counter(f"wcet_cache.{key}").inc(delta)
        obs.trace_complete(
            span_name,
            run_started,
            time.perf_counter() - run_started,
            {
                "diagram": diagram.name,
                "platform": self.platform.name,
                "stages": num_stages,
            },
        )
        return {
            "enabled": True,
            "metrics": obs.snapshot_delta(metrics_before or {}, obs.metrics_snapshot()),
        }

    def _assemble_result(
        self,
        diagram: Diagram,
        context: PipelineContext,
        records: list[StageRecord],
        cache_stats: dict[str, int],
    ) -> PipelineResult:
        artifacts = context.artifacts
        return PipelineResult(
            diagram_name=diagram.name,
            platform_name=self.platform.name,
            config=self.config,
            model=artifacts["transformed_model"],
            htg=artifacts["htg"],
            schedule=artifacts["schedule"],
            parallel_program=artifacts["parallel_program"],
            sequential_bound=float(artifacts["sequential_bound"]),
            pass_reports=list(artifacts["pass_reports"]),
            stage_records=records,
            artifacts=dict(artifacts),
            cache_stats=cache_stats,
        )

    # ------------------------------------------------------------------ #
    def simulate(
        self, result: PipelineResult, inputs: Mapping[str, Any] | None = None
    ) -> SimulationResult:
        """Execute the parallel program of ``result`` on the platform model.

        ``inputs`` maps external inputs (``block.port`` or parameter names)
        to concrete values; constant parameters and state initial values
        are filled in automatically.
        """
        bindings = result.model.run_inputs(dict(inputs or {}))
        return simulate_parallel_program(
            result.parallel_program,
            result.htg,
            result.model.entry,
            self.platform,
            bindings,
        )


def run_pipeline(
    diagram: Diagram,
    platform: Platform,
    config: ToolchainConfig | None = None,
    wcet_cache: WcetAnalysisCache | None = None,
) -> PipelineResult:
    """``Pipeline(platform, config, wcet_cache).run(diagram)``."""
    return Pipeline(platform, config, wcet_cache).run(diagram)
