"""The composable pipeline behind the ARGO flow (paper Fig. 1).

The flow -- model -> IR -> transformations -> HTG -> schedule -> parallel
program -> WCET -- is expressed as a :class:`Pipeline` of named
:class:`Stage` objects forming a small dataflow graph: every stage declares
the typed artifacts it ``consumes`` and ``produces``, the pipeline checks
the graph (each artifact produced exactly once, no missing inputs, no
cycles) and runs the stages in dependency order.  Each run yields a
:class:`PipelineResult` carrying the artifacts plus per-stage wall-clock
timings, the transformation pass reports and the WCET-cache hit/miss deltas.

The two variation points are plugin registries, so new behaviour needs no
core changes:

* the ``schedule`` stage resolves ``config.scheduler`` through
  :mod:`repro.scheduling.registry`;
* the ``transforms`` stage resolves ``config.effective_passes()`` through
  :mod:`repro.transforms.registry`.

Custom stages slot in through :meth:`Pipeline.with_stage` /
:meth:`Pipeline.replace_stage`, e.g. an extra analysis stage consuming
``schedule`` -- the dependency graph, not the insertion order, decides when
it runs.

Stages can opt into **per-stage artifact caching** by declaring a
content-addressed ``cache_key`` (the built-in ``schedule`` and ``wcet``
stages do): when a :class:`StageArtifactCache` is active -- passed
explicitly, or process-wide via ``ToolchainConfig.stage_cache`` -- a stage
whose key matches a previous run returns its cached artifacts instead of
re-running, and the hit/miss deltas surface in
``PipelineResult.cache_stats`` (``stage_hits`` / ``stage_misses``).

:class:`~repro.core.toolchain.ArgoToolchain` is a thin compatibility facade
over this module, and :func:`repro.core.sweep.sweep` runs whole grids of
(diagram, platform, config) combinations through :func:`run_pipeline`
concurrently.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import json
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro import obs
from repro.adl.architecture import Platform
from repro.core.config import ToolchainConfig
from repro.core.exceptions import ToolchainError
from repro.frontend import CompiledModel, compile_diagram
from repro.htg import HierarchicalTaskGraph, extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.ir.loops import describe_unbounded_loops
from repro.model.diagram import Diagram
from repro.parallel import ParallelProgram, build_parallel_program
from repro.scheduling.registry import get_scheduler
from repro.scheduling.schedule import Schedule
from repro.sim import SimulationResult, simulate_parallel_program
from repro.transforms import PassManager
from repro.transforms.base import PassReport
from repro.transforms.registry import PassContext, build_pass_pipeline
from repro.wcet import HardwareCostModel
from repro.wcet.cache import WcetAnalysisCache, platform_signature, shared_cache
from repro.wcet.code_level import analyze_function_wcet


class PipelineError(ToolchainError):
    """A malformed stage graph or a stage contract violation."""


#: Artifacts available before any stage runs.
INITIAL_ARTIFACTS = ("diagram", "platform", "config")


@dataclass(frozen=True)
class Stage:
    """One named step of the flow.

    ``run`` receives the :class:`PipelineContext` and returns a mapping of
    the artifacts it produces (it must cover exactly ``produces``).  Extra
    diagnostic values can be recorded in ``context.info``; they end up in the
    stage's :class:`StageRecord`.

    ``cache_key`` opts the stage into the per-stage artifact cache: called
    with the context *before* ``run``, it must return a stable
    content-addressed key covering **everything** the stage's outputs depend
    on -- or ``None`` when the inputs cannot be fingerprinted, which skips
    caching for that run.  Stages without a ``cache_key`` are never cached.
    """

    name: str
    run: Callable[["PipelineContext"], Mapping[str, Any]]
    consumes: tuple[str, ...] = ()
    produces: tuple[str, ...] = ()
    description: str = ""
    cache_key: Callable[["PipelineContext"], str | None] | None = None


class StageArtifactCache:
    """In-memory LRU of per-stage artifact bundles.

    Keys are ``(stage name, content key)``; values are the stage's produced
    artifacts plus its diagnostic info.  Entries are deep-copied on both
    store and lookup so no run can mutate another run's artifacts through
    the cache.  The cache is bounded (whole schedules are not small) and
    in-process only -- cross-process reuse is what the disk-backed WCET /
    system-result tiers are for.
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be at least 1, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[tuple[str, str], tuple[dict, dict]]" = OrderedDict()

    def lookup(self, stage: str, key: str) -> tuple[dict, dict] | None:
        """Cached ``(artifacts, info)`` of one stage run, or ``None``."""
        entry = self._entries.get((stage, key))
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end((stage, key))
        self.hits += 1
        artifacts, info = entry
        return copy.deepcopy(artifacts), copy.deepcopy(info)

    def store(self, stage: str, key: str, artifacts: Mapping[str, Any], info: Mapping[str, Any]) -> None:
        self._entries[(stage, key)] = (
            copy.deepcopy(dict(artifacts)),
            copy.deepcopy(dict(info)),
        )
        self._entries.move_to_end((stage, key))
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


_shared_stage_cache: StageArtifactCache | None = None


def shared_stage_cache() -> StageArtifactCache:
    """The process-wide stage cache used when ``config.stage_cache`` is set."""
    global _shared_stage_cache
    if _shared_stage_cache is None:
        _shared_stage_cache = StageArtifactCache()
    return _shared_stage_cache


@dataclass
class StageRecord:
    """What one stage did during one run (for the cross-layer report)."""

    name: str
    seconds: float
    produced: tuple[str, ...] = ()
    info: dict[str, Any] = field(default_factory=dict)


@dataclass
class PipelineContext:
    """Mutable state threaded through the stages of one run."""

    diagram: Diagram
    platform: Platform
    config: ToolchainConfig
    wcet_cache: WcetAnalysisCache
    artifacts: dict[str, Any] = field(default_factory=dict)
    #: Per-stage scratch: diagnostic values for the current StageRecord.
    info: dict[str, Any] = field(default_factory=dict)
    #: Incremental-run inputs (set by :meth:`Pipeline.run_incremental`): the
    #: previous run's race-check state and the ids of tasks whose content
    #: changed.  ``None`` means "no reuse" -- the cold-run default.
    prev_race_state: Any = None
    changed_task_ids: set[str] | None = None

    def artifact(self, name: str) -> Any:
        try:
            return self.artifacts[name]
        except KeyError:
            raise PipelineError(f"artifact {name!r} has not been produced yet") from None


@dataclass
class PipelineResult:
    """Everything one pipeline run produced for a diagram/platform pair.

    This is the result type ``ArgoToolchain.run`` returns (the legacy name
    ``ToolchainResult`` is an alias).  The sequential single-core bound is a
    proper constructor field (``sequential_bound``); ``sequential_wcet`` /
    ``wcet_speedup`` / ``metadata_sequential`` remain as compatibility
    properties.
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
    #: Every artifact of the run, including those of custom stages.
    artifacts: dict[str, Any] = field(default_factory=dict)
    #: Cache counter deltas of this run: code-level WCET lookups
    #: (``hits`` / ``disk_hits`` / ``misses``) plus the per-stage artifact
    #: cache (``stage_hits`` / ``stage_misses``, always present and zero
    #: when stage caching is disabled or no stage opted in).
    cache_stats: dict[str, int] = field(default_factory=dict)
    #: Observability snapshot of the run (see :meth:`telemetry`); ``None``
    #: when :mod:`repro.obs` was disabled while the run executed.
    telemetry_data: dict[str, Any] | None = field(default=None, repr=False, compare=False)
    #: Memoized analysis dependency graph (see :meth:`artifact_summary`).
    _summary: Any = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    def artifact_summary(self, cache: WcetAnalysisCache | None = None) -> dict[str, Any]:
        """The run's analysis dependency graph, as a JSON-able dict.

        Records the content fingerprints of everything each stage consumed
        and the per-stage input frontiers (see
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

        ``None`` unless the run was configured with ``certify=True`` (or a
        custom stage produced a ``certificates`` artifact).
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

    #: Compatibility shim for the pre-pipeline field name.
    @property
    def metadata_sequential(self) -> float:
        return self.sequential_bound

    @metadata_sequential.setter
    def metadata_sequential(self, value: float) -> None:
        self.sequential_bound = value

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
# built-in stages
# ---------------------------------------------------------------------- #
def _frontend_stage(context: PipelineContext) -> dict[str, Any]:
    model = compile_diagram(context.diagram)
    # Catch unbounded loops here with a diagnostic naming function and loop,
    # instead of failing much later inside IPET with an opaque LP error.
    problems = describe_unbounded_loops(model.entry)
    if problems:
        raise PipelineError(
            "the compiled model contains loops without a derivable worst-case "
            "trip count: " + "; ".join(problems)
        )
    context.info["blocks"] = len(model.block_regions)
    return {"model": model}


def _transforms_stage(context: PipelineContext) -> dict[str, Any]:
    model: CompiledModel = context.artifact("model")
    names = context.config.effective_passes()
    passes = build_pass_pipeline(
        names, PassContext(platform=context.platform, config=context.config, model=model)
    )
    manager = PassManager()
    for pass_ in passes:
        manager.add(pass_)
    reports = manager.run(model.entry)
    context.info["passes"] = list(names)
    context.info["changed"] = sum(1 for r in reports if r.changed)
    # the IR object is transformed in place; re-expose it under a new name so
    # downstream stages depend on the *transformed* model by construction
    return {"transformed_model": model, "pass_reports": reports}


def _htg_stage(context: PipelineContext) -> dict[str, Any]:
    model: CompiledModel = context.artifact("transformed_model")
    options = ExtractionOptions(
        granularity=context.config.granularity,
        loop_chunks=context.config.loop_chunks,
    )
    htg = extract_htg(model, options)
    cost_model = HardwareCostModel(context.platform, context.platform.cores[0].core_id)
    context.wcet_cache.annotate_htg(htg, model.entry, cost_model)
    context.info["tasks"] = len(htg.leaf_tasks())
    return {"htg": htg}


def _schedule_stage(context: PipelineContext) -> dict[str, Any]:
    model: CompiledModel = context.artifact("transformed_model")
    htg: HierarchicalTaskGraph = context.artifact("htg")
    entry = get_scheduler(context.config.scheduler)
    # Ambient MHP options: scheduler plugins keep their signature; every
    # system_level_wcet call under build() resolves these unless a caller
    # passed explicit values.
    from repro.wcet.system_level import mhp_options

    with mhp_options(
        static_pruning=context.config.static_pruning,
        vectorise_min_pairs=context.config.mhp_vectorise_min_pairs,
    ):
        schedule = entry.build(
            htg, model.entry, context.platform, context.config, context.wcet_cache
        )
    context.info["scheduler"] = entry.name
    context.info["cores_used"] = schedule.num_cores_used
    return {"schedule": schedule}


def _parallel_stage(context: PipelineContext) -> dict[str, Any]:
    model: CompiledModel = context.artifact("transformed_model")
    race_state = None
    if context.config.race_check:
        from repro.analysis.races import incremental_race_check

        schedule = context.artifact("schedule")
        race_report, race_state = incremental_race_check(
            context.artifact("htg"),
            schedule.mapping,
            schedule.order,
            model.entry,
            prev_state=context.prev_race_state,
            changed_tasks=context.changed_task_ids,
        )
        context.info["race_pairs_checked"] = race_report.checked.get("pairs_checked", 0)
        if race_report.checked.get("pairs_reused"):
            context.info["race_pairs_reused"] = race_report.checked["pairs_reused"]
        if race_report.count("error"):
            # warnings (e.g. race.chunk-overlap-unproven) survive the gate
            raise PipelineError(
                "the schedule leaves conflicting shared accesses unordered: "
                + "; ".join(
                    str(f) for f in race_report.findings if f.severity == "error"
                )
            )
    program = build_parallel_program(
        context.artifact("htg"), model.entry, context.platform, context.artifact("schedule")
    )
    context.info["sync_ops"] = program.num_sync_ops
    produced: dict[str, Any] = {"parallel_program": program}
    if race_state is not None:
        # extra (undeclared) artifact: the reusable race-check snapshot a
        # later run_incremental seeds incremental_race_check from
        produced["race_state"] = race_state
    return produced


def _certify_stage(context: PipelineContext) -> dict[str, Any]:
    """Re-validate the run's claims through the independent checkers.

    Gated by ``config.certify``: off, the stage is a no-op producing
    ``certificates = None`` (so the artifact always exists and downstream
    consumers need no existence checks).  On, a refuted certificate aborts
    the run with a :class:`~repro.analysis.certify.CertificationError`.
    """
    if not context.config.certify:
        context.info["certified"] = False
        return {"certificates": None}
    from repro.analysis.certify import CertificationError, build_certificates

    model: CompiledModel = context.artifact("transformed_model")
    chain = build_certificates(
        context.artifact("schedule"),
        model.entry,
        context.artifact("htg"),
        context.platform,
    )
    context.info["certified"] = chain.ok
    context.info["certificate_findings"] = len(chain.findings())
    if not chain.ok:
        raise CertificationError(
            "certificate chain refuted the run's results: "
            + "; ".join(
                str(f) for f in chain.findings() if f.severity == "error"
            ),
        )
    return {"certificates": chain}


def _wcet_stage(context: PipelineContext) -> dict[str, Any]:
    model: CompiledModel = context.artifact("transformed_model")
    sequential_bound = analyze_function_wcet(
        model.entry,
        HardwareCostModel(context.platform, context.platform.cores[0].core_id),
        cache=context.wcet_cache,
    ).total
    context.info["system_wcet"] = context.artifact("schedule").wcet_bound
    context.info["sequential_wcet"] = sequential_bound
    return {"sequential_bound": sequential_bound}


# ---------------------------------------------------------------------- #
# content-addressed stage cache keys (see Stage.cache_key)
# ---------------------------------------------------------------------- #
def _config_digest(config: ToolchainConfig) -> str:
    knobs = dataclasses.asdict(config)
    # observability never changes any artifact, so tracing a run must not
    # split it off from the untraced cache entries
    knobs.pop("trace", None)
    return hashlib.sha1(
        json.dumps(knobs, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


def _htg_fingerprint(context: PipelineContext, htg: HierarchicalTaskGraph) -> str:
    """Structural fingerprint of an HTG: tasks by content, edges by payload."""
    return _htg_fingerprint_of(htg, context.wcet_cache)


def _htg_fingerprint_of(htg: HierarchicalTaskGraph, cache: WcetAnalysisCache) -> str:
    tasks = sorted(
        (
            task.task_id,
            "synthetic" if task.is_synthetic or task.statements is None
            else cache.region_fingerprint(task.statements),
        )
        for task in htg.tasks.values()
    )
    edges = sorted((e.src, e.dst, e.payload_bytes) for e in htg.edges)
    return hashlib.sha1(
        json.dumps([tasks, edges], separators=(",", ":")).encode("utf-8")
    ).hexdigest()


#: scheduler callable -> monotonic token: identifies the *implementation*
#: without the id()-reuse hazard (a freed callable's address can be handed
#: to its replacement; a weak key dies with the callable and the counter
#: never repeats, so a re-registered scheduler always gets a fresh token)
_scheduler_tokens: "weakref.WeakKeyDictionary[Callable, int]" = weakref.WeakKeyDictionary()
_scheduler_token_counter = itertools.count()


def _scheduler_identity(name: str) -> str | None:
    """Process-local identity of the implementation behind a scheduler name.

    ``config.scheduler`` is resolved through a registry that explicitly
    supports re-registration (``replace=True``), so the name alone does not
    pin what the schedule stage will run.  The stage cache is strictly
    per-process, which makes a per-callable token a valid key component;
    callables that cannot be weakly referenced return ``None`` (the stage
    is then uncacheable rather than at risk of a stale hit).
    """
    build = get_scheduler(name).build
    try:
        token = _scheduler_tokens.get(build)
        if token is None:
            token = next(_scheduler_token_counter)
            _scheduler_tokens[build] = token
    except TypeError:
        return None
    return (
        f"{getattr(build, '__module__', '')}."
        f"{getattr(build, '__qualname__', '')}#{token}"
    )


def _schedule_stage_key(context: PipelineContext) -> str | None:
    """Everything the schedule depends on: IR, HTG, platform content, config,
    and the concrete scheduler implementation the registry resolves to."""
    psig = platform_signature(context.platform)
    if psig is None:
        return None
    scheduler_id = _scheduler_identity(context.config.scheduler)
    if scheduler_id is None:
        return None
    model: CompiledModel = context.artifact("transformed_model")
    return "|".join(
        (
            "schedule",
            context.wcet_cache.function_fingerprint(model.entry),
            _htg_fingerprint(context, context.artifact("htg")),
            psig,
            _config_digest(context.config),
            scheduler_id,
        )
    )


def _schedule_digest(schedule: Schedule) -> str:
    """Content digest of a schedule artifact (mapping, order, bound)."""
    payload = [
        sorted(schedule.mapping.items()),
        sorted((core, list(tids)) for core, tids in schedule.order.items()),
        schedule.wcet_bound,
    ]
    return hashlib.sha1(
        json.dumps(payload, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def _wcet_stage_key(context: PipelineContext) -> str | None:
    """Everything the stage touches: the IR and platform determine the
    produced bound, and the consumed schedule pins the diagnostics -- a
    custom schedule stage must never replay another schedule's info."""
    psig = platform_signature(context.platform)
    if psig is None:
        return None
    model: CompiledModel = context.artifact("transformed_model")
    return "|".join(
        (
            "wcet",
            context.wcet_cache.function_fingerprint(model.entry),
            psig,
            _config_digest(context.config),
            _schedule_digest(context.artifact("schedule")),
        )
    )


def default_stages() -> tuple[Stage, ...]:
    """The seven built-in stages: the Fig. 1 flow plus the certify gate."""
    return (
        Stage(
            name="frontend",
            run=_frontend_stage,
            consumes=("diagram",),
            produces=("model",),
            description="model-based specification -> IR entry function",
        ),
        Stage(
            name="transforms",
            run=_transforms_stage,
            consumes=("model",),
            produces=("transformed_model", "pass_reports"),
            description="predictability-enhancing transformation passes",
        ),
        Stage(
            name="htg",
            run=_htg_stage,
            consumes=("transformed_model",),
            produces=("htg",),
            description="hierarchical task graph extraction + WCET annotation",
        ),
        Stage(
            name="schedule",
            run=_schedule_stage,
            consumes=("transformed_model", "htg"),
            produces=("schedule",),
            description="WCET-aware mapping/scheduling (via the scheduler registry)",
            cache_key=_schedule_stage_key,
        ),
        Stage(
            name="parallel",
            run=_parallel_stage,
            consumes=("transformed_model", "htg", "schedule"),
            produces=("parallel_program",),
            description="explicit parallel program construction",
        ),
        Stage(
            name="wcet",
            run=_wcet_stage,
            consumes=("transformed_model", "schedule"),
            produces=("sequential_bound",),
            description="sequential reference bound (system bound lives on the schedule)",
            cache_key=_wcet_stage_key,
        ),
        Stage(
            name="certify",
            run=_certify_stage,
            consumes=("transformed_model", "htg", "schedule"),
            produces=("certificates",),
            description="independent certificate checkers (gated by config.certify)",
        ),
    )


def _order_stages(stages: tuple[Stage, ...]) -> tuple[Stage, ...]:
    """Validate the artifact graph and return the stages in dependency order.

    Checks: unique stage names, every artifact produced exactly once, every
    consumed artifact available (initial or produced), and acyclicity.  The
    topological order is stable with respect to the declaration order.
    """
    names = [stage.name for stage in stages]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise PipelineError(f"duplicate stage names: {', '.join(dupes)}")
    producer: dict[str, Stage] = {}
    for stage in stages:
        for artifact in stage.produces:
            if artifact in INITIAL_ARTIFACTS:
                raise PipelineError(
                    f"stage {stage.name!r} produces reserved artifact {artifact!r}"
                )
            if artifact in producer:
                raise PipelineError(
                    f"artifact {artifact!r} produced by both "
                    f"{producer[artifact].name!r} and {stage.name!r}"
                )
            producer[artifact] = stage
    for stage in stages:
        for artifact in stage.consumes:
            if artifact not in producer and artifact not in INITIAL_ARTIFACTS:
                raise PipelineError(
                    f"stage {stage.name!r} consumes {artifact!r}, which no stage "
                    f"produces (known artifacts: "
                    f"{', '.join(sorted(set(producer) | set(INITIAL_ARTIFACTS)))})"
                )
    # Kahn's algorithm, preferring declaration order among ready stages.
    pending = list(stages)
    available = set(INITIAL_ARTIFACTS)
    ordered: list[Stage] = []
    while pending:
        ready = [s for s in pending if all(a in available for a in s.consumes)]
        if not ready:
            cycle = ", ".join(s.name for s in pending)
            raise PipelineError(f"stage graph has a dependency cycle through: {cycle}")
        stage = ready[0]
        pending.remove(stage)
        ordered.append(stage)
        available.update(stage.produces)
    return tuple(ordered)


class Pipeline:
    """A validated, composable instance of the flow for one platform."""

    def __init__(
        self,
        platform: Platform,
        config: ToolchainConfig | None = None,
        wcet_cache: WcetAnalysisCache | None = None,
        stages: tuple[Stage, ...] | None = None,
        stage_cache: StageArtifactCache | None = None,
    ) -> None:
        self.platform = platform
        self.config = config or ToolchainConfig()
        #: Memo of code-level analyses shared by every stage (and, via the
        #: sweep runner and feedback optimizer, across whole design-space
        #: explorations).  Defaults to the process-wide shared cache, which
        #: is disk-backed when ``REPRO_WCET_CACHE_DIR`` is set.
        self.wcet_cache = wcet_cache if wcet_cache is not None else shared_cache()
        #: Per-stage artifact cache; stages that declare a ``cache_key``
        #: reuse their outputs through it.  ``None`` disables stage caching
        #: unless ``config.stage_cache`` opts into the process-wide cache.
        if stage_cache is None and self.config.stage_cache:
            stage_cache = shared_stage_cache()
        self.stage_cache = stage_cache
        self.stages = _order_stages(tuple(stages) if stages is not None else default_stages())
        report = platform.check_predictability()
        if not report.passed:
            raise ToolchainError(
                "platform fails the predictability guidelines: "
                + "; ".join(report.violations)
            )

    # ------------------------------------------------------------------ #
    # composition
    # ------------------------------------------------------------------ #
    def with_stage(self, stage: Stage) -> "Pipeline":
        """A new pipeline with ``stage`` added (position decided by the graph)."""
        return Pipeline(
            self.platform,
            self.config,
            self.wcet_cache,
            stages=self.stages + (stage,),
            stage_cache=self.stage_cache,
        )

    def replace_stage(self, name: str, stage: Stage) -> "Pipeline":
        """A new pipeline with the stage called ``name`` swapped for ``stage``."""
        if all(s.name != name for s in self.stages):
            raise PipelineError(f"no stage named {name!r} to replace")
        stages = tuple(stage if s.name == name else s for s in self.stages)
        return Pipeline(
            self.platform, self.config, self.wcet_cache, stages=stages,
            stage_cache=self.stage_cache,
        )

    def without_stage(self, name: str) -> "Pipeline":
        """A new pipeline with the stage called ``name`` removed."""
        if all(s.name != name for s in self.stages):
            raise PipelineError(f"no stage named {name!r} to remove")
        stages = tuple(s for s in self.stages if s.name != name)
        return Pipeline(
            self.platform, self.config, self.wcet_cache, stages=stages,
            stage_cache=self.stage_cache,
        )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, diagram: Diagram) -> PipelineResult:
        """One pass through the stage graph on ``diagram``.

        With ``config.trace`` set, observability (:mod:`repro.obs`) is
        enabled for the duration of the run and restored afterwards.
        """
        previous = obs.set_enabled(obs.obs_enabled() or self.config.trace)
        try:
            return self._run(diagram)
        finally:
            obs.set_enabled(previous)

    def _run(self, diagram: Diagram) -> PipelineResult:
        context = PipelineContext(
            diagram=diagram,
            platform=self.platform,
            config=self.config,
            wcet_cache=self.wcet_cache,
            artifacts={
                "diagram": diagram,
                "platform": self.platform,
                "config": self.config,
            },
        )
        stats = self.wcet_cache.stats
        counters_before = (stats.hits, stats.disk_hits, stats.misses)
        obs_on = obs.obs_enabled()
        run_started = time.perf_counter()
        metrics_before = obs.metrics_snapshot() if obs_on else None
        records: list[StageRecord] = []
        stage_hits = 0
        stage_misses = 0
        for stage in self.stages:
            context.info = {}
            started = time.perf_counter()
            produced: dict[str, Any] | None = None
            cached_info: dict[str, Any] | None = None
            cache_key: str | None = None
            with obs.span(f"stage.{stage.name}") as stage_span:
                if self.stage_cache is not None and stage.cache_key is not None:
                    cache_key = stage.cache_key(context)
                    if cache_key is not None:
                        cached = self.stage_cache.lookup(stage.name, cache_key)
                        if cached is not None:
                            produced, cached_info = cached
                            stage_hits += 1
                        else:
                            stage_misses += 1
                from_cache = produced is not None
                if produced is None:
                    produced = dict(stage.run(context) or {})
                elif obs_on:
                    stage_span.set(stage_cache="hit")
            seconds = time.perf_counter() - started
            missing = [a for a in stage.produces if a not in produced]
            if missing:
                raise PipelineError(
                    f"stage {stage.name!r} did not produce declared artifact(s): "
                    f"{', '.join(missing)}"
                )
            context.artifacts.update(produced)
            if from_cache:
                info = dict(cached_info or {})
                info["stage_cache"] = "hit"
            else:
                info = dict(context.info)
                if cache_key is not None:
                    self.stage_cache.store(stage.name, cache_key, produced, info)
            records.append(
                StageRecord(
                    name=stage.name,
                    seconds=seconds,
                    produced=tuple(produced),
                    info=info,
                )
            )
        cache_stats = {
            key: after - before
            for key, before, after in zip(
                ("hits", "disk_hits", "misses"),
                counters_before,
                (stats.hits, stats.disk_hits, stats.misses),
            )
        }
        cache_stats["stage_hits"] = stage_hits
        cache_stats["stage_misses"] = stage_misses
        telemetry = self._capture_telemetry(
            obs_on, run_started, metrics_before, diagram, cache_stats, len(records)
        )
        return self._assemble_result(
            diagram, context, records, cache_stats, telemetry=telemetry
        )

    def _capture_telemetry(
        self,
        obs_on: bool,
        run_started: float,
        metrics_before: "dict[str, Any] | None",
        diagram: Diagram,
        cache_stats: dict[str, int],
        num_stages: int,
        span_name: str = "pipeline.run",
    ) -> "dict[str, Any] | None":
        """Fold this run's cache deltas into the registry and carve out the
        per-run metrics snapshot (``None`` when observability is off)."""
        if not obs_on:
            return None
        registry = obs.metrics()
        for key in ("hits", "disk_hits", "misses", "stage_hits", "stage_misses"):
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

    def run_incremental(self, prev: PipelineResult, diagram: Diagram) -> PipelineResult:
        """Re-run the flow on an edited ``diagram``, reusing ``prev``.

        Walks the analysis dependency graph of ``prev`` (its
        :meth:`PipelineResult.artifact_summary`): a stage whose complete
        input frontier is unchanged is *replayed by reference* instead of
        re-run, and the stages that must run do so incrementally --

        * HTG extraction rebuilds only regions whose code fingerprint
          changed (task decompositions of clean regions are shallow-copied);
        * the race check reuses the previous happens-before closure and
          re-scans only pairs with a changed endpoint;
        * the schedule stage warm-starts the interference fixed point from
          the previous converged state (certificate-checked before reuse,
          see :mod:`repro.wcet.system_level`).

        The result is bit-identical to a cold :meth:`run` on the same
        diagram: every reuse is guarded by content fingerprints (replay is
        only valid when it *proves* the inputs unchanged) or re-validated by
        an independent checker (the warm fixed point).  The per-run reuse
        accounting lands in ``result.artifacts["incremental_report"]`` (an
        :class:`~repro.analysis.incremental.IncrementalReport`) and in
        ``cache_stats["stages_reused"] / ["stages_recomputed"]``.

        Falls back to a plain cold run (with ``fallback_reason`` set) when
        the stage graph is customised -- the engine only knows the input
        frontiers of the seven built-in stages.
        """
        previous = obs.set_enabled(obs.obs_enabled() or self.config.trace)
        try:
            return self._run_incremental(prev, diagram)
        finally:
            obs.set_enabled(previous)

    def _run_incremental(self, prev: PipelineResult, diagram: Diagram) -> PipelineResult:
        from repro.analysis.incremental import (
            TRACKED_STAGES,
            IncrementalReport,
            _digest,
            diagram_fingerprint,
            diff_summaries,
            stage_input_frontiers,
        )
        from repro.wcet.system_level import warm_start_hint

        report = IncrementalReport()
        obs_on = obs.obs_enabled()
        run_started = time.perf_counter()
        metrics_before = obs.metrics_snapshot() if obs_on else None
        stage_names = tuple(stage.name for stage in self.stages)
        if stage_names != TRACKED_STAGES:
            report.fallback_reason = (
                "custom stage graph: input frontiers unknown for "
                + ", ".join(sorted(set(stage_names) ^ set(TRACKED_STAGES)))
            )
            result = self.run(diagram)
            report.stages = {name: "recomputed" for name in stage_names}
            result.cache_stats["stages_reused"] = 0
            result.cache_stats["stages_recomputed"] = len(stage_names)
            result.artifacts["incremental_report"] = report
            return result

        prev_summary = prev.artifact_summary(self.wcet_cache)
        prev_fp = dict(prev_summary["fingerprints"])
        prev_frontiers = dict(prev_summary["frontiers"])
        new_fp: dict[str, Any] = {
            "diagram": diagram_fingerprint(diagram),
            "platform": platform_signature(self.platform),
            "config": _config_digest(self.config),
            "extraction": _digest([self.config.granularity, self.config.loop_chunks]),
            "scheduler": _scheduler_identity(self.config.scheduler),
        }

        # ---- quick path: nothing changed -> zero stages re-run ---------- #
        if (
            new_fp["platform"] is not None
            and new_fp["scheduler"] is not None
            and new_fp["diagram"] == prev_fp.get("diagram")
            and new_fp["platform"] == prev_fp.get("platform")
            and new_fp["config"] == prev_fp.get("config")
            and new_fp["scheduler"] == prev_fp.get("scheduler")
        ):
            report.diff = diff_summaries(prev_summary, prev_summary)
            report.stages = {name: "reused" for name in stage_names}
            report.regions_reused = len(prev_summary["regions"])
            records = []
            for stage in self.stages:
                try:
                    prev_record = prev.stage(stage.name)
                    produced, info = prev_record.produced, dict(prev_record.info)
                except KeyError:
                    produced, info = stage.produces, {}
                info["incremental"] = "reused"
                records.append(
                    StageRecord(name=stage.name, seconds=0.0, produced=produced, info=info)
                )
            artifacts = dict(prev.artifacts)
            artifacts.update(
                {"diagram": diagram, "platform": self.platform, "config": self.config}
            )
            artifacts["incremental_report"] = report
            if obs_on:
                obs.metrics().counter("incremental.stages_reused").inc(len(stage_names))
            telemetry = self._capture_telemetry(
                obs_on,
                run_started,
                metrics_before,
                diagram,
                {},
                len(records),
                span_name="pipeline.run_incremental",
            )
            return PipelineResult(
                diagram_name=diagram.name,
                platform_name=self.platform.name,
                config=self.config,
                model=prev.model,
                htg=prev.htg,
                schedule=prev.schedule,
                parallel_program=prev.parallel_program,
                sequential_bound=prev.sequential_bound,
                pass_reports=list(prev.pass_reports),
                stage_records=records,
                artifacts=artifacts,
                cache_stats={
                    "hits": 0,
                    "disk_hits": 0,
                    "misses": 0,
                    "stage_hits": 0,
                    "stage_misses": 0,
                    "stages_reused": len(stage_names),
                    "stages_recomputed": 0,
                },
                telemetry_data=telemetry,
                _summary=prev_summary,
            )

        # ---- dirty path: replay clean stages, re-run dirty ones --------- #
        context = PipelineContext(
            diagram=diagram,
            platform=self.platform,
            config=self.config,
            wcet_cache=self.wcet_cache,
            artifacts={
                "diagram": diagram,
                "platform": self.platform,
                "config": self.config,
            },
        )
        stats = self.wcet_cache.stats
        counters_before = (stats.hits, stats.disk_hits, stats.misses)
        records: list[StageRecord] = []
        by_name = {stage.name: stage for stage in self.stages}

        def execute(name: str, status: str = "recomputed") -> StageRecord:
            stage = by_name[name]
            context.info = {}
            started = time.perf_counter()
            with obs.span(f"stage.{name}", incremental=status):
                produced = dict(stage.run(context) or {})
            seconds = time.perf_counter() - started
            missing = [a for a in stage.produces if a not in produced]
            if missing:
                raise PipelineError(
                    f"stage {name!r} did not produce declared artifact(s): "
                    f"{', '.join(missing)}"
                )
            context.artifacts.update(produced)
            info = dict(context.info)
            info["incremental"] = status
            record = StageRecord(
                name=name, seconds=seconds, produced=tuple(produced), info=info
            )
            records.append(record)
            report.stages[name] = status
            return record

        def replay(name: str) -> None:
            try:
                prev_record = prev.stage(name)
                artifact_names = prev_record.produced
                info = dict(prev_record.info)
            except KeyError:
                artifact_names, info = by_name[name].produces, {}
            produced = {
                artifact: prev.artifacts[artifact]
                for artifact in artifact_names
                if artifact in prev.artifacts
            }
            context.artifacts.update(produced)
            info["incremental"] = "reused"
            records.append(
                StageRecord(name=name, seconds=0.0, produced=tuple(produced), info=info)
            )
            report.stages[name] = "reused"

        # frontend + transforms always re-run here: the transformation
        # passes mutate the compiled model in place, so the previous run
        # holds no pristine pre-transform model to replay from.
        execute("frontend")
        execute("transforms")
        model: CompiledModel = context.artifact("transformed_model")
        # the passes just mutated the freshly compiled IR in place; per the
        # WcetAnalysisCache contract, drop any fingerprints memoized for it
        # before fingerprinting the final content
        self.wcet_cache.invalidate_fingerprints(model.entry)
        new_fp["function"] = self.wcet_cache.function_fingerprint(model.entry)
        new_regions = {
            name: self.wcet_cache.region_fingerprint(block)
            for name, block in model.block_regions
        }
        prev_regions = dict(prev_summary["regions"])
        unchanged_regions = {
            name for name, fp in new_regions.items() if prev_regions.get(name) == fp
        }

        # htg: replay / per-region incremental re-extraction / cold
        changed_task_ids: set[str] | None
        psig_ok = (
            new_fp["platform"] is not None
            and new_fp["platform"] == prev_fp.get("platform")
        )
        extraction_same = new_fp["extraction"] == prev_fp.get("extraction")
        if (
            psig_ok
            and extraction_same
            and prev_fp.get("function") is not None
            and new_fp["function"] == prev_fp.get("function")
        ):
            replay("htg")
            changed_task_ids = set()
            report.regions_reused += len(new_regions)
        elif psig_ok and extraction_same:
            from repro.htg.extraction import extract_htg_incremental

            context.info = {}
            started = time.perf_counter()
            options = ExtractionOptions(
                granularity=self.config.granularity,
                loop_chunks=self.config.loop_chunks,
            )
            prev_tasks: dict[str, list] = {}
            for task in prev.htg.tasks.values():
                if task.origin:
                    prev_tasks.setdefault(task.origin, []).append(task)
            htg, inc = extract_htg_incremental(
                model, options, prev_tasks, unchanged_regions
            )
            # reused tasks are copies of already-annotated tasks and the
            # platform signature is proven unchanged (psig_ok), so only the
            # re-extracted tasks need WCET annotation; when the edit kept
            # the task/edge structure, the previous run's reachability memo
            # applies verbatim as well.
            htg.adopt_reachability(prev.htg)
            cost_model = HardwareCostModel(self.platform, self.platform.cores[0].core_id)
            self.wcet_cache.annotate_htg(
                htg, model.entry, cost_model, only=set(inc["changed_task_ids"])
            )
            context.artifacts["htg"] = htg
            records.append(
                StageRecord(
                    name="htg",
                    seconds=time.perf_counter() - started,
                    produced=("htg",),
                    info={
                        "tasks": len(htg.leaf_tasks()),
                        "regions_reused": inc["regions_reused"],
                        "regions_recomputed": inc["regions_recomputed"],
                        "incremental": "incremental",
                    },
                )
            )
            report.stages["htg"] = "incremental"
            report.regions_reused += inc["regions_reused"]
            report.regions_recomputed += inc["regions_recomputed"]
            changed_task_ids = set(inc["changed_task_ids"])
        else:
            execute("htg")
            changed_task_ids = None
            report.regions_recomputed += len(new_regions)
        new_fp["htg"] = _htg_fingerprint_of(context.artifact("htg"), self.wcet_cache)

        # schedule: replay, or re-run warm-started from the previous result
        schedule_frontier = stage_input_frontiers(new_fp)["schedule"]
        if (
            schedule_frontier is not None
            and schedule_frontier == prev_frontiers.get("schedule")
        ):
            replay("schedule")
        else:
            with warm_start_hint(prev.schedule.result):
                record = execute("schedule")
            warm_info = getattr(
                context.artifact("schedule").result, "warm_info", None
            )
            if warm_info is not None:
                report.warm_fixed_point = warm_info
                record.info["warm_started"] = bool(warm_info.get("warm_started"))
        new_fp["schedule"] = _schedule_digest(context.artifact("schedule"))
        frontiers = stage_input_frontiers(new_fp)

        # parallel: replay, or re-check only race pairs with a changed endpoint
        if (
            frontiers["parallel"] is not None
            and frontiers["parallel"] == prev_frontiers.get("parallel")
        ):
            replay("parallel")
        else:
            context.prev_race_state = prev.artifacts.get("race_state")
            context.changed_task_ids = changed_task_ids
            status = (
                "incremental"
                if context.prev_race_state is not None and changed_task_ids is not None
                else "recomputed"
            )
            record = execute("parallel", status)
            report.race_pairs_checked = record.info.get("race_pairs_checked", 0)
            report.race_pairs_reused = record.info.get("race_pairs_reused", 0)

        # wcet + certify: pure frontier comparisons
        if (
            frontiers["wcet"] is not None
            and frontiers["wcet"] == prev_frontiers.get("wcet")
        ):
            replay("wcet")
        else:
            execute("wcet")
        if (
            frontiers["certify"] is not None
            and frontiers["certify"] == prev_frontiers.get("certify")
        ):
            replay("certify")
        else:
            execute("certify")

        cache_stats = {
            key: after - before
            for key, before, after in zip(
                ("hits", "disk_hits", "misses"),
                counters_before,
                (stats.hits, stats.disk_hits, stats.misses),
            )
        }
        cache_stats["stage_hits"] = 0
        cache_stats["stage_misses"] = 0
        cache_stats["stages_reused"] = report.stages_reused
        cache_stats["stages_recomputed"] = report.stages_recomputed
        if obs_on:
            registry = obs.metrics()
            registry.counter("incremental.stages_reused").inc(report.stages_reused)
            registry.counter("incremental.stages_recomputed").inc(
                report.stages_recomputed
            )
            registry.counter("incremental.regions_reused").inc(report.regions_reused)
            registry.counter("incremental.regions_recomputed").inc(
                report.regions_recomputed
            )
            registry.counter("incremental.race_pairs_reused").inc(
                report.race_pairs_reused
            )
        telemetry = self._capture_telemetry(
            obs_on,
            run_started,
            metrics_before,
            diagram,
            cache_stats,
            len(records),
            span_name="pipeline.run_incremental",
        )
        result = self._assemble_result(
            diagram, context, records, cache_stats, telemetry=telemetry
        )
        report.diff = diff_summaries(
            prev_summary, result.artifact_summary(self.wcet_cache)
        )
        result.artifacts["incremental_report"] = report
        return result

    def _assemble_result(
        self,
        diagram: Diagram,
        context: PipelineContext,
        records: list[StageRecord],
        cache_stats: dict[str, int],
        telemetry: "dict[str, Any] | None" = None,
    ) -> PipelineResult:
        artifacts = context.artifacts

        def require(name: str) -> Any:
            if name not in artifacts:
                raise PipelineError(
                    f"pipeline finished without producing required artifact {name!r} "
                    f"(is the {name!r}-producing stage missing?)"
                )
            return artifacts[name]

        return PipelineResult(
            diagram_name=diagram.name,
            platform_name=self.platform.name,
            config=self.config,
            model=require("transformed_model"),
            htg=require("htg"),
            schedule=require("schedule"),
            parallel_program=require("parallel_program"),
            sequential_bound=float(artifacts.get("sequential_bound", 0.0)),
            pass_reports=list(artifacts.get("pass_reports", [])),
            stage_records=records,
            artifacts=dict(artifacts),
            cache_stats=cache_stats,
            telemetry_data=telemetry,
        )

    # ------------------------------------------------------------------ #
    def simulate(
        self, result: PipelineResult, inputs: Mapping[str, Any] | None = None
    ) -> SimulationResult:
        """Execute the parallel program of ``result`` on the platform model."""
        bindings = result.model.run_inputs(dict(inputs or {}))
        return simulate_parallel_program(
            result.parallel_program,
            result.htg,
            result.model.entry,
            self.platform,
            bindings,
        )


# ---------------------------------------------------------------------- #
# convenience driver (used by the sweep runner and the toolchain facade)
# ---------------------------------------------------------------------- #
def run_pipeline(
    diagram: Diagram,
    platform: Platform,
    config: ToolchainConfig | None = None,
    wcet_cache: WcetAnalysisCache | None = None,
    stage_cache: StageArtifactCache | None = None,
) -> PipelineResult:
    """Run the complete flow, honouring ``config.feedback_iterations``.

    Mirrors ``ArgoToolchain.run``: with ``feedback_iterations > 1`` the
    cross-layer feedback loop explores neighbouring configurations (itself an
    inline sweep) and returns the best result.  ``stage_cache`` opts the
    single-shot path into per-stage artifact reuse (the feedback path
    manages its own pipelines and only honours ``config.stage_cache``).
    """
    config = config or ToolchainConfig()
    if config.feedback_iterations > 1:
        from repro.core.feedback import CrossLayerFeedback
        from repro.core.toolchain import ArgoToolchain

        return CrossLayerFeedback(ArgoToolchain(platform, config, wcet_cache)).optimize(
            diagram
        )
    return Pipeline(platform, config, wcet_cache, stage_cache=stage_cache).run(diagram)
