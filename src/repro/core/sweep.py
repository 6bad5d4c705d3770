"""Design-space sweeps: one parallel entry point for grids of flow runs.

Every experiment script used to hand-roll its own loop over diagrams,
platforms and configurations.  :func:`sweep` replaces those loops: it takes
either an explicit list of :class:`SweepCase` objects or the three axes of a
grid (``diagrams x platforms x configs``), runs each case through the
pipeline (:func:`repro.core.pipeline.run_pipeline`, so feedback iterations
are honoured) and returns a tabular :class:`SweepResult`.

Execution modes
---------------
* ``max_workers=1`` (default) -- cases run in-process, sequentially, all
  sharing one live :class:`~repro.wcet.cache.WcetAnalysisCache`; results can
  be retained (``keep_results=True``) for callers that need the full
  :class:`~repro.core.pipeline.PipelineResult` objects.
* ``max_workers>1`` -- cases run concurrently in a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Diagrams and platforms
  may be given as zero-argument *builders* (any picklable callable, e.g. a
  ``functools.partial`` of a use-case factory) so each worker constructs its
  own objects.  With ``cache_dir`` set, all workers share one disk-backed
  WCET cache: each worker process flushes its entries to a private shard
  file (atomic tempfile + ``os.replace``), and shards are merged on load --
  concurrent flushes can never corrupt the cache.

The flow is deterministic (seeds live in the config), so a parallel sweep
returns bit-identical WCET bounds to the equivalent sequential loop.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro import obs
from repro.adl.architecture import Platform
from repro.core.config import ToolchainConfig
from repro.core.pipeline import PipelineResult, run_pipeline
from repro.model.diagram import Diagram
from repro.utils.tables import Table
from repro.wcet.cache import WcetAnalysisCache, shared_cache

#: A diagram (or platform) axis entry: the object itself or a zero-argument
#: builder.  Builders are required for process-parallel sweeps of objects
#: you do not want to pickle, and are invoked once per case.
DiagramSpec = Any  # Diagram | Callable[[], Diagram]
PlatformSpec = Any  # Platform | Callable[[], Platform]


@dataclass(frozen=True)
class SweepCase:
    """One (diagram, platform, config) combination of a sweep."""

    diagram: DiagramSpec
    platform: PlatformSpec
    config: ToolchainConfig
    label: str = ""

    def materialize(self) -> tuple[Diagram, Platform]:
        diagram = self.diagram() if callable(self.diagram) else self.diagram
        platform = self.platform() if callable(self.platform) else self.platform
        return diagram, platform


@dataclass
class SweepOutcome:
    """The tabular record of one completed (or failed) case."""

    index: int
    diagram_name: str
    platform_name: str
    scheduler: str
    label: str = ""
    system_wcet: float = 0.0
    sequential_wcet: float = 0.0
    wcet_speedup: float = 0.0
    seconds: float = 0.0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    cache_stats: dict[str, int] = field(default_factory=dict)
    error: str | None = None
    #: Per-case observability snapshot (``PipelineResult.telemetry()``);
    #: ``None`` when :mod:`repro.obs` was disabled in the executing process.
    #: Plain JSON data, so worker processes ship it back with the tabular
    #: fields and the parent merges the per-worker metrics -- the same
    #: discipline as the cache-stat deltas.
    telemetry: dict[str, Any] | None = None
    #: The original exception object; only retained by in-process sweeps
    #: (worker processes report the ``error`` string only), so callers can
    #: re-raise with type and traceback intact.
    exception: Exception | None = None
    #: Full PipelineResult; only retained by in-process sweeps that asked
    #: for it (``keep_results=True``).
    result: PipelineResult | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def as_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "diagram": self.diagram_name,
            "platform": self.platform_name,
            "scheduler": self.scheduler,
            "label": self.label,
            "system_wcet": self.system_wcet,
            "sequential_wcet": self.sequential_wcet,
            "wcet_speedup": self.wcet_speedup,
            "seconds": self.seconds,
            "stage_seconds": dict(self.stage_seconds),
            "cache_stats": dict(self.cache_stats),
            "error": self.error,
            **({"telemetry": self.telemetry} if self.telemetry is not None else {}),
        }


@dataclass
class SweepResult:
    """All outcomes of one sweep, in case order."""

    outcomes: list[SweepOutcome]
    seconds: float = 0.0
    max_workers: int = 1

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    def __getitem__(self, index: int) -> SweepOutcome:
        return self.outcomes[index]

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def failures(self) -> list[SweepOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def best(self, key: Callable[[SweepOutcome], float] | None = None) -> SweepOutcome:
        """The successful outcome with the smallest ``key`` (default: bound)."""
        successes = [outcome for outcome in self.outcomes if outcome.ok]
        if not successes:
            raise ValueError("sweep produced no successful outcome")
        return min(successes, key=key or (lambda outcome: outcome.system_wcet))

    def as_dicts(self) -> list[dict[str, Any]]:
        return [outcome.as_dict() for outcome in self.outcomes]

    def merged_telemetry(self) -> dict[str, Any]:
        """All per-case metric snapshots pooled into one (counters add,
        histograms pool).  ``{"enabled": False}`` when no case recorded."""
        snapshots = [
            outcome.telemetry.get("metrics") or {}
            for outcome in self.outcomes
            if outcome.telemetry and outcome.telemetry.get("enabled")
        ]
        if not snapshots:
            return {"enabled": False}
        return {"enabled": True, "metrics": obs.merge_snapshots(snapshots)}

    def table(self, title: str = "design-space sweep") -> Table:
        table = Table(
            ["diagram", "platform", "scheduler", "sequential WCET", "parallel WCET",
             "speedup", "seconds"],
            title=title,
        )
        for outcome in self.outcomes:
            if outcome.ok:
                table.add_row(
                    [
                        outcome.diagram_name,
                        outcome.platform_name,
                        outcome.scheduler,
                        outcome.sequential_wcet,
                        outcome.system_wcet,
                        outcome.wcet_speedup,
                        round(outcome.seconds, 3),
                    ]
                )
            else:
                table.add_row(
                    [
                        outcome.diagram_name or f"case {outcome.index}",
                        outcome.platform_name,
                        outcome.scheduler,
                        "-",
                        "-",
                        "-",
                        f"ERROR: {outcome.error}",
                    ]
                )
        return table

    def render(self, title: str = "design-space sweep") -> str:
        return self.table(title).render()


def sweep_grid(
    diagrams: Sequence[DiagramSpec],
    platforms: Sequence[PlatformSpec],
    configs: Sequence[ToolchainConfig],
) -> list[SweepCase]:
    """The full cross product of the three axes, in deterministic order."""
    return [
        SweepCase(diagram=diagram, platform=platform, config=config)
        for diagram, platform, config in itertools.product(diagrams, platforms, configs)
    ]


# ---------------------------------------------------------------------- #
# case execution (module level so ProcessPoolExecutor can pickle it)
# ---------------------------------------------------------------------- #
def _describe_spec(spec: Any) -> str:
    if hasattr(spec, "name"):
        return str(spec.name)
    if callable(spec):
        return getattr(spec, "__name__", None) or repr(spec)
    return repr(spec)


def _execute_case(
    index: int, case: SweepCase, cache: WcetAnalysisCache | None
) -> SweepOutcome:
    outcome = SweepOutcome(
        index=index,
        diagram_name=_describe_spec(case.diagram),
        platform_name=_describe_spec(case.platform),
        scheduler=case.config.scheduler,
        label=case.label,
    )
    started = time.perf_counter()
    try:
        diagram, platform = case.materialize()
        outcome.diagram_name = diagram.name
        outcome.platform_name = platform.name
        with obs.span(
            "sweep.case", index=index, diagram=outcome.diagram_name, label=case.label
        ):
            result = run_pipeline(diagram, platform, case.config, wcet_cache=cache)
        outcome.system_wcet = result.system_wcet
        outcome.sequential_wcet = result.sequential_wcet
        outcome.wcet_speedup = result.wcet_speedup
        # private copies: PipelineResult owns its dicts and the outcome must
        # not become a mutation alias of them (nor vice versa)
        outcome.stage_seconds = dict(result.timings)
        outcome.cache_stats = dict(result.cache_stats)
        if result.telemetry_data is not None:
            outcome.telemetry = result.telemetry()
        outcome.result = result
    except Exception as exc:  # noqa: BLE001 - one bad case must not kill the sweep
        outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.exception = exc
    outcome.seconds = time.perf_counter() - started
    return outcome


#: One disk-backed cache per (worker process, cache directory): opened on
#: the first case a worker runs, reused for the rest, so the directory is
#: parsed once per worker instead of once per case and each worker owns a
#: single shard file.
_WORKER_CACHES: dict[str, WcetAnalysisCache] = {}


def _worker_cache(cache_dir: str) -> WcetAnalysisCache:
    cache = _WORKER_CACHES.get(cache_dir)
    if cache is None:
        cache = WcetAnalysisCache.open(cache_dir)
        _WORKER_CACHES[cache_dir] = cache
    return cache


def _worker_run_case(args: tuple[int, SweepCase, str | None]) -> SweepOutcome:
    """Run one case in a worker process, flushing the shared disk cache."""
    index, case, cache_dir = args
    cache = _worker_cache(cache_dir) if cache_dir else shared_cache()
    outcome = _execute_case(index, case, cache)
    # PipelineResult objects can be large and tracebacks do not pickle;
    # workers return tabular data only.
    outcome.result = None
    outcome.exception = None
    if cache_dir:
        # Each worker process owns a private shard file; the write is a
        # tempfile + os.replace, so concurrent flushes are safe by design.
        cache.flush()
    return outcome


def sweep(
    cases: Iterable[SweepCase] | None = None,
    *,
    diagrams: Sequence[DiagramSpec] | None = None,
    platforms: Sequence[PlatformSpec] | None = None,
    configs: Sequence[ToolchainConfig] | None = None,
    max_workers: int = 1,
    cache_dir: str | None = None,
    cache: WcetAnalysisCache | None = None,
    keep_results: bool = False,
) -> SweepResult:
    """Run every case (or the ``diagrams x platforms x configs`` grid).

    Exactly one of ``cases`` or the three grid axes must be given.  See the
    module docstring for the execution modes.  ``cache`` names the live
    in-process cache to use and ``cache_dir`` the disk directory shared
    across processes; given together (in-process mode), the cache is
    attached to the directory via :meth:`~repro.wcet.cache.WcetAnalysisCache.load`,
    so warm entries are pulled in and the trailing flush actually persists.

    Argument validation is mode-based, not size-based: ``keep_results`` /
    ``cache`` are rejected for ``max_workers > 1`` even when the grid has a
    single case, so a sweep cannot change contract as it is scaled down.
    """
    if cases is None:
        if diagrams is None or platforms is None or configs is None:
            raise ValueError(
                "sweep() needs either explicit cases or all three of "
                "diagrams=, platforms=, configs="
            )
        case_list = sweep_grid(diagrams, platforms, configs)
    else:
        if diagrams is not None or platforms is not None or configs is not None:
            raise ValueError("pass either cases or the grid axes, not both")
        case_list = list(cases)
    if max_workers < 1:
        raise ValueError(f"max_workers must be at least 1, got {max_workers}")
    if max_workers > 1:
        if keep_results:
            raise ValueError(
                "keep_results=True requires an in-process sweep (max_workers=1): "
                "worker processes return tabular outcomes only"
            )
        if cache is not None:
            raise ValueError(
                "an in-memory cache cannot be shared across worker processes; "
                "use cache_dir= for parallel sweeps"
            )

    started = time.perf_counter()
    if max_workers == 1 or len(case_list) <= 1:
        if cache is None:
            cache = WcetAnalysisCache.open(cache_dir) if cache_dir else shared_cache()
        elif cache_dir and cache.cache_dir != Path(cache_dir):
            # an explicit cache with a cache_dir: attach it, so the warm
            # entries are visible and the trailing flush is not a no-op
            # (skipped when already attached -- re-merging every shard on
            # every sweep call would re-parse large directories for nothing)
            cache.load(cache_dir)
        outcomes = [
            _execute_case(index, case, cache) for index, case in enumerate(case_list)
        ]
        if cache_dir:
            cache.flush()
        if not keep_results:
            for outcome in outcomes:
                outcome.result = None
        effective_workers = 1
    else:
        effective_workers = min(max_workers, len(case_list))
        jobs = [(index, case, cache_dir) for index, case in enumerate(case_list)]
        with ProcessPoolExecutor(max_workers=effective_workers) as pool:
            outcomes = list(pool.map(_worker_run_case, jobs))
        if obs.obs_enabled():
            # fold the workers' per-case snapshots into the parent registry
            # (the in-process path above recorded into it directly)
            registry = obs.metrics()
            for outcome in outcomes:
                if outcome.telemetry and outcome.telemetry.get("enabled"):
                    registry.merge(outcome.telemetry.get("metrics") or {})
    return SweepResult(
        outcomes=outcomes,
        seconds=time.perf_counter() - started,
        max_workers=effective_workers,
    )
