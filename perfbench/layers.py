"""Per-layer self-time, measured from outside the product code.

:class:`LayerTimer` wraps a timer around the public entry points of each
analysis layer.  A wrapper is installed at *every* module binding that
refers to the entry point (``repro.htg.extract_htg`` as well as
``repro.core.pipeline.extract_htg``, say), on the class for methods, and
in the scheduler registry for registry-resolved ``build`` callables, so no
call path skips it.  A layer's self time is its wrapped duration minus the
wrapped durations of the calls it makes into other wrapped entry points.

Wrappers are installed once per run and stay in place; ``active``
switches the accounting on for the timed operations only (not set-up or
oracles), and the identity of every wrapped callable (which the
incremental engine fingerprints for the scheduler) stays stable.
Uninstalling also restores bindings made *after* installation (a module
imported while the wrappers were in place binds a wrapper); left behind,
they would route a later run's calls into a stale, inactive wrapper.

``LAYERS`` is also the benchmark's claim map: for each layer, which
end-to-end metric on which workload a change to that layer should move.
The traced run requires non-zero ``.calls`` for every (layer, workload)
pair named there, and zero calls where ``ZERO_CALLS`` predicts none.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: layer -> entry points, and {workload: [end-to-end metrics a change to it moves]}
#: Entry points are "module:qualname"; "registry:schedulers" wraps every
#: scheduler ``build`` in :mod:`repro.scheduling.registry`.
LAYERS: dict[str, dict[str, Any]] = {
    "frontend": {
        "entries": ["repro.frontend.codegen:compile_diagram"],
        "moves": {"edit-incremental": ["op_s_p50"]},
    },
    "transforms": {
        "entries": ["repro.transforms.base:PassManager.run"],
        "moves": {"edit-incremental": ["op_s_p50"]},
    },
    "htg": {
        "entries": [
            "repro.htg.extraction:extract_htg",
            "repro.htg.extraction:extract_htg_incremental",
        ],
        "moves": {"synthetic-1000": ["op_s_p50"], "edit-incremental": ["op_s_p50"]},
    },
    "wcet.code_level": {
        "entries": [
            "repro.wcet.cache:WcetAnalysisCache.annotate_htg",
            "repro.wcet.code_level:analyze_function_wcet",
            "repro.wcet.code_level:analyze_task_wcet",
        ],
        "moves": {"synthetic-1000": ["op_s_p50"], "dse-usecases": ["op_s_p50"]},
    },
    "wcet.ipet": {
        "entries": ["repro.wcet.ipet:ipet_wcet"],
        "moves": {"dse-usecases": ["op_s_p50"]},
    },
    "wcet.cache": {
        "entries": ["repro.wcet.cache:SystemResultCache.result_key"],
        "moves": {"dse-usecases": ["ops_per_s"]},
    },
    "scheduling": {
        "entries": [
            "registry:schedulers",
            "repro.scheduling.schedule:evaluate_mapping",
        ],
        "moves": {"dse-usecases": ["op_s_p50", "op_s_tail"]},
    },
    "wcet.system_level": {
        "entries": ["repro.wcet.system_level:system_level_wcet"],
        "moves": {"dse-usecases": ["op_s_p50"], "edit-incremental": ["op_s_p50"]},
    },
    "analysis.static_mhp": {
        "entries": ["repro.analysis.static_mhp:compute_static_mhp"],
        "moves": {"synthetic-1000": ["op_s_p50"]},
    },
    "analysis.footprints": {
        "entries": [
            "repro.analysis.footprints:task_footprints",
            "repro.analysis.footprints:FootprintStore.footprint",
        ],
        "moves": {"synthetic-1000": ["op_s_p50"]},
    },
    "analysis.races": {
        "entries": ["repro.analysis.races:incremental_race_check"],
        "moves": {"synthetic-1000": ["op_s_p50"], "edit-incremental": ["op_s_p50"]},
    },
    "parallel": {
        "entries": ["repro.parallel.model:build_parallel_program"],
        "moves": {"synthetic-1000": ["op_s_p50"]},
    },
    "analysis.certify": {
        "entries": ["repro.analysis.certify.chain:build_certificates"],
        "moves": {"synthetic-1000": ["op_s_p50"], "dse-usecases": ["op_s_p50"]},
    },
    "analysis.incremental": {
        "entries": [
            "repro.analysis.incremental:summarize_result",
            "repro.analysis.incremental:diff_summaries",
        ],
        "moves": {"edit-incremental": ["op_s_p50"]},
    },
    "core.pipeline": {
        "entries": [
            "repro.core.pipeline:Pipeline.run",
            "repro.core.pipeline:Pipeline.run_incremental",
        ],
        "moves": {"edit-incremental": ["op_s_p50"], "dse-usecases": ["ops_per_s"]},
    },
}

#: Layers predicted to do no work at all on a workload.
ZERO_CALLS: dict[str, tuple[str, ...]] = {
    "dse-usecases": ("analysis.static_mhp", "analysis.incremental"),
    "synthetic-1000": ("analysis.incremental",),
    "edit-incremental": ("analysis.static_mhp", "analysis.certify"),
}

#: Extra per-layer counts, in report order (all reported on every workload).
COUNTS: dict[str, tuple[str, ...]] = {
    "transforms": ("passes_changed",),
    "htg": ("tasks", "edges"),
    "wcet.ipet": ("lp_solves",),
    "scheduling": ("evaluations",),
    "analysis.static_mhp": ("pairs_candidate", "pairs_kept"),
    "analysis.races": ("pairs_checked", "pairs_reused"),
    "parallel": ("sync_ops",),
    "analysis.certify": ("findings",),
}

#: Spans shorter than this are accounted but not written to the trace file
#: (the hot code-level lookups would otherwise produce millions of events).
MIN_TRACE_SPAN_S = 1e-4


@dataclass
class LayerStats:
    self_s: float = 0.0
    calls: int = 0
    counts: dict[str, float] = field(default_factory=dict)

    def bump(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


Stats = dict[str, LayerStats]


def _observe_htg(stats: Stats, result: Any) -> None:
    htg = result[0] if isinstance(result, tuple) else result
    stats["htg"].bump("tasks", len(htg.leaf_tasks()))
    stats["htg"].bump("edges", len(htg.edges))


def _observe_system_level(stats: Stats, result: Any) -> None:
    stats["wcet.system_level"].bump("iterations", result.iterations)
    if (result.warm_info or {}).get("warm_started"):
        stats["wcet.system_level"].bump("warm_started")


def _observe_races(stats: Stats, result: Any) -> None:
    checked = result[0].checked
    stats["analysis.races"].bump("pairs_checked", checked.get("pairs_checked", 0))
    stats["analysis.races"].bump("pairs_reused", checked.get("pairs_reused", 0))


def _observe_static_mhp(stats: Stats, result: Any) -> None:
    stats["analysis.static_mhp"].bump("pairs_candidate", result.candidate_pairs)
    stats["analysis.static_mhp"].bump("pairs_kept", result.kept_pairs)


def _observe_incremental(stats: Stats, result: Any) -> None:
    report = result.artifacts.get("incremental_report")
    if report is not None:
        stats["analysis.incremental"].bump("regions_reused", report.regions_reused)
        stats["analysis.incremental"].bump("regions_recomputed", report.regions_recomputed)
        stats["analysis.incremental"].bump("stages_reused", report.stages_reused)


#: entry point -> callback(stats by layer, return value) folding counts in
OBSERVERS: dict[str, Callable[[Stats, Any], None]] = {
    "repro.transforms.base:PassManager.run": lambda s, r: s["transforms"].bump(
        "passes_changed", sum(1 for report in r if report.changed)
    ),
    "repro.htg.extraction:extract_htg": _observe_htg,
    "repro.htg.extraction:extract_htg_incremental": _observe_htg,
    "repro.wcet.ipet:ipet_wcet": lambda s, r: s["wcet.ipet"].bump("lp_solves"),
    "repro.scheduling.schedule:evaluate_mapping": lambda s, r: s["scheduling"].bump(
        "evaluations"
    ),
    "repro.wcet.system_level:system_level_wcet": _observe_system_level,
    "repro.analysis.static_mhp:compute_static_mhp": _observe_static_mhp,
    "repro.analysis.races:incremental_race_check": _observe_races,
    "repro.parallel.model:build_parallel_program": lambda s, r: s["parallel"].bump(
        "sync_ops", r.num_sync_ops
    ),
    "repro.analysis.certify.chain:build_certificates": lambda s, r: s[
        "analysis.certify"
    ].bump("findings", len(r.findings())),
    "repro.core.pipeline:Pipeline.run_incremental": _observe_incremental,
}


def _resolve(spec: str) -> tuple[Any, str, Any]:
    """``module:Class.attr`` -> (owner, attribute name, original object)."""
    module_name, _, qualname = spec.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


class LayerTimer:
    """Self-time accounting over wrapped layer entry points."""

    def __init__(self, tracer: Any = None) -> None:
        self.active = False
        self.tracer = tracer
        self.stats: dict[str, LayerStats] = {layer: LayerStats() for layer in LAYERS}
        #: per-entry self seconds (``wcet.cache.key_self_s`` reads one)
        self.entry_self_s: dict[str, float] = {}
        #: wall time inside outermost wrapped calls (== sum of self times)
        self.covered_s = 0.0
        #: code-level and result-tier cache lookups/hits of the traced ops
        self.cache_counts: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._installed: list[tuple[Any, str, Any]] = []
        #: id(module-level wrapper) -> (wrapper, the callable it wraps)
        self._originals: dict[int, tuple[Callable, Any]] = {}

    # ------------------------------------------------------------------ #
    def _wrap(self, layer: str, entry: str, fn: Callable) -> Callable:
        timer = self
        stats = self.stats[layer]
        observe = OBSERVERS.get(entry)
        label = f"{layer}:{entry.rpartition(':')[2]}"

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if not timer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack = timer._stack
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    timer.covered_s += elapsed
                own = elapsed - frame[0]
                stats.self_s += own
                stats.calls += 1
                timer.entry_self_s[entry] = timer.entry_self_s.get(entry, 0.0) + own
                if timer.tracer is not None and elapsed >= MIN_TRACE_SPAN_S:
                    timer.tracer.record_complete(label, started, elapsed, cat="perfbench")
            if observe is not None:
                observe(timer.stats, result)
            return result

        return timed

    def install(self) -> None:
        """Wrap every entry point at every binding the product code uses."""
        if self._installed:
            return
        for layer, spec in LAYERS.items():
            for entry in spec["entries"]:
                if entry == "registry:schedulers":
                    self._install_schedulers(layer)
                    continue
                owner, attr, original = _resolve(entry)
                wrapper = self._wrap(layer, entry, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                    continue
                self._originals[id(wrapper)] = (wrapper, original)
                for module, name, value in _module_bindings():
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _install_schedulers(self, layer: str) -> None:
        from repro.scheduling.registry import (
            available_schedulers,
            get_scheduler,
            register_scheduler,
        )

        for name in available_schedulers():
            entry = get_scheduler(name)
            wrapper = self._wrap(layer, f"registry:{name}", entry.build)
            register_scheduler(name, description=entry.description, replace=True)(wrapper)
            self._installed.append((None, name, entry))

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        from repro.scheduling.registry import register_scheduler

        for owner, attr, original in reversed(self._installed):
            if owner is None:
                register_scheduler(attr, description=original.description, replace=True)(
                    original.build
                )
            else:
                setattr(owner, attr, original)
        self._installed.clear()
        for module, name, value in _module_bindings():
            wrapper, original = self._originals.get(id(value), (None, None))
            if value is wrapper:
                setattr(module, name, original)
        self._originals.clear()

    def bindings(self) -> int:
        return len(self._installed)

    # ------------------------------------------------------------------ #
    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        out: dict[str, tuple[float, str]] = {}
        for layer, stats in self.stats.items():
            out[f"{layer}.self_s"] = (stats.self_s, "s")
            out[f"{layer}.calls"] = (float(stats.calls), "count")
            for name in COUNTS.get(layer, ()):
                out[f"{layer}.{name}"] = (float(stats.counts.get(name, 0)), "count")
        mhp = self.stats["analysis.static_mhp"].counts
        out["analysis.static_mhp.kept_ratio"] = (
            _ratio(mhp.get("pairs_kept", 0), mhp.get("pairs_candidate", 0)), "ratio"
        )
        races = self.stats["analysis.races"].counts
        checked, reused = races.get("pairs_checked", 0), races.get("pairs_reused", 0)
        out["analysis.races.pairs_reused_ratio"] = (_ratio(reused, checked + reused), "ratio")
        system = self.stats["wcet.system_level"]
        out["wcet.system_level.iterations_mean"] = (
            _ratio(system.counts.get("iterations", 0), system.calls), "count"
        )
        out["wcet.system_level.warm_started_ratio"] = (
            _ratio(system.counts.get("warm_started", 0), system.calls), "ratio"
        )
        out["wcet.cache.key_self_s"] = (
            self.entry_self_s.get("repro.wcet.cache:SystemResultCache.result_key", 0.0), "s"
        )
        for tier in ("", "result_"):
            hits = self.cache_counts.get(f"{tier}hits", 0)
            lookups = self.cache_counts.get(f"{tier}lookups", 0)
            out[f"wcet.cache.{tier}hit_ratio"] = (_ratio(hits, lookups), "ratio")
            out[f"wcet.cache.{tier}lookups"] = (float(lookups), "count")
        inc = self.stats["analysis.incremental"].counts
        reused, recomputed = inc.get("regions_reused", 0), inc.get("regions_recomputed", 0)
        out["analysis.incremental.regions_reused_ratio"] = (
            _ratio(reused, reused + recomputed), "ratio"
        )
        out["analysis.incremental.regions_total"] = (float(reused + recomputed), "count")
        out["analysis.incremental.stages_reused"] = (
            float(inc.get("stages_reused", 0)), "count"
        )
        return out

    def add_cache_delta(self, before: tuple[int, ...], after: tuple[int, ...]) -> None:
        """Fold one op's :func:`cache_counters` delta into the totals."""
        for key, b, a in zip(("hits", "lookups", "result_hits", "result_lookups"), before, after):
            self.cache_counts[key] = self.cache_counts.get(key, 0) + a - b


def _module_bindings() -> list[tuple[Any, str, Any]]:
    """(module, name, value) for every global of every loaded ``repro`` module."""
    return [
        (module, name, value)
        for module in list(sys.modules.values())
        if getattr(module, "__name__", "").startswith("repro")
        for name, value in list(vars(module).items())
    ]


def cache_counters(cache: Any) -> tuple[int, int, int, int]:
    """(hits, lookups) of the code-level tier, then of the result tier."""
    code, result = cache.stats, cache.system_results.stats
    return (
        code.hits + code.disk_hits,
        code.lookups,
        result.hits + result.disk_hits,
        result.lookups,
    )


def wrapper_call_cost_s(calls: int = 20_000) -> float:
    """Measured cost of one active wrapper around a no-op call."""

    def noop() -> None:
        return None

    probe = LayerTimer()
    wrapped = probe._wrap("core.pipeline", "probe:noop", noop)
    probe.active = True
    started = time.perf_counter()
    for _ in range(calls):
        wrapped()
    wrapped_s = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(calls):
        noop()
    return max(0.0, wrapped_s - (time.perf_counter() - started)) / calls


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
