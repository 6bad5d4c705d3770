"""Contention-aware WCET-driven list scheduling (the main ARGO heuristic).

A HEFT-style list scheduler whose costs are worst-case quantities:

* task priorities are upward ranks computed from task WCETs plus worst-case
  communication costs;
* when placing a task on a candidate core, the estimated finish time includes
  (i) worst-case communication from predecessors mapped to other cores and
  (ii) an interference estimate: the task's worst-case shared-access count
  times the interconnect penalty for the number of cores already busy in the
  candidate window -- this is what makes the scheduler prefer placements that
  limit the number of simultaneous shared-resource contenders (paper
  Section II: "the number of shared resource contenders ... is reduced during
  parallelization to avoid overly pessimistic WCET estimates").

The returned schedule is always re-analysed with the full system-level WCET
analysis, so the reported bound is sound regardless of estimation error.

Implementation notes (hot path):

* task WCETs are memoized in a :class:`~repro.wcet.cache.WcetAnalysisCache`
  shared with the final system-level analysis, so each distinct (task, core
  cost signature) pair is analysed exactly once;
* the ready pool is an in-degree-tracked heap keyed on ``(-rank, task_id)``
  instead of a repeated linear scan, preserving the exact selection order of
  the scan (highest rank first, task id as tie break);
* predecessor/successor adjacency and per-edge communication latencies are
  precomputed/memoized instead of re-scanning ``htg.edges`` per placement;
* per-core busy intervals are naturally sorted (cores fill left to right),
  so the interference-window overlap test is a bisect, not a full scan.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field

from repro import obs
from repro.adl.architecture import Platform
from repro.htg.graph import HierarchicalTaskGraph
from repro.ir.program import Function
from repro.scheduling.registry import register_scheduler
from repro.scheduling.schedule import Schedule, evaluate_mapping
from repro.wcet.cache import WcetAnalysisCache, shared_cache
from repro.wcet.code_level import analyze_task_wcet
from repro.wcet.hardware_model import HardwareCostModel
from repro.wcet.system_level import SystemDesign


@dataclass
class WcetAwareListScheduler:
    """Configuration of the contention-aware list scheduler."""

    platform: Platform
    #: Weight of the interference estimate during placement (1.0 = full
    #: worst-case penalty, 0.0 = contention-oblivious placement).
    contention_weight: float = 1.0
    #: Restrict scheduling to the first ``max_cores`` cores (None = all).
    max_cores: int | None = None
    #: Use average-case costs instead of WCETs (the E4 baseline flips this).
    use_average_costs: bool = False
    #: Shared memo of code-level analyses; pass one cache to share results
    #: with other schedulers / the system-level analysis, or leave ``None``
    #: to use the process-wide (possibly disk-backed) shared cache.
    cache: WcetAnalysisCache | None = None

    _models: dict[int, HardwareCostModel] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if self.cache is None:
            self.cache = shared_cache()

    def _core_ids(self) -> list[int]:
        ids = [c.core_id for c in self.platform.cores]
        if self.max_cores is not None:
            ids = ids[: self.max_cores]
        return ids

    def _model(self, core_id: int) -> HardwareCostModel:
        if core_id not in self._models:
            self._models[core_id] = HardwareCostModel(self.platform, core_id)
        return self._models[core_id]

    # ------------------------------------------------------------------ #
    def _task_cost(self, htg: HierarchicalTaskGraph, function: Function, tid: str, core_id: int) -> float:
        task = htg.task(tid)
        breakdown = analyze_task_wcet(
            task, function, self._model(core_id), average=self.use_average_costs, cache=self.cache
        )
        return breakdown.total

    def _upward_ranks(self, htg: HierarchicalTaskGraph, function: Function, core_ids: list[int]) -> dict[str, float]:
        """Upward rank: longest path from the task to any sink."""
        ref_core = core_ids[0]
        cost = {
            t.task_id: self._task_cost(htg, function, t.task_id, ref_core)
            for t in htg.leaf_tasks()
        }
        num_cores = self.platform.num_cores
        avg_comm = {}
        if num_cores > 1:
            for edge in htg.edges:
                if edge.payload_bytes:
                    # Worst-case cross-core transfer with every other core
                    # contending; on a single-core platform there is no
                    # cross-core communication at all (guard above).
                    avg_comm[(edge.src, edge.dst)] = self.platform.communication_latency(
                        edge.payload_bytes, 0, 1, num_cores - 1
                    )
        ranks: dict[str, float] = {}
        for task in reversed(htg.topological_tasks()):
            if task.is_synthetic:
                continue
            tid = task.task_id
            best_succ = 0.0
            for succ in htg.successors(tid):
                if succ not in cost:
                    continue
                best_succ = max(best_succ, ranks.get(succ, 0.0) + avg_comm.get((tid, succ), 0.0))
            ranks[tid] = cost[tid] + best_succ
        return ranks

    # ------------------------------------------------------------------ #
    def schedule(
        self,
        htg: HierarchicalTaskGraph,
        function: Function,
        design: SystemDesign | None = None,
    ) -> Schedule:
        """Map and order the HTG, returning an analysed schedule.

        ``design`` is forwarded to the final analysis, so a search seeded
        by this schedule (the annealer, the genetic algorithm) prices its
        design point once.
        """
        core_ids = self._core_ids()
        ranks = self._upward_ranks(htg, function, core_ids)
        leaf_tasks = {t.task_id: t for t in htg.leaf_tasks()}

        # Adjacency and payloads, precomputed once instead of scanning
        # ``htg.edges`` inside the placement loop.
        preds: dict[str, list[str]] = {tid: [] for tid in leaf_tasks}
        succs: dict[str, list[str]] = {tid: [] for tid in leaf_tasks}
        payload: dict[tuple[str, str], int] = {}
        for edge in htg.edges:
            if edge.src in leaf_tasks and edge.dst in leaf_tasks:
                preds[edge.dst].append(edge.src)
                succs[edge.src].append(edge.dst)
                if edge.payload_bytes:
                    payload[(edge.src, edge.dst)] = edge.payload_bytes

        # Per-edge communication latency table, filled on first use (the
        # latency depends only on the edge payload and the core pair).
        comm_contenders = max(0, len(core_ids) - 1)
        comm_table: dict[tuple[str, str, int, int], float] = {}

        def comm_latency(pred: str, tid: str, src_core: int, dst_core: int) -> float:
            if src_core == dst_core:
                return 0.0
            bytes_ = payload.get((pred, tid))
            if not bytes_:
                return 0.0
            key = (pred, tid, src_core, dst_core)
            delay = comm_table.get(key)
            if delay is None:
                delay = self.platform.communication_latency(
                    bytes_, src_core, dst_core, comm_contenders
                )
                comm_table[key] = delay
            return delay

        mapping: dict[str, int] = {}
        order: dict[int, list[str]] = {c: [] for c in core_ids}
        finish: dict[str, float] = {}
        # Per-core busy windows as parallel (starts, ends) lists; cores fill
        # left to right, so both lists are sorted and the windows disjoint.
        busy_starts: dict[int, list[float]] = {c: [] for c in core_ids}
        busy_ends: dict[int, list[float]] = {c: [] for c in core_ids}
        core_ready: dict[int, float] = {c: 0.0 for c in core_ids}

        # Ready set: in-degree tracking plus a heap keyed on (-rank, task_id),
        # which reproduces exactly the priority-ordered linear scan (highest
        # rank first, ties broken by task id).
        indegree = {tid: len(preds[tid]) for tid in leaf_tasks}
        ready = [(-ranks[tid], tid) for tid, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)

        def place(tid: str) -> None:
            task = leaf_tasks[tid]
            best_core = core_ids[0]
            best_finish = float("inf")
            best_start = 0.0
            for core_id in core_ids:
                ready_deps = 0.0
                for pred in preds[tid]:
                    if pred not in finish:
                        continue
                    delay = comm_latency(pred, tid, mapping[pred], core_id)
                    ready_deps = max(ready_deps, finish[pred] + delay)
                start = max(core_ready[core_id], ready_deps)
                duration = self._task_cost(htg, function, tid, core_id)
                # interference estimate: cores already busy in the window
                window_end = start + max(duration, 1e-9)
                busy_cores = 0
                for other_core in core_ids:
                    if other_core == core_id:
                        continue
                    starts = busy_starts[other_core]
                    # rightmost window starting before this one ends; overlap
                    # iff it is still running when this window starts
                    idx = bisect_left(starts, window_end)
                    if idx and busy_ends[other_core][idx - 1] > start:
                        busy_cores += 1
                penalty = 0.0
                if not self.use_average_costs and task.total_shared_accesses:
                    penalty = (
                        self.contention_weight
                        * task.total_shared_accesses
                        * self._model(core_id).shared_access_penalty(busy_cores)
                    )
                candidate_finish = start + duration + penalty
                if candidate_finish < best_finish - 1e-9:
                    best_finish = candidate_finish
                    best_core = core_id
                    best_start = start

            mapping[tid] = best_core
            order[best_core].append(tid)
            finish[tid] = best_finish
            core_ready[best_core] = best_finish
            busy_starts[best_core].append(best_start)
            busy_ends[best_core].append(best_finish)

        max_ready = len(ready)
        while ready:
            if len(ready) > max_ready:
                max_ready = len(ready)
            _, tid = heapq.heappop(ready)
            place(tid)
            for succ in succs[tid]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, (-ranks[succ], succ))
        if len(mapping) < len(leaf_tasks):
            # fall back to priority order (should not happen on a DAG)
            for tid in sorted(leaf_tasks, key=lambda t: (-ranks[t], t)):
                if tid not in mapping:
                    place(tid)

        if obs.obs_enabled():
            registry = obs.metrics()
            registry.counter("scheduler.list_runs").inc()
            registry.histogram("scheduler.ready_set_max").observe(max_ready)
        order = {c: tids for c, tids in order.items() if tids}
        with obs.span(
            "schedule.list",
            tasks=len(leaf_tasks),
            cores=len(core_ids),
            average=self.use_average_costs,
        ):
            schedule = evaluate_mapping(
                htg, function, self.platform, mapping, order,
                scheduler="wcet_list" if not self.use_average_costs else "acet_list",
                cache=self.cache,
                design=design,
            )
        schedule.metadata["estimated_makespan"] = max(finish.values(), default=0.0)
        return schedule


# ---------------------------------------------------------------------- #
# registry adapter (see repro.scheduling.registry)
# ---------------------------------------------------------------------- #
@register_scheduler(
    "wcet_list",
    description="contention- and communication-aware WCET-driven list scheduling",
)
def _wcet_list_plugin(htg, function, platform, config, cache) -> Schedule:
    return WcetAwareListScheduler(
        platform=platform,
        contention_weight=config.contention_weight,
        max_cores=config.max_cores,
        cache=cache,
    ).schedule(htg, function)
