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

* every cost comes from one :class:`~repro.wcet.system_level.SystemDesign`,
  the pricing table the final system-level analysis (and, for the
  annealer and branch and bound, their whole search) reads too: task
  WCETs and average-case costs per (task, core), filled once through the
  shared :class:`~repro.wcet.cache.WcetAnalysisCache`, the platform's
  shared-access penalty per contender count (one row, the same for every
  core), and transfer delays per (payload, core pair);
* tasks are design indexes, so predecessors, successors, finish times and
  placements are lists, not task-id dicts;
* costs are read through each core's
  :meth:`~repro.wcet.system_level.SystemDesign.cost_table`, and transfers
  from plain-dict tables filled on first read through
  :meth:`~repro.wcet.system_level.SystemDesign.delay`: the ranks keep one
  delay per payload, placement one table per payload over core pairs,
  and a placement reads each predecessor's finish time, core and delay
  row once for all candidate cores;
* placement prices transfers with ``len(core_ids) - 1`` contending cores,
  so ``max_cores`` also bounds the contention it assumes (ranks and the
  analysis assume every other core of the platform);
* the ready pool is an in-degree-tracked heap keyed on ``(-rank, task_id)``
  instead of a repeated linear scan, preserving the exact selection order of
  the scan (highest rank first, task id as tie break);
* per-core busy intervals are naturally sorted (cores fill left to right),
  so the interference-window overlap test is a bisect, not a full scan.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass

from repro import obs
from repro.scheduling.registry import register_scheduler
from repro.scheduling.schedule import Schedule, evaluate_mapping
from repro.wcet.system_level import SystemDesign


@dataclass
class WcetAwareListScheduler:
    """Configuration of the contention-aware list scheduler."""

    #: Weight of the interference estimate during placement (1.0 = full
    #: worst-case penalty, 0.0 = contention-oblivious placement).
    contention_weight: float = 1.0
    #: Restrict scheduling to the first ``max_cores`` cores (None = all).
    max_cores: int | None = None
    #: Use average-case costs instead of WCETs (the E4 baseline flips this).
    use_average_costs: bool = False

    def _upward_ranks(
        self, design: SystemDesign, succs: list[list[tuple[int, int]]], ref_core: int
    ) -> list[float]:
        """Upward rank: longest path from the task to any sink."""
        # worst-case cross-core transfer with every other core contending,
        # priced between the platform's first two cores, once per payload;
        # on a single-core platform there is no cross-core communication
        comm = design.num_cores > 1
        pair = design.core_ids[:2]
        delays: dict[int, float] = {}
        average = self.use_average_costs
        costs = design.cost_table(ref_core, average)
        ranks = [0.0] * len(succs)
        for i in reversed(design.topological):
            best_succ = 0.0
            for j, payload in succs[i]:
                path = ranks[j]
                if comm and payload:
                    delay = delays.get(payload)
                    if delay is None:
                        delay = delays[payload] = design.delay(payload, *pair)
                    path += delay
                if path > best_succ:
                    best_succ = path
            ranks[i] = (costs[i] or design.cost(i, ref_core, average))[0] + best_succ
        return ranks

    # ------------------------------------------------------------------ #
    def schedule(self, design: SystemDesign) -> Schedule:
        """Map and order ``design``'s HTG, returning an analysed schedule.

        The final analysis reads the same pricing table, so a search seeded
        by this schedule (the annealer) prices its design point once.
        """
        core_ids = design.core_ids[: self.max_cores]
        leaf_ids = design.leaf_ids
        num_tasks = len(leaf_ids)
        succs: list[list[tuple[int, int]]] = [[] for _ in leaf_ids]
        for src, dst, payload in design.leaf_edges:
            succs[src].append((dst, payload))
        ranks = self._upward_ranks(design, succs, core_ids[0])
        average = self.use_average_costs
        contenders = max(0, len(core_ids) - 1)
        pred_rows = design.pred_rows
        # each candidate core's cost table, and its rivals' busy windows
        cost_tables = [design.cost_table(core_id, average) for core_id in core_ids]
        # per payload, its delays over core pairs with this scheduler's
        # contender count: ``delays[payload][src][dst]``, filled on first read
        delays: dict[int, dict[int, dict[int, float]]] = {}

        core_of: list[int] = [0] * num_tasks
        finish: list[float] = [0.0] * num_tasks
        placed: list[int] = []
        order: dict[int, list[str]] = {c: [] for c in core_ids}
        # Per-core busy windows as parallel (starts, ends) lists; cores fill
        # left to right, so both lists are sorted and the windows disjoint.
        busy_starts: dict[int, list[float]] = {c: [] for c in core_ids}
        busy_ends: dict[int, list[float]] = {c: [] for c in core_ids}
        rivals = [
            [(busy_starts[o], busy_ends[o]) for o in core_ids if o != core_id]
            for core_id in core_ids
        ]
        core_ready: dict[int, float] = {c: 0.0 for c in core_ids}

        # Ready set: in-degree tracking plus a heap keyed on (-rank, task_id),
        # which reproduces exactly the priority-ordered linear scan (highest
        # rank first, ties broken by task id).  The ranks walked
        # ``design.topological``, which raises on a cyclic HTG, so the heap
        # places every task, each after all its predecessors.
        indegree = [len(row) for row in pred_rows]
        ready = [(-ranks[i], leaf_ids[i], i) for i in range(num_tasks) if indegree[i] == 0]
        heapq.heapify(ready)

        def place(i: int) -> None:
            # each predecessor's finish, core and delay row, read once
            preds = [
                (
                    finish[pred],
                    core_of[pred],
                    delays.setdefault(payload, {}).setdefault(core_of[pred], {})
                    if payload
                    else None,
                    payload,
                )
                for pred, payload in pred_rows[i]
            ]
            best_core = core_ids[0]
            best_finish = float("inf")
            best_start = 0.0
            for core_id, costs, others in zip(core_ids, cost_tables, rivals):
                ready_deps = 0.0
                for pred_finish, src_core, row, payload in preds:
                    if src_core != core_id and row is not None:
                        delay = row.get(core_id)
                        if delay is None:
                            delay = row[core_id] = design.delay(
                                payload, src_core, core_id, contenders
                            )
                        pred_finish += delay
                    if pred_finish > ready_deps:
                        ready_deps = pred_finish
                start = max(core_ready[core_id], ready_deps)
                duration, shared_accesses = costs[i] or design.cost(i, core_id, average)
                # interference estimate: cores already busy in the window
                window_end = start + max(duration, 1e-9)
                busy_cores = 0
                for starts, ends in others:
                    # rightmost window starting before this one ends; overlap
                    # iff it is still running when this window starts
                    idx = bisect_left(starts, window_end)
                    if idx and ends[idx - 1] > start:
                        busy_cores += 1
                penalty = 0.0
                if not average and shared_accesses:
                    penalty = (
                        self.contention_weight * shared_accesses * design.penalty[busy_cores]
                    )
                candidate_finish = start + duration + penalty
                if candidate_finish < best_finish - 1e-9:
                    best_finish = candidate_finish
                    best_core = core_id
                    best_start = start

            core_of[i] = best_core
            finish[i] = best_finish
            placed.append(i)
            order[best_core].append(leaf_ids[i])
            core_ready[best_core] = best_finish
            busy_starts[best_core].append(best_start)
            busy_ends[best_core].append(best_finish)

        max_ready = len(ready)
        while ready:
            if len(ready) > max_ready:
                max_ready = len(ready)
            _, _, i = heapq.heappop(ready)
            place(i)
            for succ, _ in succs[i]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, (-ranks[succ], leaf_ids[succ], succ))

        if obs.obs_enabled():
            registry = obs.metrics()
            registry.counter("scheduler.list_runs").inc()
            registry.histogram("scheduler.ready_set_max").observe(max_ready)
        mapping = {leaf_ids[i]: core_of[i] for i in placed}
        order = {c: tids for c, tids in order.items() if tids}
        with obs.span(
            "schedule.list",
            tasks=num_tasks,
            cores=len(core_ids),
            average=average,
        ):
            schedule = evaluate_mapping(
                design, mapping, order, scheduler="wcet_list" if not average else "acet_list"
            )
        schedule.metadata["estimated_makespan"] = max(
            (finish[i] for i in placed), default=0.0
        )
        return schedule


# ---------------------------------------------------------------------- #
# registry adapter (see repro.scheduling.registry)
# ---------------------------------------------------------------------- #
@register_scheduler(
    "wcet_list",
    description="contention- and communication-aware WCET-driven list scheduling",
)
def _wcet_list_plugin(design: SystemDesign, config) -> Schedule:
    return WcetAwareListScheduler(
        contention_weight=config.contention_weight, max_cores=config.max_cores
    ).schedule(design)
