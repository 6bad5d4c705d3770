"""Exact branch-and-bound mapping for small task graphs.

Explores task-to-core assignments in topological task order, pruning with a
workload lower bound, and prices every complete assignment (leaf) with
:meth:`~repro.wcet.system_level.SystemDesign.bound`, the bare fixed point
the annealer prices its candidates with.  Only the winning mapping is
analysed in full, through
:func:`~repro.scheduling.schedule.evaluate_mapping`.  Only practical for
small HTGs (the paper notes the problem is NP-hard and motivates the
exact+heuristic mix of experiment E8).

Two rules keep the search small without losing the optimum:

* symmetry breaking: a task may go to any core already used, or to the
  first unused core of each *core class* -- the cores with an equal cost
  signature (:meth:`~repro.wcet.cache.WcetAnalysisCache.model_signature_digest`);
  the shared-access penalty is the platform's, the same for every core
  (:attr:`SystemDesign.penalty`), so it splits no class;
* the lower bound prices each assigned task on its own core and each
  unassigned one on its cheapest allowed core.

On a bus platform two cores of one class are interchangeable, so the search
is exact there, heterogeneous platforms included.  On a mesh NoC the
transfer latency also depends on the cores' tiles, which the classes
ignore: cores of one class in different tiles are still treated as
interchangeable.  Exhaustive checks of 24 synthetic designs on 2x1 and 2x2
meshes of one-core tiles found no missed optimum, and per-tile classes
would multiply the search: 33,082 nodes instead of 249, for the same
bound, on six synthetic kernels and the default 2x2 mesh of two-core tiles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.scheduling.registry import register_scheduler
from repro.scheduling.schedule import Schedule, evaluate_mapping
from repro.wcet.system_level import SystemDesign


@dataclass
class BnBStats:
    """Search statistics reported alongside the optimal schedule."""

    nodes_explored: int = 0
    leaves_evaluated: int = 0
    pruned: int = 0


def _core_classes(design: SystemDesign, core_ids: list[int]) -> list[list[int]]:
    """``core_ids`` grouped into classes of equal cost signature, each class
    in ``core_ids`` order, the classes by first member."""
    classes: dict[str, list[int]] = {}
    for core in core_ids:
        signature = design.cache.model_signature_digest(design.model(core))
        classes.setdefault(signature, []).append(core)
    return list(classes.values())


def branch_and_bound_schedule(
    design: SystemDesign,
    max_cores: int | None = None,
    max_tasks: int = 14,
) -> tuple[Schedule, BnBStats]:
    """Find the mapping of ``design`` with the smallest system-level WCET bound.

    Raises ``ValueError`` when the HTG has more than ``max_tasks`` leaf tasks
    (the search is exponential in the task count).
    """
    topological = design.topological
    if len(topological) > max_tasks:
        raise ValueError(
            f"branch and bound limited to {max_tasks} tasks, HTG has {len(topological)}"
        )
    core_ids = design.core_ids[:max_cores]
    classes = _core_classes(design, core_ids)

    # isolated WCET of each task index on each core, priced once per class
    tasks = range(len(design.leaf_ids))
    wcet: dict[int, list[float]] = {}
    for members in classes:
        row = [design.cost(i, members[0])[0] for i in tasks]
        wcet.update(dict.fromkeys(members, row))
    cheapest = [min(wcet[c][i] for c in core_ids) for i in tasks]
    # remaining[k]: the cheapest work of the tasks not yet assigned at depth k
    remaining = [0.0] * (len(topological) + 1)
    for k in reversed(range(len(topological))):
        remaining[k] = remaining[k + 1] + cheapest[topological[k]]

    stats = BnBStats()
    vector = [core_ids[0]] * len(tasks)
    best: list[int] | None = None
    best_bound = float("inf")

    def lower_bound(depth: int) -> float:
        """Admissible bound: the busiest core's assigned work, and the total
        work balanced over all cores."""
        per_core = dict.fromkeys(core_ids, 0.0)
        for i in topological[:depth]:
            per_core[vector[i]] += wcet[vector[i]][i]
        assigned = sum(per_core.values())
        return max(max(per_core.values()), (assigned + remaining[depth]) / len(core_ids))

    def recurse(depth: int) -> None:
        nonlocal best, best_bound
        stats.nodes_explored += 1
        if depth == len(topological):
            stats.leaves_evaluated += 1
            bound = design.bound(vector)
            if bound < best_bound:
                best_bound = bound
                best = list(vector)
            return
        if lower_bound(depth) >= best_bound:
            stats.pruned += 1
            return
        used = {vector[i] for i in topological[:depth]}
        candidates = sorted(used)
        for members in classes:
            fresh = next((core for core in members if core not in used), None)
            if fresh is not None:
                candidates.append(fresh)
        i = topological[depth]
        for core in candidates:
            vector[i] = core
            recurse(depth + 1)

    with obs.span("schedule.bnb", tasks=len(topological), cores=len(core_ids)) as bnb_span:
        recurse(0)
        bnb_span.set(nodes=stats.nodes_explored, pruned=stats.pruned)
    if obs.obs_enabled():
        registry = obs.metrics()
        registry.counter("bnb.nodes").inc(stats.nodes_explored)
        registry.counter("bnb.leaves").inc(stats.leaves_evaluated)
        registry.counter("bnb.pruned").inc(stats.pruned)
    if best is None:  # pragma: no cover - defensive
        raise RuntimeError("branch and bound failed to produce a schedule")
    winner = {design.leaf_ids[i]: best[i] for i in topological}
    schedule = evaluate_mapping(design, winner, scheduler="bnb")
    schedule.metadata["nodes_explored"] = float(stats.nodes_explored)
    schedule.metadata["pruned"] = float(stats.pruned)
    return schedule, stats


# ---------------------------------------------------------------------- #
# registry adapter (see repro.scheduling.registry)
# ---------------------------------------------------------------------- #
@register_scheduler(
    "bnb", description="exact branch-and-bound mapping for small task graphs"
)
def _bnb_plugin(design: SystemDesign, config) -> Schedule:
    schedule, _ = branch_and_bound_schedule(design, max_cores=config.max_cores)
    return schedule
