"""Exact branch-and-bound mapping for small task graphs.

Explores task-to-core assignments in topological task order, pruning with a
critical-path/workload lower bound, and evaluates complete assignments with
the full system-level WCET analysis.  Only practical for small HTGs (the
paper notes the problem is NP-hard and motivates the exact+heuristic mix of
experiment E8).

Unlike the metaheuristics, which price candidates with the bare fixed point
(:meth:`~repro.wcet.system_level.SystemDesign.bound`) and keep one search
record, every leaf here goes through
:func:`~repro.scheduling.schedule.evaluate_mapping` and the result tier:
the search reports :class:`BnBStats`, which a replayed search record could
not.
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

    # the lower bound's WCETs and every evaluated leaf price the design
    # point through the one design
    order = [design.leaf_ids[i] for i in topological]
    wcets = {tid: design.cost(i, core_ids[0])[0] for tid, i in zip(order, topological)}
    total_work = sum(wcets.values())

    stats = BnBStats()
    best_schedule: Schedule | None = None
    best_bound = float("inf")

    def lower_bound(mapping: dict[str, int], next_index: int) -> float:
        """Simple admissible bound: balanced remaining work over all cores."""
        per_core: dict[int, float] = {c: 0.0 for c in core_ids}
        for tid, core in mapping.items():
            per_core[core] += wcets[tid]
        assigned = sum(per_core.values())
        remaining = total_work - assigned
        # Even with perfect balance, the busiest core does at least this much.
        return max(max(per_core.values(), default=0.0), (assigned + remaining) / len(core_ids))

    def recurse(index: int, mapping: dict[str, int]) -> None:
        nonlocal best_schedule, best_bound
        stats.nodes_explored += 1
        if index == len(order):
            stats.leaves_evaluated += 1
            schedule = evaluate_mapping(design, mapping, scheduler="bnb")
            if schedule.wcet_bound < best_bound:
                best_bound = schedule.wcet_bound
                best_schedule = schedule
            return
        if lower_bound(mapping, index) >= best_bound:
            stats.pruned += 1
            return
        tid = order[index]
        # Symmetry breaking: the first task only considers the first core, and
        # each task may use at most one "fresh" (so far unused) core.
        used = sorted(set(mapping.values()))
        candidates: list[int] = list(used)
        for core in core_ids:
            if core not in used:
                candidates.append(core)
                break
        for core in candidates:
            mapping[tid] = core
            recurse(index + 1, mapping)
            del mapping[tid]

    with obs.span("schedule.bnb", tasks=len(order), cores=len(core_ids)) as bnb_span:
        recurse(0, {})
        bnb_span.set(nodes=stats.nodes_explored, pruned=stats.pruned)
    if obs.obs_enabled():
        registry = obs.metrics()
        registry.counter("bnb.nodes").inc(stats.nodes_explored)
        registry.counter("bnb.leaves").inc(stats.leaves_evaluated)
        registry.counter("bnb.pruned").inc(stats.pruned)
    if best_schedule is None:  # pragma: no cover - defensive
        raise RuntimeError("branch and bound failed to produce a schedule")
    best_schedule.metadata["nodes_explored"] = float(stats.nodes_explored)
    best_schedule.metadata["pruned"] = float(stats.pruned)
    return best_schedule, stats


# ---------------------------------------------------------------------- #
# registry adapter (see repro.scheduling.registry)
# ---------------------------------------------------------------------- #
@register_scheduler(
    "bnb", description="exact branch-and-bound mapping for small task graphs"
)
def _bnb_plugin(design: SystemDesign, config) -> Schedule:
    schedule, _ = branch_and_bound_schedule(design, max_cores=config.max_cores)
    return schedule
