"""Cross-layer reports: bottleneck identification and flow summaries.

Paper Section II-E: the cross-layer interface should let end users see
"application bottlenecks ... and the artifacts hindering an efficient
parallelization".  These helpers render that information as plain text.
"""

from __future__ import annotations

from repro.core.pipeline import PipelineResult
from repro.htg.graph import HierarchicalTaskGraph
from repro.scheduling.schedule import Schedule
from repro.utils.tables import Table


def bottleneck_report(htg: HierarchicalTaskGraph, schedule: Schedule, top: int = 5) -> str:
    """The heaviest tasks, their interference share and mapping.

    "wcet" is a task's isolated WCET on the core it is mapped to, so
    "interference" (effective minus isolated) is what contention added;
    "shared accesses" is the count the interference equation multiplied.
    """
    if schedule.result is None:
        return "(schedule not analysed)"
    table = Table(
        ["task", "origin", "core", "wcet", "effective", "interference", "shared accesses"],
        title="bottleneck tasks (by effective WCET)",
    )
    effective = schedule.result.task_effective_wcet
    base = schedule.result.task_base_wcet
    shared = schedule.result.task_shared_accesses
    ranked = sorted(effective.items(), key=lambda kv: -kv[1])[:top]
    for tid, eff in ranked:
        task = htg.task(tid)
        table.add_row(
            [
                tid,
                task.origin,
                schedule.mapping[tid],
                base[tid],
                eff,
                eff - base[tid],
                shared[tid],
            ]
        )
    return table.render()


def fixed_point_report(schedule: Schedule) -> str:
    """Convergence evidence of the system-level fixed point.

    Renders the iteration count, the convergence verdict and the final
    maximum per-task delta; when the schedule was analysed under
    observability the per-iteration delta curve is included, which makes
    contraction (or the lack of it) visible at a glance.
    """
    result = schedule.result
    if result is None:
        return "(schedule not analysed)"
    lines = [
        "system fixed point",
        f"  iterations : {result.iterations}",
        f"  converged  : {'yes' if result.converged else 'NO (iteration cap hit)'}",
        f"  final delta: {result.final_delta:.6g} cycles",
    ]
    if result.iteration_deltas:
        curve = ", ".join(f"{d:.6g}" for d in result.iteration_deltas)
        lines.append(f"  delta curve: [{curve}]")
    return "\n".join(lines)


def toolchain_summary(result: PipelineResult) -> str:
    """End-to-end summary of one flow run (the Fig. 1 pipeline outcome)."""
    schedule = result.schedule
    lines = [
        f"application      : {result.diagram_name}",
        f"platform         : {result.platform_name}",
        f"scheduler        : {schedule.scheduler}",
        f"tasks            : {len(result.htg.leaf_tasks())}",
        f"cores used       : {schedule.num_cores_used}",
        f"sequential WCET  : {result.sequential_wcet:.0f} cycles",
        f"parallel WCET    : {result.system_wcet:.0f} cycles",
        f"WCET speed-up    : {result.wcet_speedup:.2f}x",
        f"sync operations  : {result.parallel_program.num_sync_ops}",
        f"shared footprint : {result.parallel_program.shared_footprint_bytes()} bytes",
    ]
    if schedule.result is not None:
        lines.append(f"interference     : {schedule.result.interference_cycles:.0f} cycles")
        lines.append(f"communication    : {schedule.result.communication_cycles:.0f} cycles")
    utilization = schedule.utilization()
    for core in sorted(utilization):
        lines.append(f"core {core} utilisation: {100 * utilization[core]:.1f}%")
    lines.append("")
    lines.append(fixed_point_report(schedule))
    lines.append("")
    lines.append(bottleneck_report(result.htg, schedule))
    return "\n".join(lines)
