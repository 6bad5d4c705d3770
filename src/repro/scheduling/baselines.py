"""Baseline schedulers the experiments compare against.

* :func:`sequential_schedule` -- everything on one core (the starting point of
  every speed-up figure);
* :func:`acet_driven_schedule` -- a scheduler that optimises for average-case
  execution times and ignores contention, the way an HPC-oriented
  parallelization would (paper Section III-C: parallel programs "written by
  HPC experts, who aim at improving average performance, and often ignore
  predictability issues").
"""

from __future__ import annotations

from repro.scheduling.list_scheduler import WcetAwareListScheduler
from repro.scheduling.registry import register_scheduler
from repro.scheduling.schedule import Schedule, evaluate_mapping
from repro.wcet.system_level import SystemDesign


def sequential_schedule(design: SystemDesign, core_id: int | None = None) -> Schedule:
    """All tasks on a single core (the first by default), in topological order."""
    core = core_id if core_id is not None else design.core_ids[0]
    mapping = {tid: core for tid in design.leaf_ids}
    return evaluate_mapping(design, mapping, scheduler="sequential")


def acet_driven_schedule(design: SystemDesign, max_cores: int | None = None) -> Schedule:
    """List scheduling driven by average-case costs, contention-oblivious.

    The placement decisions use optimistic average-case task costs and no
    interference estimate; the resulting schedule is then analysed with the
    full (sound) system-level WCET analysis, which is typically much worse
    than what the WCET-aware scheduler achieves -- that gap is experiment E4.
    """
    scheduler = WcetAwareListScheduler(
        contention_weight=0.0, max_cores=max_cores, use_average_costs=True
    )
    schedule = scheduler.schedule(design)
    schedule.scheduler = "acet_list"
    return schedule


# ---------------------------------------------------------------------- #
# registry adapters (see repro.scheduling.registry)
# ---------------------------------------------------------------------- #
@register_scheduler("sequential", description="all tasks on one core, topological order")
def _sequential_plugin(design: SystemDesign, config) -> Schedule:
    return sequential_schedule(design)


@register_scheduler(
    "acet_list", description="average-case-driven, contention-oblivious list scheduling"
)
def _acet_list_plugin(design: SystemDesign, config) -> Schedule:
    return acet_driven_schedule(design, max_cores=config.max_cores)
