"""WCET-aware scheduling and mapping of HTG tasks onto the platform.

The paper (Sections II-B, III-C) frames this as a combinatorial optimisation
problem to be attacked with "a combination of exact techniques and advanced
heuristics"; this package provides:

* :class:`~repro.scheduling.list_scheduler.WcetAwareListScheduler` -- the
  production heuristic: contention- and communication-aware list scheduling
  driven by upward ranks computed from WCETs;
* :func:`~repro.scheduling.bnb.branch_and_bound_schedule` -- an exact
  branch-and-bound mapper for small task graphs;
* :func:`~repro.scheduling.metaheuristics.simulated_annealing_schedule` --
  simulated annealing for larger graphs;
* :mod:`~repro.scheduling.baselines` -- the comparison points used by the
  experiments (sequential, average-case-driven);
* :mod:`~repro.scheduling.registry` -- the plugin registry the pipeline's
  ``schedule`` stage resolves ``ToolchainConfig.scheduler`` through.  The five
  built-in schedulers self-register on import of this package; third parties
  add strategies with :func:`~repro.scheduling.registry.register_scheduler`.

Branch and bound and the annealer price their candidate mappings one way,
with :meth:`~repro.wcet.system_level.SystemDesign.bound`, and analyse only
the schedule they return, through
:func:`~repro.scheduling.schedule.evaluate_mapping`.
"""

from repro.scheduling.registry import (
    RegisteredScheduler,
    SchedulerRegistryError,
    available_schedulers,
    get_scheduler,
    register_scheduler,
    unregister_scheduler,
)
from repro.scheduling.schedule import Schedule, ScheduleError, default_core_order, evaluate_mapping
from repro.scheduling.list_scheduler import WcetAwareListScheduler
from repro.scheduling.bnb import branch_and_bound_schedule
from repro.scheduling.metaheuristics import simulated_annealing_schedule
from repro.scheduling.baselines import sequential_schedule, acet_driven_schedule

__all__ = [
    "RegisteredScheduler",
    "SchedulerRegistryError",
    "available_schedulers",
    "get_scheduler",
    "register_scheduler",
    "unregister_scheduler",
    "Schedule",
    "ScheduleError",
    "default_core_order",
    "evaluate_mapping",
    "WcetAwareListScheduler",
    "branch_and_bound_schedule",
    "simulated_annealing_schedule",
    "sequential_schedule",
    "acet_driven_schedule",
]
