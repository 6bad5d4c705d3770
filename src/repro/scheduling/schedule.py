"""Schedule representation and mapping evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adl.architecture import Platform
from repro.htg.graph import HierarchicalTaskGraph
from repro.ir.program import Function
from repro.utils.graphs import Reachability
from repro.utils.intervals import Interval, total_busy_time
from repro.wcet.system_level import (
    SystemDesign,
    SystemWcetResult,
    default_rows,
    system_level_wcet,
)


class ScheduleError(ValueError):
    """Raised for inconsistent schedules."""


@dataclass
class Schedule:
    """A mapping + per-core ordering of HTG tasks, with its analysed timing.

    ``wcet_bound`` (the makespan of the system-level analysis) is the
    guaranteed multi-core WCET the ARGO flow reports for this schedule.
    """

    htg_name: str
    mapping: dict[str, int]
    order: dict[int, list[str]]
    result: SystemWcetResult | None = None
    scheduler: str = ""
    metadata: dict[str, float] = field(default_factory=dict)

    @property
    def wcet_bound(self) -> float:
        if self.result is None:
            raise ScheduleError("schedule has not been analysed yet")
        return self.result.makespan

    @property
    def num_cores_used(self) -> int:
        return len({core for core in self.mapping.values()})

    def utilization(self) -> dict[int, float]:
        """Busy-time fraction per core (needs an analysed result)."""
        if self.result is None:
            raise ScheduleError("schedule has not been analysed yet")
        makespan = max(self.result.makespan, 1e-9)
        busy: dict[int, list[Interval]] = {}
        for tid, interval in self.result.task_intervals.items():
            busy.setdefault(self.mapping[tid], []).append(interval)
        return {core: total_busy_time(ivs) / makespan for core, ivs in busy.items()}

    def validate(
        self,
        htg: HierarchicalTaskGraph,
        platform: Platform,
        closure: Reachability[str] | None = None,
    ) -> None:
        """Raise :class:`ScheduleError` unless the schedule maps and orders
        exactly the HTG's leaf tasks on the platform's cores, and its order
        waits in no cycle (:meth:`check_order`, on ``closure`` when given)."""
        leaf_ids = {t.task_id for t in htg.leaf_tasks()}
        mapped = set(self.mapping)
        if mapped != leaf_ids:
            raise ScheduleError(
                f"mapping covers {len(mapped)} tasks, HTG has {len(leaf_ids)}"
            )
        valid_cores = {c.core_id for c in platform.cores}
        for tid, core in self.mapping.items():
            if core not in valid_cores:
                raise ScheduleError(f"task {tid!r} mapped to unknown core {core}")
        ordered = [tid for tids in self.order.values() for tid in tids]
        if len(ordered) != len(mapped) or set(ordered) != mapped:
            raise ScheduleError("core orders do not cover exactly the mapped tasks")
        for core, tids in self.order.items():
            for tid in tids:
                if self.mapping[tid] != core:
                    raise ScheduleError(
                        f"task {tid!r} is ordered on core {core} but mapped to "
                        f"core {self.mapping[tid]}"
                    )
        self.check_order(htg, closure)

    def check_order(
        self, htg: HierarchicalTaskGraph, closure: Reachability[str] | None = None
    ) -> None:
        """Raise :class:`ScheduleError` when a task reaches itself in the
        schedule's happens-before closure: the HTG's dependences plus each
        core's chain of tasks (:func:`repro.analysis.races.happens_before`).

        Each core runs its tasks in ``order`` and a task waits for its
        producers, so a cycle through both kinds of edge is a wait that
        never ends, even when every core's order respects the dependences
        on its own: core 0 running ``[a1, b1]`` and core 1 ``[a2, b2]``
        with ``b1 -> a2`` and ``b2 -> a1`` deadlocks.  ``closure`` is that
        closure when the caller has it (the parallel stage hands on the race
        check's, so one closure decides deadlock, races and sync
        placement); otherwise it is built here.
        """
        if closure is None:
            from repro.analysis.races import happens_before

            closure = happens_before(htg, self.order)
        if any(mask >> i & 1 for i, mask in enumerate(closure.descendants)):
            raise ScheduleError("cyclic wait between core order and dependences")

    def race_findings(self, htg: HierarchicalTaskGraph, function: Function):
        """Static race check of this schedule (see :mod:`repro.analysis.races`).

        Returns the checker's :class:`~repro.analysis.report.AnalysisReport`;
        ``report.ok`` means every conflicting cross-core pair is ordered.
        """
        from repro.analysis.races import check_schedule_races

        return check_schedule_races(htg, self, function)

    def certify(self, htg: HierarchicalTaskGraph, platform: Platform):
        """Independently re-validate this schedule's timing claims.

        Builds this schedule's certificate and returns the schedule
        checker's :class:`~repro.analysis.report.AnalysisReport` (see
        :mod:`repro.analysis.certify`) -- no error-severity finding means
        the claimed WCET bound and the fixed point behind it survived
        independent re-validation.
        """
        from repro.analysis.certify import (
            build_schedule_certificate,
            check_schedule_certificate,
        )

        if self.result is None:
            raise ScheduleError("schedule has not been analysed yet")
        return check_schedule_certificate(
            build_schedule_certificate(self, htg, platform), htg, platform
        )

    def gantt(self) -> str:
        """Small text Gantt chart for reports."""
        if self.result is None:
            return "(unanalysed schedule)"
        lines = [f"schedule [{self.scheduler}] WCET bound = {self.wcet_bound:.0f} cycles"]
        for core in sorted(self.order):
            entries = sorted(self.order[core], key=lambda t: self.result.task_intervals[t].start)
            parts = [
                f"{tid}@{self.result.task_intervals[tid].start:.0f}-{self.result.task_intervals[tid].end:.0f}"
                for tid in entries
            ]
            lines.append(f"  core {core}: " + ", ".join(parts))
        return "\n".join(lines)


def default_core_order(htg: HierarchicalTaskGraph, mapping: dict[str, int]) -> dict[int, list[str]]:
    """Per-core ordering derived from the HTG topological order.

    Tasks on each core execute in global topological order, which is always
    dependence-consistent (:func:`~repro.wcet.system_level.default_rows`,
    which the searches' candidate pricing applies too).
    """
    tasks = (
        task.task_id
        for task in htg.topological_tasks()
        if not task.is_synthetic and task.task_id in mapping
    )
    return default_rows(tasks, mapping.__getitem__)


def evaluate_mapping(
    design: SystemDesign,
    mapping: dict[str, int],
    order: dict[int, list[str]] | None = None,
    scheduler: str = "",
) -> Schedule:
    """Run the system-level WCET analysis of ``design`` on a mapping and
    wrap it (``order`` defaults to :func:`default_core_order`).

    Every schedule a scheduler returns is analysed here, once: the list
    scheduler's, and the winner of branch and bound or the annealer, which
    price their candidates with
    :meth:`~repro.wcet.system_level.SystemDesign.bound` instead.  A
    scheduler passes its one design to every call, so the design point is
    priced once.
    """
    order = order or default_core_order(design.htg, mapping)
    result = system_level_wcet(design, mapping, order)
    return Schedule(
        htg_name=design.htg.name,
        mapping=dict(mapping),
        order={c: list(t) for c, t in order.items()},
        result=result,
        scheduler=scheduler,
    )
