"""Static data-race check for a scheduled HTG.

Given the HTG, a core mapping and per-core task orders, the checker builds
the schedule's happens-before closure (:func:`happens_before`):

* every HTG dependence edge (the tasks run in order on one core, or the
  dependence is ordered across cores by the program's syncs);
* consecutive tasks on the same core (program order).

That closure must order every pair of tasks that conflict on a *shared*
variable (write-write or read-write on a ``SHARED`` / ``INPUT`` /
``OUTPUT`` declaration); an unordered conflicting pair mapped to
different cores is reported as a race -- before any C code is emitted.
The closure is built once per schedule, here: :func:`incremental_race_check`
returns it, and the parallel stage hands it to
:func:`~repro.parallel.model.build_parallel_program`, whose schedule check
(:meth:`~repro.scheduling.schedule.Schedule.check_order`: a cyclic wait is
a task that reaches itself) and sync placement (a sync only on the
cross-core dependences the rest of the closure does not already order)
read the same bitsets.  The C emitter re-checks with :func:`scan_races`
against the closure the printed program itself enforces.

Sibling loop chunks of the same split loop conflict at name granularity
by construction (they touch the same buffers), so their disjointness is
no longer assumed but *proved*: the memory-footprint analysis
(:mod:`repro.analysis.footprints`) must show the index slices they access
conflict-free (no write-write or write-read overlap).  A chunk pair whose
disjointness cannot be discharged is reported as a
``race.chunk-overlap-unproven`` **warning** -- soundness-relevant but
survivable, and never a silent pass.

Every check is a full scan: an edit round re-checks every pair, and
reuses only the footprints memoized on the statement blocks it shares
with earlier runs (:class:`~repro.analysis.footprints.FootprintStore`).
"""

from __future__ import annotations

from repro.analysis.footprints import (
    FootprintStore,
    TaskFootprint,
    footprints_conflict_free,
)
from repro.analysis.report import AnalysisReport, Finding
from repro.htg.graph import HierarchicalTaskGraph
from repro.htg.task import Task, TaskKind
from repro.ir import analysis as ir_analysis
from repro.ir.program import Function
from repro.utils.graphs import Reachability
from repro.wcet.cache import shared_cache


def _chunk_siblings(a: Task, b: Task) -> bool:
    """True for loop chunks of the same split loop (intended to be disjoint)."""
    return (
        a.kind is TaskKind.LOOP_CHUNK
        and b.kind is TaskKind.LOOP_CHUNK
        and a.parent is not None
        and a.parent == b.parent
    )


def happens_before(
    htg: HierarchicalTaskGraph, order: dict[int, list[str]]
) -> Reachability[str]:
    """The happens-before closure of a schedule: the HTG's dependences plus
    each core's chain of tasks in ``order``, as per-task bitsets (a task
    listed in ``order`` but absent from the HTG is a node too).

    On a cyclic wait the closure is the least fixed point, and each task
    on the cycle reaches itself.
    """
    pairs = htg.edge_pairs()
    for core_tasks in order.values():
        pairs.extend(zip(core_tasks, core_tasks[1:]))
    return Reachability(htg.tasks.keys(), pairs)


def _bump_nonzero(report: AnalysisReport, counter: str, amount: int) -> None:
    # pair counters appear in ``checked`` only once they count something
    if amount:
        report.bump(counter, amount)


def _report_conflict(
    a: Task,
    b: Task,
    shared_names: frozenset[str],
    mapping: dict[str, int],
    function: Function,
    report: AnalysisReport,
    footprint_of,
) -> None:
    """Verdict on one unordered pair that conflicts at name granularity."""
    write_write = a.writes & b.writes & shared_names
    write_read = (a.writes & b.reads | a.reads & b.writes) & shared_names
    conflict = sorted(write_write | write_read)
    if _chunk_siblings(a, b):
        if footprints_conflict_free(footprint_of(a), footprint_of(b)):
            report.bump("chunk_pairs_proved_disjoint")
            return
        report.add(
            Finding(
                code="race.chunk-overlap-unproven",
                message=(
                    f"sibling loop chunks {a.task_id!r} and {b.task_id!r} "
                    f"conflict on shared variable(s) {', '.join(conflict)} "
                    "and the footprint analysis cannot prove the accessed "
                    "index slices disjoint"
                ),
                function=function.name,
                subject=f"{a.task_id}<->{b.task_id}",
                severity="warning",
            )
        )
        return
    kind = "write-write" if write_write else "write-read"
    report.add(
        Finding(
            code=f"race.{kind}",
            message=(
                f"tasks {a.task_id!r} (core {mapping[a.task_id]}) and "
                f"{b.task_id!r} (core {mapping[b.task_id]}) access shared "
                f"variable(s) {', '.join(conflict)} without a "
                "happens-before ordering"
            ),
            function=function.name,
            subject=f"{a.task_id}<->{b.task_id}",
        )
    )


def incremental_race_check(
    htg: HierarchicalTaskGraph,
    mapping: dict[str, int],
    order: dict[int, list[str]],
    function: Function,
    store: FootprintStore | None = None,
) -> tuple[AnalysisReport, Reachability[str]]:
    """Race check of every pair of mapped tasks: the report and the
    schedule's happens-before closure (:func:`happens_before`) it checked
    against.

    The closure is the one the schedule needs: the parallel stage hands it
    to :func:`~repro.parallel.model.build_parallel_program`, which checks
    the order and places the syncs on it.  The name and the tuple are kept
    because perfbench's layer timer binds this function and reads the
    report as its ``[0]``; :func:`check_races` is the plain form.
    ``store`` memoizes the footprints of chunk pairs that need a proof
    (the shared cache's ``footprints`` store by default).
    """
    closure = happens_before(htg, order)
    return scan_races(htg, mapping, function, closure, store), closure


def scan_races(
    htg: HierarchicalTaskGraph,
    mapping: dict[str, int],
    function: Function,
    closure: Reachability[str],
    store: FootprintStore | None = None,
) -> AnalysisReport:
    """Race check of every pair of mapped tasks against a happens-before
    ``closure`` over the HTG's task ids: the schedule's
    (:func:`incremental_race_check`) or the one a printed program enforces
    (:func:`~repro.parallel.codegen.parallel_program_to_c`).

    Pairs are handled as bitsets: per task, the partners it must be checked
    against are one mask, split into ordered, non-conflicting and
    conflicting partners by the closure and per-name reader/writer masks.
    Only the unordered conflicting pairs -- the ones that yield a finding
    or need a footprint proof -- run per-pair code, in the order a pairwise
    scan of the mapped tasks would visit them.
    """
    report = AnalysisReport("race_checker")
    shared_arrays, shared_scalars = ir_analysis.shared_names(function)
    shared_names = shared_arrays | shared_scalars
    store = store if store is not None else shared_cache().footprints
    fp_cache: dict[str, TaskFootprint] = {}

    def footprint_of(task: Task) -> TaskFootprint:
        if task.task_id not in fp_cache:
            fp_cache[task.task_id] = store.footprint(function, task)
        return fp_cache[task.task_id]

    tasks = [t for t in htg.leaf_tasks() if t.task_id in mapping]
    report.bump("tasks", len(tasks))
    report.bump("shared_variables", len(shared_names))

    position = {t.task_id: i for i, t in enumerate(tasks)}
    by_id = {t.task_id: t for t in tasks}
    readers: dict[str, int] = {}
    writers: dict[str, int] = {}
    for t in tasks:
        bit = 1 << closure.index[t.task_id]
        for name in t.reads & shared_names:
            readers[name] = readers.get(name, 0) | bit
        for name in t.writes & shared_names:
            writers[name] = writers.get(name, 0) | bit

    # each task against the tasks after it, in scan order
    later = 0
    partners = [0] * len(tasks)
    for i in range(len(tasks) - 1, -1, -1):
        partners[i] = later
        later |= 1 << closure.index[tasks[i].task_id]
    for a, mask in zip(tasks, partners):
        i = closure.index[a.task_id]
        unordered = mask & ~(closure.descendants[i] | closure.ancestors[i])
        conflicting = 0
        for name in a.writes & shared_names:
            conflicting |= writers.get(name, 0) | readers.get(name, 0)
        for name in a.reads & shared_names:
            conflicting |= writers.get(name, 0)
        conflicting &= unordered
        n_unordered = unordered.bit_count()
        _bump_nonzero(report, "pairs_checked", mask.bit_count())
        _bump_nonzero(report, "pairs_ordered", mask.bit_count() - n_unordered)
        _bump_nonzero(report, "pairs_disjoint", n_unordered - conflicting.bit_count())
        for b_id in sorted(closure.members(conflicting), key=position.__getitem__):
            _report_conflict(
                a, by_id[b_id], shared_names, mapping, function, report, footprint_of
            )
    return report


def check_races(
    htg: HierarchicalTaskGraph,
    mapping: dict[str, int],
    order: dict[int, list[str]],
    function: Function,
) -> AnalysisReport:
    """Prove every conflicting cross-core task pair ordered, or report races."""
    report, _ = incremental_race_check(htg, mapping, order, function)
    return report


def check_schedule_races(
    htg: HierarchicalTaskGraph, schedule, function: Function
) -> AnalysisReport:
    """:func:`check_races` on a :class:`repro.scheduling.schedule.Schedule`."""
    return check_races(htg, schedule.mapping, schedule.order, function)
