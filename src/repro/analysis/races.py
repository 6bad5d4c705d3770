"""Static data-race check for a scheduled HTG.

Given the HTG, a core mapping and per-core task orders, the checker builds
the happens-before relation the generated parallel program enforces:

* every HTG dependence edge (codegen inserts a signal/wait pair or keeps
  the tasks on one core in order);
* consecutive tasks on the same core (program order).

The reachability of that relation must order every pair of tasks
that conflict on a *shared* variable (write-write or read-write on a
``SHARED`` / ``INPUT`` / ``OUTPUT`` declaration); an unordered conflicting
pair mapped to different cores is reported as a race -- before any C code
is emitted.

Sibling loop chunks of the same split loop conflict at name granularity
by construction (they touch the same buffers), so their disjointness is
no longer assumed but *proved*: the memory-footprint analysis
(:mod:`repro.analysis.footprints`) must show the index slices they access
conflict-free (no write-write or write-read overlap).  A chunk pair whose
disjointness cannot be discharged is reported as a
``race.chunk-overlap-unproven`` **warning** -- soundness-relevant but
survivable, and never a silent pass.

Incremental re-checking
-----------------------

:func:`incremental_race_check` additionally returns a
:class:`RaceCheckState` snapshot (happens-before relation, its
:class:`~repro.utils.graphs.Reachability`, the shared-name universe, and
the findings).  On a later run over an *edited* model it accepts the
previous state plus the set of tasks whose content fingerprints changed,
and re-derives only what the edit can affect:

* the reachability is reused verbatim when the happens-before relation and
  task universe are unchanged (it is a pure function of those inputs);
* with the reachability reused and an identical shared-name universe, the
  verdict of a pair of *unchanged* tasks is a pure function of unchanged
  inputs (their read/write sets, kinds and parents, and the reachability),
  so only pairs with at least one changed endpoint are re-scanned; previous
  findings for clean pairs are replayed with provenance ``reused``.

Any mismatch in the guard inputs falls back to the full scan, so the
incremental path can never be *less* sound than the cold one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.footprints import (
    FootprintStore,
    TaskFootprint,
    default_footprint_store,
    footprints_conflict_free,
)
from repro.analysis.report import AnalysisReport, Finding
from repro.htg.graph import HierarchicalTaskGraph
from repro.htg.task import Task, TaskKind
from repro.ir import analysis as ir_analysis
from repro.ir.program import Function
from repro.utils.graphs import Reachability


def _chunk_siblings(a: Task, b: Task) -> bool:
    """True for loop chunks of the same split loop (intended to be disjoint)."""
    return (
        a.kind is TaskKind.LOOP_CHUNK
        and b.kind is TaskKind.LOOP_CHUNK
        and a.parent is not None
        and a.parent == b.parent
    )


@dataclass(frozen=True)
class RaceCheckState:
    """Reusable snapshot of one race-check run.

    The happens-before reachability depends only on ``happens_before`` and
    the task universe, both recorded here so a later run can prove reuse
    valid by equality; with it reused, a pair of unchanged tasks keeps its
    verdict, which is what lets the changed-endpoint path replay findings.
    """

    #: HTG dependence edges plus per-core program-order pairs.
    happens_before: frozenset[tuple[str, str]]
    #: Reachability of ``happens_before`` over ``graph_task_ids``.
    reachability: Reachability[str]
    #: Every task in the HTG the reachability was computed over.
    graph_task_ids: frozenset[str]
    #: The mapped tasks that were pair-scanned.
    scanned_task_ids: frozenset[str]
    #: Shared-variable universe the conflict test used.
    shared_names: frozenset[str]
    #: Findings of the scan (keyed by their ``a<->b`` subject on replay).
    findings: tuple[Finding, ...]


def _happens_before_pairs(
    htg: HierarchicalTaskGraph, order: dict[int, list[str]]
) -> frozenset[tuple[str, str]]:
    pairs: set[tuple[str, str]] = set(htg.edge_pairs())
    for core_tasks in order.values():
        for earlier, later in zip(core_tasks, core_tasks[1:]):
            pairs.add((earlier, later))
    return frozenset(pairs)


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
    prev_state: RaceCheckState | None = None,
    changed_tasks: set[str] | None = None,
    store: FootprintStore | None = None,
) -> tuple[AnalysisReport, RaceCheckState]:
    """Race check with optional reuse of a previous run's state.

    ``changed_tasks`` is the set of task ids whose *content* differs from
    the run that produced ``prev_state`` (new tasks included).  Pass
    ``None`` to force a full scan even when the reachability is reusable.
    Replayed findings keep the core numbers of the run they came from.
    ``store`` memoizes the footprints of chunk pairs that need a proof
    (the process-wide store by default).

    Pairs are handled as bitsets: per task, the partners it must be checked
    against are one mask, split into ordered, non-conflicting and
    conflicting partners by the happens-before reachability and per-name
    reader/writer masks.  Only the unordered conflicting pairs -- the ones
    that yield a finding or need a footprint proof -- run per-pair code,
    in the order a pairwise scan of the mapped tasks would visit them.
    """
    report = AnalysisReport("race_checker")
    shared_arrays, shared_scalars = ir_analysis.shared_names(function)
    shared_names = shared_arrays | shared_scalars
    store = store if store is not None else default_footprint_store()
    fp_cache: dict[str, TaskFootprint] = {}

    def footprint_of(task: Task) -> TaskFootprint:
        if task.task_id not in fp_cache:
            fp_cache[task.task_id] = store.footprint(function, task)
        return fp_cache[task.task_id]

    tasks = [t for t in htg.leaf_tasks() if t.task_id in mapping]
    task_ids = frozenset(t.task_id for t in tasks)
    report.bump("tasks", len(tasks))
    report.bump("shared_variables", len(shared_names))

    graph_task_ids = frozenset(htg.tasks.keys())
    happens_before = _happens_before_pairs(htg, order)
    reuse_reachability = (
        prev_state is not None
        and happens_before == prev_state.happens_before
        and graph_task_ids == prev_state.graph_task_ids
    )
    if reuse_reachability:
        assert prev_state is not None
        reach = prev_state.reachability
        report.bump("closure_reused")
    else:
        reach = Reachability(htg.tasks.keys(), happens_before)

    position = {t.task_id: i for i, t in enumerate(tasks)}
    by_id = {t.task_id: t for t in tasks}
    readers: dict[str, int] = {}
    writers: dict[str, int] = {}
    for t in tasks:
        bit = 1 << reach.index[t.task_id]
        for name in t.reads & shared_names:
            readers[name] = readers.get(name, 0) | bit
        for name in t.writes & shared_names:
            writers[name] = writers.get(name, 0) | bit

    def scan(a: Task, partners: int) -> None:
        """Check ``a`` against every task in the ``partners`` mask."""
        i = reach.index[a.task_id]
        unordered = partners & ~(reach.descendants[i] | reach.ancestors[i])
        conflicting = 0
        for name in a.writes & shared_names:
            conflicting |= writers.get(name, 0) | readers.get(name, 0)
        for name in a.reads & shared_names:
            conflicting |= writers.get(name, 0)
        conflicting &= unordered
        n_unordered = unordered.bit_count()
        _bump_nonzero(report, "pairs_checked", partners.bit_count())
        _bump_nonzero(report, "pairs_ordered", partners.bit_count() - n_unordered)
        _bump_nonzero(report, "pairs_disjoint", n_unordered - conflicting.bit_count())
        for b_id in sorted(reach.members(conflicting), key=position.__getitem__):
            b = by_id[b_id]
            first, second = (a, b) if position[a.task_id] < position[b_id] else (b, a)
            _report_conflict(
                first, second, shared_names, mapping, function, report, footprint_of
            )

    skip_clean_pairs = (
        reuse_reachability
        and changed_tasks is not None
        and prev_state is not None
        and shared_names == prev_state.shared_names
        and task_ids == prev_state.scanned_task_ids
    )
    if skip_clean_pairs:
        assert prev_state is not None and changed_tasks is not None
        changed = {tid for tid in changed_tasks if tid in task_ids}
        # Scan only pairs with >=1 changed endpoint; replay the rest.  A
        # pair of two changed tasks is scanned from its earlier endpoint.
        everyone = reach.mask(task_ids)
        changed_before = 0
        for a in tasks:
            if a.task_id not in changed:
                continue
            bit = 1 << reach.index[a.task_id]
            scan(a, everyone & ~bit & ~changed_before)
            changed_before |= bit
        total_pairs = len(tasks) * (len(tasks) - 1) // 2
        report.bump("pairs_reused", total_pairs - report.checked.get("pairs_checked", 0))
        for finding in prev_state.findings:
            a_id, _, b_id = finding.subject.partition("<->")
            if a_id not in changed and b_id not in changed:
                report.add(replace(finding, provenance="reused"))
    else:
        later = 0
        partners = [0] * len(tasks)
        for i in range(len(tasks) - 1, -1, -1):
            partners[i] = later
            later |= 1 << reach.index[tasks[i].task_id]
        for a, mask in zip(tasks, partners):
            scan(a, mask)

    state = RaceCheckState(
        happens_before=happens_before,
        reachability=reach,
        graph_task_ids=graph_task_ids,
        scanned_task_ids=task_ids,
        shared_names=shared_names,
        findings=tuple(report.findings),
    )
    return report, state


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
