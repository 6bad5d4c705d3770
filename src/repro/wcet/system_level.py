"""System-level (contention-aware) multi-core WCET analysis.

Given a mapping and per-core ordering of HTG tasks, this analysis

1. recomputes each task's isolated WCET on the core it is mapped to,
2. derives the static schedule timeline (dependences + core ordering +
   worst-case communication latencies),
3. runs a may-happen-in-parallel (MHP) analysis on the timeline: two tasks may
   interfere when they are mapped to different cores and their time windows
   overlap (dependent tasks can never overlap by construction),
4. charges every task an interference penalty equal to its worst-case number
   of shared accesses times the interconnect's per-access penalty for the
   observed number of contending cores, and
5. iterates -- inflating a task stretches its window, which may create new
   overlaps -- until a fixed point, within a safety cap: inflation can also
   *shift* windows (a task starts later because a predecessor grew), so the
   contention sets are not guaranteed to grow monotonically and the iteration
   may keep oscillating.  When the cap is hit the analysis falls back to the
   all-cores-contend worst case and reports ``converged=False``.

The result's makespan is the guaranteed end-to-end WCET of the parallel
program (paper Section II-D).

Design context, the solve and its two callers
---------------------------------------------
A scheduler search (the annealer, branch and bound) prices thousands of
candidate mappings of one design point, and the list scheduler every
(task, core) placement of it, so the analysis is split.

*Per design* (:class:`SystemDesign`, the one pricing table of the point),
every table filled on first use: the leaf tasks and edges numbered once;
per task its predecessor row of (index, payload); per core one cost model;
one shared-access penalty row, the platform's price per access for each
contender count (:attr:`SystemDesign.penalty`: the interconnect bounds the
delay of gaining access, paper Section III-B, so no core changes it); the
isolated WCET, average-case WCET and shared-access count of each (task,
core), filled through the code-level cache (so its entries and misses are
the same as without a design), kept per core class
(:meth:`SystemDesign.cost_table`); the worst-case delay of each (payload,
source core, destination core, contender count), and per payload one
delay table over core pairs; the timeline plan -- per task, in
topological order, its dependence predecessors with their payload's delay
table (:attr:`SystemDesign.plan`; :attr:`SystemDesign.timeline_rows`
holds the same rows by task index); in a statically pruned design, the
static-MHP relation's mapping-independent part (reachability, footprints,
address overlaps); and the result key's per-design prefix.  Building a
design costs nothing, so the numbering runs inside the scheduler that
first reads it.

*Per solve* (:func:`_solve`, the one fixed point): a mapping vector (the
core of each task index), the plan in a processing order, each task's
cost gathered through one lookup per core, and the fixed point over
start/finish lists, which reads the penalty row by contender count.
Nothing of the plan depends on the mapping: the timeline build
(:func:`_build`) reads each cross-core delay inline from the edge's delay
table, under the two cores the vector names (a plain dict, so a read
costs two dict lookups; the first read of a pair in a design prices it
through :meth:`SystemDesign.delay`).
The plan holds no core-order edges: a task's core is free at the last
finish on that core, which is its predecessor in the core order because
the processing order visits each core's tasks in that order.  So the build
also collects, per core, its sharers' windows in the order they run,
already sorted by start and by end: the rows the unpruned MHP kernel
reads.  :meth:`SystemDesign.bound` passes the plan as is (the design's
topological order is a processing order of the default core order by
construction), so a candidate builds no plan, no Kahn pass and no row
dict; :func:`system_level_wcet` and :func:`contention_oblivious_bound`
reorder it by a Kahn pass over their core order (:func:`_ordered_plan`).
A max-plus pass does not depend on its processing order, so every order
gives the same floats.  Indexes instead of task-id dicts because the
solve's inner loops run once per candidate and fixed-point iteration: list
indexing replaces string hashing, and no ``Interval`` is built per task
per iteration.  Only :func:`system_level_wcet`, which builds a result,
sums the communication cycles, in graph-edge order.

The solve has two callers.  :func:`system_level_wcet` analyses a
schedule: it derives the mapping and order part of the result key,
consults the result tier and, on a miss, solves and builds the
:class:`SystemWcetResult` dicts and
:class:`~repro.utils.intervals.Interval` objects once, at the end.
:meth:`SystemDesign.bound` prices a candidate of a search, an annealer
move or a branch-and-bound leaf: the bare makespan under the default core
order, with no key, no result and no tier access.  Both searches analyse
only the schedule they return through :func:`system_level_wcet`; the
annealer also memoizes its outcome as one search record (see
:mod:`repro.scheduling.metaheuristics`).

:func:`system_level_wcet`, :func:`contention_oblivious_bound` and the
result key take the design and read everything else from it: the HTG,
function and platform, the cache whose tiers memoize the analysis (a
design built with ``cache=None`` uses :func:`~repro.wcet.cache.shared_cache`)
and the static-pruning flag.  The pipeline's ``schedule`` stage builds
one design per run and hands it to the scheduler plugin, so every
candidate of a search shares it.  A design is never kept past its run
(nor on a cache or in a module global), so recompiled IR and platform
rebuilds between runs need no extra care.

MHP implementation notes
------------------------
The per-iteration contender derivation is the hot loop of the fixed point:
naively it is a double loop over tasks x sharer tasks.  There is exactly
one kernel per mode, both with the strict comparisons of
:meth:`~repro.utils.intervals.Interval.overlaps`, so their counts equal the
double loop's (kept in the tests as the oracle):

* unpruned runs use :func:`mhp_contenders`, a per-core bisect pass over
  the windows the build collected: a core's sharer windows come sorted by
  start and by end (its tasks run back to back), so a window ``[s, e)``
  meets the core iff ``ends[bisect_left(starts, e) - 1] > s``.  The pass
  groups, builds and sorts nothing; empty windows need no special case;
* pruned runs (``static_pruning``) use :func:`mhp_contenders_pruned`, a
  loop over the static-MHP skeleton: the per-task row of sharer indexes
  that static pruning keeps.

Both take task indexes, the mapping vector and the start/finish lists.

Why these two and no other.  Medians per pass, replayed from the
perfbench workloads (seed 1) on a shared 2-vCPU x86 host:

* on use-case design points (10-40 tasks, at most ~1,340 task x sharer
  pairs; the annealer's candidates are most of the passes) bisect takes
  11 us and a numpy ``searchsorted`` pass over the same windows 51 us;
* on edit-incremental designs (~960 tasks, ~685k cross-core sharer pairs,
  5 passes per edit round) bisect takes 0.69 ms and ``searchsorted``
  0.31-0.37 ms: bisect costs about 2 ms more per round, well under 1% of
  it;
* routing unpruned runs through a skeleton of all cross-core sharer pairs
  instead costs 38 ms to build, 36 ms to flatten into index arrays and
  10 ms per numpy pass there, against a ~0.4 s edit round;
* synthetic-1000 pruned skeletons hold ~740 pairs: the pair loop takes
  128 us per pass, a numpy pass over the flattened skeleton 70 us plus
  164 us of set-up per solve (about 3 passes).
"""

from __future__ import annotations

import operator
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, TypeVar

from repro import obs
from repro.adl.architecture import Platform
from repro.htg.graph import HierarchicalTaskGraph
from repro.htg.task import Task
from repro.ir.program import Function
from repro.utils.intervals import Interval
from repro.wcet.cache import WcetAnalysisCache, shared_cache
from repro.wcet.code_level import analyze_task_wcet
from repro.wcet.hardware_model import HardwareCostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.static_mhp import StaticMhpBase

#: Safety cap of the fixed point's iterations (see the module docstring).
#: Written into every result key, so results of another cap never replay.
MAX_ITERATIONS = 25


@dataclass
class SystemWcetResult:
    """Outcome of the system-level analysis."""

    makespan: float
    task_intervals: dict[str, Interval]
    task_cores: dict[str, int]
    task_effective_wcet: dict[str, float]
    task_contenders: dict[str, int]
    interference_cycles: float
    communication_cycles: float
    iterations: int
    converged: bool
    #: Per-task *isolated* WCET and worst-case shared-access count -- the
    #: inputs of the interference equations.  Carried so the schedule
    #: certificate checker (:mod:`repro.analysis.certify.schedule_cert`)
    #: can re-apply the equations once without re-running the code-level
    #: analysis.  Defaulted for results built by hand in tests.
    task_base_wcet: dict[str, float] = field(default_factory=dict)
    task_shared_accesses: dict[str, int] = field(default_factory=dict)
    #: Static-MHP contender skeleton used by the fixed point (``None`` when
    #: ``static_pruning`` was off): per task, the sharers that may contend.
    #: Carried so the certificate checkers can (a) restrict their fresh MHP
    #: derivation to the claimed relation and (b) independently re-prove
    #: every excluded pair ordered or footprint-disjoint.
    mhp_allowed: dict[str, tuple[str, ...]] | None = None
    #: Always ``None``: the fixed point always starts cold.  Kept for
    #: readers of older result fields; never serialized.
    warm_info: dict | None = None
    #: Convergence evidence backing the ``converged`` flag: the maximum
    #: absolute change of any task's effective WCET at the last completed
    #: iteration.  Exactly ``0.0`` when converged (the fixed point exits on
    #: dict equality); positive when the iteration cap was hit and the
    #: all-cores-contend fallback engaged.  Round-trips through the result
    #: tier (older cache records default it to 0.0).
    final_delta: float = 0.0
    #: The full per-iteration max-delta curve, collected only while
    #: observability (:mod:`repro.obs`) is enabled -- diagnostic, never
    #: serialized.
    iteration_deltas: "tuple[float, ...] | None" = None


class SystemWcetError(RuntimeError):
    """Raised when the schedule handed to the analysis is inconsistent."""


T = TypeVar("T")

#: The delays of one payload over core pairs, ``table[src][dst]``: plain
#: dicts that the timeline build fills on first read
#: (:meth:`SystemDesign.delay_table`).
_DelayTable = dict[int, dict[int, float]]
#: One task's row of the timeline plan: its index and its dependence
#: predecessors as (index, the delay table of the edge's payload, the
#: payload).
_PlanRow = tuple[int, list[tuple[int, _DelayTable, int]]]


def default_rows(topological: Iterable[T], core_of: Callable[[T], int]) -> dict[int, list[T]]:
    """The default core order of a mapping: each core runs its tasks in the
    order of ``topological``, the HTG's topological order, so the order is
    always dependence-consistent.

    The one definition of that order:
    :func:`~repro.scheduling.schedule.default_core_order` applies it to
    task ids, and :meth:`SystemDesign.bound` prices under it by processing
    the tasks in ``topological`` order itself, so a search prices every
    candidate under the order its winner is analysed under.
    """
    rows: dict[int, list[T]] = {}
    for task in topological:
        rows.setdefault(core_of(task), []).append(task)
    return rows


class SystemDesign:
    """One design point: the analysis's inputs and its pricing table.

    Holds what every analysis of the point reads -- HTG, function,
    platform, the cache whose tiers memoize it (``None`` = the process-wide
    :func:`~repro.wcet.cache.shared_cache`) and the static-pruning flag --
    and fills its tables on first use, task numbering, the one
    shared-access penalty row and the timeline plan included
    (``leaf_ids[i]`` is task ``i``).  Build one per scheduler run and
    pass it to every :func:`system_level_wcet` (or
    :func:`~repro.scheduling.schedule.evaluate_mapping`) call of it; a
    search prices its candidates with :meth:`bound`, which reads the same
    tables.  The tables assume none of the inputs is mutated meanwhile.
    """

    def __init__(
        self,
        htg: HierarchicalTaskGraph,
        function: Function,
        platform: Platform,
        cache: WcetAnalysisCache | None = None,
        static_pruning: bool = False,
    ) -> None:
        self.htg = htg
        self.function = function
        self.platform = platform
        self.cache = cache if cache is not None else shared_cache()
        #: prune the MHP contender derivation with the static interference
        #: relation (see :func:`system_level_wcet`)
        self.static_pruning = bool(static_pruning)
        self.core_ids = [c.core_id for c in platform.cores]
        self.num_cores = len(self.core_ids)
        #: contending cores assumed for every cross-core transfer
        self.comm_contenders = max(0, self.num_cores - 1)
        self._models: dict[int, HardwareCostModel] = {}
        #: (cost signature, average) -> per task (total, shared accesses),
        #: None = not yet; ``_costs`` maps (core, average) to its table
        self._tables: dict[tuple[str, bool], list] = {}
        self._costs: dict[tuple[int, bool], list] = {}
        self._delays: dict[tuple[int, int, int, int], float] = {}
        #: payload -> its delay table over core pairs (see :meth:`delay_table`)
        self._delay_tables: dict[int, _DelayTable] = {}
        #: the result key's per-design prefix, filled and read by
        #: :meth:`~repro.wcet.cache.SystemResultCache.result_key`
        self.key_prefix: str | None = None

    @cached_property
    def tasks(self) -> list[Task]:
        """The leaf tasks; task index ``i`` is ``tasks[i]``."""
        return self.htg.leaf_tasks()

    @cached_property
    def leaf_ids(self) -> list[str]:
        return [t.task_id for t in self.tasks]

    @cached_property
    def index(self) -> dict[str, int]:
        """Task id -> task index."""
        return {tid: i for i, tid in enumerate(self.leaf_ids)}

    @cached_property
    def leaf_edges(self) -> list[tuple[int, int, int]]:
        """Every edge between leaf tasks as (src, dst, payload), in graph order."""
        index = self.index
        return [
            (index[e.src], index[e.dst], e.payload_bytes)
            for e in self.htg.edges
            if e.src in index and e.dst in index
        ]

    @cached_property
    def pred_rows(self) -> list[list[tuple[int, int]]]:
        """Per task, its predecessors as (index, payload), in graph order."""
        rows: list[list[tuple[int, int]]] = [[] for _ in self.leaf_ids]
        for src, dst, payload in self.leaf_edges:
            rows[dst].append((src, payload))
        return rows

    @cached_property
    def timeline_rows(self) -> list[_PlanRow]:
        """Per task index ``i``, its row of the timeline plan: ``(i, preds)``,
        its dependence predecessors as (index, the delay table of the edge's
        payload, the payload), in graph-edge order."""
        delay_table = self.delay_table
        preds: list[list[tuple[int, _DelayTable, int]]] = [[] for _ in self.leaf_ids]
        for src, dst, payload in self.leaf_edges:
            preds[dst].append((src, delay_table(payload), payload))
        return list(enumerate(preds))

    @cached_property
    def plan(self) -> list[_PlanRow]:
        """The timeline plan: :attr:`timeline_rows` in :attr:`topological`
        order, the processing order :meth:`bound` solves in."""
        return list(map(self.timeline_rows.__getitem__, self.topological))

    @cached_property
    def topological(self) -> list[int]:
        """The task indexes in the HTG's topological order."""
        return [self.index[t.task_id] for t in self.htg.topological_tasks() if not t.is_synthetic]

    @cached_property
    def by_name(self) -> list[int]:
        """The task indexes sorted by task id (the result key's task order)."""
        return sorted(range(len(self.leaf_ids)), key=self.leaf_ids.__getitem__)

    def model(self, core: int) -> HardwareCostModel:
        """The one cost model of ``core`` (so identity-keyed memos hit)."""
        model = self._models.get(core)
        if model is None:
            model = HardwareCostModel(self.platform, core)
            self._models[core] = model
        return model

    @cached_property
    def penalty(self) -> list[float]:
        """The shared-access penalty for every contender count k = 0..C-1
        (:meth:`~repro.adl.architecture.Platform.shared_access_penalty`,
        C the core count): one row for the design, since the interconnect
        prices an access alike whichever core makes it."""
        return list(map(self.platform.shared_access_penalty, range(self.num_cores)))

    def cost(self, i: int, core: int, average: bool = False) -> tuple[float, int]:
        """(isolated WCET, worst-case shared accesses) of task ``i`` on
        ``core``; with ``average``, its average-case cost instead.

        Priced once per core class: cores of one cost signature
        (:meth:`~repro.wcet.cache.WcetAnalysisCache.model_signature_digest`)
        share one table, as they share the code-level cache's entries.
        """
        table = self._costs.get((core, average)) or self.cost_table(core, average)
        cost = table[i]
        if cost is None:
            breakdown = analyze_task_wcet(
                self.tasks[i], self.function, self.model(core), average, self.cache
            )
            cost = table[i] = (breakdown.total, breakdown.shared_accesses)
        return cost

    def cost_table(self, core: int, average: bool = False) -> list:
        """Per task index, its :meth:`cost` on ``core`` (or its average-case
        cost), ``None`` while not yet priced; one table per core class."""
        table = self._costs.get((core, average))
        if table is None:
            signature = self.cache.model_signature_digest(self.model(core))
            table = self._tables.setdefault((signature, average), [None] * len(self.leaf_ids))
            self._costs[(core, average)] = table
        return table

    def delay(self, payload: int, src: int, dst: int, contenders: "int | None" = None) -> float:
        """Worst-case latency of ``payload`` bytes from core ``src`` to ``dst``
        with ``contenders`` contending cores (default: every other core).

        The one edge pricing of the flow's analysis: the solve,
        :func:`contention_oblivious_bound` and the list scheduler all read
        it, so they cannot drift on payload or contender semantics.  The
        result key does not: the platform digest in it pins every price.
        """
        if contenders is None:
            contenders = self.comm_contenders
        key = (payload, src, dst, contenders)
        delay = self._delays.get(key)
        if delay is None:
            delay = self._delays[key] = (
                self.platform.communication_latency(payload, src, dst, contenders)
                if payload
                else 0.0
            )
        return delay

    def delay_table(self, payload: int) -> _DelayTable:
        """The delays of ``payload`` bytes over core pairs, every other core
        contending: ``table[src][dst]``.  The timeline plan holds one per
        edge, and the timeline build reads its cross-core edges from them,
        pricing a missing pair through :meth:`delay` on first read (plain
        dicts, which index faster than a ``__missing__`` hook)."""
        table = self._delay_tables.get(payload)
        if table is None:
            table = self._delay_tables[payload] = {}
        return table

    @cached_property
    def mhp_base(self) -> "StaticMhpBase":
        """The static-MHP relation's mapping-independent part over the leaf
        tasks (:class:`~repro.analysis.static_mhp.StaticMhpBase`): built
        once, so a pruned candidate applies only its sharer and same-core
        masks."""
        # imported lazily: the analysis package depends on this module's types
        from repro.analysis.static_mhp import static_mhp_base

        return static_mhp_base(self.htg, self.function, self.leaf_ids, self.cache.footprints)

    def mapping_vector(self, mapping: dict[str, int]) -> list[int]:
        """The core of each task index; raises :class:`SystemWcetError`
        unless ``mapping`` maps exactly the leaf tasks to platform cores."""
        try:
            cores = list(map(mapping.__getitem__, self.leaf_ids))
        except KeyError:
            missing = [tid for tid in self.leaf_ids if tid not in mapping]
            raise SystemWcetError(f"tasks without a mapping: {missing}") from None
        if len(mapping) != len(cores):
            extra = sorted(tid for tid in mapping if tid not in self.index)
            raise SystemWcetError(f"mapped tasks that are not leaf tasks: {extra}")
        self._check_cores(cores)
        return cores

    def _check_cores(self, cores: list[int]) -> None:
        unknown = set(cores).difference(self.core_ids)
        if unknown:
            raise SystemWcetError(
                f"tasks mapped to core(s) {sorted(unknown)} that platform "
                f"{self.platform.name!r} lacks"
            )

    def vectors(
        self, mapping: dict[str, int], order: dict[int, list[str]]
    ) -> tuple[list[int], list[tuple[int, list[int]]]]:
        """The mapping vector and the non-empty core orders as index rows.

        Raises :class:`SystemWcetError` unless ``mapping`` maps exactly the
        leaf tasks to cores of the platform and ``order`` lists each of
        them exactly once, on the core it is mapped to.
        """
        cores = self.mapping_vector(mapping)
        index = self.index
        seen = [False] * len(cores)
        rows = []
        for core, tids in order.items():
            row = []
            for tid in tids:
                i = index.get(tid)
                if i is None:
                    raise SystemWcetError(f"core order lists {tid!r}, which is not a leaf task")
                if cores[i] != core:
                    raise SystemWcetError(
                        f"task {tid!r} is ordered on core {core} but mapped to core {cores[i]}"
                    )
                if seen[i]:
                    raise SystemWcetError(f"task {tid!r} is listed twice in the core order")
                seen[i] = True
                row.append(i)
            if row:
                rows.append((core, row))
        if not all(seen):
            tid = self.leaf_ids[seen.index(False)]
            raise SystemWcetError(f"task {tid!r} is mapped but missing from the core order")
        return cores, rows

    def bound(self, cores: list[int]) -> float:
        """The WCET bound of mapping vector ``cores`` (the core of each task
        index) under the default core order (:func:`default_rows` of
        :attr:`topological`).

        The bare fixed point (:func:`_solve`): equal to the makespan
        :func:`system_level_wcet` reports for the same mapping and order,
        but with no result key, result object or result-tier access, and
        no memo (search candidates rarely repeat a mapping).  It solves on
        the design's timeline :attr:`plan` as is: the plan lists the tasks
        in :attr:`topological` order, which is a processing order of the
        default core order's timeline by construction (each core's tasks
        appear in their row's order, after their predecessors), and reads
        its cross-core delays under ``cores`` while it builds the
        timeline, so a candidate builds no plan and runs no Kahn pass.
        The annealer and branch and bound price every candidate with it.
        Raises :class:`SystemWcetError` unless ``cores`` has one platform
        core per task.
        """
        if len(cores) != len(self.leaf_ids):
            raise SystemWcetError(
                f"mapping vector has {len(cores)} entries for {len(self.leaf_ids)} tasks"
            )
        self._check_cores(cores)
        return _solve(self, cores, self.plan).makespan


def _ordered_plan(
    design: SystemDesign, cores: list[int], rows: list[tuple[int, list[int]]]
) -> list[_PlanRow]:
    """The design's timeline plan in a processing order of the timeline of
    ``cores`` under the core order ``rows``: a Kahn pass over the
    dependences plus each core's chain, so every task follows its
    predecessors and the task before it on its core.

    Raises :class:`SystemWcetError` when the core order contradicts the
    dependences.
    """
    indegree = [0] * len(cores)
    succs: list[list[int]] = [[] for _ in cores]
    for src, dst, _ in design.leaf_edges:
        indegree[dst] += 1
        succs[src].append(dst)
    for _, tids in rows:
        for prev, nxt in zip(tids, tids[1:]):
            indegree[nxt] += 1
            succs[prev].append(nxt)
    timeline_rows = design.timeline_rows
    plan = []
    worklist = [i for i, degree in enumerate(indegree) if degree == 0]
    while worklist:
        i = worklist.pop()
        plan.append(timeline_rows[i])
        for nxt in succs[i]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                worklist.append(nxt)
    if len(plan) < len(cores):
        raise SystemWcetError("cyclic wait between core order and dependences")
    return plan


def _build(
    plan: list[_PlanRow],
    cores: list[int],
    effective: list[float],
    design: SystemDesign,
    slots: list[int],
    window_cores: list[int],
) -> tuple[list[float], list[float], float, list[tuple[int, list[float], list[float]]]]:
    """(start times, finish times, makespan, windows) of mapping vector
    ``cores`` with task durations ``effective``, processing the tasks in
    ``plan``'s order.

    A task starts when its last predecessor's transfer has arrived (a
    cross-core edge's delay read from its payload's table, and priced
    through :meth:`SystemDesign.delay` on its first read) and its core is
    free: the core's chain is read as the last finish on that core, which
    is the finish of the task before it in the core order, since the
    processing order visits each core's tasks in that order.  Start and
    finish times are a max-plus function of the predecessors alone, so any
    valid processing order gives the same floats.

    The windows are those of the tasks ``slots`` names, per core:
    ``slots[i]`` is the position in ``window_cores`` of task ``i``'s core
    when its window is collected, else -1.  A core runs its tasks back to
    back, so each core's windows come out sorted by start and by end: the
    rows :func:`mhp_contenders` reads, as (core, starts, ends).
    """
    starts = [0.0] * len(effective)
    finish = [0.0] * len(effective)
    last = dict.fromkeys(design.core_ids, 0.0)
    price = design.delay
    window_starts: list[list[float]] = [[] for _ in window_cores]
    window_ends: list[list[float]] = [[] for _ in window_cores]
    for i, preds in plan:
        core = cores[i]
        ready = last[core]
        for p, delays, payload in preds:
            src = cores[p]
            if src == core:
                ready_p = finish[p]
            else:
                try:
                    ready_p = finish[p] + delays[src][core]
                except KeyError:  # the pair's first read in this design
                    delay = delays.setdefault(src, {})[core] = price(payload, src, core)
                    ready_p = finish[p] + delay
            if ready_p > ready:
                ready = ready_p
        starts[i] = ready
        finish[i] = last[core] = end = ready + effective[i]
        k = slots[i]
        if k >= 0:
            window_starts[k].append(ready)
            window_ends[k].append(end)
    windows = list(zip(window_cores, window_starts, window_ends))
    return starts, finish, max(finish, default=0.0), windows


# ---------------------------------------------------------------------- #
# MHP contender derivation (one pass per fixed-point iteration)
# ---------------------------------------------------------------------- #
def mhp_contenders(
    cores: list[int],
    windows: list[tuple[int, list[float], list[float]]],
    starts: list[float],
    finishes: list[float],
) -> list[int]:
    """Per task, the number of other cores with a sharer window overlapping it.

    The kernel of unpruned runs.  Task ``i`` is mapped to ``cores[i]`` and
    runs in ``[starts[i], finishes[i])``; ``windows`` holds, per core with
    a task with shared accesses (a sharer), ``(core, starts, ends)`` of its
    sharers' windows in the order they run, as :func:`_build` collects
    them.  A core runs its tasks back to back, so both lists are sorted and
    a window ``[s, e)`` meets the core iff
    ``ends[bisect_left(starts, e) - 1] > s`` (see the module docstring).
    """
    contenders = []
    for own, start, end in zip(cores, starts, finishes):
        count = 0
        for core, core_starts, core_ends in windows:
            if core != own:
                k = bisect_left(core_starts, end)
                if k and core_ends[k - 1] > start:
                    count += 1
        contenders.append(count)
    return contenders


def mhp_contenders_pruned(
    cores: list[int],
    allowed: list[tuple[int, ...]],
    starts: list[float],
    finishes: list[float],
) -> list[int]:
    """Per task, the number of other cores with an overlapping skeleton sharer.

    The kernel of pruned runs: a loop over the static-MHP skeleton.
    ``allowed[i]`` (sharer indexes) already excludes task ``i`` itself,
    same-core sharers, dependence-ordered pairs and (optionally)
    footprint-disjoint pairs, so only window overlap remains to be tested
    -- with the same strict float comparisons as :func:`mhp_contenders`.
    """
    contenders = []
    for others, start, end in zip(allowed, starts, finishes):
        other_cores = set()
        for other in others:
            if start < finishes[other] and starts[other] < end:
                other_cores.add(cores[other])
        contenders.append(len(other_cores))
    return contenders


class _FixedPoint(NamedTuple):
    """The outcome of one solve, over task indexes (see :func:`_solve`)."""

    starts: list[float]
    finishes: list[float]
    makespan: float
    effective: list[float]
    base: list[float]
    shared: list[int]
    contenders: list[int]
    #: the static-MHP skeleton by task id; ``None`` when unpruned
    allowed: "dict[str, tuple[str, ...]] | None"
    iterations: int
    converged: bool
    final_delta: float
    #: the per-iteration max-delta curve; ``None`` while observability is off
    deltas: "tuple[float, ...] | None"


def _solve(design: SystemDesign, cores: list[int], plan: list[_PlanRow]) -> _FixedPoint:
    """The fixed point of mapping vector ``cores`` under the core order that
    the processing order of ``plan`` implies (see :func:`_build`).

    The one solve behind :func:`system_level_wcet` and
    :meth:`SystemDesign.bound`.  It reads the design's tables only: it
    derives no key, never touches the result tier and builds no result
    dict.  Its ``fixed_point`` span and its ``fixed_point.*`` and ``mhp.*``
    metrics therefore count every solve, search candidates included.  The
    callers validate ``cores`` and order the design's plan.
    """
    leaf_ids = design.leaf_ids
    penalty = design.penalty
    # each core's cost table looked up once, not per task
    tables = {core: design.cost_table(core) for core in set(cores)}
    costs = list(map(operator.getitem, map(tables.__getitem__, cores), range(len(cores))))
    if None in costs:  # a task not yet priced on its core's class
        costs = list(map(design.cost, range(len(cores)), cores))
    base = [wcet for wcet, _ in costs]
    shared = [accesses for _, accesses in costs]

    # only tasks that actually touch shared resources can contend
    sharers = [i for i, accesses in enumerate(shared) if accesses > 0]
    allowed: dict[str, tuple[str, ...]] | None = None
    allowed_rows: list[tuple[int, ...]] = []
    pairs_per_pass = 0
    if design.static_pruning:
        # imported lazily for the same reason as the certify machinery: the
        # analysis package depends on this module's types
        from repro.analysis.static_mhp import compute_static_mhp

        relation = compute_static_mhp(
            design.htg, design.function, dict(zip(leaf_ids, cores)),
            sharers=[leaf_ids[i] for i in sharers], store=design.cache.footprints,
            base=design.mhp_base,
        )
        allowed = relation.allowed
        allowed_rows = [tuple(map(design.index.__getitem__, allowed.get(t, ()))) for t in leaf_ids]
        if obs.obs_enabled():
            registry = obs.metrics()
            registry.counter("mhp.pairs_candidate").inc(relation.candidate_pairs)
            registry.counter("mhp.pairs_kept").inc(relation.kept_pairs)
            registry.counter("mhp.pairs_pruned").inc(
                relation.candidate_pairs - relation.kept_pairs
            )
            pairs_per_pass = sum(map(len, allowed_rows))
    elif obs.obs_enabled():
        # O(tasks + sharers) pair count: for each task every sharer on a
        # *different* core is a candidate (a task shares its own core, so
        # the per-core tally already excludes it)
        sharers_per_core = Counter(cores[i] for i in sharers)
        pairs_per_pass = sum(len(sharers) - sharers_per_core.get(core, 0) for core in cores)
        obs.metrics().counter("mhp.pairs_candidate").inc(pairs_per_pass)
    # the windows the unpruned kernel reads: each sharer's, by core
    slots = [-1] * len(cores)
    window_cores: list[int] = []
    if allowed is None:
        position: dict[int, int] = {}
        for i in sharers:
            slots[i] = position.setdefault(cores[i], len(position))
        window_cores = list(position)
    core_ids = design.core_ids

    effective = base
    contenders = [0] * len(cores)
    starts: list[float] = []
    finishes: list[float] = []
    makespan = 0.0
    converged = False
    iterations = 0
    final_delta = 0.0
    obs_on = obs.obs_enabled()
    deltas: list[float] = []
    fp_span = obs.span(
        "fixed_point", tasks=len(cores), sharers=len(sharers), pruned=design.static_pruning
    )
    with fp_span:
        for iterations in range(1, MAX_ITERATIONS + 1):
            iter_start = time.perf_counter() if obs_on else 0.0
            starts, finishes, makespan, windows = _build(plan, cores, effective, design, slots, window_cores)
            if allowed is None:
                new_contenders = mhp_contenders(cores, windows, starts, finishes)
            else:
                new_contenders = mhp_contenders_pruned(cores, allowed_rows, starts, finishes)
            new_effective = [b + s * penalty[k] for b, s, k in zip(base, shared, new_contenders)]
            if obs_on or iterations == MAX_ITERATIONS:
                # the max-delta is evidence for the converged flag; off the
                # observed path it is only needed at the iteration cap
                final_delta = max(map(abs, map(operator.sub, new_effective, effective)), default=0.0)
            if obs_on:
                deltas.append(final_delta)
                obs.trace_complete(
                    "fixed_point.iteration",
                    iter_start,
                    time.perf_counter() - iter_start,
                    {"iteration": iterations, "max_delta": final_delta},
                )
                obs.trace_counter("fixed_point.max_delta", {"delta": final_delta})
            if new_effective == effective and new_contenders == contenders:
                converged = True
                contenders = new_contenders
                final_delta = 0.0
                break
            effective = new_effective
            contenders = new_contenders
        fp_span.set(iterations=iterations, converged=converged)
    if obs_on:
        registry = obs.metrics()
        registry.counter("fixed_point.runs").inc()
        registry.counter("fixed_point.iterations").inc(iterations)
        if not converged:
            registry.counter("fixed_point.not_converged").inc()
        registry.histogram("fixed_point.final_delta").observe(final_delta)
        if pairs_per_pass:
            registry.counter("mhp.pairs_tested").inc(pairs_per_pass * iterations)

    if not converged:
        # Safety fall-back: assume every other core contends on every access.
        # The reported contender counts are re-derived from that assumption so
        # they stay consistent with the worst-case effective WCETs below (for
        # a monotone interconnect penalty the max() cannot pick the stale
        # mid-iteration value; it only guards exotic non-monotone models).
        # Under static pruning the per-task worst case is the number of
        # distinct cores in the statically allowed contender skeleton -- a
        # proved upper bound on any derivable count, so the fall-back stays
        # sound and never looser than the unpruned all-cores one.
        if allowed is None:
            contenders = [design.comm_contenders] * len(cores)
        else:
            contenders = [len({cores[o] for o in others}) for others in allowed_rows]
        effective = [
            max(e, b + s * penalty[k]) for e, b, s, k in zip(effective, base, shared, contenders)
        ]
        starts, finishes, makespan, _ = _build(plan, cores, effective, design, slots, window_cores)
    return _FixedPoint(
        starts,
        finishes,
        makespan,
        effective,
        base,
        shared,
        contenders,
        allowed,
        iterations,
        converged,
        final_delta,
        tuple(deltas) if obs_on else None,
    )


def system_level_wcet(
    design: SystemDesign, mapping: dict[str, int], order: dict[int, list[str]]
) -> SystemWcetResult:
    """Contention-aware multi-core WCET of one mapping and core order of
    ``design``.

    ``design.static_pruning`` enables the static interference analysis
    (:mod:`repro.analysis.static_mhp`): dependence-ordered and
    footprint-disjoint pairs are excluded from the contender skeleton once,
    before the iteration, so every MHP pass (:func:`mhp_contenders_pruned`
    instead of :func:`mhp_contenders`) runs over fewer pairs and the
    resulting bound is never looser than the unpruned one (ordered
    exclusions cannot change any count; footprint exclusions can only
    lower counts).  Off (the default) is the differential oracle.  Pruned
    results carry the skeleton in ``mhp_allowed`` and are memoized under
    result keys distinct from unpruned ones.

    Every call consults the result tier of ``design.cache``
    (:class:`~repro.wcet.cache.SystemResultCache`), so a previously
    analysed identical design point skips the fixed point (and the
    per-task code-level analyses) entirely; a miss runs :func:`_solve` and
    memoizes the result.  A design whose platform cannot be fingerprinted
    has no result key, so it always solves and memoizes nothing.  Code
    that must re-run the fixed point clears
    ``design.cache.system_results.store`` first.  A replayed result is
    re-checked by the pipeline's ``certify`` stage like a fresh one.

    The fixed point always starts cold (isolated WCETs, no contenders), so
    every run lands on the same fixed point as any other run of the same
    design point, memoized or not.
    """
    # a malformed mapping or order fails here, whatever the result tier holds
    cores, rows = design.vectors(mapping, order)

    result_tier = design.cache.system_results
    result_key = result_tier.result_key(design, mapping, order)
    memoized = result_tier.get(result_key)
    if obs.obs_enabled():
        obs.metrics().counter(
            "system_cache.hits" if memoized is not None else "system_cache.misses"
        ).inc()
    if memoized is not None:
        return memoized
    solved = _solve(design, cores, _ordered_plan(design, cores, rows))
    leaf_ids = design.leaf_ids
    result = SystemWcetResult(
        makespan=solved.makespan,
        task_intervals={
            tid: Interval(start, end)
            for tid, start, end in zip(leaf_ids, solved.starts, solved.finishes)
        },
        task_cores=dict(mapping),
        task_effective_wcet=dict(zip(leaf_ids, solved.effective)),
        task_contenders=dict(zip(leaf_ids, solved.contenders)),
        interference_cycles=sum(map(operator.sub, solved.effective, solved.base)),
        # cycles spent on cross-core transfers, summed in graph-edge order
        communication_cycles=sum(
            design.delay(payload, cores[src], cores[dst])
            for src, dst, payload in design.leaf_edges
            if cores[src] != cores[dst]
        ),
        iterations=solved.iterations,
        converged=solved.converged,
        task_base_wcet=dict(zip(leaf_ids, solved.base)),
        task_shared_accesses=dict(zip(leaf_ids, solved.shared)),
        mhp_allowed=solved.allowed,
        final_delta=solved.final_delta,
        iteration_deltas=solved.deltas,
    )
    result_tier.put(result_key, result)
    return result


def contention_oblivious_bound(
    design: SystemDesign, mapping: dict[str, int], order: dict[int, list[str]]
) -> float:
    """Naive bound that assumes maximal contention on every shared access.

    This is what a WCET analysis without the parallel-program model must
    assume (it cannot rule out any interleaving): every shared access of every
    task is delayed by all other cores.  Experiment E3 compares this bound
    against the MHP-based system-level bound.
    """
    cores, rows = design.vectors(mapping, order)
    penalty = design.penalty[design.comm_contenders]
    effective = []
    for i, core in enumerate(cores):
        base, shared = design.cost(i, core)
        effective.append(base + shared * penalty)
    plan = _ordered_plan(design, cores, rows)
    return _build(plan, cores, effective, design, [-1] * len(cores), [])[2]
