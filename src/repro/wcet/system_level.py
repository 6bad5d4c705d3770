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

Design context and per-mapping solve
------------------------------------
A scheduler search (annealer, genetic algorithm, branch and bound)
prices thousands of candidate mappings of one design point, and the list
scheduler every (task, core) placement of it, so the analysis is split.

*Per design* (:class:`SystemDesign`, the one pricing table of the point):
the leaf tasks, edges and cores numbered once; per task its predecessor
row of (index, payload); per core one cost model and one shared-access
penalty row; the isolated WCET, average-case WCET and shared-access count
of each (task, core), filled lazily through the code-level cache (so its
entries and misses are the same as without a design); the worst-case
delay of each (payload, source core, destination core, contender count);
and the result key's per-design prefix.

*Per mapping*: a mapping vector (the core of each task index) and the
order rows, the timeline plan with each cross-core edge priced from the
delay table, the fixed point over start/finish lists, and the mapping and
order part of the result key.  The :class:`SystemWcetResult` dicts and
:class:`~repro.utils.intervals.Interval` objects are built once, at the
end.  Indexes instead of task-id dicts because the solve's inner loops
run once per candidate and fixed-point iteration: list indexing replaces
string hashing, and no ``Interval`` is built per task per iteration.

:func:`system_level_wcet` always analyses through a design; callers that
evaluate many mappings build one per search and pass it as ``design=``,
every other call gets a one-shot design.  A design is never kept past its
search (nor on a cache or in a module global), so recompiled IR and
platform rebuilds between searches need no extra care.

MHP implementation notes
------------------------
The per-iteration contender derivation is the hot loop of the fixed point:
naively it is a double loop over tasks x sharer tasks.  There is exactly
one kernel per mode, both with the strict comparisons of
:meth:`~repro.utils.intervals.Interval.overlaps`, so their counts equal the
double loop's (kept in the tests as the oracle):

* unpruned runs use :func:`mhp_contenders`, a per-core bisect pass: each
  core's sharer windows are sorted by start with a running maximum of
  their ends, and a window ``[s, e)`` meets the core iff
  ``run[bisect_left(starts, e) - 1] > s``.  It needs no precondition on
  the windows (empty ones included);
* pruned runs (``static_pruning``) use :func:`mhp_contenders_pruned`, a
  loop over the static-MHP skeleton: the per-task row of sharer indexes
  that static pruning keeps.

Both take task indexes, the mapping vector and the start/finish lists.

Why these two and no other.  Medians per pass, replayed from the
perfbench workloads (seed 1) on a shared 2-vCPU x86 host:

* on use-case design points (10-40 tasks, at most ~1,500 task x sharer
  pairs) bisect takes 34 us and a numpy ``searchsorted`` pass 111 us;
* on edit-incremental designs (~960 tasks, ~685k cross-core sharer pairs,
  4.6 passes per edit round) bisect takes 1.19 ms and ``searchsorted``
  0.87 ms: bisect costs about 1.5 ms per round, well under 1% of it;
* routing unpruned runs through a skeleton of all cross-core sharer pairs
  instead costs 92 ms to build, 187 ms to flatten into index arrays and
  5.4 ms per numpy pass there, against a ~0.4 s edit round;
* synthetic-1000 pruned skeletons hold ~740 pairs: the pair loop takes
  462 us per pass, a numpy pass over the flattened skeleton 467 us plus
  638 us of set-up.
"""

from __future__ import annotations

import operator
import time
from bisect import bisect_left
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

from repro import obs
from repro.adl.architecture import Platform
from repro.htg.graph import HierarchicalTaskGraph
from repro.ir.program import Function, Storage
from repro.utils.intervals import Interval
from repro.wcet.code_level import analyze_task_wcet
from repro.wcet.hardware_model import HardwareCostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wcet.cache import WcetAnalysisCache

def _resolve_static_pruning(value: "bool | None") -> bool:
    if value is None:
        value = _MHP_OPTIONS["static_pruning"]
    return bool(value) if value is not None else False


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
    #: inputs of the interference equations.  Carried so the fixed-point
    #: certificate checker (:mod:`repro.analysis.certify.fixed_point_cert`)
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


class SystemDesign:
    """One design point's pricing table (see the module docstring).

    Numbers the leaf tasks (``leaf_ids[i]`` is task ``i``) of the inputs a
    scheduler search shares -- HTG, function, platform, code-level cache
    and storage override -- and fills its tables on first use.  Build one
    per search and pass it as ``design=`` to every :func:`system_level_wcet`
    (or :func:`~repro.scheduling.schedule.evaluate_mapping`) call of it.
    The tables assume none of the inputs is mutated meanwhile.
    """

    def __init__(
        self,
        htg: HierarchicalTaskGraph,
        function: Function,
        platform: Platform,
        storage_override: "dict[str, Storage] | None" = None,
        cache: "WcetAnalysisCache | None" = None,
    ) -> None:
        self.htg = htg
        self.function = function
        self.platform = platform
        self.storage_override = dict(storage_override or {})
        self.cache = cache
        self.tasks = htg.leaf_tasks()
        self.leaf_ids = [t.task_id for t in self.tasks]
        self.index = {tid: i for i, tid in enumerate(self.leaf_ids)}
        self.core_ids = [c.core_id for c in platform.cores]
        self.num_cores = len(self.core_ids)
        #: contending cores assumed for every cross-core transfer
        self.comm_contenders = max(0, self.num_cores - 1)
        index = self.index
        #: every edge between leaf tasks as (src, dst, payload), in graph order
        self.leaf_edges = [
            (index[e.src], index[e.dst], e.payload_bytes)
            for e in htg.edges
            if e.src in index and e.dst in index
        ]
        #: per task, its predecessors as (index, payload), in graph order
        self.pred_rows: list[list[tuple[int, int]]] = [[] for _ in self.leaf_ids]
        for src, dst, payload in self.leaf_edges:
            self.pred_rows[dst].append((src, payload))
        self._models: dict[int, HardwareCostModel] = {}
        self._penalties: dict[int, list[float]] = {}
        #: (core, average) -> per task (total, shared accesses), None = not yet
        self._costs: dict[tuple[int, bool], list] = {}
        self._delays: dict[tuple[int, int, int, int], float] = {}
        #: the result key's per-design prefix, filled and read by
        #: :meth:`~repro.wcet.cache.SystemResultCache.result_key`
        self.key_prefix: str | None = None

    def check(
        self,
        htg: HierarchicalTaskGraph,
        function: Function,
        platform: Platform,
        storage_override: "dict[str, Storage] | None",
    ) -> None:
        """Raise :class:`SystemWcetError` unless built for exactly these inputs."""
        if (
            htg is not self.htg
            or function is not self.function
            or platform is not self.platform
            or dict(storage_override or {}) != self.storage_override
        ):
            raise SystemWcetError("design context was built for a different design point")

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
            model = HardwareCostModel(self.platform, core, self.storage_override)
            self._models[core] = model
        return model

    def penalties(self, core: int) -> list[float]:
        """``shared_access_penalty(k)`` of ``core`` for every contender count k."""
        table = self._penalties.get(core)
        if table is None:
            model = self.model(core)
            table = [model.shared_access_penalty(k) for k in range(self.num_cores)]
            self._penalties[core] = table
        return table

    def cost(self, i: int, core: int, average: bool = False) -> tuple[float, int]:
        """(isolated WCET, worst-case shared accesses) of task ``i`` on
        ``core``; with ``average``, its average-case cost instead."""
        table = self._costs.get((core, average))
        if table is None:
            table = self._costs[(core, average)] = [None] * len(self.leaf_ids)
        cost = table[i]
        if cost is None:
            breakdown = analyze_task_wcet(
                self.tasks[i], self.function, self.model(core), average, self.cache
            )
            cost = table[i] = (breakdown.total, breakdown.shared_accesses)
        return cost

    def delay(self, payload: int, src: int, dst: int, contenders: "int | None" = None) -> float:
        """Worst-case latency of ``payload`` bytes from core ``src`` to ``dst``
        with ``contenders`` contending cores (default: every other core).

        The one edge pricing of the flow's analysis: the solve, its result
        key, :func:`contention_oblivious_bound` and the list scheduler all
        read it, so they cannot drift on payload or contender semantics.
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
        unknown = set(cores).difference(self.core_ids)
        if unknown:
            raise SystemWcetError(
                f"tasks mapped to core(s) {sorted(unknown)} that platform "
                f"{self.platform.name!r} lacks"
            )
        return cores

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


class _TimelineBuilder:
    """Static timeline respecting dependences and per-core ordering.

    A Kahn-style event pass over the constraint graph (dependence edges plus
    the per-core predecessor chain): each task is finalized exactly once when
    all its constraints are resolved, so the pass is linear in tasks + edges.
    The computed start/finish times are a function of the predecessors alone,
    so they are independent of the processing order.

    The constraint graph, the worst-case edge delays and therefore the
    processing order do not change across fixed-point iterations (only the
    task durations do), so they are resolved once at construction;
    :meth:`build` is then a pure max-plus pass over the fixed order.
    """

    def __init__(
        self, design: SystemDesign, cores: list[int], rows: list[tuple[int, list[int]]]
    ) -> None:
        # per task, its constraints as (pred, delay): the dependences with
        # their priced cross-core delays, in graph-edge order, then the
        # previous task on its core
        preds: list[list[tuple[int, float]]] = [[] for _ in cores]
        succs: list[list[int]] = [[] for _ in cores]
        cross: list[float] = []
        for src, dst, payload in design.leaf_edges:
            src_core, dst_core = cores[src], cores[dst]
            delay = 0.0
            if src_core != dst_core:
                delay = design.delay(payload, src_core, dst_core)
                cross.append(delay)
            preds[dst].append((src, delay))
            succs[src].append(dst)
        #: cycles spent on cross-core transfers, summed in graph-edge order
        self.communication_cycles = sum(cross)
        for _, tids in rows:
            for prev, nxt in zip(tids, tids[1:]):
                preds[nxt].append((prev, 0.0))
                succs[prev].append(nxt)
        indegree = [len(row) for row in preds]
        #: (task, [(pred, delay)]) in processing order
        self._plan: list[tuple[int, list[tuple[int, float]]]] = []
        worklist = [i for i, degree in enumerate(indegree) if degree == 0]
        while worklist:
            i = worklist.pop()
            self._plan.append((i, preds[i]))
            for nxt in succs[i]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    worklist.append(nxt)
        if len(self._plan) < len(cores):
            raise SystemWcetError("cyclic wait between core order and dependences")

    def build(self, effective: list[float]) -> tuple[list[float], list[float], float]:
        """(start times, finish times, makespan) for these task durations."""
        starts = [0.0] * len(effective)
        finish = [0.0] * len(effective)
        for i, preds in self._plan:
            ready = 0.0
            for p, delay in preds:
                ready_p = finish[p] + delay
                if ready_p > ready:
                    ready = ready_p
            starts[i] = ready
            finish[i] = ready + effective[i]
        return starts, finish, max(finish, default=0.0)


# ---------------------------------------------------------------------- #
# MHP contender derivation (one pass per fixed-point iteration)
# ---------------------------------------------------------------------- #
def mhp_contenders(
    cores: list[int], sharers: list[int], starts: list[float], finishes: list[float]
) -> list[int]:
    """Per task, the number of other cores with a sharer window overlapping it.

    The kernel of unpruned runs.  Task ``i`` is mapped to ``cores[i]`` and
    runs in ``[starts[i], finishes[i])``; ``sharers`` are the indexes of
    the tasks with shared accesses.  Per core, the sharer windows sorted by
    start carry a running maximum of their ends, so a window ``[s, e)``
    meets the core iff ``run[bisect_left(starts, e) - 1] > s`` (see the
    module docstring).
    """
    spans_of: dict[int, list[tuple[float, float]]] = {}
    for sid in sharers:
        spans_of.setdefault(cores[sid], []).append((starts[sid], finishes[sid]))
    per_core: list[tuple[int, list[float], list[float]]] = []
    for core, spans in spans_of.items():
        spans.sort()
        run: list[float] = []
        reach = float("-inf")
        for _, end in spans:
            if end > reach:
                reach = end
            run.append(reach)
        per_core.append((core, [start for start, _ in spans], run))
    contenders = []
    for own, start, end in zip(cores, starts, finishes):
        count = 0
        for core, core_starts, run in per_core:
            if core != own:
                k = bisect_left(core_starts, end)
                if k and run[k - 1] > start:
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


def _certify_replayed_result(
    result: SystemWcetResult,
    htg: HierarchicalTaskGraph,
    platform: Platform,
    order: dict[int, list[str]],
    function: "Function | None" = None,
) -> None:
    """Reject a cache-served result the certificate checkers refute.

    A result carrying a static-MHP skeleton is additionally checked by the
    contention-certificate checker, which independently re-proves every
    excluded pair ordered or footprint-disjoint (requires ``function``).

    Imported lazily: the certify package depends on this module's result
    type, and the common (non-certifying) path must not pay the import.
    """
    from repro.analysis.certify import (
        CertificationError,
        build_fixed_point_certificate,
        check_fixed_point_certificate,
    )

    certificate = build_fixed_point_certificate(result, order, platform, htg)
    report = check_fixed_point_certificate(certificate, htg, platform)
    if report.count("error"):
        raise CertificationError(
            "memoized system-level result failed certification on replay: "
            + "; ".join(str(f) for f in report.findings if f.severity == "error"),
            report=report,
        )
    if result.mhp_allowed is not None and function is not None:
        from repro.analysis.certify import (
            build_contention_certificate,
            check_contention_certificate,
        )

        contention = build_contention_certificate(result, htg, function)
        contention_report = check_contention_certificate(contention, htg, function)
        if contention_report.count("error"):
            raise CertificationError(
                "memoized system-level result failed contention certification "
                "on replay: "
                + "; ".join(
                    str(f)
                    for f in contention_report.findings
                    if f.severity == "error"
                ),
                report=contention_report,
            )


#: Ambient MHP options: the pipeline's schedule stage sets them from
#: ``ToolchainConfig`` so the ``system_level_wcet`` calls made deep inside
#: scheduler implementations pick them up without a signature change on
#: every scheduler plugin.  A plain module global: sweeps parallelise
#: across *processes*, so per-thread state is not needed.
_MHP_OPTIONS: dict = {"static_pruning": None}


@contextmanager
def mhp_options(static_pruning: "bool | None" = None) -> Iterator[None]:
    """Ambiently set MHP defaults for nested :func:`system_level_wcet` calls.

    ``None`` leaves the enclosing value in place.  Explicit keyword
    arguments to :func:`system_level_wcet` always win over the ambient
    values, which in turn win over the module default (``static_pruning``
    off).
    """
    previous = dict(_MHP_OPTIONS)
    if static_pruning is not None:
        _MHP_OPTIONS["static_pruning"] = static_pruning
    try:
        yield
    finally:
        _MHP_OPTIONS.clear()
        _MHP_OPTIONS.update(previous)


def system_level_wcet(
    htg: HierarchicalTaskGraph,
    function: Function,
    platform: Platform,
    mapping: dict[str, int],
    order: dict[int, list[str]],
    storage_override: dict[str, Storage] | None = None,
    max_iterations: int = 25,
    cache: "WcetAnalysisCache | None" = None,
    result_cache: bool = True,
    certify: bool = False,
    static_pruning: "bool | None" = None,
    design: "SystemDesign | None" = None,
) -> SystemWcetResult:
    """Contention-aware multi-core WCET of a mapped and ordered HTG.

    ``design`` is the :class:`SystemDesign` of (``htg``, ``function``,
    ``platform``, ``storage_override``, ``cache``), shared by every
    candidate mapping of one scheduler search so each design point is
    priced once; ``None`` builds a one-shot design.  A design built for
    other inputs raises :class:`SystemWcetError`.  Results are identical
    either way.

    ``static_pruning`` enables the static interference analysis
    (:mod:`repro.analysis.static_mhp`): dependence-ordered and
    footprint-disjoint pairs are excluded from the contender skeleton once,
    before the iteration, so every MHP pass (:func:`mhp_contenders_pruned`
    instead of :func:`mhp_contenders`) runs over fewer pairs and the
    resulting bound is never looser than the unpruned one (ordered
    exclusions cannot change any count; footprint exclusions can only
    lower counts).  Off (the default) is the bit-identical differential
    oracle -- it leaves this function's behaviour exactly as before.
    Pruned results carry the skeleton in ``mhp_allowed`` and are memoized
    under result keys distinct from unpruned ones.

    ``result_cache`` controls the system-level result tier
    (:class:`~repro.wcet.cache.SystemResultCache`): by default
    ``cache.system_results`` is consulted when a code-level cache is given,
    so a previously analysed identical design point skips the fixed point
    (and the per-task code-level analyses) entirely; ``False`` forces a full
    re-analysis (differential tests and fixed-point benchmarks want the
    recomputation, not the memo).

    ``certify`` guards the cache-replay path: a memoized result served from
    the result tier is re-validated by the independent fixed-point
    certificate checker (:mod:`repro.analysis.certify`) before it is
    returned, so a corrupt, stale or hand-edited cache entry raises
    :class:`~repro.analysis.certify.CertificationError` instead of being
    silently trusted.  Freshly computed results are returned as-is (the
    pipeline's ``certify`` stage covers them).

    The fixed point always starts cold (isolated WCETs, no contenders), so
    every run lands on the same fixed point as any other run of the same
    design point, memoized or not.
    """
    use_pruning = _resolve_static_pruning(static_pruning)

    if design is None:
        design = SystemDesign(htg, function, platform, storage_override, cache)
    else:
        design.check(htg, function, platform, storage_override)
        if design.cache is not cache:
            raise SystemWcetError("design context was built for a different cache")
    # a malformed mapping or order fails here, whatever the result tier holds
    cores, rows = design.vectors(mapping, order)

    result_tier = cache.system_results if cache is not None and result_cache else None
    result_key: str | None = None
    if result_tier is not None:
        result_key = result_tier.result_key(
            htg, function, platform, mapping, order, storage_override=storage_override,
            max_iterations=max_iterations, static_pruning=use_pruning, design=design,
        )
        memoized = result_tier.get(result_key)
        if obs.obs_enabled():
            obs.metrics().counter(
                "system_cache.hits" if memoized is not None else "system_cache.misses"
            ).inc()
        if memoized is not None:
            if certify:
                _certify_replayed_result(memoized, htg, platform, order, function)
            return memoized
    leaf_ids = design.leaf_ids
    penalty_rows = list(map(design.penalties, cores))
    costs = list(map(design.cost, range(len(cores)), cores))
    base = [wcet for wcet, _ in costs]
    shared = [accesses for _, accesses in costs]

    # only tasks that actually touch shared resources can contend
    sharers = [i for i, accesses in enumerate(shared) if accesses > 0]
    allowed: dict[str, tuple[str, ...]] | None = None
    allowed_rows: list[tuple[int, ...]] = []
    pairs_per_pass = 0
    if use_pruning:
        # imported lazily for the same reason as the certify machinery: the
        # analysis package depends on this module's types
        from repro.analysis.static_mhp import compute_static_mhp

        relation = compute_static_mhp(
            htg, function, mapping, sharers=[leaf_ids[i] for i in sharers],
            store=cache.footprints if cache is not None else None,
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
    timeline = _TimelineBuilder(design, cores, rows)

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
        "fixed_point", tasks=len(cores), sharers=len(sharers), pruned=use_pruning
    )
    with fp_span:
        for iterations in range(1, max_iterations + 1):
            iter_start = time.perf_counter() if obs_on else 0.0
            starts, finishes, makespan = timeline.build(effective)
            if allowed is None:
                new_contenders = mhp_contenders(cores, sharers, starts, finishes)
            else:
                new_contenders = mhp_contenders_pruned(cores, allowed_rows, starts, finishes)
            new_effective = [
                b + s * row[k] for b, s, row, k in zip(base, shared, penalty_rows, new_contenders)
            ]
            if obs_on or iterations == max_iterations:
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
            max(e, b + s * row[k])
            for e, b, s, row, k in zip(effective, base, shared, penalty_rows, contenders)
        ]
        starts, finishes, makespan = timeline.build(effective)

    result = SystemWcetResult(
        makespan=makespan,
        task_intervals={
            tid: Interval(start, end) for tid, start, end in zip(leaf_ids, starts, finishes)
        },
        task_cores=dict(mapping),
        task_effective_wcet=dict(zip(leaf_ids, effective)),
        task_contenders=dict(zip(leaf_ids, contenders)),
        interference_cycles=sum(map(operator.sub, effective, base)),
        communication_cycles=timeline.communication_cycles,
        iterations=iterations,
        converged=converged,
        task_base_wcet=dict(zip(leaf_ids, base)),
        task_shared_accesses=dict(zip(leaf_ids, shared)),
        mhp_allowed=allowed,
        final_delta=final_delta,
        iteration_deltas=tuple(deltas) if obs_on else None,
    )
    if result_tier is not None and result_key is not None:
        result_tier.put(result_key, result)
    return result


def contention_oblivious_bound(
    htg: HierarchicalTaskGraph,
    function: Function,
    platform: Platform,
    mapping: dict[str, int],
    order: dict[int, list[str]],
    cache: "WcetAnalysisCache | None" = None,
) -> float:
    """Naive bound that assumes maximal contention on every shared access.

    This is what a WCET analysis without the parallel-program model must
    assume (it cannot rule out any interleaving): every shared access of every
    task is delayed by all other cores.  Experiment E3 compares this bound
    against the MHP-based system-level bound.
    """
    design = SystemDesign(htg, function, platform, cache=cache)
    cores, rows = design.vectors(mapping, order)
    effective = []
    for i, core in enumerate(cores):
        base, shared = design.cost(i, core)
        effective.append(base + shared * design.penalties(core)[design.comm_contenders])
    return _TimelineBuilder(design, cores, rows).build(effective)[2]
