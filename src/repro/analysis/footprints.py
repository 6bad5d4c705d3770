"""Per-task shared-memory footprints with index intervals.

For every leaf task this analysis computes *which* shared variables the
task's statements may touch, and for shared arrays *where*: a closed
interval over-approximating every first-dimension index the task can use.
Index intervals come from :mod:`repro.analysis.value_range` expression
evaluation under the loop-index environment built while walking the task's
statements; any index the evaluator cannot bound degrades to the whole
array, so the footprint over-approximates by construction.

Two consumers, two different questions:

* :func:`footprints_conflict_free` -- the race checker's question: can the
  two tasks conflict (write-write or write-read overlap) on any shared
  variable?  Shared *scalars* participate (a scalar is a single cell, its
  footprint is the whole cell); read-read overlap is fine.  This is what
  replaces the old blanket loop-chunk exemption with an actual proof.
* :func:`footprints_address_disjoint` -- the static-MHP question: can the
  two tasks touch a common shared-array element at all?  *Any* access
  overlap (reads included) blocks pruning, because the interference model
  charges contention per access, not per conflict.  Shared scalars are
  ignored here: the system-level analysis only counts shared *array*
  accesses as interference-prone (the cost semantics of
  :mod:`repro.wcet.hardware_model`).
  :func:`address_overlaps` answers the same question for every pair of a
  task set at once, with one interval sweep per array.

Soundness notes:

* Only the first index of a multi-dimensional access is tracked.  Two
  accesses with disjoint first-index intervals address disjoint element
  sets regardless of the remaining dimensions, so the one-dimensional test
  is sound (merely imprecise for column-wise sharing).
* The interpreter truncates every index expression to ``int`` before the
  access, so recorded intervals are truncated endpoint-wise
  (``trunc`` is monotone; without it ``[-0.5, -0.2]`` and ``[0.2, 0.5]``
  would look disjoint while both address element 0).
* Tasks run mid-function: declared initial values of locals may have been
  overwritten by earlier tasks, so expression evaluation starts from an
  empty environment (everything top) and only ``for``-loop indices are
  constrained.  A statement assigning a tracked index kills its range.
* Hand-built tasks may declare read/write sets their ``statements`` block
  does not contain (the extractor always keeps them in sync).  Any
  declared-but-unseen shared name is merged as a *whole* footprint, so a
  declared access can never be silently dropped.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.analysis.value_range import INF, TOP, Env, ValueRange, eval_range
from repro.htg.task import Task
from repro.ir.analysis import shared_names
from repro.ir.expressions import ArrayRef, Expr, Var
from repro.ir.program import Function
from repro.ir.statements import (
    Assign,
    Block,
    ExprStmt,
    For,
    If,
    Return,
    Stmt,
    While,
)
from repro.wcet.cache import WcetAnalysisCache, shared_cache


@dataclass(frozen=True)
class TaskFootprint:
    """Over-approximated shared-memory footprint of one task.

    ``array_reads`` / ``array_writes`` map shared array names to the closed
    interval of first-dimension indices the task may use (``TOP`` = the
    whole array).  ``scalar_reads`` / ``scalar_writes`` are the shared
    scalars touched (each is one cell, so no interval is needed).
    """

    task_id: str
    array_reads: dict[str, ValueRange] = field(default_factory=dict)
    array_writes: dict[str, ValueRange] = field(default_factory=dict)
    scalar_reads: frozenset[str] = frozenset()
    scalar_writes: frozenset[str] = frozenset()

    def as_dict(self) -> dict:
        def ranges(acc: dict[str, ValueRange]) -> dict[str, list[float]]:
            return {name: [acc[name].lo, acc[name].hi] for name in sorted(acc)}

        return {
            "task": self.task_id,
            "array_reads": ranges(self.array_reads),
            "array_writes": ranges(self.array_writes),
            "scalar_reads": sorted(self.scalar_reads),
            "scalar_writes": sorted(self.scalar_writes),
        }


def _trunc(x: float) -> float:
    """Endpoint-wise ``int()`` truncation; monotone, infinity-preserving."""
    if x == INF or x == -INF:
        return x
    return float(math.trunc(x))


def _index_interval(rng: ValueRange) -> ValueRange:
    return ValueRange(_trunc(rng.lo), _trunc(rng.hi))


def iteration_value_range(stmt: For, env: Env) -> ValueRange | None:
    """Interval of the values the loop *body* can observe in the index.

    Unlike :meth:`ValueRangeAnalysis._header_index_range` this excludes the
    final header visit that fails the loop test -- the body never sees that
    overshoot value.  Returns ``None`` when the loop provably never runs.
    The interpreter truncates both bounds to ``int`` before iterating, so
    the endpoints are truncated the same way.
    """
    lo_r = eval_range(stmt.lower, env)
    up_r = eval_range(stmt.upper, env)
    if stmt.step > 0:
        lo = _trunc(lo_r.lo)
        hi = _trunc(up_r.hi) - 1 if up_r.hi < INF else INF
    else:
        lo = _trunc(up_r.lo) + 1 if up_r.lo > -INF else -INF
        hi = _trunc(lo_r.hi)
    if lo > hi:
        return None
    return ValueRange(lo, hi)


class _FootprintWalker:
    def __init__(self, shared: tuple[frozenset[str], frozenset[str]]) -> None:
        self.shared_arrays, self.shared_scalars = shared
        self.array_reads: dict[str, ValueRange] = {}
        self.array_writes: dict[str, ValueRange] = {}
        self.scalar_reads: set[str] = set()
        self.scalar_writes: set[str] = set()

    def _record(self, acc: dict[str, ValueRange], name: str, rng: ValueRange) -> None:
        cur = acc.get(name)
        acc[name] = rng if cur is None else cur.hull(rng)

    def _read_expr(self, expr: Expr, env: Env) -> None:
        for node in expr.walk():
            if isinstance(node, ArrayRef):
                if node.array in self.shared_arrays:
                    self._record(
                        self.array_reads,
                        node.array,
                        _index_interval(eval_range(node.indices[0], env)),
                    )
            elif isinstance(node, Var) and node.name in self.shared_scalars:
                self.scalar_reads.add(node.name)

    def walk(self, stmt: Stmt, env: Env) -> None:
        if isinstance(stmt, Assign):
            for expr in stmt.expressions():
                self._read_expr(expr, env)
            target = stmt.target
            if isinstance(target, ArrayRef):
                if target.array in self.shared_arrays:
                    self._record(
                        self.array_writes,
                        target.array,
                        _index_interval(eval_range(target.indices[0], env)),
                    )
            else:
                if target.name in self.shared_scalars:
                    self.scalar_writes.add(target.name)
                # flow-insensitive soundness: a tracked index that gets
                # reassigned can no longer be bounded by its loop range
                env.pop(target.name, None)
            return
        if isinstance(stmt, (Return, ExprStmt)):
            for expr in stmt.expressions():
                self._read_expr(expr, env)
            return
        if isinstance(stmt, Block):
            for child in stmt.stmts:
                self.walk(child, env)
            return
        if isinstance(stmt, If):
            self._read_expr(stmt.cond, env)
            self.walk(stmt.then_body, env)
            self.walk(stmt.else_body, env)
            return
        if isinstance(stmt, For):
            for expr in stmt.expressions():
                self._read_expr(expr, env)
            rng = iteration_value_range(stmt, env)
            if rng is None:  # provably zero-trip: the body never executes
                return
            name = stmt.index.name
            saved = env.get(name)
            env[name] = rng
            self.walk(stmt.body, env)
            if saved is None:
                env.pop(name, None)
            else:
                env[name] = saved
            return
        if isinstance(stmt, While):
            self._read_expr(stmt.cond, env)
            self.walk(stmt.body, env)
            return
        raise TypeError(f"unsupported statement {type(stmt).__name__}")


def task_footprint(
    function: Function,
    task: Task,
    shared: tuple[frozenset[str], frozenset[str]] | None = None,
) -> TaskFootprint:
    """Sound shared-memory footprint of ``task`` (see the module docstring).

    ``shared`` is :func:`~repro.ir.analysis.shared_names` of ``function``,
    when the caller already has it.
    """
    walker = _FootprintWalker(shared if shared is not None else shared_names(function))
    walker.walk(task.statements, {})
    # merge declared-but-unseen shared names as whole footprints: hand-built
    # tasks may declare accesses their statements block does not contain
    for name in task.reads:
        if name in walker.shared_arrays and name not in walker.array_reads:
            walker.array_reads[name] = TOP
        elif name in walker.shared_scalars:
            walker.scalar_reads.add(name)
    for name in task.writes:
        if name in walker.shared_arrays and name not in walker.array_writes:
            walker.array_writes[name] = TOP
        elif name in walker.shared_scalars:
            walker.scalar_writes.add(name)
    return TaskFootprint(
        task_id=task.task_id,
        array_reads=walker.array_reads,
        array_writes=walker.array_writes,
        scalar_reads=frozenset(walker.scalar_reads),
        scalar_writes=frozenset(walker.scalar_writes),
    )


def _overlap(a: ValueRange, b: ValueRange) -> bool:
    """Closed-interval overlap (indices are integers; endpoints count)."""
    return a.lo <= b.hi and b.lo <= a.hi


def footprints_conflict_free(a: TaskFootprint, b: TaskFootprint) -> bool:
    """Prove no write-write or write-read overlap on any shared variable.

    This is the obligation the race checker's loop-chunk exemption must
    discharge: read-read sharing is harmless, every other overlap is a
    potential race.
    """
    if a.scalar_writes & (b.scalar_writes | b.scalar_reads):
        return False
    if b.scalar_writes & a.scalar_reads:
        return False
    for name, wa in a.array_writes.items():
        other = b.array_writes.get(name)
        if other is not None and _overlap(wa, other):
            return False
        other = b.array_reads.get(name)
        if other is not None and _overlap(wa, other):
            return False
    for name, wb in b.array_writes.items():
        other = a.array_reads.get(name)
        if other is not None and _overlap(wb, other):
            return False
    return True


def _array_accesses(fp: TaskFootprint) -> list[tuple[str, ValueRange]]:
    """Every ``(array, index interval)`` access of ``fp``, reads and writes."""
    return [*fp.array_reads.items(), *fp.array_writes.items()]


def footprints_address_disjoint(a: TaskFootprint, b: TaskFootprint) -> bool:
    """Prove the two tasks touch no common shared-array element.

    Reads count: the interference model charges every shared-array access,
    so only fully address-disjoint tasks can be excluded from each other's
    contender sets.  Shared scalars are ignored (they generate no counted
    interference accesses).
    """
    return not any(
        name_a == name_b and _overlap(ra, rb)
        for name_a, ra in _array_accesses(a)
        for name_b, rb in _array_accesses(b)
    )


def address_overlaps(footprints: Mapping[str, TaskFootprint]) -> dict[str, set[str]]:
    """Per task, the other tasks it may share a shared-array element with.

    ``b in result[a]`` exactly when ``footprints_address_disjoint`` fails for
    the two footprints (``a != b``), but found by one sort-and-sweep per
    array over the closed access intervals instead of a test per pair: the
    cost is the sort plus the number of overlapping pairs reported.
    """
    by_array: dict[str, list[tuple[float, float, str]]] = {}
    for tid, fp in footprints.items():
        for name, rng in _array_accesses(fp):
            by_array.setdefault(name, []).append((rng.lo, rng.hi, tid))
    overlaps: dict[str, set[str]] = {tid: set() for tid in footprints}
    for intervals in by_array.values():
        intervals.sort(key=lambda iv: iv[0])
        active: list[tuple[float, str]] = []  # min-heap on the upper end
        for lo, hi, tid in intervals:
            # closed intervals: one ending exactly at ``lo`` still overlaps
            while active and active[0][0] < lo:
                heapq.heappop(active)
            for _, other in active:
                if other != tid:
                    overlaps[tid].add(other)
                    overlaps[other].add(tid)
            heapq.heappush(active, (hi, tid))
    return overlaps


class FootprintStore:
    """The footprint memo of a :class:`~repro.wcet.cache.WcetAnalysisCache`,
    reached as its :attr:`~repro.wcet.cache.WcetAnalysisCache.footprints`.

    A footprint is a pure function of the task's statements, its declared
    read/write sets and, through the function, the storage class and type
    of the names those reference.  So it is a per-region fact of the
    statements block (:meth:`~repro.wcet.cache.WcetAnalysisCache.region_facts`),
    as a task decomposition is, keyed by the
    :meth:`~repro.wcet.cache.WcetAnalysisCache.region_context` of the
    referenced and declared names plus the two declared sets: an edit
    round or design point that hands a block over walks it again only under
    other declarations, and the memo lives exactly as long as the block.
    """

    def __init__(self, wcet_cache: WcetAnalysisCache) -> None:
        self._cache = wcet_cache

    def footprint(self, function: Function, task: Task) -> TaskFootprint:
        cache = self._cache
        reads, writes = frozenset(task.reads), frozenset(task.writes)
        key = (
            "footprint",
            cache.region_context(task.statements, function, reads | writes),
            reads,
            writes,
        )
        facts = cache.region_facts(task.statements)
        fp = facts.get(key)
        if fp is None:
            fp = facts[key] = task_footprint(function, task, cache.shared_names(function))
        return fp if fp.task_id == task.task_id else replace(fp, task_id=task.task_id)


def task_footprints(
    function: Function,
    tasks: "list[Task]",
    store: FootprintStore | None = None,
) -> dict[str, TaskFootprint]:
    """Footprints of ``tasks`` keyed by task id (memoized via ``store``, by
    default the footprint memo of :func:`~repro.wcet.cache.shared_cache`)."""
    store = store if store is not None else shared_cache().footprints
    return {t.task_id: store.footprint(function, t) for t in tasks}
