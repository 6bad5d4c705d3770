"""HTG extraction from a compiled model.

Two granularities are supported:

* ``"block"`` -- one task per dataflow-block code region (the natural task
  decomposition of the model);
* ``"loop"`` -- additionally, top-level parallelizable loops inside a region
  are split into ``loop_chunks`` contiguous chunk tasks, exposing the
  "very fine grain task decomposition" the paper argues for (Section III-C).

Data dependences between tasks come from the shared signal buffers the front
end introduced: a task writing buffer ``b`` precedes every later task reading
``b``.  Edge payloads are the buffer footprints in bytes, which is what the
mapping stage charges as communication cost when the two endpoints land on
different cores.

A region's task decomposition -- the statement blocks of its tasks, their
read/write sets and the parallel-loop test behind them -- is a per-region
fact (:func:`region_decomposition`, read through
:class:`~repro.ir.facts.RegionFacts`).  The pipeline memoizes it in its
cache's region memo, keyed by granularity and chunk count, so a sweep or
an edit round decomposes each region once per pair of knobs.  A loop chunk
is ``Block([For(i, Const(lo), Const(hi), body)])`` over the split loop's
one ``body`` object: the chunks differ only in their constant bounds, so
they share one pair of read/write sets, walked once per loop, and the
code-level cache prices, renders and walks the body once for all of them
(see :mod:`repro.wcet.cache`).  Extraction reads no platform.  The tasks
are fresh objects on every extraction, and the dependence edges are always
derived from the whole task list, as they depend on the program order of
every region: one pass collects them into a dict that keeps the first edge
of each (src, dst) pair, looking up each shared name's payload size once,
and :meth:`~repro.htg.graph.HierarchicalTaskGraph.from_edges` builds the
graph from it in bulk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.frontend.codegen import CompiledModel
from repro.htg.graph import HierarchicalTaskGraph, TaskEdge
from repro.htg.task import Task, TaskKind
from repro.ir.analysis import read_write_sets, shared_names
from repro.ir.expressions import ArrayRef, Var
from repro.ir.facts import RegionFacts
from repro.ir.loops import loop_trip_count
from repro.ir.program import Function
from repro.ir.statements import Assign, Block as IRBlock, For, Stmt

#: Smallest trip count at which loop granularity splits a parallel loop.
MIN_TRIP_COUNT_TO_SPLIT = 4


def _first_index_is(ref: ArrayRef, index_name: str) -> bool:
    """True when the first index of ``ref`` is a function of the loop variable only.

    The front end lowers Scilab's 1-based indexing to ``i - 1`` expressions,
    so plain equality with the loop variable would be too strict; any index
    expression whose only free variable is the loop index (``i``, ``i - 1``,
    ``i + 2`` ...) identifies an iteration-owned element.
    """
    first = ref.indices[0]
    if isinstance(first, Var):
        return first.name == index_name
    return first.variables_read() == {index_name}


def is_parallelizable_loop(loop: For) -> bool:
    """Conservative dependence test for splitting a counted loop.

    A loop is considered parallelizable when:

    * every array element *written* in the body is indexed by the loop
      variable in its first dimension (each iteration owns its slice);
    * every *read* of an array that is also written uses the loop variable as
      its first index (no reads of neighbouring iterations' data);
    * every scalar written in the body is defined unconditionally at the top
      of the body before any use (a per-iteration temporary, not a reduction
      accumulator carried across iterations);
    * the loop variable itself is never assigned.

    This is deliberately conservative: reductions (``best = max(best, ...)``)
    and stencil-style reads fail the test and stay sequential.
    """
    index_name = loop.index.name
    #: written array -> set of textual first-index expressions used for writes
    write_indices: dict[str, set[str]] = {}
    written_scalars: list[str] = []

    for stmt in loop.body.walk():
        if isinstance(stmt, Assign):
            if isinstance(stmt.target, ArrayRef):
                if not _first_index_is(stmt.target, index_name):
                    return False
                write_indices.setdefault(stmt.target.array, set()).add(str(stmt.target.indices[0]))
            else:
                if stmt.target.name == index_name:
                    return False
                written_scalars.append(stmt.target.name)
        elif isinstance(stmt, For):
            written_scalars.append(stmt.index.name)

    # Reads of written arrays must target the very elements this iteration
    # writes (same first-index expression); reading a neighbouring element
    # (e.g. write y(i+1), read y(i)) is a loop-carried dependence.
    for stmt in loop.body.walk():
        for expr in stmt.expressions():
            for ref in expr.array_reads():
                if ref.array in write_indices:
                    if str(ref.indices[0]) not in write_indices[ref.array]:
                        return False

    # scalars must be defined before use within one iteration (def-first)
    for name in set(written_scalars):
        if not _scalar_defined_before_use(loop.body, name):
            return False
    return True


def _scalar_defined_before_use(body: IRBlock, name: str) -> bool:
    """True when the first top-level reference to ``name`` in ``body`` is an
    unconditional whole-scalar assignment that does not read ``name``."""
    for stmt in body.stmts:
        reads_here = any(name in e.variables_read() for e in _all_expressions(stmt))
        if isinstance(stmt, Assign) and isinstance(stmt.target, Var) and stmt.target.name == name:
            return name not in stmt.value.variables_read()
        if isinstance(stmt, For) and stmt.index.name == name:
            # loop index of an inner loop: defined by the loop itself
            return True
        if reads_here or name in stmt.variables_written():
            return False
    return True


def _all_expressions(stmt: Stmt):
    for node in stmt.walk():
        yield from node.expressions()


def _split_loop(loop: For, chunks: int) -> list[For]:
    """Split a counted loop into ``chunks`` contiguous sub-loops.

    The chunks share the loop's body: each is a fresh ``For`` over the same
    (never mutated) statements, one chunk per task.
    """
    from repro.ir.expressions import Const, try_evaluate_constant

    lower = try_evaluate_constant(loop.lower)
    upper = try_evaluate_constant(loop.upper)
    if lower is None or upper is None:
        return [loop]
    lower_i, upper_i = int(lower), int(upper)
    total = max(0, upper_i - lower_i)
    chunks = max(1, min(chunks, total))
    result: list[For] = []
    base = total // chunks
    remainder = total % chunks
    start = lower_i
    for c in range(chunks):
        size = base + (1 if c < remainder else 0)
        end = start + size
        result.append(
            For(
                index=loop.index,
                lower=Const(start),
                upper=Const(end),
                body=loop.body,
                step=loop.step,
                max_trip_count=size,
                parallelizable=loop.parallelizable,
            )
        )
        start = end
    return result


@dataclass
class ExtractionOptions:
    """Tuning knobs for HTG extraction."""

    granularity: str = "block"      # "block" | "loop"
    loop_chunks: int = 4            # chunk count for split parallel loops


class TaskPart(NamedTuple):
    """One task of a region's decomposition, without the region's name.

    The task's id is ``t_<region>`` plus ``suffix`` (empty for a region
    that is one task, which then has no parent).  ``statements`` is ``None``
    for a task that executes the whole region: a per-region fact must not
    hold its region.
    """

    suffix: str
    kind: TaskKind
    statements: IRBlock | None
    reads: frozenset[str]
    writes: frozenset[str]


def region_decomposition(
    region: IRBlock, granularity: str, loop_chunks: int
) -> tuple[TaskPart, ...]:
    """The task decomposition of one code region: a per-region fact.

    At ``"block"`` granularity, or when the region has no top-level
    parallelizable loop of at least :data:`MIN_TRIP_COUNT_TO_SPLIT`
    iterations, the region is one task.  Otherwise the first such loop is
    split into ``loop_chunks`` chunk tasks, and the statements before and
    after it become a pre and a post task.  A pure function of the region's
    statements and the two knobs, so extraction reads it through
    :class:`~repro.ir.facts.RegionFacts`: the chunk, pre and post blocks
    it builds are then the same objects on every extraction of the region
    at the same knobs, and their fingerprints stay memoized too.
    """
    if granularity == "loop":
        for pos, stmt in enumerate(region.stmts):
            if (
                isinstance(stmt, For)
                and is_parallelizable_loop(stmt)
                and loop_trip_count(stmt) >= MIN_TRIP_COUNT_TO_SPLIT
            ):
                return _split_region(region, pos, stmt, loop_chunks)
    reads, writes = read_write_sets(region)
    return (TaskPart("", TaskKind.BLOCK, None, frozenset(reads), frozenset(writes)),)


def _part(suffix: str, kind: TaskKind, stmts: IRBlock) -> TaskPart:
    reads, writes = read_write_sets(stmts)
    return TaskPart(suffix, kind, stmts, frozenset(reads), frozenset(writes))


def _split_region(
    region: IRBlock, pos: int, loop: For, loop_chunks: int
) -> tuple[TaskPart, ...]:
    """Split a region around its parallel loop at ``pos`` into pre /
    loop-chunk / post tasks.

    The chunks differ only in their constant bounds, which read no
    variable, so they share one pair of read/write sets, walked once.
    """
    parts: list[TaskPart] = []
    pre_stmts = IRBlock(list(region.stmts[:pos]))
    post_stmts = IRBlock(list(region.stmts[pos + 1:]))
    if pre_stmts.stmts:
        parts.append(_part("_pre", TaskKind.PRE, pre_stmts))
    chunks = [IRBlock([chunk_loop]) for chunk_loop in _split_loop(loop, loop_chunks)]
    reads, writes = read_write_sets(chunks[0])
    chunk_reads, chunk_writes = frozenset(reads), frozenset(writes)
    for idx, chunk in enumerate(chunks):
        parts.append(TaskPart(f"_c{idx}", TaskKind.LOOP_CHUNK, chunk, chunk_reads, chunk_writes))
    if post_stmts.stmts:
        parts.append(_part("_post", TaskKind.POST, post_stmts))
    return tuple(parts)


def extract_htg(
    model: CompiledModel,
    options: ExtractionOptions | None = None,
    facts: RegionFacts | None = None,
) -> HierarchicalTaskGraph:
    """Extract the HTG of a compiled model.

    Each region's task decomposition is read through ``facts``
    (:func:`region_decomposition`); with a memo behind it (the pipeline
    passes the cache's region memo), only regions without a decomposition
    at these options are decomposed.  The tasks are fresh objects on every
    call; the dependence edges are always derived from the whole task list.
    """
    return _extract(model, options, facts)


def extract_htg_incremental(
    model: CompiledModel,
    options: ExtractionOptions | None,
    facts: RegionFacts,
) -> tuple[HierarchicalTaskGraph, dict[str, Any]]:
    """:func:`extract_htg` with the reuse accounting of an edit round.

    Returns the HTG plus an info dict: ``regions_recomputed`` counts the
    regions this call decomposed (``facts`` held no decomposition of them
    at these options; counted from ``facts.computed``, so pass an instance
    that has computed nothing on them yet) and ``regions_reused`` the
    others.  An edit round hands over the unchanged regions themselves, so
    only the regions the edit changed are decomposed.
    """
    before = len(facts.computed)
    htg = _extract(model, options, facts)
    recomputed = len(facts.computed) - before
    info = {
        "regions_reused": len(model.block_regions) - recomputed,
        "regions_recomputed": recomputed,
    }
    return htg, info


def _extract(
    model: CompiledModel,
    options: ExtractionOptions | None,
    facts: RegionFacts | None,
) -> HierarchicalTaskGraph:
    """The region loop of both extractions.

    The public functions never call each other: a profiler wrapping both
    would count a nested extraction twice.
    """
    options = options or ExtractionOptions()
    if options.granularity not in ("block", "loop"):
        raise ValueError(f"unknown granularity {options.granularity!r}")
    facts = facts if facts is not None else RegionFacts()
    function = model.entry
    shared_arrays, shared_scalars = shared_names(function)

    tasks: list[Task] = []
    for region_name, region in model.block_regions:
        parent = f"t_{region_name}"
        parts = facts(region, region_decomposition, options.granularity, options.loop_chunks)
        for part in parts:
            tasks.append(
                Task(
                    task_id=parent + part.suffix,
                    kind=part.kind,
                    statements=region if part.statements is None else part.statements,
                    origin=region_name,
                    reads=set(part.reads),
                    writes=set(part.writes),
                    parent=parent if part.suffix else None,
                )
            )
    return _assemble_htg(model.diagram_name, tasks, function, shared_arrays | shared_scalars)


def _assemble_htg(
    name: str, tasks: list[Task], function: Function, shared: frozenset[str]
) -> HierarchicalTaskGraph:
    """Build the task graph: dependence edges over an ordered task list.

    ``shared`` names every variable ``function`` declares in shared storage.
    The edges are collected in one pass into a dict that keeps the first
    edge of each (src, dst) pair, as
    :meth:`~repro.htg.graph.HierarchicalTaskGraph.add_edge` does, and the
    graph is built from it in bulk; a shared name's payload size is looked
    up once.
    """
    edges: dict[tuple[str, str], TaskEdge] = {}
    payloads: dict[str, int] = {}

    # Data dependences through shared buffers, honouring program order.
    # ``current_writers`` holds the tasks of the current "writing generation"
    # of each buffer: sibling loop chunks of the same parent write disjoint
    # slices of the same buffer and therefore form one generation with no
    # edges among themselves.  ``generation_sources`` holds what the
    # generation must follow -- the readers since the previous generation
    # (WAR) and its writers (WAW) -- so that every chunk, not only the
    # first, is ordered after them.
    current_writers: dict[str, list[Task]] = {}
    readers_since_write: dict[str, list[str]] = {}
    generation_sources: dict[str, list[str]] = {}

    def same_generation(a: Task, b: Task) -> bool:
        return (
            a.kind is TaskKind.LOOP_CHUNK
            and b.kind is TaskKind.LOOP_CHUNK
            and a.parent is not None
            and a.parent == b.parent
        )

    for task in tasks:
        tid = task.task_id
        for var in sorted(task.reads & shared):
            writers = current_writers.get(var)
            if writers:
                payload = payloads.get(var)
                if payload is None:
                    decl = function.lookup(var)
                    payload = payloads[var] = decl.size_bytes if decl else 0
                for writer in writers:
                    src = writer.task_id
                    if src != tid and (src, tid) not in edges and not same_generation(writer, task):
                        edges[src, tid] = TaskEdge(src, tid, payload, (var,))
            readers_since_write.setdefault(var, []).append(tid)
        for var in sorted(task.writes & shared):
            writers = current_writers.get(var, [])
            if writers and same_generation(writers[-1], task):
                writers.append(task)
                sources = generation_sources[var]
            else:
                # New writing generation: order after earlier readers (WAR)
                # and after the previous writers (WAW).
                sources = [r for r in readers_since_write.get(var, []) if r != tid]
                sources += [w.task_id for w in writers if w.task_id != tid]
                generation_sources[var] = sources
                current_writers[var] = [task]
                readers_since_write[var] = []
            for source in sources:
                pair = (source, tid)
                if pair not in edges:
                    edges[pair] = TaskEdge(source, tid, 0, (var,))

    # chunk siblings: pre -> chunks -> post ordering is established by buffer
    # deps; ensure pre/post ordering even without buffers.
    by_parent: dict[str, list[Task]] = {}
    for task in tasks:
        if task.parent:
            by_parent.setdefault(task.parent, []).append(task)
    for children in by_parent.values():
        pre = [t.task_id for t in children if t.kind is TaskKind.PRE]
        post = [t.task_id for t in children if t.kind is TaskKind.POST]
        chunk = [t.task_id for t in children if t.kind is TaskKind.LOOP_CHUNK]
        pairs = [(p, c) for p in pre for c in chunk] + [(c, q) for c in chunk for q in post]
        for pair in pairs:
            if pair not in edges:
                edges[pair] = TaskEdge(*pair)

    htg = HierarchicalTaskGraph.from_edges(name, tasks, edges)
    htg.validate()
    return htg
