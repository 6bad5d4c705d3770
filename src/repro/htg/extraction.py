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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

from repro.frontend.codegen import CompiledModel
from repro.htg.graph import HierarchicalTaskGraph
from repro.htg.task import Task, TaskKind
from repro.ir.analysis import read_write_sets, shared_names
from repro.ir.expressions import ArrayRef, Var
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


def _make_task(
    task_id: str,
    kind: TaskKind,
    stmts: IRBlock,
    origin: str,
    parent: str | None = None,
) -> Task:
    reads, writes = read_write_sets(stmts)
    return Task(
        task_id=task_id,
        kind=kind,
        statements=stmts,
        origin=origin,
        reads=reads,
        writes=writes,
        parent=parent,
    )


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


def _region_tasks(region_name: str, region: IRBlock, options: ExtractionOptions) -> list[Task]:
    """The task decomposition of one code region at the requested granularity."""
    if options.granularity == "loop":
        return _extract_region_fine(region_name, region, options)
    return [_make_task(f"t_{region_name}", TaskKind.BLOCK, region, region_name)]


def extract_htg(model: CompiledModel, options: ExtractionOptions | None = None) -> HierarchicalTaskGraph:
    """Extract the HTG of a compiled model."""
    return _extract(model, options, {}, set())[0]


def extract_htg_incremental(
    model: CompiledModel,
    options: ExtractionOptions | None,
    prev_tasks: Mapping[str, Sequence[Task]],
    unchanged_regions: set[str],
) -> tuple[HierarchicalTaskGraph, dict[str, Any]]:
    """Re-extract the HTG of an edited model, reusing per-region task lists.

    ``prev_tasks`` groups the previous run's leaf tasks by ``Task.origin``
    (the region name); ``unchanged_regions`` names the regions whose
    rendered-code fingerprints match the previous run.  Task ids are a pure
    function of the region name, and a task's content (statements, read/write
    sets) is a pure function of the region code, so an
    unchanged region's tasks can be reused verbatim.  Reused tasks are
    *shallow copies* sharing the previous statements block: the original
    tasks keep their annotations (``annotate_htg`` mutates ``wcet`` in
    place) and the shared ``id(statements)`` preserves the
    :class:`~repro.wcet.cache.WcetAnalysisCache` fingerprint memo hits.

    Inter-task dependence edges are always re-derived globally: they depend
    on the program order of *all* regions, which an edit anywhere can shift.
    Returns the HTG plus an info dict with ``regions_reused`` /
    ``regions_recomputed`` counts and the ``changed_task_ids`` produced by
    recomputed regions.
    """
    return _extract(model, options, prev_tasks, unchanged_regions)


def _extract(
    model: CompiledModel,
    options: ExtractionOptions | None,
    prev_tasks: Mapping[str, Sequence[Task]],
    unchanged_regions: set[str],
) -> tuple[HierarchicalTaskGraph, dict[str, Any]]:
    """The region loop of both extractions (see :func:`extract_htg_incremental`).

    The public functions never call each other: a profiler wrapping both
    would count a nested extraction twice.
    """
    options = options or ExtractionOptions()
    if options.granularity not in ("block", "loop"):
        raise ValueError(f"unknown granularity {options.granularity!r}")
    function = model.entry
    shared_arrays, shared_scalars = shared_names(function)

    tasks: list[Task] = []
    changed_task_ids: set[str] = set()
    regions_reused = 0
    regions_recomputed = 0
    for region_name, region in model.block_regions:
        previous = prev_tasks.get(region_name)
        if previous and region_name in unchanged_regions:
            tasks.extend(replace(task) for task in previous)
            regions_reused += 1
        else:
            fresh = _region_tasks(region_name, region, options)
            changed_task_ids.update(t.task_id for t in fresh)
            tasks.extend(fresh)
            regions_recomputed += 1
    htg = _assemble_htg(model.diagram_name, tasks, function, shared_arrays | shared_scalars)
    info = {
        "regions_reused": regions_reused,
        "regions_recomputed": regions_recomputed,
        "changed_task_ids": changed_task_ids,
    }
    return htg, info


def _assemble_htg(
    name: str, tasks: list[Task], function: Function, shared: frozenset[str]
) -> HierarchicalTaskGraph:
    """Build the task graph: dependence edges over an ordered task list.

    ``shared`` names every variable ``function`` declares in shared storage.
    """
    htg = HierarchicalTaskGraph(name=name)

    for task in tasks:
        htg.add_task(task)

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
        for name in sorted(task.reads & shared):
            decl = function.lookup(name)
            for writer in current_writers.get(name, []):
                if writer.task_id != task.task_id and not same_generation(writer, task):
                    htg.add_edge(
                        writer.task_id,
                        task.task_id,
                        payload_bytes=decl.size_bytes if decl else 0,
                        variables=(name,),
                    )
            readers_since_write.setdefault(name, []).append(task.task_id)
        for name in sorted(task.writes & shared):
            writers = current_writers.get(name, [])
            if writers and same_generation(writers[-1], task):
                writers.append(task)
                sources = generation_sources[name]
            else:
                # New writing generation: order after earlier readers (WAR)
                # and after the previous writers (WAW).
                sources = [r for r in readers_since_write.get(name, []) if r != task.task_id]
                sources += [w.task_id for w in writers if w.task_id != task.task_id]
                generation_sources[name] = sources
                current_writers[name] = [task]
                readers_since_write[name] = []
            for source in sources:
                htg.add_edge(source, task.task_id, payload_bytes=0, variables=(name,))

    # chunk siblings: pre -> chunks -> post ordering is established by buffer
    # deps; ensure pre/post ordering even without buffers.
    by_parent: dict[str, list[Task]] = {}
    for task in tasks:
        if task.parent:
            by_parent.setdefault(task.parent, []).append(task)
    for parent_id, children in by_parent.items():
        pre = [t for t in children if t.kind is TaskKind.PRE]
        post = [t for t in children if t.kind is TaskKind.POST]
        chunk = [t for t in children if t.kind is TaskKind.LOOP_CHUNK]
        for p in pre:
            for c in chunk:
                htg.add_edge(p.task_id, c.task_id)
        for c in chunk:
            for q in post:
                htg.add_edge(c.task_id, q.task_id)

    htg.validate()
    return htg


def _extract_region_fine(
    region_name: str, region: IRBlock, options: ExtractionOptions
) -> list[Task]:
    """Split a region into pre / loop-chunk / post tasks when profitable."""
    splittable_positions: list[int] = []
    for pos, stmt in enumerate(region.stmts):
        if (
            isinstance(stmt, For)
            and is_parallelizable_loop(stmt)
            and loop_trip_count(stmt) >= MIN_TRIP_COUNT_TO_SPLIT
        ):
            splittable_positions.append(pos)

    if not splittable_positions:
        return [_make_task(f"t_{region_name}", TaskKind.BLOCK, region, region_name)]

    # Split around the first parallelizable top-level loop; statements before
    # and after it become pre/post tasks (themselves block tasks).
    pos = splittable_positions[0]
    loop = region.stmts[pos]
    assert isinstance(loop, For)
    parent_id = f"t_{region_name}"
    tasks: list[Task] = []

    pre_stmts = IRBlock(list(region.stmts[:pos]))
    post_stmts = IRBlock(list(region.stmts[pos + 1:]))
    if pre_stmts.stmts:
        tasks.append(
            _make_task(f"{parent_id}_pre", TaskKind.PRE, pre_stmts, region_name, parent=parent_id)
        )
    for idx, chunk_loop in enumerate(_split_loop(loop, options.loop_chunks)):
        chunk_block = IRBlock([chunk_loop])
        tasks.append(
            _make_task(
                f"{parent_id}_c{idx}", TaskKind.LOOP_CHUNK, chunk_block, region_name, parent=parent_id
            )
        )
    if post_stmts.stmts:
        tasks.append(
            _make_task(f"{parent_id}_post", TaskKind.POST, post_stmts, region_name, parent=parent_id)
        )
    return tasks
