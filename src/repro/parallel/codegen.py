"""C-like rendering of the explicit parallel program.

Produces the "C code following the WCET-aware programming model" of paper
Section II-C: one function per core, busy-wait synchronisation on shared
flags, and a header comment with the shared-memory map.
"""

from __future__ import annotations

from repro.htg.graph import HierarchicalTaskGraph
from repro.ir.printer import to_c
from repro.ir.program import Function
from repro.parallel.model import ParallelProgram, SyncOp
from repro.utils.graphs import Reachability


class CodegenRaceError(RuntimeError):
    """The program to be rendered can deadlock, or leaves a dependence or a
    conflicting shared-access pair unordered."""


def _program_order(
    program: ParallelProgram,
) -> tuple[dict[str, int], list[tuple[str, str]], list[str]]:
    """The mapping and the happens-before edges the program itself
    enforces -- each core's tasks in item order, and one edge per flag from
    the task before its signal to each task after a wait on it -- plus the
    flags waited on but never signalled.

    A signal before any task of its core orders nothing, and neither does
    a flag signalled more than once (a wait may return after either).
    """
    mapping: dict[str, int] = {}
    pairs: list[tuple[str, str]] = []
    signallers: dict[str, list[str | None]] = {}
    waiters: dict[str, list[str]] = {}
    unsignalled: list[str] = []
    for core_id, core_program in program.core_programs.items():
        last: str | None = None
        waits: list[str] = []
        for item in core_program.items:
            if isinstance(item, SyncOp):
                if item.kind == "signal":
                    signallers.setdefault(item.flag, []).append(last)
                else:
                    waits.append(item.flag)
                    unsignalled.append(item.flag)
                continue
            mapping[item] = core_id
            if last is not None:
                pairs.append((last, item))
            for flag in waits:
                waiters.setdefault(flag, []).append(item)
            waits = []
            last = item
    for flag, sources in signallers.items():
        if len(sources) == 1 and sources[0] is not None:
            pairs.extend((sources[0], waiter) for waiter in waiters.get(flag, ()))
    return mapping, pairs, [flag for flag in unsignalled if flag not in signallers]


def parallel_program_to_c(
    program: ParallelProgram,
    htg: HierarchicalTaskGraph,
    function: Function | None = None,
    check_races: bool = True,
) -> str:
    """Render the parallel program as annotated C-like source text.

    When ``function`` is supplied (it carries the storage classes of the
    shared declarations) and ``check_races`` is on, the emitted layout is
    first re-checked against the happens-before order the *program itself*
    enforces -- each core's item order plus one signal -> wait edge per
    flag, not the schedule's dependences -- so the check covers the syncs
    actually printed, elided ones included.  A wait on a flag nobody
    signals, a cyclic wait, a dependence between two of its tasks left
    unordered, or a race the static race checker finds raises
    :class:`CodegenRaceError` instead of emitting unsound C.
    """
    if function is not None and check_races:
        from repro.analysis.races import scan_races

        mapping, pairs, unsignalled = _program_order(program)
        closure = Reachability(htg.tasks.keys(), pairs)
        problems = [f"flag {flag} is waited on but never signalled" for flag in unsignalled]
        problems += [
            f"task {tid!r} waits on itself" for tid in mapping if closure.reaches(tid, tid)
        ]
        problems += [
            f"dependence {e.src} -> {e.dst} is not ordered"
            for e in htg.edges
            if e.src in mapping and e.dst in mapping and not closure.reaches(e.src, e.dst)
        ]
        report = scan_races(htg, mapping, function, closure)
        # warnings (e.g. race.chunk-overlap-unproven) do not block
        problems += [str(f) for f in report.findings if f.severity == "error"]
        if problems:
            raise CodegenRaceError(
                f"refusing to emit C for {program.name!r}: " + "; ".join(problems)
            )
    lines: list[str] = []
    lines.append(f"/* parallel program {program.name} for platform {program.platform_name} */")
    lines.append("/* shared memory map:")
    for name, (address, size) in sorted(program.memory_map.items(), key=lambda kv: kv[1][0]):
        lines.append(f" *   0x{address:06x}  {size:8d} B  {name}")
    lines.append(" */")
    lines.append("")

    # a task's WCET on the core it is mapped to; an unanalysed schedule has none
    result = program.schedule.result
    for core_id in sorted(program.core_programs):
        core_program = program.core_programs[core_id]
        lines.append(f"void core{core_id}_main(void)")
        lines.append("{")
        for item in core_program.items:
            if isinstance(item, SyncOp):
                if item.kind == "wait":
                    lines.append(f"    while (!{item.flag}) {{ /* spin */ }}  /* from core {item.partner_core} */")
                else:
                    lines.append(f"    {item.flag} = 1;  /* to core {item.partner_core} */")
                continue
            task = htg.task(item)
            wcet = "" if result is None else f", wcet {result.task_base_wcet[item]:.0f} cycles"
            lines.append(f"    /* task {task.task_id} (origin: {task.origin}{wcet}) */")
            body = to_c(task.statements)
            for body_line in body.splitlines():
                lines.append(f"    {body_line}")
        lines.append("}")
        lines.append("")
    return "\n".join(lines)
