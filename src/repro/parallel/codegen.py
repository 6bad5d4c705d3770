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


class CodegenRaceError(RuntimeError):
    """The program to be rendered contains an unordered shared-access pair."""


def _program_schedule(program: ParallelProgram) -> tuple[dict[str, int], dict[int, list[str]]]:
    """Mapping and per-core order as actually laid out in the program."""
    mapping: dict[str, int] = {}
    order: dict[int, list[str]] = {}
    for core_id, core_program in program.core_programs.items():
        tasks = [item for item in core_program.items if not isinstance(item, SyncOp)]
        order[core_id] = tasks
        for task_id in tasks:
            mapping[task_id] = core_id
    return mapping, order


def parallel_program_to_c(
    program: ParallelProgram,
    htg: HierarchicalTaskGraph,
    function: Function | None = None,
    check_races: bool = True,
) -> str:
    """Render the parallel program as annotated C-like source text.

    When ``function`` is supplied (it carries the storage classes of the
    shared declarations) and ``check_races`` is on, the emitted layout is
    first re-checked by the static race checker -- using the mapping/order
    reconstructed from the *program itself*, so the check covers what is
    actually printed, not what the schedule intended.  A detected race
    raises :class:`CodegenRaceError` instead of emitting unsound C.
    """
    if function is not None and check_races:
        from repro.analysis.races import check_races as _check

        mapping, order = _program_schedule(program)
        report = _check(htg, mapping, order, function)
        if report.count("error"):
            # warnings (e.g. race.chunk-overlap-unproven) do not block
            raise CodegenRaceError(
                f"refusing to emit C for {program.name!r}: "
                + "; ".join(str(f) for f in report.findings if f.severity == "error")
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
