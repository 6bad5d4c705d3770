"""Construction of the explicit parallel program model.

The parallel program makes two things explicit that the scheduling result
only implies (paper Section II-C):

* synchronisation: every dependence edge whose endpoints live on different
  cores becomes a signal/wait pair over a dedicated flag;
* memory mapping: all shared objects (the function's shared, input and
  output declarations, and one flag per cross-core edge) receive concrete
  addresses in the platform's shared memory.

The program communicates in place: a consumer reads its producer's SHARED
signal where the producer wrote it (the scratchpad pass keeps those signals
shared), so no edge gets a buffer of its own.  The system-level analysis
still charges each cross-core edge a transfer delay
(:meth:`~repro.wcet.system_level.SystemDesign.delay`) until one
communication model replaces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from repro.adl.architecture import Platform
from repro.htg.graph import HierarchicalTaskGraph
from repro.ir.program import Function, Storage
from repro.scheduling.schedule import Schedule


@dataclass(frozen=True)
class SyncOp:
    """A synchronisation operation in a core program."""

    kind: Literal["signal", "wait"]
    flag: str
    partner_core: int
    task_id: str

    def __str__(self) -> str:
        return f"{self.kind}({self.flag}) [core {self.partner_core}]"


@dataclass
class CoreProgram:
    """The ordered program of one core: tasks interleaved with sync ops."""

    core_id: int
    #: Sequence of items; each item is either a task id (str) or a SyncOp.
    items: list[str | SyncOp] = field(default_factory=list)

    def task_ids(self) -> list[str]:
        return [item for item in self.items if isinstance(item, str)]

    def sync_ops(self) -> list[SyncOp]:
        return [item for item in self.items if isinstance(item, SyncOp)]


@dataclass
class ParallelProgram:
    """The complete explicit parallel program."""

    name: str
    core_programs: dict[int, CoreProgram]
    #: Shared-object name -> (address, size) in the platform shared memory.
    memory_map: dict[str, tuple[int, int]]
    schedule: Schedule
    platform_name: str

    @property
    def num_sync_ops(self) -> int:
        return sum(len(cp.sync_ops()) for cp in self.core_programs.values())

    def shared_footprint_bytes(self) -> int:
        return sum(size for _, size in self.memory_map.values())


class MemoryMapError(ValueError):
    """Raised when shared objects do not fit in the platform shared memory."""


def build_parallel_program(
    htg: HierarchicalTaskGraph,
    function: Function,
    platform: Platform,
    schedule: Schedule,
) -> ParallelProgram:
    """Turn an analysed schedule into the explicit parallel program model.

    The program is valid by construction once ``schedule.validate`` accepts
    the schedule: each core runs its tasks in ``schedule.order``, which that
    check orders by the HTG's dependences, and every cross-core edge gets
    one flag, waited on before its consumer and signalled after its
    producer.
    """
    schedule.validate(htg, platform)

    core_programs: dict[int, CoreProgram] = {
        core: CoreProgram(core_id=core, items=[]) for core in schedule.order
    }

    # Cross-core edges become signal/wait pairs.
    cross_edges = [
        e
        for e in htg.edges
        if e.src in schedule.mapping
        and e.dst in schedule.mapping
        and schedule.mapping[e.src] != schedule.mapping[e.dst]
    ]
    flag_of_edge = {
        (e.src, e.dst): f"flag_{i}_{e.src}__{e.dst}" for i, e in enumerate(cross_edges)
    }

    # Build per-core item lists in schedule order, inserting waits before a
    # task and signals after it.
    incoming: dict[str, list] = {}
    outgoing: dict[str, list] = {}
    for edge in cross_edges:
        incoming.setdefault(edge.dst, []).append(edge)
        outgoing.setdefault(edge.src, []).append(edge)

    for core, task_ids in schedule.order.items():
        program = core_programs[core]
        for tid in task_ids:
            for edge in sorted(incoming.get(tid, []), key=lambda e: e.src):
                program.items.append(
                    SyncOp("wait", flag_of_edge[(edge.src, edge.dst)], schedule.mapping[edge.src], tid)
                )
            program.items.append(tid)
            for edge in sorted(outgoing.get(tid, []), key=lambda e: e.dst):
                program.items.append(
                    SyncOp("signal", flag_of_edge[(edge.src, edge.dst)], schedule.mapping[edge.dst], tid)
                )

    # Memory map: shared declarations of the function, then synchronisation
    # flags (one word each), all aligned.
    memory_map: dict[str, tuple[int, int]] = {}
    address = 0

    def align(value: int, alignment: int = 8) -> int:
        return (value + alignment - 1) // alignment * alignment

    for decl in function.all_decls():
        if decl.storage in (Storage.SHARED, Storage.INPUT, Storage.OUTPUT):
            memory_map[decl.name] = (address, decl.size_bytes)
            address = align(address + decl.size_bytes)

    for flag in flag_of_edge.values():
        memory_map[flag] = (address, 4)
        address = align(address + 4)

    if address > platform.shared_memory.size_bytes:
        raise MemoryMapError(
            f"shared objects need {address} bytes but the platform shared "
            f"memory only has {platform.shared_memory.size_bytes}"
        )

    return ParallelProgram(
        name=f"{htg.name}_parallel",
        core_programs=core_programs,
        memory_map=memory_map,
        schedule=schedule,
        platform_name=platform.name,
    )
