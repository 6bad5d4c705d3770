"""Construction of the explicit parallel program model.

The parallel program makes two things explicit that the scheduling result
only implies (paper Section II-C):

* synchronisation: a dependence edge whose endpoints live on different
  cores becomes a signal/wait pair over a dedicated flag, unless the rest
  of the schedule's happens-before closure (the dependences plus each
  core's chain) already orders the pair -- only the cross-core edges of
  the closure's transitive reduction get a sync;
* memory mapping: all shared objects (the function's shared, input and
  output declarations, and one flag per synchronised edge) receive
  concrete addresses in the platform's shared memory.

The program communicates in place: a consumer reads its producer's SHARED
signal where the producer wrote it (the scratchpad pass keeps those signals
shared), so no edge gets a buffer of its own.  The system-level analysis
still charges each cross-core edge a transfer delay
(:meth:`~repro.wcet.system_level.SystemDesign.delay`) and prices no sync
op, until one communication model replaces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from repro.adl.architecture import Platform
from repro.htg.graph import HierarchicalTaskGraph, TaskEdge
from repro.ir.program import Function, Storage
from repro.scheduling.schedule import Schedule
from repro.utils.graphs import Reachability


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
    closure: Reachability[str] | None = None,
) -> ParallelProgram:
    """Turn an analysed schedule into the explicit parallel program model.

    ``closure`` is the schedule's happens-before closure
    (:func:`repro.analysis.races.happens_before`: the HTG's dependences
    plus each core's chain), built here when not given; the parallel stage
    hands on the one its race check built.  ``schedule.validate`` checks
    the order on it, so each core runs its tasks in ``schedule.order`` and
    no wait is cyclic.  A cross-core edge ``u -> v`` gets a flag, waited on
    before ``v`` and signalled after ``u``, only when no other
    happens-before successor of ``u`` reaches ``v``: those kept edges and
    the core chains have the closure of all dependences plus chains, so
    the program orders every dependence and every pair the race check
    proved ordered.
    """
    if closure is None:
        from repro.analysis.races import happens_before

        closure = happens_before(htg, schedule.order)
    schedule.validate(htg, platform, closure)
    mapping = schedule.mapping
    index, descendants = closure.index, closure.descendants
    next_on_core = {
        tid: nxt for tids in schedule.order.values() for tid, nxt in zip(tids, tids[1:])
    }

    # A cross-core edge is kept unless a happens-before successor of its
    # source reaches its destination: the OR of the successors' closures
    # holds every task two or more edges away (the graph is acyclic, so
    # the edge's own destination does not reach itself).
    kept: list[TaskEdge] = []
    beyond: dict[str, int] = {}
    for edge in htg.edges:
        src_core, dst_core = mapping.get(edge.src), mapping.get(edge.dst)
        if src_core is None or dst_core is None or src_core == dst_core:
            continue
        far = beyond.get(edge.src)
        if far is None:
            far = 0
            for succ in htg.successors(edge.src):
                far |= descendants[index[succ]]
            nxt = next_on_core.get(edge.src)
            if nxt is not None:
                far |= descendants[index[nxt]]
            beyond[edge.src] = far
        if not far >> index[edge.dst] & 1:
            kept.append(edge)
    flag_of_edge = {
        (e.src, e.dst): f"flag_{i}_{e.src}__{e.dst}" for i, e in enumerate(kept)
    }

    # Per-core item lists in schedule order: waits before a task, signals
    # after it.
    incoming: dict[str, list[TaskEdge]] = {}
    outgoing: dict[str, list[TaskEdge]] = {}
    for edge in kept:
        incoming.setdefault(edge.dst, []).append(edge)
        outgoing.setdefault(edge.src, []).append(edge)

    core_programs: dict[int, CoreProgram] = {}
    for core, task_ids in schedule.order.items():
        items: list[str | SyncOp] = []
        for tid in task_ids:
            if tid in incoming:
                for edge in sorted(incoming[tid], key=lambda e: e.src):
                    items.append(SyncOp("wait", flag_of_edge[(edge.src, edge.dst)], mapping[edge.src], tid))
            items.append(tid)
            if tid in outgoing:
                for edge in sorted(outgoing[tid], key=lambda e: e.dst):
                    items.append(SyncOp("signal", flag_of_edge[(edge.src, edge.dst)], mapping[edge.dst], tid))
        core_programs[core] = CoreProgram(core_id=core, items=items)

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
