"""WCET-directed scratchpad allocation (paper reference [6]).

Shared arrays that fit in the core-private scratchpad are relocated there,
which (i) removes their access latency from the worst-case path and (ii)
removes them from the set of interference-prone shared accesses the
system-level analysis has to inflate.  Selection is a greedy knapsack on
*worst-case accesses per byte*, the classic WCET-directed SPM heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.ir.analysis import access_summary
from repro.ir.facts import RegionFacts
from repro.ir.program import Function, Storage
from repro.transforms.base import FunctionPass, PassReport


@dataclass
class SpmAllocation:
    """Result of a scratchpad allocation decision."""

    #: Selected ``SHARED`` declarations: the arrays that move to the
    #: scratchpad.
    moved: list[str] = field(default_factory=list)
    kept_shared: list[str] = field(default_factory=list)
    #: Bytes of the moved arrays.
    used_bytes: int = 0
    capacity_bytes: int = 0
    #: Estimated saved worst-case cycles (shared latency minus SPM latency,
    #: times the worst-case access count of every moved array).
    estimated_saving_cycles: float = 0.0


def allocate_scratchpad(
    function: Function,
    capacity_bytes: int,
    shared_latency: float = 8.0,
    spm_latency: float = 1.0,
    protect: set[str] | None = None,
    facts: RegionFacts | None = None,
) -> SpmAllocation:
    """Choose shared arrays to relocate into the scratchpad.

    The candidates are the function's own ``SHARED`` array declarations,
    the arrays the pass can relocate: ``INPUT``/``OUTPUT`` parameters
    belong to the caller and stay where they are, so they take no
    capacity.  ``protect`` lists arrays that must remain shared (e.g.
    buffers written by one core and read by another -- the caller knows
    the task mapping).
    The access counts, reads plus writes, are a fold over the
    :func:`~repro.ir.analysis.access_summary` of each top-level statement,
    read through ``facts`` (see :mod:`repro.ir.facts`; ``None`` computes
    them afresh).  Returns the allocation decision;
    :class:`ScratchpadAllocationPass` applies it by replacing the IR
    declarations.
    """
    if capacity_bytes < 0:
        raise ValueError("capacity must be non-negative")
    protect = protect or set()
    facts = facts or RegionFacts()
    access_count: dict[str, int] = {}
    for stmt in function.body.stmts:
        summary = facts(stmt, access_summary)
        for counts in (summary.reads, summary.writes):
            for name, count in counts.items():
                access_count[name] = access_count.get(name, 0) + count

    candidates = []
    for decl in function.decls:
        if not decl.is_array or decl.storage is not Storage.SHARED or decl.name in protect:
            continue
        accesses = access_count.get(decl.name, 0)
        if accesses == 0:
            continue
        candidates.append((accesses / decl.size_bytes, accesses, decl))
    candidates.sort(key=lambda item: (-item[0], item[2].name))

    allocation = SpmAllocation(capacity_bytes=capacity_bytes)
    remaining = capacity_bytes
    per_access_gain = max(0.0, shared_latency - spm_latency)
    for _, accesses, decl in candidates:
        if decl.size_bytes <= remaining:
            allocation.used_bytes += decl.size_bytes
            remaining -= decl.size_bytes
            allocation.moved.append(decl.name)
            allocation.estimated_saving_cycles += accesses * per_access_gain
        else:
            allocation.kept_shared.append(decl.name)
    return allocation


@dataclass
class ScratchpadAllocationPass(FunctionPass):
    """Apply :func:`allocate_scratchpad` by rewriting storage classes.

    Each moved ``SHARED`` declaration is replaced by a ``SCRATCHPAD`` copy
    in a new ``decls`` list, so the declarations the pass was handed stay
    untouched.  ``INPUT``/``OUTPUT`` parameters keep their storage class
    (they belong to the caller) and are never selected.
    """

    capacity_bytes: int = 64 * 1024
    shared_latency: float = 8.0
    spm_latency: float = 1.0
    protect: set[str] = field(default_factory=set)
    facts: RegionFacts | None = field(default=None, compare=False, repr=False)
    name = "scratchpad_allocation"

    def run(self, function: Function) -> PassReport:
        allocation = allocate_scratchpad(
            function,
            self.capacity_bytes,
            self.shared_latency,
            self.spm_latency,
            self.protect,
            self.facts,
        )
        moved = set(allocation.moved)
        relocated = False
        decls = []
        for decl in function.decls:
            if decl.name in moved and decl.storage is Storage.SHARED:
                decl = replace(decl, storage=Storage.SCRATCHPAD)
                relocated = True
            decls.append(decl)
        if relocated:
            function.decls = decls
        return PassReport(
            self.name,
            function.name,
            relocated,
            {
                "moved": ",".join(allocation.moved),
                "used_bytes": allocation.used_bytes,
                "estimated_saving_cycles": allocation.estimated_saving_cycles,
            },
        )
