"""Explicit parallel program model (paper Section II-C).

The scheduling result is turned into an explicitly parallel program: one task
sequence per core, explicit signal/wait synchronisation on the dependence
edges that cross cores and that no other path of the schedule's
happens-before order (dependences plus each core's chain) already orders, a
concrete shared-memory address map (consumers read their producers' shared
signals in place), and a C-like rendering of the per-core programs, which
re-checks races against the order the printed syncs enforce.
"""

from repro.parallel.model import (
    CoreProgram,
    ParallelProgram,
    SyncOp,
    build_parallel_program,
)
from repro.parallel.codegen import parallel_program_to_c

__all__ = [
    "CoreProgram",
    "ParallelProgram",
    "SyncOp",
    "build_parallel_program",
    "parallel_program_to_c",
]
