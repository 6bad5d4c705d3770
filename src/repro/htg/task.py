"""Task nodes of the Hierarchical Task Graph."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.ir.statements import Block as IRBlock


class TaskKind(enum.Enum):
    """What a task node represents."""

    BLOCK = "block"          # a whole dataflow-block region
    LOOP_CHUNK = "loop_chunk"  # a contiguous chunk of a parallelizable loop
    PRE = "pre"              # statements before a split loop
    POST = "post"            # statements after a split loop
    SOURCE = "source"        # synthetic graph entry
    SINK = "sink"            # synthetic graph exit


@dataclass
class Task:
    """A schedulable unit of work extracted from the IR.

    The fields mirror what the paper says HTG task nodes must carry: the code
    itself, the data that must be communicated, and "additional information on
    possible shared resource accesses (list of shared resources, and worst
    case number of accesses)".  The shared resources are the shared names in
    ``reads`` / ``writes``.  The worst-case number of accesses is not stored
    here: it is the code-level analysis's, per core
    (:meth:`repro.wcet.system_level.SystemDesign.cost`; a schedule's
    ``result.task_shared_accesses`` holds it on the mapped core).
    """

    task_id: str
    kind: TaskKind
    statements: IRBlock
    #: Name of the dataflow block this task originates from (traceability to
    #: the model level, used by the cross-layer report).
    origin: str = ""
    #: Variables read / written by the task (arrays and scalars).
    reads: set[str] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)
    #: Hierarchy: id of the parent task when this is a loop chunk / pre / post.
    parent: str | None = None
    #: Worst-case execution time in cycles, in isolation, on the cost model
    #: :meth:`~repro.wcet.cache.WcetAnalysisCache.annotate_htg` annotated it
    #: with; 0 until annotated.  The pipeline never annotates, so it reads 0
    #: on pipeline results: a schedule's ``result.task_base_wcet`` holds the
    #: WCET on the mapped core, and the schedulers price tasks through
    #: :meth:`~repro.wcet.system_level.SystemDesign.cost`.
    wcet: float = 0.0

    def __hash__(self) -> int:
        return hash(self.task_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Task) and other.task_id == self.task_id

    @property
    def is_synthetic(self) -> bool:
        return self.kind in (TaskKind.SOURCE, TaskKind.SINK)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task({self.task_id}, {self.kind.value}, wcet={self.wcet:.0f})"
