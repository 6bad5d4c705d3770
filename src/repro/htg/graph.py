"""The Hierarchical Task Graph container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.htg.task import Task
from repro.utils.graphs import Reachability, topological_order


@dataclass(frozen=True)
class TaskEdge:
    """A data dependence between two tasks.

    ``payload_bytes`` is the amount of data that must be communicated when
    the two tasks are mapped to different cores; ``variables`` names the
    buffers involved.
    """

    src: str
    dst: str
    payload_bytes: int = 0
    variables: tuple[str, ...] = ()


@dataclass
class HierarchicalTaskGraph:
    """A DAG of tasks with loop-hierarchy bookkeeping.

    Adjacency queries (:meth:`predecessors`, :meth:`successors`,
    :meth:`edge`) are served from memoized indexes, so they are O(1)
    dictionary lookups instead of edge-list scans -- the schedulers and the
    system-level analysis query them in their innermost loops.  The indexes
    are maintained incrementally by :meth:`add_task` / :meth:`add_edge`,
    which are therefore the *only* supported way to grow the graph: mutating
    the public ``tasks`` / ``edges`` containers directly would leave the
    indexes stale.  :meth:`from_edges` builds a whole graph in bulk, as
    those calls would build it, and leaves every index to its first query.
    """

    name: str
    tasks: dict[str, Task] = field(default_factory=dict)
    edges: list[TaskEdge] = field(default_factory=list)
    _edge_index: dict[tuple[str, str], TaskEdge] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _pred_index: dict[str, list[str]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _succ_index: dict[str, list[str]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _reachability: Reachability[str] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _topological_ids: list[str] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls, name: str, tasks: Iterable[Task], edges: dict[tuple[str, str], TaskEdge]
    ) -> "HierarchicalTaskGraph":
        """The graph that :meth:`add_task` of each task and then
        :meth:`add_edge` of each edge, in order, build -- in one pass.

        ``edges`` maps each (src, dst) pair to its one edge, in edge order
        (a caller collecting edges keeps the first edge of a pair, as
        :meth:`add_edge` does); the graph adopts it as its edge index.
        Those calls' checks apply -- a duplicate task id, an edge naming an
        unknown task and a self-dependence raise -- but no index is
        maintained per edge: the adjacency lists, the topological order and
        the reachability are built on first query.
        """
        graph = cls(name)
        table = graph.tasks
        for task in tasks:
            if task.task_id in table:
                raise ValueError(f"duplicate task id {task.task_id!r}")
            table[task.task_id] = task
        for src, dst in edges:
            if src not in table or dst not in table:
                raise KeyError(f"edge {src}->{dst} references unknown tasks")
            if src == dst:
                raise ValueError("self-dependences are not allowed")
        graph.edges = list(edges.values())
        graph._edge_index = edges
        return graph

    def _ensure_indexes(self) -> None:
        if self._pred_index is not None:
            return
        if self._edge_index is None:
            self._edge_index = {(e.src, e.dst): e for e in self.edges}
        pred_index: dict[str, list[str]] = {tid: [] for tid in self.tasks}
        succ_index: dict[str, list[str]] = {tid: [] for tid in self.tasks}
        for e in self.edges:
            pred_index.setdefault(e.dst, []).append(e.src)
            succ_index.setdefault(e.src, []).append(e.dst)
        self._pred_index = pred_index
        self._succ_index = succ_index

    # ------------------------------------------------------------------ #
    def add_task(self, task: Task) -> Task:
        if task.task_id in self.tasks:
            raise ValueError(f"duplicate task id {task.task_id!r}")
        self.tasks[task.task_id] = task
        if self._pred_index is not None:
            self._pred_index.setdefault(task.task_id, [])
            self._succ_index.setdefault(task.task_id, [])
        self._reachability = None
        self._topological_ids = None
        return task

    def add_edge(self, src: str, dst: str, payload_bytes: int = 0, variables: tuple[str, ...] = ()) -> TaskEdge:
        if src not in self.tasks or dst not in self.tasks:
            raise KeyError(f"edge {src}->{dst} references unknown tasks")
        if src == dst:
            raise ValueError("self-dependences are not allowed")
        self._ensure_indexes()
        existing = self._edge_index.get((src, dst))
        if existing is not None:
            return existing
        edge = TaskEdge(src, dst, payload_bytes, variables)
        self.edges.append(edge)
        self._edge_index[(src, dst)] = edge
        self._pred_index.setdefault(dst, []).append(src)
        self._succ_index.setdefault(src, []).append(dst)
        self._reachability = None
        self._topological_ids = None
        return edge

    # ------------------------------------------------------------------ #
    def task(self, task_id: str) -> Task:
        return self.tasks[task_id]

    def edge_pairs(self) -> list[tuple[str, str]]:
        return [(e.src, e.dst) for e in self.edges]

    def predecessors(self, task_id: str) -> list[str]:
        self._ensure_indexes()
        return list(self._pred_index.get(task_id, ()))

    def successors(self, task_id: str) -> list[str]:
        self._ensure_indexes()
        return list(self._succ_index.get(task_id, ()))

    def edge(self, src: str, dst: str) -> TaskEdge | None:
        self._ensure_indexes()
        return self._edge_index.get((src, dst))

    def validate(self) -> None:
        try:
            self._topological_order()
        except ValueError:
            raise ValueError(f"HTG {self.name!r} contains a dependence cycle") from None

    def _topological_order(self) -> list[str]:
        if self._topological_ids is None:
            self._topological_ids = [
                str(tid) for tid in topological_order(self.tasks.keys(), self.edge_pairs())
            ]
        return self._topological_ids

    def topological_tasks(self) -> list[Task]:
        """Tasks in lexicographic topological order.

        The order is memoized per graph and invalidated by :meth:`add_task`
        / :meth:`add_edge` like the adjacency indexes; schedulers ask for it
        once per candidate mapping.  Raises ``ValueError`` on a cyclic graph.
        """
        return [self.tasks[tid] for tid in self._topological_order()]

    def leaf_tasks(self) -> list[Task]:
        """Schedulable tasks (everything except synthetic source/sink)."""
        return [t for t in self.tasks.values() if not t.is_synthetic]

    # ------------------------------------------------------------------ #
    def reachability(self) -> Reachability[str]:
        """The dependence closure as per-task bitsets (memoized).

        Built once per graph (see :class:`~repro.utils.graphs.Reachability`);
        invalidated by :meth:`add_task` / :meth:`add_edge` like the
        adjacency indexes.  The schedule and parallel-program validators,
        static MHP and the race checker's happens-before test all start
        from it.
        """
        if self._reachability is None:
            self._reachability = Reachability(self.tasks.keys(), self.edge_pairs())
        return self._reachability

    def adopt_reachability(self, other: "HierarchicalTaskGraph") -> bool:
        """Share ``other``'s memoized reachability when it provably applies.

        Two graphs with the same task-id set and the same edge set have the
        same closure, so an incrementally re-extracted HTG can inherit the
        previous run's memo instead of recomputing it.  Returns ``True``
        when adopted; a no-op when the graphs differ or ``other`` has no
        memo yet.
        """
        if other._reachability is None:
            return False
        if self.tasks.keys() != other.tasks.keys():
            return False
        if set(self.edge_pairs()) != set(other.edge_pairs()):
            return False
        self._reachability = other._reachability
        return True
