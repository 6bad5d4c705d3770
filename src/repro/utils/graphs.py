"""Small directed-graph helpers shared by the HTG, scheduling and WCET layers.

The topological order is one heap-based Kahn pass over integer node
numbers; the acyclicity test builds on it.
Reachability stores the transitive closure as one Python-int bitset per
node (:class:`Reachability`), so "which of these tasks are ordered with
``t``" is a single mask operation instead of a scan over a set of pairs.
It is the one closure the HTG, the race checker, static MHP and the
schedule validators share.
"""

from __future__ import annotations

import heapq
from typing import Generic, Hashable, Iterable, Sequence, TypeVar

N = TypeVar("N", bound=Hashable)


def is_acyclic(edges: Iterable[tuple[Hashable, Hashable]], nodes: Iterable[Hashable] = ()) -> bool:
    """Return True when the directed graph defined by ``edges`` has no cycle."""
    try:
        topological_order(nodes, edges)
    except ValueError:
        return False
    return True


def topological_order(
    nodes: Iterable[Hashable], edges: Iterable[tuple[Hashable, Hashable]]
) -> list[Hashable]:
    """Deterministic topological order (lexicographic tie-break on ``str``).

    Kahn's algorithm that always takes the ready node with the smallest
    ``str(node)``, first-seen order breaking ties between equal strings:
    the order of ``networkx.lexicographical_topological_sort(key=str)``.
    Nodes are numbered in first-seen order (``nodes``, then edge endpoints
    not listed there), and a pair listed twice is one edge.  Raises
    ``ValueError`` on a cycle (a self-loop included).
    """
    index: dict[Hashable, int] = {}
    for node in nodes:
        index.setdefault(node, len(index))
    arcs = {
        (index.setdefault(u, len(index)), index.setdefault(v, len(index)))
        for u, v in edges
    }
    listed = list(index)
    keys = [str(node) for node in listed]
    succ: list[list[int]] = [[] for _ in listed]
    indegree = [0] * len(listed)
    for u, v in arcs:
        succ[u].append(v)
        indegree[v] += 1
    ready = [(keys[i], i) for i, d in enumerate(indegree) if d == 0]
    heapq.heapify(ready)
    order: list[Hashable] = []
    while ready:
        _, i = heapq.heappop(ready)
        order.append(listed[i])
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(ready, (keys[j], j))
    if len(order) != len(listed):
        raise ValueError("graph contains a cycle; no topological order exists")
    return order


class Reachability(Generic[N]):
    """Transitive reachability of a directed graph as per-node int bitsets.

    Nodes are numbered in first-seen order (``nodes``, then any edge
    endpoint not listed there); node ``i`` owns bit ``1 << i``.
    ``descendants[i]`` has bit ``j`` set when node ``j`` is reachable from
    node ``i`` by one or more edges, ``ancestors[i]`` when ``i`` is
    reachable from ``j`` -- the transitive closure, cycles included (a
    node on a cycle reaches itself).

    Both directions are built once: one pass in topological order when the
    graph is acyclic, iterated to the least fixed point otherwise (the race
    checker's happens-before graph is cyclic when a core order contradicts
    a dependence edge).
    """

    def __init__(self, nodes: Iterable[N], edges: Iterable[tuple[N, N]]) -> None:
        index: dict[N, int] = {}
        for node in nodes:
            index.setdefault(node, len(index))
        arcs = [
            (index.setdefault(u, len(index)), index.setdefault(v, len(index)))
            for u, v in edges
        ]
        self.index = index
        self.nodes: list[N] = list(index)
        succ: list[list[int]] = [[] for _ in index]
        pred: list[list[int]] = [[] for _ in index]
        for u, v in arcs:
            succ[u].append(v)
            pred[v].append(u)
        # Kahn's algorithm; whatever it cannot place lies on or behind a cycle
        indegree = [len(p) for p in pred]
        order = [i for i, d in enumerate(indegree) if d == 0]
        for i in order:
            for j in succ[i]:
                indegree[j] -= 1
                if indegree[j] == 0:
                    order.append(j)
        acyclic = len(order) == len(index)
        if not acyclic:
            placed = set(order)
            order += [i for i in range(len(index)) if i not in placed]
        #: per node, the mask of nodes it reaches by one or more edges
        self.descendants = _least_reach(order[::-1], succ, acyclic)
        #: per node, the mask of nodes that reach it by one or more edges
        self.ancestors = _least_reach(order, pred, acyclic)

    def mask(self, nodes: Iterable[N]) -> int:
        """Bitset of ``nodes`` (each must be a node of the graph)."""
        index = self.index
        out = 0
        for node in nodes:
            out |= 1 << index[node]
        return out

    def members(self, mask: int) -> list[N]:
        """The nodes of ``mask`` in index order (cost grows with its popcount)."""
        nodes = self.nodes
        out: list[N] = []
        while mask:
            low = mask & -mask
            out.append(nodes[low.bit_length() - 1])
            mask ^= low
        return out

    def reaches(self, u: N, v: N) -> bool:
        """True when ``v`` is reachable from ``u`` by one or more edges."""
        iu, iv = self.index.get(u), self.index.get(v)
        return iu is not None and iv is not None and bool(self.descendants[iu] >> iv & 1)

    def ordered(self, u: N, v: N) -> bool:
        """True when either node reaches the other."""
        return self.reaches(u, v) or self.reaches(v, u)

    def pairs(self) -> set[tuple[N, N]]:
        """The materialised closure: every ``(u, v)`` with ``v`` reachable from ``u``."""
        return {
            (u, v)
            for u, mask in zip(self.nodes, self.descendants)
            for v in self.members(mask)
        }

    def order_violation(self, sequence: Sequence[N]) -> tuple[N, N] | None:
        """First ``(a, b)`` with ``a`` placed before ``b`` although ``b`` reaches ``a``.

        Scans ``a`` in sequence order and returns, for the first offending
        ``a``, the earliest such ``b`` after it; ``None`` when ``sequence``
        respects every dependence.  Nodes outside the graph order nothing.
        """
        positions = [self.index.get(node) for node in sequence]
        placed_after = [0] * len(sequence)
        later = 0
        for k in range(len(sequence) - 1, -1, -1):
            placed_after[k] = later
            pos = positions[k]
            if pos is not None:
                later |= 1 << pos
        for k, pos in enumerate(positions):
            if pos is not None and self.ancestors[pos] & placed_after[k]:
                a = sequence[k]
                b = next(b for b in sequence[k + 1:] if self.reaches(b, a))
                return a, b
        return None


def _least_reach(order: list[int], adjacent: list[list[int]], acyclic: bool) -> list[int]:
    """Least fixed point of ``reach[i] = OR(bit j | reach[j] for j in adjacent[i])``.

    ``order`` lists each node after its ``adjacent`` nodes whenever the
    graph is acyclic, so one pass is exact; on a cyclic graph the passes
    repeat until nothing changes.
    """
    bits = [1 << i for i in range(len(adjacent))]
    reach = [0] * len(adjacent)
    while True:
        changed = False
        for i in order:
            mask = 0
            for j in adjacent[i]:
                mask |= bits[j] | reach[j]
            if mask != reach[i]:
                reach[i] = mask
                changed = True
        if acyclic or not changed:
            return reach
