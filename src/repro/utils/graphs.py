"""Small directed-graph helpers shared by the HTG, scheduling and WCET layers.

The acyclicity test, topological order and longest path wrap
:mod:`networkx` behind the restricted interfaces the tool chain needs, so
callers never depend on networkx types directly.  Reachability is the
exception: :class:`Reachability` stores the transitive closure as one
Python-int bitset per node, so "which of these tasks are ordered with
``t``" is a single mask operation instead of a scan over a set of pairs.
It is the one closure the HTG, the race checker, static MHP and the
schedule validators share; :func:`transitive_closure` (networkx) remains
only as the reference it is tested against.
"""

from __future__ import annotations

from typing import Callable, Generic, Hashable, Iterable, Mapping, Sequence, TypeVar

import networkx as nx

N = TypeVar("N", bound=Hashable)


def is_acyclic(edges: Iterable[tuple[Hashable, Hashable]], nodes: Iterable[Hashable] = ()) -> bool:
    """Return True when the directed graph defined by ``edges`` has no cycle."""
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return nx.is_directed_acyclic_graph(graph)


def topological_order(
    nodes: Iterable[Hashable], edges: Iterable[tuple[Hashable, Hashable]]
) -> list[Hashable]:
    """Deterministic topological order (lexicographic tie-break on ``str``)."""
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    if not nx.is_directed_acyclic_graph(graph):
        raise ValueError("graph contains a cycle; no topological order exists")
    return list(nx.lexicographical_topological_sort(graph, key=str))


def longest_path_length(
    nodes: Iterable[Hashable],
    edges: Iterable[tuple[Hashable, Hashable]],
    node_weight: Callable[[Hashable], float] | Mapping[Hashable, float],
    edge_weight: Callable[[Hashable, Hashable], float] | None = None,
) -> float:
    """Length of the heaviest path in a DAG, counting node and edge weights.

    This is the critical-path length used both as a scheduling lower bound and
    by the structural WCET computation over task graphs.
    """
    if isinstance(node_weight, Mapping):
        weights = node_weight
        node_weight_fn = lambda n: float(weights.get(n, 0.0))  # noqa: E731
    else:
        node_weight_fn = node_weight
    edge_weight_fn = edge_weight or (lambda u, v: 0.0)

    order = topological_order(nodes, edges)
    graph = nx.DiGraph()
    graph.add_nodes_from(order)
    graph.add_edges_from(edges)

    finish: dict[Hashable, float] = {}
    best = 0.0
    for node in order:
        start = 0.0
        for pred in graph.predecessors(node):
            start = max(start, finish[pred] + edge_weight_fn(pred, node))
        finish[node] = start + float(node_weight_fn(node))
        best = max(best, finish[node])
    return best


class Reachability(Generic[N]):
    """Transitive reachability of a directed graph as per-node int bitsets.

    Nodes are numbered in first-seen order (``nodes``, then any edge
    endpoint not listed there); node ``i`` owns bit ``1 << i``.
    ``descendants[i]`` has bit ``j`` set when node ``j`` is reachable from
    node ``i`` by one or more edges, ``ancestors[i]`` when ``i`` is
    reachable from ``j`` -- the relation :func:`transitive_closure`
    returns, cycles included (a node on a cycle reaches itself).

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


def transitive_closure(
    nodes: Iterable[Hashable], edges: Iterable[tuple[Hashable, Hashable]]
) -> set[tuple[Hashable, Hashable]]:
    """Set of (u, v) pairs such that v is reachable from u by one or more edges.

    The networkx reference :class:`Reachability` is tested against.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    closure = nx.transitive_closure_dag(graph) if nx.is_directed_acyclic_graph(graph) else nx.transitive_closure(graph)
    return set(closure.edges())
