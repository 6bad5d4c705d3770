"""networkx references for the graph helpers of :mod:`repro.utils.graphs`.

The product code does not import networkx; the tests compare its
topological order and :class:`~repro.utils.graphs.Reachability` against
these.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import networkx as nx


def _digraph(nodes: Iterable[Hashable], edges: Iterable[tuple[Hashable, Hashable]]) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return graph


def transitive_closure(
    nodes: Iterable[Hashable], edges: Iterable[tuple[Hashable, Hashable]]
) -> set[tuple[Hashable, Hashable]]:
    """Set of (u, v) pairs such that v is reachable from u by one or more edges."""
    graph = _digraph(nodes, edges)
    closure = (
        nx.transitive_closure_dag(graph)
        if nx.is_directed_acyclic_graph(graph)
        else nx.transitive_closure(graph)
    )
    return set(closure.edges())


def lexicographic_topological_order(
    nodes: Iterable[Hashable], edges: Iterable[tuple[Hashable, Hashable]]
) -> list[Hashable]:
    """networkx's topological order with the ``str`` tie-break."""
    return list(nx.lexicographical_topological_sort(_digraph(nodes, edges), key=str))
