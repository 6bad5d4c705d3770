"""networkx references for the graph helpers of :mod:`repro.utils.graphs`.

The product code does not import networkx; the tests compare its
topological order and :class:`~repro.utils.graphs.Reachability` against
these.  :func:`critical_path` is the longest-path lower bound that the
makespan tests hold analysed bounds to.
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


def critical_path(design) -> float:
    """The heaviest dependence chain of ``design``'s leaf tasks, each at its
    cheapest isolated WCET over the platform's cores
    (:meth:`~repro.wcet.system_level.SystemDesign.cost`): a lower bound on
    the makespan of any schedule of the design, with no transfer delay and
    no interference."""
    finish = [0.0] * len(design.leaf_ids)
    for i in design.topological:
        start = max((finish[p] for p, _ in design.pred_rows[i]), default=0.0)
        finish[i] = start + min(design.cost(i, core)[0] for core in design.core_ids)
    return max(finish, default=0.0)
