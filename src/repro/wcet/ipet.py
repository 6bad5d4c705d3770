"""IPET (Implicit Path Enumeration Technique) WCET computation.

The classical formulation used by binary-level analyzers: maximise the sum of
basic-block costs weighted by execution counts, subject to CFG flow
conservation and loop-bound constraints, solved as a linear program.

:func:`block_costs` prices the blocks by the cost semantics of
:mod:`repro.wcet.hardware_model`, spread over the CFG so that every rule is
charged as often as the structural analysis charges it:

* a block costs its statements, plus ``[c] + branch_cycles`` for the ``if``
  condition it ends with;
* a ``for`` header costs nothing: ``[lo] + [hi]`` are charged on the block
  before it (the source of its one non-back in-edge, which runs once per
  loop entry);
* a ``while`` header costs its condition ``[c]``, charged on each header
  visit (one per iteration, plus the exit test);
* ``loop_overhead_cycles`` is charged on the loop's body-entry block (the
  target of the header's ``taken`` edge, which runs once per iteration).

Without flow facts the LP optimum therefore equals the structural bound of
:func:`repro.wcet.code_level.statement_wcet` (an identity the test suite
checks), so the IPET certificate certifies the sequential bound the
pipeline reports.

The optional :class:`FlowFacts` argument injects results of the value-range
analysis (:mod:`repro.analysis.wcet_facts`): statically infeasible edges are
pinned to ``x_e = 0`` and derived loop bounds override declared ones when
tighter.  Every flow fact only *adds* constraints to a maximisation problem,
so the bound with facts is provably no looser than the plain bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array

from repro import obs
from repro.ir.cfg import ControlFlowGraph, build_cfg
from repro.ir.program import Function
from repro.ir.statements import For, While
from repro.wcet.code_level import statement_wcet, _expr_cost
from repro.wcet.hardware_model import HardwareCostModel


class IpetError(RuntimeError):
    """Raised when the IPET linear program cannot be solved."""


@dataclass
class FlowFacts:
    """Extra path information feeding the IPET LP.

    ``infeasible_edges`` holds stable edge keys (``CFGEdge.key``, i.e.
    ``(src bid, dst bid, kind)``) of edges no execution can take; their
    variables are pinned to zero.  ``loop_bounds`` maps loop-header block
    ids to trip-count bounds; for headers that also carry a declared bound
    the *minimum* of the two is used, and headers without any declared
    bound (CFG built with ``allow_unbounded=True``) are bounded by the fact
    alone.  Facts keyed to edges/blocks absent from the CFG are ignored.
    """

    infeasible_edges: frozenset[tuple[int, int, str]] = frozenset()
    loop_bounds: dict[int, int] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not self.infeasible_edges and not self.loop_bounds


@dataclass
class IpetResult:
    """Outcome of the IPET longest-path computation.

    Beyond the bound itself the result carries the **LP witness** consumed
    by the independent certificate checker
    (:mod:`repro.analysis.certify.ipet_cert`) and by WCET-path reporting:

    * ``edge_counts`` -- the primal solution, execution counts keyed by
      stable edge key (``CFGEdge.key``);
    * ``block_costs`` / ``entry_cost`` -- the per-block cycle costs the
      objective was built from;
    * ``loop_bounds`` -- the *effective* per-header trip bounds actually
      constrained (declared bounds merged with flow facts);
    * ``infeasible_edges`` -- the edge keys pinned to ``x_e = 0``;
    * ``duals`` -- the solver's dual values as an optimality witness, keyed
      semantically (``flow`` per interior block id, ``entry``, ``exit``,
      ``loop`` per header id) so a checker never depends on producer row
      order.  ``None`` when the solver does not expose marginals.
    """

    wcet: float
    block_counts: dict[int, float]
    cfg: ControlFlowGraph
    edge_counts: dict[tuple[int, int, str], float] = field(default_factory=dict)
    block_costs: dict[int, float] = field(default_factory=dict)
    entry_cost: float = 0.0
    loop_bounds: dict[int, int] = field(default_factory=dict)
    infeasible_edges: frozenset[tuple[int, int, str]] = frozenset()
    duals: dict | None = None


def block_costs(
    cfg: ControlFlowGraph, function: Function, model: HardwareCostModel
) -> dict[int, float]:
    """The cycle cost of every block of ``cfg``, by block id (see the module
    docstring for where each rule of the cost semantics is charged)."""

    def cost(expr) -> float:
        return _expr_cost(expr, function, model, average=False).total

    costs: dict[int, float] = {}
    for block in cfg.blocks:
        total = 0.0
        for stmt in block.statements:
            total += statement_wcet(stmt, function, model).total
        loop = cfg.loop_stmts.get(block.bid)
        for cond in block.conditions:
            if loop is None:  # an if condition
                total += cost(cond) + model.branch_cycles
            elif isinstance(loop, While):  # tested on every header visit
                total += cost(cond)
        costs[block.bid] = total
    for edge in cfg.edges:
        loop = cfg.loop_stmts.get(edge.dst.bid)
        if isinstance(loop, For) and edge.kind != "back":  # once per loop entry
            costs[edge.src.bid] += cost(loop.lower) + cost(loop.upper)
        if edge.kind == "taken" and edge.src.bid in cfg.loop_stmts:  # per iteration
            costs[edge.dst.bid] += model.loop_overhead_cycles
    return costs


def _coo_matrix(triplets: list[tuple[int, int, float]], shape: tuple[int, int]) -> coo_array:
    if not triplets:
        return coo_array(shape)
    rows, cols, values = zip(*triplets)
    return coo_array((values, (rows, cols)), shape=shape)


def ipet_wcet(
    function: Function,
    model: HardwareCostModel,
    flow_facts: FlowFacts | None = None,
) -> IpetResult:
    """Compute the WCET of ``function`` through the IPET linear program.

    Variables: execution count ``x_e`` of every CFG edge.  Block counts are
    derived as the sum of incoming edge counts.  Constraints:

    * flow conservation at every block (in-flow == out-flow);
    * the entry block executes exactly once;
    * for every loop header, the back-edge count is at most ``bound`` times
      the count of the entry (non-back) edges into the header;
    * with ``flow_facts``: ``x_e = 0`` for statically infeasible edges, and
      loop bounds are tightened to ``min(declared, derived)``.

    Objective: maximise ``sum(block_cost * block_count)``.

    The constraint matrices are assembled sparse, in one pass over the CFG
    edges: each edge (one column) emits its (row, column, value) entries
    into the rows of the blocks it touches, and ``linprog`` receives them as
    COO matrices.  The rows are numbered up front and never reordered: the
    interior-block flow rows in ``cfg.blocks`` order, then the entry row,
    then the exit row, and one loop-bound row per header in
    ``effective_bounds`` order.  That order is the contract the duals are
    read back by (they are then re-keyed by block, see :class:`IpetResult`).
    """
    # With flow facts a loop left unannotated by the front-end may still be
    # bounded by the facts, so defer the loop-bound check to the merge below.
    cfg = build_cfg(function, allow_unbounded=flow_facts is not None)
    edges = cfg.edges
    if not edges:
        raise IpetError(f"function {function.name!r} has an empty CFG")
    edge_index: dict[tuple[int, int, str], int] = {}
    for i, edge in enumerate(edges):
        if edge.key in edge_index:
            raise IpetError(
                f"function {function.name!r} has duplicate CFG edge {edge.key}"
            )
        edge_index[edge.key] = i
    num_vars = len(edges)

    costs = block_costs(cfg, function, model)
    entry_cost = costs[cfg.entry.bid] if cfg.entry is not None else 0.0

    # Effective loop bounds: declared, tightened/completed by flow facts.
    effective_bounds = dict(cfg.loop_bounds)
    if flow_facts is not None:
        known = {block.bid for block in cfg.blocks}
        for header_bid, bound in flow_facts.loop_bounds.items():
            if header_bid not in known:
                continue
            declared = effective_bounds.get(header_bid)
            effective_bounds[header_bid] = (
                int(bound) if declared is None else min(declared, int(bound))
            )
    unbounded = sorted(set(cfg.back_edges) - set(effective_bounds))
    if unbounded:
        raise IpetError(
            f"function {function.name!r}: loop header block(s) "
            f"{', '.join(f'BB{b}' for b in unbounded)} have no declared or "
            "derived trip-count bound"
        )

    # Equality rows: flow conservation for every block except entry and
    # exit, then entry out-flow == 1, then exit in-flow == 1.
    interior = [b.bid for b in cfg.blocks if b is not cfg.entry and b is not cfg.exit]
    flow_row = {bid: r for r, bid in enumerate(interior)}
    entry_row, exit_row = len(interior), len(interior) + 1
    b_eq = np.zeros(len(interior) + 2)
    b_eq[entry_row] = b_eq[exit_row] = 1.0
    # Inequality rows: back-edge count <= bound * entry-edge count of the
    # header, i.e. back edges +1 and the header's other in-edges -bound.
    ub_headers = list(effective_bounds)
    loop_row = {bid: r for r, bid in enumerate(ub_headers)}

    # Objective: block count = sum of incoming edges (entry handled separately).
    c = np.zeros(num_vars)
    eq: list[tuple[int, int, float]] = []  # (row, column, value) triplets
    ub: list[tuple[int, int, float]] = []
    for j, edge in enumerate(edges):
        src, dst = edge.src, edge.dst
        c[j] -= costs[dst.bid]
        if dst.bid in flow_row:
            eq.append((flow_row[dst.bid], j, 1.0))
        if src.bid in flow_row:
            eq.append((flow_row[src.bid], j, -1.0))
        if src is cfg.entry:
            eq.append((entry_row, j, 1.0))
        if dst is cfg.exit:
            eq.append((exit_row, j, 1.0))
        if dst.bid in loop_row:
            bound = effective_bounds[dst.bid]
            if edge.kind == "back":
                ub.append((loop_row[dst.bid], j, 1.0))
            elif bound:  # a zero bound is a zero coefficient, which a matrix omits
                ub.append((loop_row[dst.bid], j, -float(bound)))
    a_eq = _coo_matrix(eq, (len(b_eq), num_vars))
    a_ub = _coo_matrix(ub, (len(ub_headers), num_vars))

    bounds: list[tuple[float, float | None]] = [(0, None)] * num_vars
    pinned: set[tuple[int, int, str]] = set()
    if flow_facts is not None:
        for key in flow_facts.infeasible_edges:
            i = edge_index.get(key)
            if i is not None:
                bounds[i] = (0, 0)
                pinned.add(key)

    if obs.obs_enabled():
        registry = obs.metrics()
        registry.counter("ipet.solves").inc()
        registry.histogram("ipet.vars").observe(num_vars)
        registry.histogram("ipet.constraints").observe(len(b_eq) + len(ub_headers))
    with obs.span("ipet.solve", function=function.name, vars=num_vars):
        result = linprog(
            c,
            A_eq=a_eq,
            b_eq=b_eq,
            A_ub=a_ub,
            b_ub=np.zeros(len(ub_headers)),
            bounds=bounds,
            method="highs",
        )
    if not result.success:
        raise IpetError(f"IPET LP failed for {function.name!r}: {result.message}")

    # Every block defaults to 0.0 so consumers never KeyError on blocks the
    # worst-case path does not reach; counts are the sum of incoming edges.
    counts = result.x.tolist()
    block_counts: dict[int, float] = {block.bid: 0.0 for block in cfg.blocks}
    for edge, count in zip(edges, counts):
        block_counts[edge.dst.bid] += count
    # The entry block executes once on function entry.  Only seed that count
    # when no edge flows into the entry: a back edge targeting the entry has
    # already been accumulated above, and seeding on top of it would double
    # count the entry block.
    if block_counts[cfg.entry.bid] == 0.0:
        block_counts[cfg.entry.bid] = 1.0

    # Retain the full LP witness (primal counts; duals when HiGHS exposes
    # marginals) so an independent checker can re-verify the solution
    # without re-solving.  Duals are keyed by block semantics, never by the
    # producer's matrix row order, which is read back here.
    edge_counts = {edge.key: count for edge, count in zip(edges, counts)}
    duals = None
    eq_marginals = getattr(getattr(result, "eqlin", None), "marginals", None)
    if eq_marginals is not None and len(eq_marginals) == len(b_eq):
        duals = {
            "flow": {bid: float(eq_marginals[i]) for i, bid in enumerate(interior)},
            "entry": float(eq_marginals[entry_row]),
            "exit": float(eq_marginals[exit_row]),
            "loop": {},
        }
        ub_marginals = getattr(getattr(result, "ineqlin", None), "marginals", None)
        if ub_marginals is not None and len(ub_marginals) == len(ub_headers):
            duals["loop"] = {
                bid: float(ub_marginals[i]) for i, bid in enumerate(ub_headers)
            }
        elif ub_headers:
            # partial witness would make the checker's duality math wrong
            duals = None

    wcet = -float(result.fun) + entry_cost
    return IpetResult(
        wcet=wcet,
        block_counts=block_counts,
        cfg=cfg,
        edge_counts=edge_counts,
        block_costs=costs,
        entry_cost=entry_cost,
        loop_bounds=dict(effective_bounds),
        infeasible_edges=frozenset(pinned),
        duals=duals,
    )
