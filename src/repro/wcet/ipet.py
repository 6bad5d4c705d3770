"""IPET (Implicit Path Enumeration Technique) WCET computation.

The classical formulation used by binary-level analyzers: maximise the sum of
basic-block costs weighted by execution counts, subject to CFG flow
conservation and loop-bound constraints -- a linear program.  A
binary-level analyzer hands that LP to a solver.  Here every CFG is lowered
from structured IR (if-diamonds and properly nested loops), so
:func:`ipet_wcet` does a structured solve of the IPET LP instead: one
longest-path pass over the loop structure yields the optimum, an optimal
vertex (edge counts) and an optimal dual solution, and the independent
checker (:mod:`repro.analysis.certify.ipet_cert`) proves the pair optimal
by LP duality without trusting the pass.

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

import math
from dataclasses import dataclass, field

from repro import obs
from repro.ir.cfg import CFGEdge, ControlFlowGraph, build_cfg
from repro.ir.program import Function
from repro.ir.statements import For, While
from repro.wcet.code_level import statement_wcet, _expr_cost
from repro.wcet.hardware_model import HardwareCostModel


class IpetError(RuntimeError):
    """Raised when the structured solve of the IPET LP finds no optimum: a
    loop without a (non-negative) trip-count bound, or flow facts that leave
    no path from entry to exit."""


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
    """Outcome of the structured solve of the IPET LP.

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
    * ``duals`` -- an optimal dual solution as the optimality witness,
      keyed semantically (``flow`` per interior block id, ``entry``,
      ``exit``, ``loop`` per loop-bound row) so a checker never depends on
      a row order.  :func:`ipet_wcet` always fills it; the checker rejects
      a witness without it.
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


def _loop_structure(
    cfg: ControlFlowGraph,
) -> tuple[dict[int, list[CFGEdge]], dict[int, tuple[CFGEdge, CFGEdge]], list[int]]:
    """The out-edges of every block, the ``(taken, exit)`` edges of every
    loop header, and a post-order of the blocks over every edge but the back
    edges (an explicit stack: synthetic models have thousands of blocks)."""
    out: dict[int, list[CFGEdge]] = {block.bid: [] for block in cfg.blocks}
    for edge in cfg.edges:
        out[edge.src.bid].append(edge)
    loops: dict[int, tuple[CFGEdge, CFGEdge]] = {}
    for header in cfg.back_edges:
        kinds = {edge.kind: edge for edge in out[header]}
        loops[header] = (kinds["taken"], kinds["exit"])
    order: list[int] = []
    seen = {cfg.entry.bid}
    stack = [(cfg.entry.bid, iter(out[cfg.entry.bid]))]
    while stack:
        bid, successors = stack[-1]
        for edge in successors:
            nxt = edge.dst.bid
            if edge.kind != "back" and nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, iter(out[nxt])))
                break
        else:
            stack.pop()
            order.append(bid)
    return out, loops, order


def _longest_paths(
    out: dict[int, list[CFGEdge]],
    loops: dict[int, tuple[CFGEdge, CFGEdge]],
    order: list[int],
    exit_bid: int,
    costs: dict[int, float],
    bounds: dict[int, int],
    pinned: frozenset[tuple[int, int, str]],
    dead: float,
) -> tuple[dict[int, float], dict[int, CFGEdge], dict[int, float], dict[int, float]]:
    """One longest-path pass over the unpinned edges, successors first.

    ``value[v]`` (``V``) is the most the blocks entered on the way from
    ``v`` to the end of its region can cost -- the exit at top level, the
    header (through the back edge) inside a loop body -- or ``dead`` when
    no unpinned path gets there.  Past itself a header ``h`` is worth
    ``n * max(0, W) + E``: ``iteration[h]`` (``W``) is one iteration,
    ``cost(b) + V(b)`` over its taken edge ``h -> b``, and ``leaving[h]``
    (``E``) is ``cost(a) + V(a)`` over its exit edge ``h -> a``.  ``best``
    holds the argmax out-edge of every other block.
    """
    value: dict[int, float] = {}
    best: dict[int, CFGEdge] = {}
    iteration: dict[int, float] = {}
    leaving: dict[int, float] = {}
    for bid in order:
        loop = loops.get(bid)
        if loop is not None:
            taken, leave = loop
            w = dead if taken.key in pinned else costs[taken.dst.bid] + value[taken.dst.bid]
            e = dead if leave.key in pinned else costs[leave.dst.bid] + value[leave.dst.bid]
            iteration[bid], leaving[bid] = w, e
            value[bid] = bounds[bid] * max(0.0, w) + e
            continue
        top = 0.0 if bid == exit_bid else dead
        choice = None
        for edge in out[bid]:
            if edge.key in pinned:
                continue
            head = edge.dst.bid
            # a back edge ends its body's region: it enters only the header
            gain = costs[head] if edge.kind == "back" else costs[head] + value[head]
            if choice is None or gain > top:
                top, choice = gain, edge
        value[bid] = top
        if choice is not None:
            best[bid] = choice
    return value, best, iteration, leaving


def ipet_wcet(
    function: Function,
    model: HardwareCostModel,
    flow_facts: FlowFacts | None = None,
) -> IpetResult:
    """Compute the WCET of ``function`` by a structured solve of the IPET LP.

    The LP: variables are the execution counts ``x_e`` of the CFG edges
    (block counts are the sums of incoming edge counts); it maximises
    ``sum(block_cost * block_count)`` subject to

    * flow conservation at every block (in-flow == out-flow);
    * the entry block executes exactly once;
    * for every loop header, the back-edge count is at most ``bound`` times
      the count of the entry (non-back) edges into the header;
    * with ``flow_facts``: ``x_e = 0`` for statically infeasible edges, and
      loop bounds are tightened to ``min(declared, derived)``.

    Its optimum is a longest path in which each loop header ``h`` entered
    from outside is one node worth ``cost(h) + n * max(0, W(h)) + cost(a) +
    V(a)`` (see :func:`_longest_paths`; ``n`` is the effective bound):
    a loop runs its bound whenever an iteration is worth anything.  Blocks
    that pinned edges cut from their region's end are worth a finite ``-M``,
    ``M = 2 * (unpinned optimum + 1)``, so a negative value at the entry
    means the facts leave no feasible path.

    The witness: the primal follows the argmax edges from the entry with
    multiplicity ``m`` (``m * n`` through a loop body that runs); the duals
    (the LP's, in its minimisation form with ``c_e = -cost(dst(e))``) are
    ``entry = -V(entry)``, ``exit = 0``, ``loop[h] = -max(0, W(h))``,
    ``flow[v] = V(v)`` at top level, ``flow[v] = flow[h] - max(0, W(h)) +
    V(v)`` inside ``h``'s body, and ``flow[h] = cost(a) + flow[a]`` at a
    header.  Every reduced cost is then non-negative and the duality gap
    zero, which is what the certificate checker verifies.
    """
    # With flow facts a loop left unannotated by the front-end may still be
    # bounded by the facts, so defer the loop-bound check to the merge below.
    cfg = build_cfg(function, allow_unbounded=flow_facts is not None)
    edges = cfg.edges
    costs = block_costs(cfg, function, model)
    entry, exit_bid = cfg.entry.bid, cfg.exit.bid
    entry_cost = costs[entry]

    # Effective loop bounds: declared, tightened/completed by flow facts.
    effective_bounds = dict(cfg.loop_bounds)
    pinned: frozenset[tuple[int, int, str]] = frozenset()
    if flow_facts is not None:
        known = {block.bid for block in cfg.blocks}
        for header_bid, bound in flow_facts.loop_bounds.items():
            if header_bid not in known:
                continue
            declared = effective_bounds.get(header_bid)
            effective_bounds[header_bid] = (
                int(bound) if declared is None else min(declared, int(bound))
            )
        pinned = flow_facts.infeasible_edges & {edge.key for edge in edges}
    unbounded = sorted(set(cfg.back_edges) - set(effective_bounds))
    if unbounded:
        raise IpetError(
            f"function {function.name!r}: loop header block(s) "
            f"{', '.join(f'BB{b}' for b in unbounded)} have no declared or "
            "derived trip-count bound"
        )
    negative = sorted(bid for bid, bound in effective_bounds.items() if bound < 0)
    if negative:
        raise IpetError(
            f"function {function.name!r}: block(s) "
            f"{', '.join(f'BB{b}' for b in negative)} have a negative "
            "trip-count bound"
        )

    interior = [b.bid for b in cfg.blocks if b.bid != entry and b.bid != exit_bid]
    if obs.obs_enabled():
        registry = obs.metrics()
        registry.counter("ipet.solves").inc()
        registry.histogram("ipet.vars").observe(len(edges))
        registry.histogram("ipet.constraints").observe(
            len(interior) + 2 + len(effective_bounds)
        )
    with obs.span("ipet.solve", function=function.name, vars=len(edges)):
        out, loops, order = _loop_structure(cfg)
        # Without pins every block reaches its region's end; with pins, the
        # unpinned optimum sizes the finite value of a cut-off block.
        solve = (out, loops, order, exit_bid, costs, effective_bounds)
        value, best, iteration, leaving = _longest_paths(*solve, frozenset(), -math.inf)
        if pinned:
            dead = -2.0 * (entry_cost + value[entry] + 1.0)
            value, best, iteration, leaving = _longest_paths(*solve, pinned, dead)
        if value[entry] < 0.0:
            raise IpetError(
                f"IPET LP of {function.name!r} is infeasible: the flow facts "
                "leave no path from entry to exit"
            )

        # Primal: the argmax edges from the entry, with multiplicities.
        edge_counts = {edge.key: 0.0 for edge in edges}
        stack = [(entry, 1.0)]
        while stack:
            bid, runs = stack.pop()
            loop = loops.get(bid)
            if loop is not None:
                taken, leave = loop
                edge_counts[leave.key] += runs
                stack.append((leave.dst.bid, runs))
                trips = runs * effective_bounds[bid]
                if trips and iteration[bid] >= 0.0:
                    edge_counts[taken.key] += trips
                    stack.append((taken.dst.bid, trips))
                continue
            edge = best.get(bid)
            if edge is not None:
                edge_counts[edge.key] += runs
                if edge.kind != "back":
                    stack.append((edge.dst.bid, runs))

        # Duals: a loop body's flow duals sit below its header's by one
        # iteration's worth, so an offset per region, in topological order.
        flow: dict[int, float] = {}
        offset = {entry: 0.0}
        for bid in reversed(order):
            base = offset[bid]
            loop = loops.get(bid)
            if loop is not None:
                taken, leave = loop
                flow[bid] = base + leaving[bid]
                offset[leave.dst.bid] = base
                offset[taken.dst.bid] = flow[bid] - max(0.0, iteration[bid])
                continue
            flow[bid] = base + value[bid]
            for edge in out[bid]:
                if edge.kind != "back":
                    offset[edge.dst.bid] = base
        duals = {
            "flow": {bid: flow[bid] for bid in interior},
            "entry": -value[entry],
            "exit": 0.0,
            # a flow-fact bound on a block that heads no loop is a slack row
            "loop": {
                bid: -max(0.0, iteration[bid]) if bid in loops else 0.0
                for bid in effective_bounds
            },
        }

    # Every block defaults to 0.0 so consumers never KeyError on blocks the
    # worst-case path does not reach; counts are the sum of incoming edges.
    block_counts: dict[int, float] = {block.bid: 0.0 for block in cfg.blocks}
    for edge in edges:
        block_counts[edge.dst.bid] += edge_counts[edge.key]
    # The entry block executes once on function entry.  Only seed that count
    # when no edge flows into the entry: a back edge targeting the entry has
    # already been accumulated above, and seeding on top of it would double
    # count the entry block.
    if block_counts[entry] == 0.0:
        block_counts[entry] = 1.0

    return IpetResult(
        wcet=entry_cost + value[entry],
        block_counts=block_counts,
        cfg=cfg,
        edge_counts=edge_counts,
        block_costs=costs,
        entry_cost=entry_cost,
        loop_bounds=effective_bounds,
        infeasible_edges=pinned,
        duals=duals,
    )
