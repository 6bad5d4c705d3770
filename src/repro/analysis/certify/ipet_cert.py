"""IPET certificates: LP witness + independent checker.

:func:`repro.wcet.ipet.ipet_wcet` (a structured solve of the IPET LP)
retains its primal and dual solution on the
:class:`~repro.wcet.ipet.IpetResult`; :func:`build_ipet_certificate` lifts
it into a serializable :class:`IpetCertificate` and
:func:`check_ipet_certificate` re-verifies it against a **freshly rebuilt**
CFG, sharing none of the producer's longest-path code:

* the witness covers exactly the CFG's edges and every count is
  non-negative;
* flow conservation holds at every interior block, the entry emits and the
  exit absorbs exactly unit flow;
* every loop header is bounded and every claimed bound is respected
  (back-edge flow <= bound x entry flow, the producer's formulation);
* every flow-fact-pinned edge really carries zero flow;
* the objective recomputed from the claimed counts and block costs equals
  the reported WCET; and
* weak/strong duality is re-checked arithmetically from the dual values
  (loop duals non-positive, dual feasibility via reduced costs, zero
  duality gap), so the witness also proves *optimality* -- the claimed
  bound is not just a feasible path length but the maximal one.  A witness
  without duals, or with duals that are malformed or do not cover every
  row, proves nothing and is an error; and
* when the certificate carries the sequential bound the run reports, that
  bound meets the optimum: IPET prices blocks by the structural analysis's
  rules, so without flow facts (no pinned edge, the CFG's declared loop
  bounds) the two must be equal, and with flow facts that tightened the LP
  the reported bound must not lie below the optimum
  (``certify.ipet.sequential-bound-mismatch``).  That is what refutes a
  corrupt or hand-edited code-level cache entry of the entry function.

What this checker does *not* prove: the per-block cycle costs themselves
(they are the hardware cost model's ground truth, carried verbatim), the
per-task WCETs and shared-access counts the schedule certificate copies
(no certificate re-derives them), and the soundness of the loop bounds /
flow facts fed into the LP (that is the front-end's and
:mod:`repro.analysis.wcet_facts`' contract).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import AnalysisReport, Finding
from repro.ir.cfg import build_cfg

#: Looser than the schedule tolerance: the objective and the dual sums add
#: many float terms, one per CFG edge.
REL_EPS = 1e-6


def _tol(*values: float) -> float:
    """Comparison slack scaled to the magnitudes involved.

    The per-edge, per-block and per-loop checks below compare exactly
    first and ask for the slack only when the exact comparison already
    fails, as the schedule checker does, so an honest witness rarely pays
    for this call; the verdicts are the same.
    """
    bound = 1.0
    for v in values:
        if v < 0.0:
            v = -v
        if v > bound:
            bound = v
    return REL_EPS * bound


@dataclass
class IpetCertificate:
    """Serializable witness of one IPET longest-path computation."""

    function: str
    wcet: float
    entry_cost: float
    #: primal solution: execution count per stable edge key
    edge_counts: dict[tuple[int, int, str], float]
    block_costs: dict[int, float]
    #: effective trip bound per loop-header block id
    loop_bounds: dict[int, int]
    #: edge keys pinned to zero by flow facts
    infeasible_edges: frozenset[tuple[int, int, str]]
    #: optimality witness (semantic dual values); ``None`` is refuted
    duals: dict | None = None
    #: the sequential bound the run reports for the same function and core,
    #: or ``None`` when there is none to check
    sequential_bound: float | None = None

    def as_dict(self) -> dict:
        return {
            "kind": "ipet",
            "function": self.function,
            "wcet": self.wcet,
            "entry_cost": self.entry_cost,
            "edge_counts": {
                f"{src}:{dst}:{kind}": count
                for (src, dst, kind), count in sorted(self.edge_counts.items())
            },
            "block_costs": {str(bid): cost for bid, cost in sorted(self.block_costs.items())},
            "loop_bounds": {str(bid): b for bid, b in sorted(self.loop_bounds.items())},
            "infeasible_edges": sorted(
                f"{src}:{dst}:{kind}" for src, dst, kind in self.infeasible_edges
            ),
            "has_duals": self.duals is not None,
            "sequential_bound": self.sequential_bound,
        }


def build_ipet_certificate(
    result, function_name: str = "", sequential_bound: float | None = None
) -> IpetCertificate:
    """Lift the LP witness of an :class:`~repro.wcet.ipet.IpetResult`,
    together with the ``sequential_bound`` the run reports for it.

    The certificate copies every container of the witness, the duals'
    included: a memoized witness serves many certificates (see
    :meth:`~repro.wcet.cache.WcetAnalysisCache.ipet_witness`), and editing
    one certificate must not edit the next.
    """
    if not result.edge_counts:
        raise ValueError(
            "IpetResult carries no LP witness (edge_counts is empty); "
            "was it produced by a pre-witness ipet_wcet?"
        )
    return IpetCertificate(
        function=function_name,
        wcet=result.wcet,
        entry_cost=result.entry_cost,
        edge_counts=dict(result.edge_counts),
        block_costs=dict(result.block_costs),
        loop_bounds=dict(result.loop_bounds),
        infeasible_edges=frozenset(result.infeasible_edges),
        duals=_copied_duals(result.duals),
        sequential_bound=sequential_bound,
    )


def _copied_duals(duals: dict | None) -> dict | None:
    """``duals`` with every nested dict copied (``flow`` and ``loop``)."""
    if duals is None:
        return None
    return {
        name: dict(value) if isinstance(value, dict) else value
        for name, value in duals.items()
    }


def check_ipet_certificate(
    certificate: IpetCertificate, function=None, cfg=None
) -> AnalysisReport:
    """Re-verify an IPET witness against an independently rebuilt CFG.

    Pass either the IR ``function`` (the CFG is rebuilt from scratch, the
    strongest check) or a ``cfg`` directly.
    """
    report = AnalysisReport("certify_ipet")
    cert = certificate
    name = cert.function

    def fail(code: str, message: str, subject: str = "", severity: str = "error"):
        report.add(
            Finding(
                code=code, message=message, function=name, subject=subject,
                severity=severity,
            )
        )

    if cfg is None:
        if function is None:
            raise ValueError("check_ipet_certificate needs a function or a cfg")
        cfg = build_cfg(function, allow_unbounded=True)

    edges = cfg.edges
    keys = {e.key for e in edges}
    if keys != set(cert.edge_counts):
        fail(
            "certify.ipet.edge-set-mismatch",
            f"witness covers {len(cert.edge_counts)} edges, the rebuilt CFG "
            f"has {len(keys)} (symmetric difference: "
            f"{len(keys ^ set(cert.edge_counts))})",
        )
        return report  # every arithmetic check below would be meaningless
    x = cert.edge_counts

    # -- variable bounds ------------------------------------------------ #
    for key in sorted(key for key, count in x.items() if count < 0.0):
        if x[key] < -_tol(x[key]):
            fail(
                "certify.ipet.negative-count",
                f"edge count {x[key]} is negative",
                subject=str(key),
            )
    for key in sorted(cert.infeasible_edges):
        if key in x and abs(x[key]) > _tol(1.0):
            fail(
                "certify.ipet.flow-fact-violated",
                f"edge pinned infeasible by flow facts carries count {x[key]}",
                subject=str(key),
            )
    report.bump("edges_checked", len(edges))

    # -- flow conservation / unit flow ----------------------------------- #
    # one adjacency pass over the edges, then O(1) per block
    in_flow: dict[int, float] = {}
    out_flow: dict[int, float] = {}
    back_flow: dict[int, float] = {}
    for e in edges:
        count = x[e.key]
        in_flow[e.dst.bid] = in_flow.get(e.dst.bid, 0.0) + count
        out_flow[e.src.bid] = out_flow.get(e.src.bid, 0.0) + count
        if e.kind == "back":
            back_flow[e.dst.bid] = back_flow.get(e.dst.bid, 0.0) + count
    for block in cfg.blocks:
        if block is cfg.entry or block is cfg.exit:
            continue
        inflow = in_flow.get(block.bid, 0.0)
        outflow = out_flow.get(block.bid, 0.0)
        if inflow != outflow and abs(inflow - outflow) > _tol(inflow, outflow):
            fail(
                "certify.ipet.flow-conservation",
                f"in-flow {inflow} != out-flow {outflow}",
                subject=f"BB{block.bid}",
            )
        report.bump("blocks_checked")
    entry_out = out_flow.get(cfg.entry.bid, 0.0)
    exit_in = in_flow.get(cfg.exit.bid, 0.0)
    if abs(entry_out - 1.0) > _tol(entry_out):
        fail(
            "certify.ipet.unit-flow",
            f"entry out-flow is {entry_out}, must be exactly 1",
            subject=f"BB{cfg.entry.bid}",
        )
    if abs(exit_in - 1.0) > _tol(exit_in):
        fail(
            "certify.ipet.unit-flow",
            f"exit in-flow is {exit_in}, must be exactly 1",
            subject=f"BB{cfg.exit.bid}",
        )

    # -- loop bounds ----------------------------------------------------- #
    for header_bid in sorted(cfg.back_edges):
        if header_bid not in cert.loop_bounds:
            fail(
                "certify.ipet.unbounded-loop",
                "loop header carries no trip-count bound in the witness",
                subject=f"BB{header_bid}",
            )
    known_bids = {b.bid for b in cfg.blocks}
    for header_bid, bound in sorted(cert.loop_bounds.items()):
        if header_bid not in known_bids:
            fail(
                "certify.ipet.stray-loop-bound",
                "claimed bound for a block absent from the rebuilt CFG",
                subject=f"BB{header_bid}",
                severity="warning",
            )
            continue
        back = back_flow.get(header_bid, 0.0)
        entry_flow = in_flow.get(header_bid, 0.0) - back
        allowed = float(bound) * entry_flow
        if back > allowed and back > allowed + _tol(back, allowed):
            fail(
                "certify.ipet.loop-bound-violated",
                f"back-edge flow {back} exceeds bound {bound} x entry flow "
                f"{entry_flow}",
                subject=f"BB{header_bid}",
            )
        report.bump("loops_checked")

    # -- the objective recomputes to the reported WCET ------------------- #
    missing_costs = sorted(b.bid for b in cfg.blocks if b.bid not in cert.block_costs)
    if missing_costs:
        fail(
            "certify.ipet.cost-coverage",
            "witness carries no cost for block(s) "
            + ", ".join(f"BB{b}" for b in missing_costs),
        )
        return report
    entry_cost = cert.block_costs[cfg.entry.bid]
    if abs(entry_cost - cert.entry_cost) > _tol(entry_cost, cert.entry_cost):
        fail(
            "certify.ipet.entry-cost-mismatch",
            f"claimed entry cost {cert.entry_cost} differs from the entry "
            f"block's cost {entry_cost}",
            subject=f"BB{cfg.entry.bid}",
        )
    objective = cert.entry_cost + sum(
        cert.block_costs[e.dst.bid] * x[e.key] for e in edges
    )
    if abs(objective - cert.wcet) > _tol(objective, cert.wcet):
        fail(
            "certify.ipet.objective-mismatch",
            f"objective recomputed from the witness is {objective}, the "
            f"claimed WCET is {cert.wcet}",
        )

    # -- the reported sequential bound is the optimum --------------------- #
    if cert.sequential_bound is not None:
        claimed = cert.sequential_bound
        # flow facts can only tighten the LP below the structural bound
        plain = not cert.infeasible_edges and cert.loop_bounds == cfg.loop_bounds
        gap = claimed - cert.wcet
        if (abs(gap) if plain else -gap) > _tol(claimed, cert.wcet):
            relation = "differs from" if plain else "lies below"
            fail(
                "certify.ipet.sequential-bound-mismatch",
                f"the reported sequential bound {claimed} {relation} the IPET "
                f"optimum {cert.wcet}",
            )

    # -- optimality witness (duality) ------------------------------------ #
    if cert.duals is None:
        fail(
            "certify.ipet.dual-missing",
            "witness carries no dual values: the claimed WCET is not proven "
            "maximal",
        )
    else:
        _check_duals(cert, cfg, report, fail)
    return report


def _check_duals(cert: IpetCertificate, cfg, report: AnalysisReport, fail) -> None:
    """Dual feasibility + zero duality gap => the primal witness is optimal.

    The producer solves the *minimisation* ``min c.x`` with
    ``c_e = -cost(dst(e))``; its optimum equals ``entry_cost - wcet``.  With
    equality rows (interior flow, entry, exit) and inequality rows (one per
    bounded loop header), LP duality for ``x >= 0`` requires reduced costs
    ``c - A_eq^T y_eq - A_ub^T y_ub >= 0`` and the dual objective
    ``b.y = y_entry + y_exit`` (every other right-hand side is 0) to equal
    the primal optimum.  The loop rows are ``<=`` rows of a minimisation,
    so their duals must be non-positive: a positive one turns a pinned back
    edge's unchecked reduced cost into slack on the loop's entry edge.
    """
    duals = cert.duals
    try:
        y_flow = {int(bid): float(v) for bid, v in duals["flow"].items()}
        y_entry = float(duals["entry"])
        y_exit = float(duals["exit"])
        y_loop = {int(bid): float(v) for bid, v in duals["loop"].items()}
    except (KeyError, TypeError, ValueError):
        fail(
            "certify.ipet.dual-malformed",
            "dual witness is not in the semantic {flow, entry, exit, loop} "
            "format",
        )
        return
    interior = {
        b.bid for b in cfg.blocks if b is not cfg.entry and b is not cfg.exit
    }
    if set(y_flow) != interior or set(y_loop) != set(cert.loop_bounds):
        fail(
            "certify.ipet.dual-coverage",
            "dual witness does not cover exactly the interior blocks and "
            "bounded loop headers",
        )
        return
    for bid, y in sorted(y_loop.items()):
        if y > 0.0 and y > _tol(y):
            fail(
                "certify.ipet.dual-sign",
                f"loop dual {y} is positive: the dual of a <= row of the "
                "minimisation must be <= 0",
                subject=f"BB{bid}",
            )
    primal = cert.entry_cost - cert.wcet  # the min-problem optimum
    dual_objective = y_entry + y_exit
    if abs(primal - dual_objective) > _tol(primal, dual_objective):
        fail(
            "certify.ipet.duality-gap",
            f"dual objective {dual_objective} differs from the primal "
            f"optimum {primal}: the claimed WCET is not proven maximal",
        )
    pinned = cert.infeasible_edges
    for e in cfg.edges:
        if e.key in pinned:
            continue  # pinned variables carry free bound duals
        c_e = -cert.block_costs[e.dst.bid]
        contribution = 0.0
        if e.dst.bid in interior:
            contribution += y_flow[e.dst.bid]
        if e.src.bid in interior:
            contribution -= y_flow[e.src.bid]
        if e.src is cfg.entry:
            contribution += y_entry
        if e.dst is cfg.exit:
            contribution += y_exit
        if e.dst.bid in y_loop:
            bound = float(cert.loop_bounds[e.dst.bid])
            contribution += (1.0 if e.kind == "back" else -bound) * y_loop[e.dst.bid]
        reduced = c_e - contribution
        if reduced < 0.0 and reduced < -_tol(c_e, contribution):
            fail(
                "certify.ipet.dual-infeasible",
                f"reduced cost {reduced} is negative: the dual values do not "
                "certify optimality",
                subject=str(e.key),
            )
    report.bump("duals_checked", len(cfg.edges))
