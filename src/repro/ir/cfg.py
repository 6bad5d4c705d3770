"""Control-flow graph construction from the structured IR.

The CFG is consumed by the IPET-based WCET engine (:mod:`repro.wcet.ipet`),
which formulates the worst-case path search as a linear program over basic
block execution counts, exactly like binary-level analyzers do.  Because the
IR is structured the CFG is reducible by construction: if-diamonds and
properly nested loops, which is what lets the engine solve that LP on the
loop structure instead of calling an LP solver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.ir.expressions import Expr
from repro.ir.program import Function
from repro.ir.statements import (
    Assign,
    Block,
    ExprStmt,
    For,
    If,
    Return,
    Stmt,
    While,
)


@dataclass
class BasicBlock:
    """A maximal straight-line sequence of simple statements."""

    bid: int
    statements: list[Stmt] = field(default_factory=list)
    #: Condition expressions evaluated at the end of this block (loop/branch
    #: headers); used for cost accounting.
    conditions: list[Expr] = field(default_factory=list)
    label: str = ""

    def __hash__(self) -> int:
        return hash(self.bid)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BasicBlock) and other.bid == self.bid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BB{self.bid}({self.label})"


#: The only edge kinds the IPET formulation and the dataflow analyses
#: understand; :meth:`_CFGBuilder.edge` rejects anything else.
EDGE_KINDS = ("fallthrough", "taken", "back", "exit")


@dataclass
class CFGEdge:
    """A directed control-flow edge."""

    src: BasicBlock
    dst: BasicBlock
    kind: str = "fallthrough"  # one of EDGE_KINDS
    #: Stable identity of the edge: ``(src bid, dst bid, kind)``.  Unlike
    #: ``id(edge)`` it survives CFG copying/caching, so it is what the IPET
    #: LP and the flow-fact format key edges by.  Set once at construction:
    #: an edge's endpoints and kind never change.
    key: tuple[int, int, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.key = (self.src.bid, self.dst.bid, self.kind)


@dataclass
class ControlFlowGraph:
    """Per-function control-flow graph with loop-bound annotations."""

    function_name: str
    blocks: list[BasicBlock] = field(default_factory=list)
    edges: list[CFGEdge] = field(default_factory=list)
    entry: BasicBlock | None = None
    exit: BasicBlock | None = None
    #: Map of loop-header block id -> worst-case trip count.  Headers whose
    #: bound could not be derived (only possible when the CFG was built with
    #: ``allow_unbounded=True``) are absent here but present in
    #: :attr:`back_edges` / :attr:`loop_stmts`.
    loop_bounds: dict[int, int] = field(default_factory=dict)
    #: Map of loop-header block id -> back-edge source block id.
    back_edges: dict[int, int] = field(default_factory=dict)
    #: Map of loop-header block id -> the ``For``/``While`` statement it was
    #: lowered from (used by the dataflow analyses to model the loop index
    #: and by the flow-fact derivation to re-derive bounds).
    loop_stmts: dict[int, Stmt] = field(default_factory=dict)

    def successors(self, block: BasicBlock) -> list[BasicBlock]:
        return [e.dst for e in self.edges if e.src is block]

    def predecessors(self, block: BasicBlock) -> list[BasicBlock]:
        return [e.src for e in self.edges if e.dst is block]

    def edge_pairs(self) -> list[tuple[int, int]]:
        return [(e.src.bid, e.dst.bid) for e in self.edges]

    def reachable_blocks(self) -> set[int]:
        """Block ids reachable from the entry along CFG edges."""
        if self.entry is None:
            return set()
        succs: dict[int, list[int]] = {}
        for edge in self.edges:
            succs.setdefault(edge.src.bid, []).append(edge.dst.bid)
        seen = {self.entry.bid}
        stack = [self.entry.bid]
        while stack:
            for nxt in succs.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen


class _CFGBuilder:
    def __init__(self, name: str, allow_unbounded: bool = False) -> None:
        self.cfg = ControlFlowGraph(name)
        self._ids = itertools.count(0)
        #: When set, loops without a derivable trip count are recorded in
        #: ``loop_stmts``/``back_edges`` but omitted from ``loop_bounds``
        #: instead of raising -- the value-range flow-fact derivation may
        #: still bound them later.
        self._allow_unbounded = allow_unbounded

    def new_block(self, label: str = "") -> BasicBlock:
        block = BasicBlock(next(self._ids), label=label)
        self.cfg.blocks.append(block)
        return block

    def edge(self, src: BasicBlock, dst: BasicBlock, kind: str = "fallthrough") -> None:
        if kind not in EDGE_KINDS:
            raise ValueError(
                f"unknown CFG edge kind {kind!r} for {src!r} -> {dst!r}; "
                f"allowed kinds: {', '.join(EDGE_KINDS)}"
            )
        self.cfg.edges.append(CFGEdge(src, dst, kind))

    def build(self, function: Function) -> ControlFlowGraph:
        from repro.ir.loops import loop_trip_count

        entry = self.new_block("entry")
        self.cfg.entry = entry
        exit_block = self.new_block("exit")
        self.cfg.exit = exit_block

        current = self._lower_block(function.body, entry, loop_trip_count)
        self.edge(current, exit_block, "exit")
        return self.cfg

    def _lower_block(self, block: Block, current: BasicBlock, trip_count_fn) -> BasicBlock:
        for stmt in block.stmts:
            current = self._lower_stmt(stmt, current, trip_count_fn)
        return current

    def _lower_stmt(self, stmt: Stmt, current: BasicBlock, trip_count_fn) -> BasicBlock:
        if isinstance(stmt, (Assign, Return, ExprStmt)):
            current.statements.append(stmt)
            return current
        if isinstance(stmt, Block):
            return self._lower_block(stmt, current, trip_count_fn)
        if isinstance(stmt, If):
            current.conditions.append(stmt.cond)
            then_entry = self.new_block("then")
            else_entry = self.new_block("else")
            join = self.new_block("join")
            self.edge(current, then_entry, "taken")
            self.edge(current, else_entry, "fallthrough")
            then_exit = self._lower_block(stmt.then_body, then_entry, trip_count_fn)
            else_exit = self._lower_block(stmt.else_body, else_entry, trip_count_fn)
            self.edge(then_exit, join)
            self.edge(else_exit, join)
            return join
        if isinstance(stmt, (For, While)):
            header = self.new_block("loop_header")
            body_entry = self.new_block("loop_body")
            after = self.new_block("loop_exit")
            if isinstance(stmt, For):
                header.conditions.append(stmt.upper)
            else:
                header.conditions.append(stmt.cond)
            self.edge(current, header)
            self.edge(header, body_entry, "taken")
            self.edge(header, after, "exit")
            body_exit = self._lower_block(stmt.body, body_entry, trip_count_fn)
            self.edge(body_exit, header, "back")
            if self._allow_unbounded:
                from repro.ir.loops import LoopBoundError

                try:
                    self.cfg.loop_bounds[header.bid] = trip_count_fn(stmt)
                except LoopBoundError:
                    pass
            else:
                self.cfg.loop_bounds[header.bid] = trip_count_fn(stmt)
            self.cfg.back_edges[header.bid] = body_exit.bid
            self.cfg.loop_stmts[header.bid] = stmt
            return after
        raise TypeError(f"unsupported statement {type(stmt).__name__}")


def build_cfg(function: Function, allow_unbounded: bool = False) -> ControlFlowGraph:
    """Build the control-flow graph of ``function``.

    With ``allow_unbounded=True`` loops whose trip count cannot be derived
    from their annotations do not raise :class:`repro.ir.loops.LoopBoundError`;
    their headers are simply missing from :attr:`ControlFlowGraph.loop_bounds`
    (callers such as the flow-fact derivation may bound them by other means).
    """
    return _CFGBuilder(function.name, allow_unbounded=allow_unbounded).build(function)
