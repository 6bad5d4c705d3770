"""Loop transformations: unrolling, fission, index-set splitting, strip-mining.

These are the "predictability oriented task parallelism extraction through
loop transformations" of paper Section II-B.  Index-set splitting in
particular is cited by the paper (reference [10]) as a transformation whose
control overhead hurts average-case performance but which is "perfectly
viable and relevant in a predictable performance context": splitting a loop
with an interior condition into two condition-free loops removes the branch
from the worst-case path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.expressions import BinOp, Const, Var, substitute, try_evaluate_constant
from repro.ir.program import Function
from repro.ir.statements import Block, For, If, Stmt
from repro.ir.visitors import StatementTransformer, clone_block
from repro.transforms.base import FunctionPass, PassReport


def _constant_bounds(loop: For) -> tuple[int, int] | None:
    lower = try_evaluate_constant(loop.lower)
    upper = try_evaluate_constant(loop.upper)
    if lower is None or upper is None:
        return None
    return int(lower), int(upper)


@dataclass
class LoopUnrollPass(FunctionPass):
    """Fully unroll innermost counted loops with small constant trip counts.

    Unrolling removes per-iteration loop overhead from the WCET and exposes
    constant indices to later passes; it is only applied to loops with at most
    ``max_trip_count`` iterations to bound code growth.
    """

    max_trip_count: int = 8
    name = "loop_unroll"

    def run(self, function: Function) -> PassReport:
        unrolled = 0
        limit = self.max_trip_count

        class _Unroller(StatementTransformer):
            def visit_for(self, stmt: For):
                nonlocal unrolled
                bounds = _constant_bounds(stmt)
                if bounds is None:
                    return stmt
                # innermost only: no nested loops in the body
                if any(isinstance(s, For) for s in stmt.body.walk() if s is not stmt.body):
                    return stmt
                lower, upper = bounds
                trip = max(0, -(-(upper - lower) // stmt.step)) if stmt.step > 0 else 0
                if trip == 0 or trip > limit:
                    return stmt
                unrolled += 1
                replacement: list[Stmt] = []
                value = lower
                while value < upper:
                    body_copy = clone_block(stmt.body)
                    mapping = {stmt.index.name: Const(value)}
                    replacement.extend(_substitute_block(body_copy, mapping).stmts)
                    value += stmt.step
                return replacement

        function.body = _Unroller().transform_block(function.body)
        return PassReport(self.name, function.name, unrolled > 0, {"unrolled_loops": unrolled})


def _substitute_block(block: Block, mapping: dict[str, Const]) -> Block:
    class _Sub(StatementTransformer):
        def visit_expr(self, expr):
            return substitute(expr, mapping)

    return _Sub().transform_block(block)


@dataclass
class LoopFissionPass(FunctionPass):
    """Split loops whose body is a sequence of independent statements.

    A loop ``for i { S1; S2 }`` is split into ``for i { S1 }; for i { S2 }``
    when neither statement writes a name the other reads or writes (see
    :func:`_independent_groups`).  Fission creates more, smaller tasks for
    the HTG extractor -- finer-grain parallelism at the price of extra loop
    overhead.
    """

    name = "loop_fission"

    def run(self, function: Function) -> PassReport:
        split = 0

        class _Fission(StatementTransformer):
            def visit_for(self, stmt: For):
                nonlocal split
                if len(stmt.body.stmts) < 2:
                    return stmt
                header = stmt.lower.variables_read() | stmt.upper.variables_read()
                header.add(stmt.index.name)
                groups = _independent_groups(stmt.body.stmts, header)
                if len(groups) < 2:
                    return stmt
                split += 1
                loops: list[Stmt] = []
                for group in groups:
                    loops.append(
                        For(
                            index=stmt.index,
                            lower=stmt.lower,
                            upper=stmt.upper,
                            body=Block(list(group)),
                            step=stmt.step,
                            max_trip_count=stmt.max_trip_count,
                            parallelizable=stmt.parallelizable,
                        )
                    )
                return loops

        function.body = _Fission().transform_block(function.body)
        return PassReport(self.name, function.name, split > 0, {"fissioned_loops": split})


def _independent_groups(stmts: list[Stmt], header: set[str]) -> list[list[Stmt]]:
    """Partition a loop body into pairwise independent groups, in program order.

    Two statements conflict when one writes a name the other reads or
    writes; at name level this covers loop-carried flow, anti and output
    dependences alike.  Every statement also reads the loop ``header``
    names (index and bounds), which each split loop re-evaluates.  The
    groups are the connected components of the conflict relation, each
    keeping its statements in program order and ordered by its first one,
    so no two groups touch a name either writes and the split loops are
    legal in any order.
    """
    # (statement positions, names read, names written) per component
    groups: list[tuple[list[int], set[str], set[str]]] = []
    for position, stmt in enumerate(stmts):
        members, reads = [position], set(header)
        writes: set[str] = set()
        for s in stmt.walk():
            reads |= s.variables_read()
            writes |= s.variables_written()
        separate = []
        for group in groups:
            group_members, group_reads, group_writes = group
            if writes & (group_reads | group_writes) or reads & group_writes:
                members += group_members
                reads |= group_reads
                writes |= group_writes
            else:
                separate.append(group)
        groups = separate + [(members, reads, writes)]
    groups.sort(key=lambda group: min(group[0]))
    return [[stmts[k] for k in sorted(members)] for members, _, _ in groups]


@dataclass
class IndexSetSplittingPass(FunctionPass):
    """Split loops at conditions of the form ``i < K`` / ``i >= K``.

    When a loop body is a single ``if (i < K) A else B`` (with constant K and
    ``i`` the loop variable), the loop is split into ``[lower, K)`` running A
    and ``[K, upper)`` running B, removing the branch entirely (Griebl et al.,
    reference [10] of the paper).
    """

    name = "index_set_splitting"

    def run(self, function: Function) -> PassReport:
        performed = 0

        class _Splitter(StatementTransformer):
            def visit_for(self, stmt: For):
                nonlocal performed
                bounds = _constant_bounds(stmt)
                if bounds is None or len(stmt.body.stmts) != 1:
                    return stmt
                inner = stmt.body.stmts[0]
                if not isinstance(inner, If):
                    return stmt
                pivot = _split_point(inner.cond, stmt.index.name)
                if pivot is None:
                    return stmt
                lower, upper = bounds
                if not (lower < pivot < upper):
                    return stmt
                performed += 1
                first = For(
                    index=stmt.index,
                    lower=Const(lower),
                    upper=Const(pivot),
                    body=clone_block(inner.then_body),
                    step=stmt.step,
                )
                second = For(
                    index=stmt.index,
                    lower=Const(pivot),
                    upper=Const(upper),
                    body=clone_block(inner.else_body),
                    step=stmt.step,
                )
                result: list[Stmt] = [first]
                if second.body.stmts:
                    result.append(second)
                return result

        function.body = _Splitter().transform_block(function.body)
        return PassReport(self.name, function.name, performed > 0, {"split_loops": performed})


def _split_point(cond, index_name: str) -> int | None:
    if not isinstance(cond, BinOp):
        return None
    if not (isinstance(cond.left, Var) and cond.left.name == index_name):
        return None
    threshold = try_evaluate_constant(cond.right)
    if threshold is None:
        return None
    if cond.op == "<":
        return int(threshold)
    if cond.op == "<=":
        return int(threshold) + 1
    return None


@dataclass
class StripMinePass(FunctionPass):
    """Strip-mine (1-D tile) large counted loops into nested chunk loops.

    ``for i in [0, N)`` becomes ``for ii in [0, N/T): for i in [ii*T, ii*T+T)``
    which gives the HTG extractor natural chunk boundaries and improves
    scratchpad locality for blocked data transfers.
    """

    tile: int = 16
    min_trip_count: int = 32
    name = "strip_mine"

    def run(self, function: Function) -> PassReport:
        mined = 0
        tile = self.tile
        min_trip = self.min_trip_count

        class _Miner(StatementTransformer):
            def visit_for(self, stmt: For):
                nonlocal mined
                bounds = _constant_bounds(stmt)
                if bounds is None:
                    return stmt
                lower, upper = bounds
                trip = upper - lower
                if trip < min_trip or trip % tile != 0 or stmt.step != 1 or lower != 0:
                    return stmt
                mined += 1
                outer_index = Var(f"{stmt.index.name}{stmt.index.name}", stmt.index.type)
                inner = For(
                    index=stmt.index,
                    lower=BinOp("*", outer_index, Const(tile)),
                    upper=BinOp("+", BinOp("*", outer_index, Const(tile)), Const(tile)),
                    body=stmt.body,
                    step=1,
                    max_trip_count=tile,
                    parallelizable=stmt.parallelizable,
                )
                outer = For(
                    index=outer_index,
                    lower=Const(0),
                    upper=Const(trip // tile),
                    body=Block([inner]),
                    step=1,
                    parallelizable=stmt.parallelizable,
                )
                return outer

        function.body = _Miner().transform_block(function.body)
        return PassReport(self.name, function.name, mined > 0, {"strip_mined_loops": mined})
