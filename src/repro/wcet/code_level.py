"""Code-level (isolated, contention-free) WCET analysis.

The structural algorithm walks the statement tree and applies the cost
semantics stated in :mod:`repro.wcet.hardware_model` to the worst case:

* expression cost = sum of operation costs + memory access costs;
* ``if`` = condition + branch penalty + the costlier arm, with the larger
  of the arms' shared-access counts;
* counted loops multiply the body plus the per-iteration loop overhead by
  the worst-case trip count;
* bounded ``while`` loops use their annotated bound.

Because the IR is structured, this bound is exact for the cost model (it is
the longest syntactic path), and it equals IPET without flow facts (an
identity the test suite checks).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from repro.htg.task import Task
from repro.ir.expressions import ArrayRef, Expr
from repro.ir.loops import loop_trip_count
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
from repro.wcet.hardware_model import HardwareCostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wcet.cache import WcetAnalysisCache


@dataclass
class WcetBreakdown:
    """WCET of a code fragment split into its cost components."""

    total: float = 0.0
    compute: float = 0.0
    memory: float = 0.0
    control: float = 0.0
    shared_accesses: int = 0

    def add(self, other: "WcetBreakdown") -> None:
        self.total += other.total
        self.compute += other.compute
        self.memory += other.memory
        self.control += other.control
        self.shared_accesses += other.shared_accesses

    def scaled(self, factor: float) -> "WcetBreakdown":
        return WcetBreakdown(
            total=self.total * factor,
            compute=self.compute * factor,
            memory=self.memory * factor,
            control=self.control * factor,
            shared_accesses=int(round(self.shared_accesses * factor)),
        )

    def maxed(self, other: "WcetBreakdown") -> "WcetBreakdown":
        """Worst arm of a conditional: the cycles of the arm with the larger
        total, and the larger of the two shared-access counts."""
        worst = self if self.total >= other.total else other
        return replace(worst, shared_accesses=max(self.shared_accesses, other.shared_accesses))


def _expr_cost(expr: Expr, function: Function, model: HardwareCostModel, average: bool) -> WcetBreakdown:
    result = WcetBreakdown()
    for op, count in expr.operation_count().items():
        cycles = model.average_op_cycles(op) if average else model.op_cycles(op)
        result.compute += cycles * count
    for ref in expr.array_reads():
        if average:
            cycles = model.average_read_cycles(function, ref.array)
        else:
            cycles = model.read_cycles(function, ref.array)
        result.memory += cycles
        if model.is_shared(function, ref.array):
            result.shared_accesses += 1
    result.total = result.compute + result.memory
    return result


def statement_wcet(
    stmt: Stmt,
    function: Function,
    model: HardwareCostModel,
    average: bool = False,
    body_wcet: Callable[[Block], WcetBreakdown] | None = None,
) -> WcetBreakdown:
    """Worst-case cost of one statement subtree on the given core.

    ``body_wcet``, when given, prices the body of each top-level ``for``
    (``stmt`` itself, or one reached through blocks only) and must return
    ``statement_wcet`` of it: the code-level cache passes its memo of those
    prices, so the loop chunks that share one body price it once.  Without
    it (the uncached analysis) every body is walked.
    """
    if isinstance(stmt, Assign):
        result = WcetBreakdown()
        result.add(_expr_cost(stmt.value, function, model, average))
        if isinstance(stmt.target, ArrayRef):
            for idx in stmt.target.indices:
                result.add(_expr_cost(idx, function, model, average))
            if average:
                write_cycles = model.average_write_cycles(function, stmt.target.array)
            else:
                write_cycles = model.write_cycles(function, stmt.target.array)
            result.memory += write_cycles
            result.total += write_cycles
            if model.is_shared(function, stmt.target.array):
                result.shared_accesses += 1
        else:
            result.compute += model.scalar_assign_cycles
            result.total += model.scalar_assign_cycles
        return result
    if isinstance(stmt, (Return, ExprStmt)):
        result = WcetBreakdown()
        for expr in stmt.expressions():
            result.add(_expr_cost(expr, function, model, average))
        return result
    if isinstance(stmt, Block):
        result = WcetBreakdown()
        for child in stmt.stmts:
            result.add(statement_wcet(child, function, model, average, body_wcet))
        return result
    if isinstance(stmt, If):
        result = _expr_cost(stmt.cond, function, model, average)
        branch = WcetBreakdown(total=model.branch_cycles, control=model.branch_cycles)
        result.add(branch)
        then_cost = statement_wcet(stmt.then_body, function, model, average)
        else_cost = statement_wcet(stmt.else_body, function, model, average)
        result.add(then_cost.maxed(else_cost))
        return result
    if isinstance(stmt, For):
        trip = loop_trip_count(stmt)
        result = WcetBreakdown()
        result.add(_expr_cost(stmt.lower, function, model, average))
        result.add(_expr_cost(stmt.upper, function, model, average))
        if body_wcet is None:
            body = statement_wcet(stmt.body, function, model, average)
        else:
            body = body_wcet(stmt.body)
        overhead = WcetBreakdown(
            total=model.loop_overhead_cycles, control=model.loop_overhead_cycles
        )
        per_iteration = WcetBreakdown()
        per_iteration.add(body)
        per_iteration.add(overhead)
        result.add(per_iteration.scaled(trip))
        return result
    if isinstance(stmt, While):
        result = WcetBreakdown()
        cond = _expr_cost(stmt.cond, function, model, average)
        result.add(cond.scaled(stmt.max_trip_count + 1))
        body = statement_wcet(stmt.body, function, model, average)
        overhead = WcetBreakdown(
            total=model.loop_overhead_cycles, control=model.loop_overhead_cycles
        )
        per_iteration = WcetBreakdown()
        per_iteration.add(body)
        per_iteration.add(overhead)
        result.add(per_iteration.scaled(stmt.max_trip_count))
        return result
    raise TypeError(f"unsupported statement {type(stmt).__name__}")


def analyze_function_wcet(
    function: Function,
    model: HardwareCostModel,
    average: bool = False,
    cache: "WcetAnalysisCache | None" = None,
) -> WcetBreakdown:
    """Isolated WCET (or average-case estimate) of a whole function body."""
    if cache is not None:
        return cache.function_wcet(function, model, average)
    return statement_wcet(function.body, function, model, average)


def analyze_task_wcet(
    task: Task,
    function: Function,
    model: HardwareCostModel,
    average: bool = False,
    cache: "WcetAnalysisCache | None" = None,
) -> WcetBreakdown:
    """Isolated WCET of one HTG task (its statement region)."""
    if cache is not None:
        return cache.task_wcet(task, function, model, average)
    return statement_wcet(task.statements, function, model, average)
