"""Static analyses on the IR: read/write sets, shared names, access counts.

These analyses feed three consumers:

* the HTG extractor, which needs per-task read/write sets and the
  function's shared names to build data dependences (a task's worst-case
  shared-access count is the code-level WCET analysis's, see
  :mod:`repro.wcet.code_level`);
* the WCET cache, whose keys embed the names a region references;
* the scratchpad allocator, which ranks every array, shared or not, by its
  worst-case access count (:func:`access_summary`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.ir.expressions import ArrayRef, BinOp, Const, Expr, Var
from repro.ir.program import Function, Storage
from repro.ir.statements import Assign, Block, ExprStmt, For, If, Return, Stmt, While
from repro.ir.loops import loop_trip_count

#: Storage classes visible to every core.
SHARED_STORAGE = (Storage.SHARED, Storage.INPUT, Storage.OUTPUT)


@dataclass
class AccessSummary:
    """Worst-case counts of array accesses performed by a statement subtree.

    ``reads``/``writes`` map array names to worst-case access counts; scalar
    variables are assumed to live in registers and are not counted.
    """

    reads: dict[str, int] = field(default_factory=dict)
    writes: dict[str, int] = field(default_factory=dict)

    def merge(self, other: "AccessSummary") -> None:
        for name, count in other.reads.items():
            self.reads[name] = self.reads.get(name, 0) + count
        for name, count in other.writes.items():
            self.writes[name] = self.writes.get(name, 0) + count

    def scaled(self, factor: int) -> "AccessSummary":
        return AccessSummary(
            reads={k: v * factor for k, v in self.reads.items()},
            writes={k: v * factor for k, v in self.writes.items()},
        )

    def maxed(self, other: "AccessSummary") -> "AccessSummary":
        """Element-wise max of the two summaries (used for if branches)."""
        result = AccessSummary(dict(self.reads), dict(self.writes))
        for name, count in other.reads.items():
            result.reads[name] = max(result.reads.get(name, 0), count)
        for name, count in other.writes.items():
            result.writes[name] = max(result.writes.get(name, 0), count)
        return result


def _expr_array_reads(expr: Expr) -> dict[str, int]:
    counts: dict[str, int] = {}
    for ref in expr.array_reads():
        counts[ref.array] = counts.get(ref.array, 0) + 1
    return counts


def access_summary(stmt: Stmt) -> AccessSummary:
    """Worst-case array access counts for the subtree rooted at ``stmt``.

    Loops multiply their body counts by the worst-case trip count; the two
    arms of an ``if`` contribute the element-wise maximum (the worst case).
    """
    if isinstance(stmt, Assign):
        summary = AccessSummary()
        for expr in stmt.expressions():
            for name, count in _expr_array_reads(expr).items():
                summary.reads[name] = summary.reads.get(name, 0) + count
        if isinstance(stmt.target, ArrayRef):
            summary.writes[stmt.target.array] = summary.writes.get(stmt.target.array, 0) + 1
        return summary
    if isinstance(stmt, (Return, ExprStmt)):
        summary = AccessSummary()
        for expr in stmt.expressions():
            for name, count in _expr_array_reads(expr).items():
                summary.reads[name] = summary.reads.get(name, 0) + count
        return summary
    if isinstance(stmt, Block):
        summary = AccessSummary()
        for child in stmt.stmts:
            summary.merge(access_summary(child))
        return summary
    if isinstance(stmt, If):
        summary = AccessSummary()
        for name, count in _expr_array_reads(stmt.cond).items():
            summary.reads[name] = summary.reads.get(name, 0) + count
        branch = access_summary(stmt.then_body).maxed(access_summary(stmt.else_body))
        summary.merge(branch)
        return summary
    if isinstance(stmt, For):
        trip = loop_trip_count(stmt)
        summary = AccessSummary()
        for expr in stmt.expressions():
            for name, count in _expr_array_reads(expr).items():
                summary.reads[name] = summary.reads.get(name, 0) + count
        summary.merge(access_summary(stmt.body).scaled(trip))
        return summary
    if isinstance(stmt, While):
        summary = AccessSummary()
        for name, count in _expr_array_reads(stmt.cond).items():
            summary.reads[name] = summary.reads.get(name, 0) + count * (stmt.max_trip_count + 1)
        summary.merge(access_summary(stmt.body).scaled(stmt.max_trip_count))
        return summary
    raise TypeError(f"unsupported statement {type(stmt).__name__}")


def read_write_sets(stmt: Stmt) -> tuple[set[str], set[str]]:
    """Names of variables (scalars and arrays) read and written by ``stmt``."""
    reads: set[str] = set()
    writes: set[str] = set()
    for node in stmt.walk():
        reads |= node.variables_read()
        writes |= node.variables_written()
    return reads, writes


def referenced_names(
    stmt: Stmt, body_names: Callable[[Block], frozenset[str]] | None = None
) -> frozenset[str]:
    """Every variable and array name the subtree at ``stmt`` reads or writes.

    Loop indices and assignment targets included: these are all the names
    through which an analysis of the subtree can consult the enclosing
    function's declarations.  ``body_names``, when given, supplies the
    names of the body of each top-level ``for`` (``stmt`` itself, or one
    reached through blocks only) and must return ``referenced_names`` of
    it: the code-level cache passes its memo, so the loop chunks that share
    one body walk it once.
    """
    names: set[str] = set()
    _collect_stmt_names(stmt, names, body_names)
    return frozenset(names)


def _collect_expr_names(expr: Expr, names: set[str]) -> None:
    if isinstance(expr, Var):
        names.add(expr.name)
    elif isinstance(expr, BinOp):
        _collect_expr_names(expr.left, names)
        _collect_expr_names(expr.right, names)
    elif not isinstance(expr, Const):
        if isinstance(expr, ArrayRef):
            names.add(expr.array)
        for child in expr.children():
            _collect_expr_names(child, names)


def _collect_stmt_names(
    stmt: Stmt, names: set[str], body_names: Callable[[Block], frozenset[str]] | None = None
) -> None:
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            _collect_stmt_names(child, names, body_names)
    elif isinstance(stmt, Assign):
        _collect_expr_names(stmt.target, names)
        _collect_expr_names(stmt.value, names)
    elif isinstance(stmt, For):
        names.add(stmt.index.name)
        _collect_expr_names(stmt.lower, names)
        _collect_expr_names(stmt.upper, names)
        if body_names is None:
            _collect_stmt_names(stmt.body, names)
        else:
            names.update(body_names(stmt.body))
    elif isinstance(stmt, (If, While, Return, ExprStmt)):
        for expr in stmt.expressions():
            _collect_expr_names(expr, names)
        for child in stmt.children():
            _collect_stmt_names(child, names)
    else:
        raise TypeError(f"unsupported statement {type(stmt).__name__}")


def shared_names(function: Function) -> tuple[frozenset[str], frozenset[str]]:
    """The (array, scalar) names ``function`` declares in shared storage."""
    arrays: set[str] = set()
    scalars: set[str] = set()
    for decl in function.all_decls():
        if decl.storage in SHARED_STORAGE:
            (arrays if decl.is_array else scalars).add(decl.name)
    return frozenset(arrays), frozenset(scalars)
