"""Generic statement/expression rewriting infrastructure.

Transformation passes (:mod:`repro.transforms`) subclass
:class:`StatementTransformer` and override the hooks for the node kinds they
care about.  Rewriting is copy-on-write: a node is rebuilt only when one of
its children changed, so an untouched subtree comes back as the very same
object and IR built once is never mutated.
"""

from __future__ import annotations

import copy
import dataclasses
import operator
from typing import Any, Callable

from repro.ir.expressions import ArrayRef, BinOp, Call, Const, Expr, UnOp, Var
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


def _rebuild(node: Any, **children: Any) -> Any:
    """``node`` itself when every child is the very object it holds (element
    by element for sequences), else a copy holding the new children.

    The copy keeps every other field (a block's ``label``, say); a rebuilt
    statement gets a fresh ``sid``.
    """
    for name, child in children.items():
        old = getattr(node, name)
        if child is not old and not (
            isinstance(child, (list, tuple))
            and len(child) == len(old)
            and all(map(operator.is_, child, old))
        ):
            return dataclasses.replace(node, **children)
    return node


def map_expression(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Bottom-up rewrite of an expression tree: children first, then ``fn``.

    Copy-on-write: ``fn`` receives ``expr`` itself unless a child changed,
    so a tree ``fn`` leaves alone is returned as is.
    """
    if isinstance(expr, BinOp):
        left, right = map_expression(expr.left, fn), map_expression(expr.right, fn)
        expr = _rebuild(expr, left=left, right=right)
    elif isinstance(expr, UnOp):
        expr = _rebuild(expr, operand=map_expression(expr.operand, fn))
    elif isinstance(expr, ArrayRef):
        expr = _rebuild(expr, indices=tuple(map_expression(i, fn) for i in expr.indices))
    elif isinstance(expr, Call):
        expr = _rebuild(expr, args=tuple(map_expression(a, fn) for a in expr.args))
    elif not isinstance(expr, (Const, Var)):
        raise TypeError(f"unknown expression {type(expr).__name__}")
    return fn(expr)


class StatementTransformer:
    """Rewrites a statement tree copy-on-write, letting subclasses rewrite
    selected nodes.

    Children are transformed first.  Each ``visit_*`` hook then receives the
    original node when none of its children changed, or a rebuilt node
    holding the new children otherwise; hooks must not mutate what they
    receive (it may be shared with the IR being transformed).  A hook
    returns either a statement or a list of statements (to splice multiple
    statements in place of one, e.g. loop fission).  A block whose
    statements all come back unchanged is returned as is; a rebuilt block
    keeps its ``label``.
    """

    # expression hook ---------------------------------------------------- #
    def visit_expr(self, expr: Expr) -> Expr:
        return expr

    def _rewrite_expr(self, expr: Expr) -> Expr:
        return map_expression(expr, self.visit_expr)

    # statement hooks ---------------------------------------------------- #
    def visit_assign(self, stmt: Assign) -> Stmt | list[Stmt]:
        return stmt

    def visit_if(self, stmt: If) -> Stmt | list[Stmt]:
        return stmt

    def visit_for(self, stmt: For) -> Stmt | list[Stmt]:
        return stmt

    def visit_while(self, stmt: While) -> Stmt | list[Stmt]:
        return stmt

    def visit_return(self, stmt: Return) -> Stmt | list[Stmt]:
        return stmt

    def visit_expr_stmt(self, stmt: ExprStmt) -> Stmt | list[Stmt]:
        return stmt

    # driver -------------------------------------------------------------- #
    def transform_block(self, block: Block) -> Block:
        stmts: list[Stmt] = []
        for stmt in block.stmts:
            result = self.transform_statement(stmt)
            if isinstance(result, list):
                stmts.extend(result)
            else:
                stmts.append(result)
        return _rebuild(block, stmts=stmts)

    def transform_statement(self, stmt: Stmt) -> Stmt | list[Stmt]:
        rewrite, block = self._rewrite_expr, self.transform_block
        if isinstance(stmt, Assign):
            target = stmt.target
            if isinstance(target, ArrayRef):
                target = rewrite(target)  # type: ignore[assignment]
            return self.visit_assign(_rebuild(stmt, target=target, value=rewrite(stmt.value)))
        if isinstance(stmt, Block):
            return block(stmt)
        if isinstance(stmt, If):
            cond = rewrite(stmt.cond)
            then_body, else_body = block(stmt.then_body), block(stmt.else_body)
            rebuilt = _rebuild(stmt, cond=cond, then_body=then_body, else_body=else_body)
            return self.visit_if(rebuilt)
        if isinstance(stmt, For):
            lower, upper = rewrite(stmt.lower), rewrite(stmt.upper)
            return self.visit_for(_rebuild(stmt, lower=lower, upper=upper, body=block(stmt.body)))
        if isinstance(stmt, While):
            cond = rewrite(stmt.cond)
            return self.visit_while(_rebuild(stmt, cond=cond, body=block(stmt.body)))
        if isinstance(stmt, Return):
            value = None if stmt.value is None else rewrite(stmt.value)
            return self.visit_return(_rebuild(stmt, value=value))
        if isinstance(stmt, ExprStmt):
            return self.visit_expr_stmt(_rebuild(stmt, expr=rewrite(stmt.expr)))
        raise TypeError(f"unknown statement {type(stmt).__name__}")


def splice_block(block: Block, replacements: list) -> Block:
    """``block`` with each statement replaced by its entry of ``replacements``.

    ``None`` keeps the statement, a list splices in its statements and a
    statement takes its place -- what
    :meth:`StatementTransformer.transform_block` does with the results of
    ``transform_statement``.  Copy-on-write: when every entry is ``None``,
    ``block`` itself comes back.
    """
    stmts: list[Stmt] = []
    for stmt, replacement in zip(block.stmts, replacements, strict=True):
        if replacement is None:
            stmts.append(stmt)
        elif isinstance(replacement, list):
            stmts.extend(replacement)
        else:
            stmts.append(replacement)
    return _rebuild(block, stmts=stmts)


def clone_block(block: Block) -> Block:
    """Deep copy of a statement block (fresh statement identities)."""
    return copy.deepcopy(block)
