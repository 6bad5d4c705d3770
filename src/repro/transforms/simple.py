"""Scalar clean-up passes: constant folding and dead-code elimination.

Both passes rewrite one top-level statement at a time, and each rewrite
is a per-region fact (see :mod:`repro.ir.facts`): read through a memo, a
region an edit round hands over unchanged is not rewritten again.
"""

from __future__ import annotations

from repro.ir.analysis import read_write_sets
from repro.ir.expressions import Const, Expr, Var, try_evaluate_constant
from repro.ir.facts import RegionFacts
from repro.ir.program import Function, Storage
from repro.ir.statements import Assign, For, If, Stmt, While
from repro.ir.visitors import StatementTransformer, splice_block
from repro.transforms.base import FunctionPass, PassReport


class _Folder(StatementTransformer):
    def __init__(self) -> None:
        self.folded = 0

    def visit_expr(self, expr: Expr) -> Expr:
        if isinstance(expr, Const):
            return expr
        value = try_evaluate_constant(expr)
        if value is None:
            return expr
        self.folded += 1
        if isinstance(value, bool):
            return Const(value)
        if isinstance(value, float) and value.is_integer() and abs(value) < 2**31:
            return Const(int(value))
        return Const(value)

    def visit_if(self, stmt: If) -> Stmt | list[Stmt]:
        cond = try_evaluate_constant(stmt.cond)
        if cond is None:
            return stmt
        self.folded += 1
        return list(stmt.then_body.stmts) if cond else list(stmt.else_body.stmts)


def fold_constants(stmt: Stmt) -> tuple[Stmt | list[Stmt] | None, int]:
    """Constant folding of one region: its rewrite (``None`` when nothing
    folds) and the number of folds."""
    folder = _Folder()
    result = folder.transform_statement(stmt)
    return (None if result is stmt else result), folder.folded


class ConstantFoldingPass(FunctionPass):
    """Fold constant sub-expressions and statically-decided branches."""

    name = "constant_folding"

    def __init__(self, facts: RegionFacts | None = None) -> None:
        self.facts = facts

    def run(self, function: Function) -> PassReport:
        facts = self.facts or RegionFacts()
        results = [facts(stmt, fold_constants) for stmt in function.body.stmts]
        function.body = splice_block(function.body, [rewrite for rewrite, _ in results])
        folded = sum(count for _, count in results)
        return PassReport(self.name, function.name, folded > 0, {"folded": folded})


def assigned_scalars(stmt: Stmt) -> frozenset[str]:
    """The scalar variables assigned in the subtree at ``stmt``."""
    return frozenset(
        node.target.name
        for node in stmt.walk()
        if isinstance(node, Assign) and isinstance(node.target, Var)
    )


class _DeadStorePruner(StatementTransformer):
    def __init__(self, dead: frozenset[str]) -> None:
        self.dead = dead
        self.removed = 0

    def visit_assign(self, stmt: Assign) -> Stmt | list[Stmt]:
        if isinstance(stmt.target, Var) and stmt.target.name in self.dead:
            self.removed += 1
            return []
        return stmt


class _EmptyLoopPruner(StatementTransformer):
    def __init__(self) -> None:
        self.cleaned = 0

    def visit_for(self, stmt: For) -> Stmt | list[Stmt]:
        return self._drop_if_empty(stmt)

    def visit_while(self, stmt: While) -> Stmt | list[Stmt]:
        return self._drop_if_empty(stmt)

    def _drop_if_empty(self, stmt: For | While) -> Stmt | list[Stmt]:
        if not stmt.body.stmts:
            self.cleaned += 1
            return []
        return stmt


def prune_dead(
    stmt: Stmt, dead: frozenset[str]
) -> tuple[list[Stmt] | None, tuple[int, int]]:
    """Dead-code elimination of one region: its rewrite (``None`` when
    unchanged) without the assignments to the scalars named in ``dead``,
    then without the loops left empty, and the two removal counts."""
    pruner, loops = _DeadStorePruner(dead), _EmptyLoopPruner()
    pruned = pruner.transform_statement(stmt)
    out: list[Stmt] = []
    for part in pruned if isinstance(pruned, list) else [pruned]:
        result = loops.transform_statement(part)
        if isinstance(result, list):
            out.extend(result)
        else:
            out.append(result)
    counts = (pruner.removed, loops.cleaned)
    if len(out) == 1 and out[0] is stmt:
        return None, counts
    return out, counts


class DeadCodeEliminationPass(FunctionPass):
    """Remove assignments to local scalars that are never read.

    Array writes and writes to shared/input/output storage are always kept
    (they are observable).  The pass is conservative: it only looks at whole
    names, not at individual elements or live ranges.  Loops left empty
    are removed too.
    """

    name = "dead_code_elimination"

    def __init__(self, facts: RegionFacts | None = None) -> None:
        self.facts = facts

    def run(self, function: Function) -> PassReport:
        facts = self.facts or RegionFacts()
        stmts = function.body.stmts
        # observable: read anywhere, or non-local storage
        observable = {
            decl.name for decl in function.all_decls() if decl.storage is not Storage.LOCAL
        }
        for stmt in stmts:
            observable.update(facts(stmt, read_write_sets)[0])
        results = [
            facts(stmt, prune_dead, facts(stmt, assigned_scalars).difference(observable))
            for stmt in stmts
        ]
        function.body = splice_block(function.body, [rewrite for rewrite, _ in results])
        removed = sum(counts[0] for _, counts in results)
        cleaned = sum(counts[1] for _, counts in results)
        return PassReport(
            self.name,
            function.name,
            removed + cleaned > 0,
            {"removed_assignments": removed, "removed_empty_loops": cleaned},
        )
